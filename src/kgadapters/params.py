"""Named parameter collections and group checksums.

Parameters are shared, not copied. Every array a ParamSet holds is
read-only: `add` and `set_data` clear its `writeable` flag, so an in-place
write raises ValueError instead of silently changing every set that shares
it. `copy` and `merge` therefore hand on the arrays themselves, and a model
derived from another (adapters inserted, fusion added, a copy to train)
shares its frozen backbone with its source. An update rebinds a name to a
new array through `set_data`, as `optim.adam_step` does, and leaves every
other set that held the old array as it was.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _frozen(value) -> np.ndarray:
    arr = np.asarray(value)
    arr.flags.writeable = False
    return arr


class ParamSet:
    """Mapping name -> read-only array. Iteration order is lexicographic."""

    def __init__(self):
        self._data: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._data:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._data[name] = _frozen(value)

    def __iter__(self):
        return iter(sorted(self._data))

    def get(self, name: str) -> np.ndarray:
        return self._data[name]

    def set_data(self, name: str, value: np.ndarray) -> None:
        arr = np.asarray(value)
        if arr.shape != self._data[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {arr.shape} vs {self._data[name].shape}")
        self._data[name] = _frozen(arr)

    def names(self, prefix: str = "") -> list[str]:
        return [n for n in self if n.startswith(prefix)]

    def checksum(self, prefix: str = "") -> str:
        """SHA-256 over names, shapes and raw bytes of a parameter group."""
        h = hashlib.sha256()
        for n in self.names(prefix):
            arr = self._data[n]
            h.update(n.encode())
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr))      # its buffer, not a bytes copy
        return h.hexdigest()

    def copy(self) -> "ParamSet":
        """A new set holding the same arrays: adding or rebinding a name in
        one leaves the other as it is."""
        out = ParamSet()
        out._data = dict(self._data)
        return out

    def merge(self, other: "ParamSet", prefix: str = "") -> None:
        """Add the arrays of another set whose names have the given prefix,
        shared, not copied; a name already here raises ValueError, as `add`
        does."""
        for n in other.names(prefix):
            self.add(n, other.get(n))
