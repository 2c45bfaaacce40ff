"""Named parameter collections and group checksums."""

from __future__ import annotations

import hashlib

import numpy as np


class ParamSet:
    """Mapping name -> array. Iteration order is lexicographic."""

    def __init__(self):
        self._data: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._data:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._data[name] = np.asarray(value)

    def __iter__(self):
        return iter(sorted(self._data))

    def get(self, name: str) -> np.ndarray:
        return self._data[name]

    def set_data(self, name: str, value: np.ndarray) -> None:
        arr = np.asarray(value)
        if arr.shape != self._data[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {arr.shape} vs {self._data[name].shape}")
        self._data[name] = arr

    def names(self, prefix: str = "") -> list[str]:
        return [n for n in self if n.startswith(prefix)]

    def checksum(self, prefix: str = "") -> str:
        """SHA-256 over names, shapes and raw bytes of a parameter group."""
        h = hashlib.sha256()
        for n in self.names(prefix):
            arr = self._data[n]
            h.update(n.encode())
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def copy(self) -> "ParamSet":
        out = ParamSet()
        for n in self:
            out.add(n, self._data[n].copy())
        return out

    def astype(self, dtype) -> "ParamSet":
        out = ParamSet()
        for n in self:
            out.add(n, self._data[n].astype(dtype))
        return out

    def merge(self, other: "ParamSet", prefix: str = "") -> None:
        """Copy entries with the given prefix from another set into this one;
        a name already here raises ValueError, as `add` does."""
        for n in other.names(prefix):
            self.add(n, other.get(n).copy())
