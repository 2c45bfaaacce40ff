"""Bit-exact checkpoint format: JSON manifest + packed float32 blob.

Layout: 8-byte magic carrying the format version, a little-endian uint32
manifest length, the UTF-8 JSON manifest, then every tensor's raw bytes
(little-endian float32, row-major) concatenated in manifest order, which is
the ParamSet's lexicographic order. The manifest records each tensor's name
and shape, free-form provenance, and the SHA-256 of the blob; load verifies
the hash, so truncation or corruption is always detected. A manifest
without these keys, or with a value of another shape, is a DataError naming
the file; load ignores any other key of the manifest or of a tensor entry.
The magic alone carries the version.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .params import ParamSet

MAGIC = b"KGCKPT01"
_DTYPE = np.dtype("<f4")


def save_checkpoint(path, params: ParamSet, provenance: dict | None = None) -> str:
    """Write params to path; returns the blob SHA-256 (the weight identity)."""
    tensors = []
    blob = bytearray()
    for name in params:
        arr = params.get(name)
        if arr.dtype != np.float32:
            raise DataError(f"checkpoint tensors must be float32, {name!r} is {arr.dtype}")
        tensors.append({"name": name, "shape": list(arr.shape)})
        blob.extend(np.ascontiguousarray(arr, dtype=_DTYPE).data)    # its buffer, not a bytes copy
    blob_hash = hashlib.sha256(blob).hexdigest()
    manifest = {
        "tensors": tensors,
        "blob_sha256": blob_hash,
        "provenance": provenance or {},
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    # renamed onto the target once complete: a failed write leaves no file under its name
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(manifest_bytes)))
            fh.write(manifest_bytes)
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return blob_hash


def _split_header(raw: bytes, path) -> tuple[dict, memoryview]:
    """(manifest, blob) of a checkpoint file's bytes; the blob is not copied."""
    if len(raw) < 12 or raw[:6] != MAGIC[:6]:
        raise DataError(f"{path}: not a checkpoint file")
    if raw[:8] != MAGIC:
        raise DataError(f"{path}: unsupported checkpoint format version {raw[6:8]!r}")
    (mlen,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + mlen:
        raise DataError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[12:12 + mlen].decode("utf-8"))
    except ValueError:
        raise DataError(f"{path}: manifest is not JSON") from None
    if not _well_formed(manifest):
        raise DataError(f"{path}: manifest is not an object of tensors (distinct names, "
                        f"each with a shape of non-negative integers), blob_sha256 and provenance")
    return manifest, memoryview(raw)[12 + mlen:]


def _well_formed(manifest) -> bool:
    """Whether a parsed manifest holds what `load_checkpoint` and the
    pipeline read: a list of tensor entries, each a str name and a list of
    non-negative int dimensions, the names distinct; a str blob hash; and a
    provenance object."""
    if not (isinstance(manifest, dict) and isinstance(manifest.get("tensors"), list)
            and isinstance(manifest.get("blob_sha256"), str)
            and isinstance(manifest.get("provenance"), dict)):
        return False
    specs = manifest["tensors"]
    return (all(isinstance(spec, dict) and isinstance(spec.get("name"), str)
                and isinstance(spec.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in spec["shape"]) for spec in specs)
            and len({spec["name"] for spec in specs}) == len(specs))


def read_manifest(path) -> dict:
    return _split_header(Path(path).read_bytes(), path)[0]


def load_checkpoint(path) -> tuple[ParamSet, dict]:
    """Read params and manifest back; hash mismatch or truncation errors out."""
    manifest, blob = _split_header(Path(path).read_bytes(), path)
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise DataError(f"{path}: blob hash mismatch (corrupted or truncated)")
    params = ParamSet()
    offset = 0
    for spec in manifest["tensors"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise DataError(f"{path}: blob too short for tensor {spec['name']!r}")
        arr = np.frombuffer(chunk, dtype=_DTYPE).reshape(shape).copy()
        params.add(spec["name"], arr)
        offset += nbytes
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes in blob")
    return params, manifest
