"""Binary tensor container ("QDT1").

Layout, all integers little-endian, no alignment padding anywhere:

    magic    4 bytes   b"QDT1"
    dtype    u8        0 = float32, 1 = float64, 2 = uint32 (token ids)
    ndim     u32
    dims     ndim x u64
    payload  product(dims) x itemsize bytes, raw little-endian values

Round trips are bit-exact. Zero-size dims are legal here; algorithm entry
points reject them separately.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContainerError

MAGIC = b"QDT1"
_MAX_NDIM = 8

_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<u4")}
_CODE_FOR_KIND = {("f", 4): 0, ("f", 8): 1, ("u", 4): 2}


def _write_atomic(path: str | os.PathLike, *chunks) -> None:
    """Write the bytes-like `chunks`, one after another, to `path` through a
    temporary file in the same directory and `os.replace`: `path` holds either
    its previous bytes or all of the chunks, and a write that fails leaves no
    temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _bytes_view(arr: np.ndarray) -> np.ndarray:
    """The C-contiguous `arr` as a flat uint8 view of its buffer."""
    return arr.reshape(-1).view(np.uint8)


def write_tensor(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write `array` to `path`; accepts float32/float64/uint32 data. The
    payload is written from the array's own buffer, not from a copy."""
    arr = np.ascontiguousarray(array)
    code = _CODE_FOR_KIND.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise ContainerError(f"unsupported dtype {arr.dtype}")
    if arr.ndim < 1 or arr.ndim > _MAX_NDIM:
        raise ContainerError(f"ndim must be in [1, {_MAX_NDIM}], got {arr.ndim}")
    if arr.dtype.kind == "f" and arr.size and not np.isfinite(arr).all():
        raise ContainerError("refusing to write non-finite values")
    header = MAGIC + struct.pack("<BI", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype(_DTYPE_FOR_CODE[code], copy=False)  # keeps arr's C order
    _write_atomic(path, header, _bytes_view(payload))


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Inverse of :func:`write_tensor`; validates header, size, and
    finiteness. The payload is read straight into the returned array."""
    with open(path, "rb") as f:
        head = f.read(9)
        if len(head) < 4 or head[:4] != MAGIC:
            raise ContainerError(f"{path}: not a QDT1 file")
        if len(head) < 9:
            raise ContainerError(f"{path}: truncated header")
        code, ndim = struct.unpack_from("<BI", head, 4)
        if code not in _DTYPE_FOR_CODE:
            raise ContainerError(f"{path}: unknown dtype code {code}")
        if ndim < 1 or ndim > _MAX_NDIM:
            raise ContainerError(f"{path}: implausible ndim {ndim}")
        raw_dims = f.read(8 * ndim)
        if len(raw_dims) < 8 * ndim:
            raise ContainerError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{ndim}Q", raw_dims)
        dtype = _DTYPE_FOR_CODE[code]
        # exact products: in 64 bits they wrap; numpy also refuses a shape whose
        # nonzero dims multiply past its index range, even when another dim is 0
        if math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
            raise ContainerError(f"{path}: implausible dims {dims}")
        expected = math.prod(dims) * dtype.itemsize
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if payload != expected:
            raise ContainerError(f"{path}: payload is {payload} bytes, header implies {expected}")
        arr = np.empty(dims, dtype=dtype)
        if f.readinto(_bytes_view(arr)) != expected:
            raise ContainerError(f"{path}: file shrank while it was read")
    if dtype.kind == "f" and arr.size and not np.isfinite(arr).all():
        raise ContainerError(f"{path}: non-finite values in payload")
    return arr
