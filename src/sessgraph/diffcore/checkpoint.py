"""Named-tensor checkpoint container.

Byte layout (little-endian throughout):

    magic   4 bytes  b"NTC1"
    count   uint32   number of tensors
    per tensor:
        name_len  uint16
        name      name_len bytes, UTF-8
        ndim      uint8
        dims      ndim * uint64
        values    prod(dims) * float64, row-major

load(save(x)) round-trips bit-exactly.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError

_MAGIC = b"NTC1"


def save_tensors(path, tensors: dict[str, np.ndarray]):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Inverse of save_tensors. Bad magic, truncation, a corrupt name or shape
    and trailing bytes raise DataError naming the file."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise DataError(f"{path}: not a named-tensor container")
    offset = 4

    def take(size: int) -> int:
        """Start of the next `size` bytes, which the file must hold."""
        nonlocal offset
        if size > len(data) - offset:
            raise DataError(f"{path}: truncated at byte {offset}, "
                            f"{size} more bytes expected")
        offset += size
        return offset - size

    (count,) = struct.unpack_from("<I", data, take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, take(2))
        start = take(name_len)
        (ndim,) = struct.unpack_from("<B", data, take(1))
        shape = struct.unpack_from(f"<{ndim}Q", data, take(8 * ndim))
        n = math.prod(shape)
        values = take(8 * n)
        try:
            name = data[start:start + name_len].decode("utf-8")
            arr = np.frombuffer(data, dtype="<f8", count=n, offset=values).reshape(shape)
        except ValueError as exc:   # a name that is not UTF-8, an impossible shape
            raise DataError(f"{path}: corrupt tensor at byte {start}: {exc}") from None
        out[name] = arr.copy()
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes after {count} tensors")
    return out
