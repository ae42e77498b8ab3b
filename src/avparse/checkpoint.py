"""Binary checkpoint format: bit-exact save/load of named float64 arrays.

Layout (all integers little-endian u32):

    "MUGC" | version | count | entries...

with each entry ``name_len | name utf-8 | rank | dims[rank] | f64 payload``;
entry names are unique.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from .errors import CheckpointError

MAGIC = b"MUGC"
VERSION = 1


def save_checkpoint(path, params) -> None:
    """Write named arrays (or Tensors) to ``path`` in declaration order."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    items = [(name, getattr(p, "data", p)) for name, p in params.items()]
    blob += struct.pack("<I", len(items))
    for name, arr in items:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        raw_name = name.encode("utf-8")
        blob += struct.pack("<I", len(raw_name))
        blob += raw_name
        blob += struct.pack("<I", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<I", d)
        blob += arr.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(blob)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"bad magic in {path}: expected {MAGIC!r}")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    count = r.u32("entry count")
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    for _ in range(count):
        name_len = r.u32("name length")
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"entry name is not valid UTF-8: {exc}") from exc
        if name in out:
            raise CheckpointError(f"duplicate checkpoint entry {name!r}")
        rank = r.u32("rank")
        dims = tuple(r.u32("dimension") for _ in range(rank))
        n = math.prod(dims)  # exact; np.prod wraps around in int64
        payload = r.take(8 * n, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        out[name] = arr
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes after last entry")
    return out
