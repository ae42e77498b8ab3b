"""Binary checkpoint format: bit-exact save/load of named float64 arrays.

Layout (all integers little-endian u32):

    "MUGC" | version | count | entries...

with each entry ``name_len | name utf-8 | rank | dims[rank] | f64 payload``;
entry names are unique.

Both directions stream: a save writes each payload from its array, and a load
reads each payload straight into its destination array, so neither holds a
copy of the file. A save replaces ``path`` only once the whole file is written
(:func:`~avparse.data.atomic_write`).
"""

from __future__ import annotations

import math
import os
import struct
import sys
from collections import OrderedDict

import numpy as np

from .data import atomic_write
from .errors import CheckpointError

MAGIC = b"MUGC"
VERSION = 1


def save_checkpoint(path, params) -> None:
    """Write named arrays (or Tensors) to ``path`` in declaration order."""
    items = [(name, np.asarray(getattr(p, "data", p), dtype=np.float64, order="C"))
             for name, p in params.items()]  # not ascontiguousarray: it makes rank 0 rank 1
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(items)))
        for name, arr in items:
            raw_name = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(raw_name)}sI{arr.ndim}I", len(raw_name), raw_name,
                                 arr.ndim, *arr.shape))
            fh.write(arr.astype("<f8", copy=False))


class _Index:
    """The header and index pass over an open checkpoint: each entry's shape
    and payload offset, in file order, read without touching a payload."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        if self.take(4, "magic") != MAGIC:
            raise CheckpointError(f"bad magic in {path}: expected {MAGIC!r}")
        version = self.u32("version")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        count = self.u32("entry count")
        self.entries: OrderedDict[str, tuple[tuple[int, ...], int]] = OrderedDict()
        for _ in range(count):
            name_len = self.u32("name length")
            try:
                name = self.take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"entry name is not valid UTF-8: {exc}") from exc
            if name in self.entries:
                raise CheckpointError(f"duplicate checkpoint entry {name!r}")
            rank = self.u32("rank")
            dims = struct.unpack(f"<{rank}I", self.take(4 * rank, "dimension"))
            self.entries[name] = (dims, self.pos)
            self.skip(8 * math.prod(dims), f"payload of {name!r}")  # exact; no int64 wrap
        if self.pos != self.size:
            raise CheckpointError(f"{self.size - self.pos} trailing bytes after last entry")

    def skip(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        start = self.pos
        self.skip(n, what)  # checked before anything is read or allocated
        self.fh.seek(start)
        return self.fh.read(n)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def read_into(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Read entry ``name``'s payload into ``arr``, a C-contiguous float64
        array of its shape."""
        self.fh.seek(self.entries[name][1])
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise CheckpointError(f"truncated checkpoint while reading payload of {name!r}")
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
        return arr


def load_checkpoint(path, layout=None) -> "OrderedDict[str, np.ndarray]":
    """Every entry of the checkpoint at ``path``, by name in file order.

    A header and index pass first checks the whole file -- magic, version,
    names, shapes, and payloads that exactly fill it -- and raises
    ``CheckpointError`` before any payload is read or array allocated.

    ``layout``, when given, is then called as ``layout(shapes, read)``:
    ``shapes`` maps each name to its shape and ``read(name)`` returns that
    entry's array. It returns arrays, by name, that those entries' payloads
    are read straight into; each must be C-contiguous float64 of its entry's
    shape. The other entries are read into new arrays.
    """
    try:
        with open(path, "rb") as fh:
            index = _Index(fh, path)

            def read(name: str) -> np.ndarray:
                return index.read_into(name, np.empty(index.entries[name][0]))

            targets = {}
            if layout is not None:
                targets = layout(OrderedDict((name, dims) for name, (dims, _)
                                             in index.entries.items()), read)
            return OrderedDict((name, index.read_into(name, targets[name]) if name in targets
                                else read(name)) for name in index.entries)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
