"""Binary checkpoint I/O and the one writer of every artifact.

Layout: magic "SANC", version u32 LE, spec-text length u64 + UTF-8 network
spec text, tensor count u64, then per tensor: name length u16 + UTF-8 name,
dtype code u8 (0=f32, 1=f64), rank u8, dims as u32 list, raw little-endian
IEEE-754 payload.

Every artifact sakit writes goes through ``atomic_open``: checkpoints
through ``save_checkpoint``, text through ``write_text``. ``atomic_open``
creates the file's directory; an interrupted write leaves the previous file,
never half of a new one; and an ``OSError`` from a failed write names the
file's path, not its hidden temporary. Every CSV has one format, built by
``netspec.csv_text`` (a header line, then one line of comma-joined cells per
row) and read back by ``netspec.csv_rows``, which skips ``text_lines``
comments.
"""

import math
import os
import secrets
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"SANC"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


@contextmanager
def atomic_open(path, mode="w"):
    """Open a new file beside ``path`` for writing (mode "w" for UTF-8 text,
    "wb" for bytes), creating its directory. When the block ends it is synced
    and moved onto ``path`` with ``os.replace``; when the block raises it is
    removed instead. An ``OSError`` on the way names ``path`` as its file."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        os.makedirs(head or ".", exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
                yield f
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        e.filename = path
        del e.filename2  # os.replace's second name; the message then ends in ``path``
        raise


def write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8 through ``atomic_open``."""
    with atomic_open(path) as f:
        f.write(text)


def save_checkpoint(path, spec_text: str, tensors: dict):
    """Write spec text and named float tensors; iteration order is sorted by name.

    Every tensor is checked before the file is opened, so a rejected save
    leaves an existing file as it was.
    """
    spec_bytes = spec_text.encode("utf-8")
    entries = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], order="C")
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"tensor '{name}' has unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: '{name[:40]}...'")
        entries.append((nb, arr))
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(spec_bytes)))
        f.write(spec_bytes)
        f.write(struct.pack("<Q", len(entries)))
        for nb, arr in entries:
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (spec_text, {name: ndarray}).

    Any malformed or truncated file, or one that names a tensor twice, raises
    CheckpointError naming the field and its byte offset.
    """
    with open(path, "rb") as f:
        data = memoryview(f.read())
    off = 0

    def take(n, field):
        nonlocal off
        if n > len(data) - off:
            raise CheckpointError(f"truncated at offset {off}: {field} needs {n} bytes, "
                                  f"{len(data) - off} left")
        off += n
        return data[off - n:off]

    def unpack(fmt, field):
        return struct.unpack(fmt, take(struct.calcsize(fmt), field))

    def text(n, field):
        try:
            return str(take(n, field), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{field} at offset {off - n} is not UTF-8") from e

    magic = bytes(take(4, "magic"))
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    (version,) = unpack("<I", "version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (spec_len,) = unpack("<Q", "spec length")
    spec_text = text(spec_len, "spec text")
    (count,) = unpack("<Q", "tensor count")
    tensors = {}
    for i in range(count):
        (name_len,) = unpack("<H", f"tensor {i} name length")
        name = text(name_len, f"tensor {i} name")
        if name in tensors:
            raise CheckpointError(f"tensor {i} repeats the name '{name}' "
                                  f"at offset {off - name_len}")
        code, rank = unpack("<BB", f"tensor '{name}' dtype and rank")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"tensor '{name}': unknown dtype code {code} "
                                  f"at offset {off - 2}")
        dims = unpack(f"<{rank}I", f"tensor '{name}' dims")
        dtype = _CODE_DTYPES[code]
        payload = take(math.prod(dims) * dtype.itemsize, f"tensor '{name}' data")
        # a zero dim empties the payload, but numpy still bounds the other dims
        if math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
            raise CheckpointError(f"tensor '{name}' dims {dims} at offset "
                                  f"{off - len(payload) - 4 * rank} exceed the addressable size")
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).astype(
            dtype.newbyteorder("="))
    if off != len(data):
        raise CheckpointError(f"{len(data) - off} trailing bytes at offset {off}")
    return spec_text, tensors
