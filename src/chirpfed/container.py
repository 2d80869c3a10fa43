"""Binary container codec shared by the dataset, CIR and checkpoint files.

Every container starts with a 4-byte magic and a u16 version, then holds
fixed little-endian fields, u16-length-prefixed UTF-8 strings and typed
arrays, with nothing after its last block.  The reader checks each declared
size against the bytes left before reading or allocating anything, and every
decode failure surfaces as ParseError carrying a byte offset.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .errors import ConfigurationError, InputError, ParseError

# What decoding arbitrary bytes can raise besides ParseError: bad JSON or
# UTF-8 and absurd array shapes (ValueError), missing or unknown spec keys
# (KeyError, TypeError), out-of-range numbers (ArithmeticError), deeply
# nested JSON (RecursionError), and parameter objects rejecting values.
_DECODE_ERRORS = (ConfigurationError, InputError, LookupError, TypeError,
                  ValueError, ArithmeticError, RecursionError)


def pack_fields(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def pack_string(text: str, length: str = "H") -> bytes:
    raw = text.encode("utf-8")
    return pack_fields(length, len(raw)) + raw


def pack_strings(texts) -> bytes:
    """A u16 count, then the strings."""
    return pack_fields("H", len(texts)) + b"".join(map(pack_string, texts))


def save(path, magic: bytes, version: int, *blocks) -> None:
    """Writes the header, then each packed block (any bytes-like object) in
    turn, so that no block is copied to join them."""
    with open(path, "wb") as f:
        f.write(pack_fields("4sH", magic, version))
        for block in blocks:
            f.write(block)


class Reader:
    """Bounds-checked cursor over one container file, used as a context
    manager around its decoding.

    A path that names no regular file raises ParseError at offset 0 before it
    is opened: reading a device such as /dev/zero never ends, and opening a
    FIFO without a writer blocks.
    Leaving the block with a decode error (see _DECODE_ERRORS) raises
    ParseError at `mark`, the offset of the block read last; leaving it
    normally raises ParseError if bytes trail the last block.
    """

    def __init__(self, path, magic: bytes, version: int):
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ParseError(f"{os.fsdecode(path)!r} is not a regular file", offset=0)
        with open(path, "rb") as f:
            self.raw = f.read()
        self.off = self.mark = 0
        self._base = np.frombuffer(self.raw, np.uint8).ctypes.data
        got_magic, got_version = self.fields("4sH", "header")
        if got_magic != magic:
            raise ParseError(f"bad magic {got_magic!r}", offset=0)
        if got_version != version:
            raise ParseError(f"unsupported version {got_version}", offset=4)

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, _DECODE_ERRORS):
            raise ParseError(f"undecodable block ({exc})", offset=self.mark) from None
        if kind is None and self.off != len(self.raw):
            raise ParseError(f"{len(self.raw) - self.off} bytes after the last block",
                             offset=self.off)

    def take(self, n: int, what: str) -> int:
        """Claims the next n bytes and returns their offset."""
        left = len(self.raw) - self.off
        if n > left:
            raise ParseError(f"truncated {what}: {n} bytes declared, {left} left",
                             offset=self.off)
        self.mark = self.off
        self.off += n
        return self.mark

    def fields(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.raw, self.take(struct.calcsize(fmt), what))

    def string(self, what: str, length: str = "H") -> str:
        (n,) = self.fields(length, what)
        start = self.take(n, what)
        try:
            return self.raw[start: start + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not UTF-8", offset=start + exc.start) from None

    def strings(self, what: str) -> list:
        (n,) = self.fields("H", what)
        return [self.string(what) for _ in range(n)]

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """A read-only view of the next `count` items of `dtype`."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.raw, dtype, count, self.take(count * dtype.itemsize, what))

    def require(self, ok: np.ndarray, view: np.ndarray, message: str) -> None:
        """Raises ParseError at the first entry of `view`, an array read from
        this container, where `ok` (of the same shape) is false."""
        bad = np.flatnonzero(~ok)
        if bad.size:
            index = np.unravel_index(bad[0], ok.shape)
            at = view.ctypes.data - self._base + int(np.dot(index, view.strides))
            raise ParseError(message, offset=at)
