"""Length-prefixed binary framing shared by every canonical encoding.

Every serialized structure is a concatenation of fields, each written as a
4-byte big-endian length followed by the value bytes.  Integers are written
big-endian at a fixed width before framing, so any two distinct structures
encode to distinct byte strings.
"""

from __future__ import annotations

import struct

MAX_FIELD_LEN = 0xFFFFFFFF
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class WireError(ValueError):
    """Raised when bytes cannot be parsed back into a structure."""


def field(value: bytes) -> bytes:
    """Frame one field: u32 big-endian length + value bytes."""
    if len(value) > MAX_FIELD_LEN:
        raise WireError(f"field of {len(value)} bytes exceeds u32 framing limit")
    return struct.pack(">I", len(value)) + value


def u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise WireError(f"value {value} out of u32 range")
    return struct.pack(">I", value)


def u64(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise WireError(f"value {value} out of u64 range")
    return struct.pack(">Q", value)


class Reader:
    """Sequential reader over a framed byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int) -> bytes:
        if n < 0 or n > self.remaining:
            raise WireError(f"need {n} bytes, have {self.remaining}")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def field(self) -> bytes:
        data, start = self._data, self._pos + 4
        if start > len(data):
            raise WireError(f"need 4 bytes, have {self.remaining}")
        (length,) = _U32.unpack_from(data, self._pos)
        end = start + length
        if end > len(data):
            raise WireError(f"need {length} bytes, have {len(data) - start}")
        self._pos = end
        return data[start:end]

    def u32_field(self) -> int:
        raw = self.field()
        if len(raw) != 4:
            raise WireError(f"u32 field has {len(raw)} bytes")
        return struct.unpack(">I", raw)[0]

    def u64_field(self) -> int:
        raw = self.field()
        if len(raw) != 8:
            raise WireError(f"u64 field has {len(raw)} bytes")
        return _U64.unpack(raw)[0]

    def str_field(self) -> str:
        try:
            return self.field().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("field is not valid UTF-8") from exc

    def expect_end(self) -> None:
        if self.remaining:
            raise WireError(f"{self.remaining} trailing bytes after structure")
