"""Low-level GDSII stream codec: records, excess-64 reals, strict walking.

A GDSII stream file is a flat sequence of big-endian records:

    +---------------+-----------+-----------+------------------+
    | uint16 length | uint8 rec | uint8 dat | payload bytes... |
    +---------------+-----------+-----------+------------------+

``length`` counts the 4 header bytes, records are even-length, and the
payload encoding is selected by the data-type byte (none, 16/32-bit signed
big-endian integers, 8-byte excess-64 reals, or NUL-padded ASCII).

The 8-byte real format: 1 sign bit, 7 exponent bits (a power of SIXTEEN,
biased by 64), then 56 mantissa bits encoding a fraction in [1/16, 1), so

    value = (-1)^sign * mantissa / 2^56 * 16^(exponent - 64).

Encoding here is exact for every IEEE double whose value fits the format's
range; round-tripping any finite double returns it bit-identically.

This module knows nothing about layouts — it only packs and walks records.
Geometry-level writing/reading lives in :mod:`lotuskit.maskio`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "GdsParseError",
    "Record",
    "iter_records",
    "pack_record",
    "encode_real8",
    "decode_real8",
    "encode_ascii",
    "validate_cell_name",
    # record types
    "HEADER",
    "BGNLIB",
    "LIBNAME",
    "UNITS",
    "ENDLIB",
    "BGNSTR",
    "STRNAME",
    "ENDSTR",
    "BOUNDARY",
    "SREF",
    "AREF",
    "LAYER",
    "DATATYPE",
    "XY",
    "ENDEL",
    "SNAME",
    "COLROW",
    # data types
    "DATA_NONE",
    "DATA_INT16",
    "DATA_INT32",
    "DATA_REAL8",
    "DATA_ASCII",
]


# Data type bytes.
DATA_NONE = 0x00
DATA_INT16 = 0x02
DATA_INT32 = 0x03
DATA_REAL8 = 0x05
DATA_ASCII = 0x06

# Record type bytes (the subset this toolkit emits and accepts).
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
SREF = 0x0A
AREF = 0x0B
LAYER = 0x0D
DATATYPE = 0x0E
XY = 0x10
ENDEL = 0x11
SNAME = 0x12
COLROW = 0x13

# Each record type's name and the data type its payload is encoded in.
RECORD_NAMES = {
    HEADER: ("HEADER", DATA_INT16),
    BGNLIB: ("BGNLIB", DATA_INT16),
    LIBNAME: ("LIBNAME", DATA_ASCII),
    UNITS: ("UNITS", DATA_REAL8),
    ENDLIB: ("ENDLIB", DATA_NONE),
    BGNSTR: ("BGNSTR", DATA_INT16),
    STRNAME: ("STRNAME", DATA_ASCII),
    ENDSTR: ("ENDSTR", DATA_NONE),
    BOUNDARY: ("BOUNDARY", DATA_NONE),
    SREF: ("SREF", DATA_NONE),
    AREF: ("AREF", DATA_NONE),
    LAYER: ("LAYER", DATA_INT16),
    DATATYPE: ("DATATYPE", DATA_INT16),
    XY: ("XY", DATA_INT32),
    ENDEL: ("ENDEL", DATA_NONE),
    SNAME: ("SNAME", DATA_ASCII),
    COLROW: ("COLROW", DATA_INT16),
}

_MAX_PAYLOAD = 0xFFFF - 4  # record length field is uint16 and counts its header

# Characters permitted in structure names by the stream format.
_NAME_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_?$"
)


class GdsParseError(ValueError):
    """Malformed GDSII stream.

    Attributes
    ----------
    offset:
        Byte offset of the offending record (or of the truncation point).
    record_type:
        Record type byte at that offset, if one could be read.
    """

    def __init__(self, message: str, offset: int, record_type: int | None = None):
        name = record_name(record_type) if record_type is not None else "?"
        super().__init__(f"offset {offset} ({name}): {message}")
        self.offset = offset
        self.record_type = record_type


def record_name(record_type: int) -> str:
    if record_type in RECORD_NAMES:
        return RECORD_NAMES[record_type][0]
    return f"0x{record_type:02X}"


def encode_real8(value: float) -> bytes:
    """Encode a float as an 8-byte excess-64 base-16 real, exactly.

    The double's 53-bit significand always fits the 56-bit mantissa after
    base-16 alignment (shift of 0..3 bits), so no precision is lost.
    """
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value!r}")
    if value == 0.0:
        return b"\x00" * 8
    sign = 0x80 if value < 0.0 else 0x00
    fraction, exponent2 = math.frexp(abs(value))  # abs(value) = fraction * 2**exponent2
    exponent16 = -((-exponent2) // 4)  # ceil(exponent2 / 4)
    significand = int(fraction * (1 << 53))  # exact 53-bit integer significand
    mantissa = significand << (3 + exponent2 - 4 * exponent16)  # shift in 0..3
    biased = 64 + exponent16
    if not 0 <= biased <= 127:
        raise ValueError(f"value {value!r} outside the representable exponent range")
    return struct.pack(">Q", (sign | biased) << 56 | mantissa)


def decode_real8(raw: bytes) -> float:
    """Decode an 8-byte excess-64 base-16 real to a float."""
    if len(raw) != 8:
        raise ValueError(f"real8 needs exactly 8 bytes, got {len(raw)}")
    (packed,) = struct.unpack(">Q", raw)
    mantissa = packed & ((1 << 56) - 1)
    if mantissa == 0:
        return 0.0
    sign = -1.0 if packed >> 63 else 1.0
    biased = (packed >> 56) & 0x7F
    return sign * math.ldexp(mantissa, 4 * (biased - 64) - 56)


def encode_ascii(text: str) -> bytes:
    """Encode text as GDSII ASCII payload (NUL-padded to even length)."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(f"GDSII strings must be ASCII, got {text!r}") from exc
    if len(raw) % 2:
        raw += b"\x00"
    return raw


def validate_cell_name(name: str) -> str:
    """Check a structure name against the format's charset and length rules."""
    if not name:
        raise ValueError("structure names must be non-empty")
    if len(name) > 32:
        raise ValueError(f"structure name {name!r} exceeds 32 characters")
    bad = set(name) - _NAME_CHARS
    if bad:
        raise ValueError(
            f"structure name {name!r} contains invalid characters {sorted(bad)!r} "
            f"(allowed: letters, digits, '_', '?', '$')"
        )
    return name


def pack_record(record_type: int, payload: bytes = b"") -> bytes:
    """Assemble one record: length, type, its data type from RECORD_NAMES, payload."""
    try:
        data_type = RECORD_NAMES[record_type][1]
    except KeyError:
        raise ValueError(f"unknown record type 0x{record_type:02X}") from None
    if len(payload) % 2:
        raise ValueError(
            f"record payload must have even length, got {len(payload)} bytes"
        )
    if len(payload) > _MAX_PAYLOAD:
        raise ValueError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{_MAX_PAYLOAD}-byte record limit"
        )
    return struct.pack(">HBB", len(payload) + 4, record_type, data_type) + payload


@dataclass(frozen=True)
class Record:
    """One decoded record: its stream offset, type bytes, and raw payload."""

    offset: int
    record_type: int
    data_type: int
    payload: bytes

    def int16s(self) -> tuple[int, ...]:
        if len(self.payload) % 2:
            raise self.error("int16 payload has odd length")
        return struct.unpack(f">{len(self.payload) // 2}h", self.payload)

    def int32s(self) -> tuple[int, ...]:
        if len(self.payload) % 4:
            raise self.error("int32 payload length not a multiple of 4")
        return struct.unpack(f">{len(self.payload) // 4}i", self.payload)

    def reals(self) -> tuple[float, ...]:
        if len(self.payload) % 8:
            raise self.error("real8 payload length not a multiple of 8")
        return tuple(
            decode_real8(self.payload[i : i + 8])
            for i in range(0, len(self.payload), 8)
        )

    def text(self) -> str:
        try:
            return self.payload.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError as exc:
            raise self.error(f"non-ASCII string payload: {exc}") from None

    def error(self, message: str) -> GdsParseError:
        """A parse error at this record's offset, naming its type."""
        return GdsParseError(message, self.offset, self.record_type)

    @property
    def name(self) -> str:
        return record_name(self.record_type)


def _record_at(data: bytes, offset: int) -> Record | None:
    """The record at byte ``offset``, or None at the end of the stream.

    ``offset`` must be a record boundary.  The stream ends at its last byte
    or at trailing NUL padding (some tools pad files to a block size).  Any
    other framing problem, or a known record type with the wrong data type,
    raises :class:`GdsParseError` at ``offset``.  The payload is copied to
    ``bytes`` whatever buffer ``data`` is.
    """
    left = len(data) - offset
    if left <= 0:
        return None
    if left < 4:
        if data[offset:] == b"\x00" * left:
            return None  # trailing padding
        raise GdsParseError(f"truncated record header ({left} bytes left)", offset)
    length, record_type, data_type = struct.unpack_from(">HBB", data, offset)
    if length == 0:
        if data[offset:] == b"\x00" * left:
            return None  # trailing padding
        raise GdsParseError("zero-length record", offset, record_type)
    if length < 4:
        raise GdsParseError(
            f"record length {length} below the 4-byte minimum", offset, record_type
        )
    if length % 2:
        raise GdsParseError(f"record length {length} is odd", offset, record_type)
    if length > left:
        raise GdsParseError(
            f"record of length {length} runs past end of stream ({left} bytes left)",
            offset,
            record_type,
        )
    expected = RECORD_NAMES.get(record_type, (None, data_type))[1]  # unknown: any
    if data_type != expected:
        message = f"data type 0x{data_type:02X}, expected 0x{expected:02X}"
        raise GdsParseError(message, offset, record_type)
    return Record(offset, record_type, data_type, bytes(data[offset + 4 : offset + length]))


def iter_records(data: bytes, offset: int = 0) -> Iterator[Record]:
    """Walk a stream's records in order from byte ``offset``, a record boundary.

    Each record is read and checked by :func:`_record_at`: the walk ends at
    the end of the stream or at trailing NUL padding, and any other framing
    problem, or a known record type with the wrong data type, raises
    :class:`GdsParseError` at its offset.
    """
    while (record := _record_at(data, offset)) is not None:
        yield record
        offset += 4 + len(record.payload)
