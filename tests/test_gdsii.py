"""Record-level GDSII codec: framing, reals, strings, strict walking.

The excess-64 real encodings asserted here were derived by hand from the
format definition (sign bit, 7-bit base-16 exponent biased by 64, 56-bit
mantissa fraction), independently of the encoder under test.
"""

import math
import random
import struct

import pytest

from lotuskit.gdsii import (
    AREF,
    BGNLIB,
    BOUNDARY,
    DATA_ASCII,
    DATA_INT16,
    DATA_NONE,
    DATA_REAL8,
    ENDLIB,
    GdsParseError,
    HEADER,
    Record,
    RECORD_NAMES,
    XY,
    decode_real8,
    encode_ascii,
    encode_real8,
    iter_records,
    pack_record,
    record_name,
    validate_cell_name,
)

# Hand-derived reference encodings.
REAL8_CASES = {
    0.0: "0000000000000000",
    1.0: "4110000000000000",   # 16^1 * 1/16
    -1.0: "c110000000000000",
    2.0: "4120000000000000",
    0.5: "4080000000000000",   # 16^0 * 1/2
    0.001: "3e4189374bc6a7f0",
    1e-9: "3944b82fa09b5a54",
}


class TestReal8:
    def test_reference_encodings(self):
        for value, expected_hex in REAL8_CASES.items():
            assert encode_real8(value).hex() == expected_hex

    def test_reference_decodings(self):
        for value, expected_hex in REAL8_CASES.items():
            assert decode_real8(bytes.fromhex(expected_hex)) == value

    def test_round_trip_is_bit_exact(self):
        rng = random.Random(42)
        values = [0.0, 1.0, -1.0, 1e-9, 0.001, math.pi, 2.0**-60, 2.0**60]
        values += [rng.uniform(-1e6, 1e6) for _ in range(2000)]
        values += [math.ldexp(rng.random(), rng.randint(-200, 200)) for _ in range(2000)]
        for value in values:
            assert decode_real8(encode_real8(value)) == value

    def test_mantissa_stays_normalized(self):
        # Mantissa field must lie in [2^52, 2^56): fraction in [1/16, 1).
        rng = random.Random(3)
        for _ in range(500):
            value = math.ldexp(rng.random() + 1e-9, rng.randint(-100, 100))
            (packed,) = struct.unpack(">Q", encode_real8(value))
            mantissa = packed & ((1 << 56) - 1)
            assert 1 << 52 <= mantissa < 1 << 56

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            encode_real8(1e76)  # above 16^63
        with pytest.raises(ValueError):
            encode_real8(1e-79)  # below 16^-65
        with pytest.raises(ValueError):
            encode_real8(float("nan"))
        with pytest.raises(ValueError):
            encode_real8(float("inf"))

    def test_decode_needs_eight_bytes(self):
        with pytest.raises(ValueError):
            decode_real8(b"\x00" * 7)

    def test_negative_zero_mantissa_decodes_to_zero(self):
        assert decode_real8(bytes.fromhex("8000000000000000")) == 0.0


class TestStringsAndNames:
    def test_ascii_padding_to_even(self):
        assert encode_ascii("ab") == b"ab"
        assert encode_ascii("abc") == b"abc\x00"
        assert encode_ascii("") == b""

    def test_non_ascii_rejected(self):
        with pytest.raises(ValueError):
            encode_ascii("café")

    def test_cell_name_rules(self):
        assert validate_cell_name("HEX_3000") == "HEX_3000"
        assert validate_cell_name("A?$b_9") == "A?$b_9"
        with pytest.raises(ValueError):
            validate_cell_name("")
        with pytest.raises(ValueError):
            validate_cell_name("x" * 33)
        with pytest.raises(ValueError):
            validate_cell_name("bad name")


class TestPackRecord:
    def test_layout_of_packed_record(self):
        raw = pack_record(HEADER, struct.pack(">h", 600))
        assert raw == bytes.fromhex("0006000202 58".replace(" ", ""))

    def test_empty_payload(self):
        assert pack_record(ENDLIB) == bytes.fromhex("00040400")

    def test_odd_payload_rejected(self):
        with pytest.raises(ValueError, match="even length"):
            pack_record(HEADER, b"x")

    def test_oversize_payload_rejected(self):
        with pytest.raises(ValueError, match="exceeds the 65531-byte record limit"):
            pack_record(XY, b"\x00" * 65532)

    def test_data_type_is_the_record_names_entry(self):
        for record_type, (_, data_type) in RECORD_NAMES.items():
            assert pack_record(record_type)[2:] == bytes([record_type, data_type])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type 0xEE"):
            pack_record(0xEE)


class TestRecordAccessors:
    def test_int16s_and_int32s(self):
        record = Record(0, BGNLIB, DATA_INT16, struct.pack(">3h", 1, -2, 3))
        assert record.int16s() == (1, -2, 3)
        record32 = Record(0, XY, 0x03, struct.pack(">2i", -7, 2**30))
        assert record32.int32s() == (-7, 2**30)

    def test_misaligned_payloads_raise(self):
        with pytest.raises(GdsParseError):
            Record(0, XY, 0x03, b"\x00\x00").int32s()
        with pytest.raises(GdsParseError):
            Record(0, BGNLIB, DATA_INT16, b"\x00").int16s()
        with pytest.raises(GdsParseError):
            Record(0, HEADER, DATA_REAL8, b"\x00" * 12).reals()

    def test_text_strips_nul_padding(self):
        record = Record(0, HEADER, DATA_ASCII, b"TOP\x00")
        assert record.text() == "TOP"

    def test_record_names(self):
        assert record_name(HEADER) == "HEADER"
        assert record_name(AREF) == "AREF"
        assert record_name(0xEE) == "0xEE"
        assert len(RECORD_NAMES) == 17


class TestIterRecords:
    def _stream(self) -> bytes:
        return (
            pack_record(HEADER, struct.pack(">h", 600))
            + pack_record(BOUNDARY)
            + pack_record(ENDLIB)
        )

    def test_walks_in_order_with_offsets(self):
        records = list(iter_records(self._stream()))
        assert [r.record_type for r in records] == [HEADER, BOUNDARY, ENDLIB]
        assert [r.offset for r in records] == [0, 6, 10]
        assert records[0].int16s() == (600,)

    def test_trailing_nul_padding_accepted(self):
        records = list(iter_records(self._stream() + b"\x00" * 6))
        assert len(records) == 3
        records = list(iter_records(self._stream() + b"\x00" * 2))
        assert len(records) == 3

    def test_truncated_header_raises_with_offset(self):
        header = pack_record(HEADER, struct.pack(">h", 600))
        data = header + b"\x01\x02\x03"  # 3 stray non-NUL bytes
        with pytest.raises(GdsParseError) as excinfo:
            list(iter_records(data))
        assert excinfo.value.offset == 6
        assert "truncated" in str(excinfo.value)

    def test_record_overrunning_stream_raises(self):
        bad = struct.pack(">HBB", 40, HEADER, DATA_INT16) + b"\x00" * 4
        with pytest.raises(GdsParseError, match="runs past end"):
            list(iter_records(bad))

    def test_odd_record_length_raises(self):
        bad = struct.pack(">HBB", 5, HEADER, DATA_INT16) + b"\x00\x00"
        with pytest.raises(GdsParseError, match="odd"):
            list(iter_records(bad))

    def test_below_minimum_length_raises(self):
        bad = struct.pack(">HBB", 2, HEADER, DATA_INT16)
        with pytest.raises(GdsParseError, match="below the 4-byte minimum"):
            list(iter_records(bad))

    def test_zero_length_non_padding_raises(self):
        bad = b"\x00\x00\x00\x00\x01\x02"
        with pytest.raises(GdsParseError, match="zero-length"):
            list(iter_records(bad))

    def test_known_record_with_wrong_data_type_raises(self):
        header = pack_record(HEADER, struct.pack(">h", 600))
        bad = header + struct.pack(">HBB", 4, ENDLIB, DATA_INT16)
        walk = iter_records(bad)
        assert next(walk).record_type == HEADER
        with pytest.raises(GdsParseError) as excinfo:
            next(walk)
        assert excinfo.value.offset == 6
        assert str(excinfo.value) == "offset 6 (ENDLIB): data type 0x02, expected 0x00"

    def test_error_message_carries_record_name(self):
        bad = struct.pack(">HBB", 3, AREF, DATA_NONE)
        with pytest.raises(GdsParseError, match=r"offset 0 \(AREF\)"):
            list(iter_records(bad))
