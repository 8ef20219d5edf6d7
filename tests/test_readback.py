"""Read-back contract of ``read_gdsii`` and ``MaskGeometry.expand``.

* Every buffer that the reader accepts (``bytes``, ``bytearray``,
  ``memoryview`` and an ``mmap`` of a written file) gives the same cells,
  runs, references and units.
* The end of the stream is pinned at the ``read_gdsii`` level: trailing
  NUL padding, a truncated header, a zero-length record, and a stream that
  ends before ENDLIB.
* The polygon budget of ``expand`` is checked before each reference.
"""

import mmap
import tracemalloc

import pytest

from lotuskit.gdsii import GdsParseError
from lotuskit.gradient import GradientSpec, design_linear_gradient
from lotuskit.lattice import Layout
from lotuskit.maskio import read_gdsii, write_gdsii
from test_mask_codec import NESTED_LIBRARY, aref, boundary, library, rectangle, structure


def summary(geometry) -> tuple:
    """Everything read_gdsii returns, in plain comparable values."""
    cells = [
        (
            name,
            [(layer, datatype, block.dtype.str, block.tolist()) for layer, datatype, block in cell.runs],
            cell.srefs,
            cell.arefs,
        )
        for name, cell in geometry.cells.items()
    ]
    units = (geometry.db_unit_in_user_units, geometry.database_unit)
    return geometry.library_name, units, cells


STREAMS = {
    "nested library": NESTED_LIBRARY,
    "arrayed gradient": write_gdsii(design_linear_gradient(
        GradientSpec(length=400_000, lateral_width=20_000, pitch=4000,
                     f_start=0.19, f_end=0.4375)
    )),
}


class TestBufferTypes:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_every_buffer_reads_alike(self, name, tmp_path):
        data = STREAMS[name]
        expected = summary(read_gdsii(data))
        assert expected[2], "the stream holds cells"
        assert summary(read_gdsii(bytearray(data))) == expected
        assert summary(read_gdsii(memoryview(data))) == expected
        path = tmp_path / "mask.gds"
        path.write_bytes(data)
        with open(path, "rb") as handle, mmap.mmap(
            handle.fileno(), 0, access=mmap.ACCESS_READ
        ) as mapped:
            assert summary(read_gdsii(mapped)) == expected


EMPTY = write_gdsii(Layout(zones=()))


class TestEndOfStream:
    def test_empty_layout_is_108_bytes(self):
        assert len(EMPTY) == 108
        assert EMPTY[-4:] == b"\x00\x04\x04\x00"  # ENDLIB

    def test_trailing_nul_padding_is_accepted(self):
        assert summary(read_gdsii(EMPTY + b"\x00" * 6)) == summary(read_gdsii(EMPTY))

    @pytest.mark.parametrize(
        "data, offset, record_type, message",
        [
            (EMPTY + b"\x00\x00\x01", 108, None,
             "offset 108 (?): truncated record header (3 bytes left)"),
            (EMPTY + b"\x00\x00\x00\x00\x01\x02", 108, 0x00,
             "offset 108 (HEADER): zero-length record"),
            (EMPTY[:-4] + b"\x00" * 8, 112, None,
             "offset 112 (?): unexpected end of stream while reading BGNSTR or ENDLIB"),
        ],
        ids=["truncated header", "zero-length record", "no ENDLIB"],
    )
    def test_bad_ends_are_refused(self, data, offset, record_type, message):
        with pytest.raises(GdsParseError) as excinfo:
            read_gdsii(data)
        assert str(excinfo.value) == message
        assert (excinfo.value.offset, excinfo.value.record_type) == (offset, record_type)


def test_budget_is_checked_before_each_reference():
    stream = library(
        structure("C", boundary(1, 0, rectangle(0, 0, 9, 9))),
        structure(
            "TOP",
            aref("C", 2049, 2048, (0, 0), (10, 0), (0, 10)),
            aref("C", 1, 1, (0, 0), (10, 0), (0, 10)),
        ),
    )
    geometry = read_gdsii(stream)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as excinfo:
            geometry.expand()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == (
        "expanding cell 'TOP' places 4196352 polygons, over the budget of 4194304"
    )
    assert peak < 1_000_000
