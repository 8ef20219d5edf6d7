"""Read-back contract of ``read_gdsii`` and ``MaskGeometry.expand``.

* Every buffer that the reader accepts (``bytes``, ``bytearray``,
  ``memoryview`` and an ``mmap`` of a written file) gives the same cells,
  runs, references and units.
* The end of the stream is pinned at the ``read_gdsii`` level: trailing
  NUL padding, a truncated header, a zero-length record, and a stream that
  ends before ENDLIB.
* The polygon budget of ``expand`` is checked before each reference.
* The walls and the solid fraction of FINE as it is written, measured on
  the polygons read back.
"""

import math
import mmap
import tracemalloc
from fractions import Fraction

import pytest

from lotuskit.gdsii import GdsParseError
from lotuskit.gradient import GradientSpec, design_linear_gradient
from lotuskit.lattice import Layout, Rect, Zone, honeycomb_area_fraction
from lotuskit.maskio import read_gdsii, write_gdsii
from lotuskit.reference import FINE_WALL_DESIGN
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


# --------------------------------------------------------------------------
# The geometry the mask holds
# --------------------------------------------------------------------------

# FINE (pitch 4000 nm, wall 400 nm) is written as the hexagon
# (±1800, ±1039), (0, ±2078) on a 3460 nm row pitch: the diagonal walls come
# out 2.953 nm thinner than the 400 nm same-row wall, and the solid fraction
# 0.00078 below the closed form.  These are measurements, pinned as data;
# ROADMAP item 1b's vertex fix moves them.
FINE_NEIGHBOURS = {(4000, 0): 400.000, (2000, 3460): 397.047, (-2000, 3460): 397.047}


def facing_wall(hexagon: list[tuple[int, int]], neighbour: tuple[int, int]) -> float:
    """The wall between a centred ``hexagon`` and its copy at ``neighbour``, in nm.

    It is the distance between the hexagon's edge that faces the copy and
    the copy's edge that faces back, which are parallel.
    """
    edges = [(hexagon[i], hexagon[(i + 1) % 6]) for i in range(6)]
    # The edge whose midpoint lies furthest along the neighbour direction.
    (ax, ay), (bx, by) = max(
        edges,
        key=lambda edge: (edge[0][0] + edge[1][0]) * neighbour[0]
        + (edge[0][1] + edge[1][1]) * neighbour[1],
    )
    # The hexagon is centrally symmetric, so the copy's facing edge passes
    # through neighbour - a.
    px, py = neighbour[0] - ax, neighbour[1] - ay
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    return abs(cross) / math.hypot(bx - ax, by - ay)


def test_fine_as_written_has_thinner_diagonal_walls():
    zone = Zone(FINE_WALL_DESIGN, Rect(0, 0, 20_000, 20_000))
    polygons = read_gdsii(write_gdsii(Layout(zones=(zone,)))).expand()
    assert len(polygons) == 30
    hexagons = {}
    for _, _, points in polygons:
        vertices = [(int(x), int(y)) for x, y in points.tolist()]
        cx, cy = sum(x for x, _ in vertices), sum(y for _, y in vertices)
        assert cx % 6 == cy % 6 == 0
        center = (cx // 6, cy // 6)
        hexagons[center] = [(x - center[0], y - center[1]) for x, y in vertices]
    shapes = set(map(tuple, hexagons.values()))
    assert len(shapes) == 1
    (shape,) = shapes
    assert sorted(shape) == sorted(
        [(1800, -1039), (1800, 1039), (0, 2078), (-1800, 1039), (-1800, -1039), (0, -2078)]
    )

    for step, wall in FINE_NEIGHBOURS.items():
        assert any((x + step[0], y + step[1]) in hexagons for x, y in hexagons), step
        assert round(facing_wall(list(shape), step), 3) == wall, step

    twice_area = abs(sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(shape, shape[1:] + shape[:1])
    ))
    (ax, ay), (bx, by), _ = FINE_NEIGHBOURS
    cell = abs(ax * by - ay * bx)
    emitted = 1 - Fraction(twice_area, 2 * cell)
    assert emitted == 1 - Fraction(11_221_200, 13_840_000) == Fraction(6547, 34600)
    assert round(float(emitted), 6) == 0.189220
    assert honeycomb_area_fraction(FINE_WALL_DESIGN) == pytest.approx(0.19, abs=1e-15)
