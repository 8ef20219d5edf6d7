"""Mask codec contract: pinned artifact bytes, expansion order, strict decoding.

* The sha256 pins freeze the GDSII and SVG bytes of the benchmark's mask
  artifacts (seed 0) plus a walls-polarity crop and the uncropped
  walls-polarity reference, built through ``lotus export``.  Any codec rewrite must reproduce them exactly.
* ``old_expand`` is a frozen copy of the original one-instance-at-a-time
  walk of :meth:`MaskGeometry.expand`; expansion order is compared against
  it element by element, never through an order-free canonical form, on
  a nested library and on 200 random ones.
* The long-run strictness tests corrupt one element deep inside a run of
  identical boundaries and compute the expected error message and byte
  offset arithmetically from the element index; every other rejected
  element is pinned on a stream holding just that element.
* The run-model tests pin how read-back groups a cell's own polygons into
  ``(layer, datatype, points)`` runs of ``(n, k, 2)`` vertex blocks.
* ``template_flat_array`` is a frozen copy of the numpy template flat
  writer; the row-buffer writer must give its bytes and its overflow
  message.  AREFs are read strictly, one record at a time: seeded byte
  mutations and targeted faults pin the error of each of their records.
"""

import hashlib
import random
import struct
import tracemalloc

import numpy as np
import pytest

from lotuskit import maskio
from lotuskit.cli import run
from lotuskit.gdsii import RECORD_NAMES, GdsParseError, iter_records
from lotuskit.gradient import GradientSpec, design_linear_gradient
from lotuskit.lattice import HoneycombSpec, LatticeArray, Layout, Rect, Zone, hexagon_vertices
from lotuskit.maskio import (
    MaskCell,
    MaskGeometry,
    read_gdsii,
    write_gdsii,
)

# --------------------------------------------------------------------------
# Pinned artifacts
# --------------------------------------------------------------------------

PINNED_EXPORTS = {
    "flat.gds": (
        ["--wall-a", "1000", "--wall-b", "400", "--mode", "flat", "--crop-um", "600"],
        "4c29b8298138c13c3d899e3fe671e67559dd019402ade253b6da90cea0c41dad",
        4_176_108,
    ),
    "gradient.gds": (
        ["--gradient", "--length-nm", "10000000", "--f-start", "0.19",
         "--f-end", "0.4375", "--width-nm", "200000"],
        "256d9fa07722c8de52fbb626f74cf5991ee8052804ea4a8290ebee9040b12830",
        14_504,
    ),
    "reference.svg": (
        ["--reference", "--format", "svg", "--crop-um", "300"],
        "2b2b4eb3ac168c7555ac8ca489aa4ae3bd063450184d11e60c6370a45262f25e",
        1_620_455,
    ),
    "walls.gds": (
        ["--reference", "--mode", "flat", "--polarity", "walls", "--crop-um", "100"],
        "34eeca162d7d7a49f81f0ee43e1d9c8405ed6808089925f4ecedf0a461c69626",
        116_236,
    ),
    # The two abutting zones draw one background rectangle.
    "walls_uncropped.gds": (
        ["--reference", "--polarity", "walls"],
        "e4a9829f06047b7c16391be23f5ec04521d9d0aefd7dbc8c68cf07421718a98f",
        644,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXPORTS))
def test_pinned_export_bytes(name, tmp_path, capsys):
    args, digest, size = PINNED_EXPORTS[name]
    out = tmp_path / name
    assert run(["export", *args, "--out", str(out)]) == 0
    assert f"bytes={size}" in capsys.readouterr().out
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


# --------------------------------------------------------------------------
# Hand assembly (struct only)
# --------------------------------------------------------------------------

def record(record_type: int, data_type: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HBB", len(payload) + 4, record_type, data_type) + payload


def name_record(record_type: int, name: str) -> bytes:
    raw = name.encode("ascii")
    return record(record_type, 0x06, raw + b"\x00" * (len(raw) % 2))


def boundary(layer: int, datatype: int, points: list[tuple[int, int]]) -> bytes:
    closed = [*points, points[0]]
    coords = [c for point in closed for c in point]
    return b"".join([
        record(0x08, 0x00),
        record(0x0D, 0x02, struct.pack(">h", layer)),
        record(0x0E, 0x02, struct.pack(">h", datatype)),
        record(0x10, 0x03, struct.pack(f">{len(coords)}i", *coords)),
        record(0x11, 0x00),
    ])


def sref(cell: str, x: int, y: int) -> bytes:
    return b"".join([
        record(0x0A, 0x00),
        name_record(0x12, cell),
        record(0x10, 0x03, struct.pack(">2i", x, y)),
        record(0x11, 0x00),
    ])


def aref(cell: str, cols: int, rows: int, origin, col_vector, row_vector) -> bytes:
    x, y = origin
    return b"".join([
        record(0x0B, 0x00),
        name_record(0x12, cell),
        record(0x13, 0x02, struct.pack(">2h", cols, rows)),
        record(0x10, 0x03, struct.pack(
            ">6i", x, y,
            x + cols * col_vector[0], y + cols * col_vector[1],
            x + rows * row_vector[0], y + rows * row_vector[1],
        )),
        record(0x11, 0x00),
    ])


def structure(name: str, *elements: bytes) -> bytes:
    return record(0x05, 0x02, b"\x00" * 24) + name_record(0x06, name) + b"".join(
        elements
    ) + record(0x07, 0x00)


def library(*structures: bytes, units_reals: int = 2) -> bytes:
    # 0.001 and 1e-9 as excess-64 reals.
    units = bytes.fromhex("3e4189374bc6a7f03944b82fa09b5a54")[: 8 * units_reals]
    return b"".join([
        record(0x00, 0x02, struct.pack(">h", 600)),
        record(0x01, 0x02, b"\x00" * 24),
        name_record(0x02, "LOTUS"),
        record(0x03, 0x05, units),
        *structures,
        record(0x04, 0x00),
    ])


def hexagon(cx: int, cy: int) -> list[tuple[int, int]]:
    return [(cx + 1500, cy - 866), (cx + 1500, cy + 866), (cx, cy + 1732),
            (cx - 1500, cy + 866), (cx - 1500, cy - 866), (cx, cy - 1732)]


def rectangle(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# --------------------------------------------------------------------------
# Expansion order
# --------------------------------------------------------------------------

def own_polygons(cell) -> list[tuple[int, int, np.ndarray]]:
    """A cell's own polygons one by one, as views into its runs."""
    return [(layer, datatype, points) for layer, datatype, block in cell.runs for points in block]


def old_expand(geometry, cell_name: str) -> list[tuple[int, int, np.ndarray]]:
    """Frozen copy of the original recursive, instance-by-instance walk."""
    flattened = []
    polygons = {}  # each cell's own polygons, split out of its runs once

    def walk(name, dx, dy, stack):
        if name not in geometry.cells:
            raise ValueError(f"reference to undefined cell {name!r}")
        if name in stack:
            raise ValueError(f"reference cycle through cell {name!r}")
        below = stack | {name}
        cell = geometry.cells[name]
        if name not in polygons:
            polygons[name] = own_polygons(cell)
        for layer, datatype, points in polygons[name]:
            flattened.append((layer, datatype, points + (dx, dy)))
        for ref in cell.srefs:
            walk(ref.cell, dx + ref.origin[0], dy + ref.origin[1], below)
        for array in cell.arefs:
            for i in range(array.cols):
                for j in range(array.rows):
                    walk(
                        array.cell,
                        dx + array.origin[0] + i * array.col_vector[0]
                        + j * array.row_vector[0],
                        dy + array.origin[1] + i * array.col_vector[1]
                        + j * array.row_vector[1],
                        below,
                    )

    walk(cell_name, 0, 0, frozenset())
    return flattened


def assert_same_order(expanded, expected) -> None:
    assert len(expanded) == len(expected)
    for index, ((got_layer, got_datatype, got), (layer, datatype, points)) in enumerate(
        zip(expanded, expected)
    ):
        assert (got_layer, got_datatype) == (layer, datatype), index
        assert got.dtype == np.int64
        assert got.shape == points.shape, index
        assert np.array_equal(got, points), index


# Stream order inside MID is AREF, SREF, boundary: expansion must still put
# own boundaries first, then SREFs, then AREFs.  PAD mixes a 5-point
# (closure included) rectangle on 2/0 with 7-point hexagons on 1/1; TOP
# places one-hexagon HEX and two-hexagon PAIR arrays back to back.
NESTED_LIBRARY = library(
    structure("HEX", boundary(1, 1, hexagon(0, 0))),
    structure("PAIR", boundary(1, 1, hexagon(0, 0)), boundary(1, 1, hexagon(4000, 0))),
    structure(
        "PAD",
        boundary(2, 0, rectangle(-2000, -2000, 2000, 2000)),
        boundary(1, 1, hexagon(0, 0)),
        boundary(1, 1, hexagon(500, 250)),
    ),
    structure(
        "MID",
        aref("PAD", 2, 3, (10, 20), (5000, 300), (-200, 7000)),
        sref("HEX", 100, 200),
        boundary(1, 0, rectangle(0, 0, 9000, 9000)),
        sref("PAD", -40, 60),
        aref("HEX", 3, 1, (0, -5000), (4000, 0), (0, 3460)),
    ),
    structure(
        "TOP",
        aref("MID", 3, 2, (0, 0), (30_000, 1000), (-500, 40_000)),
        boundary(2, 0, rectangle(-10_000, -10_000, 100_000, 90_000)),
        sref("MID", -7, 11),
        aref("HEX", 1, 4, (7, 7), (4000, 0), (2000, 3460)),
        aref("PAIR", 2, 2, (3, 5), (9000, 0), (0, 8000)),
    ),
)


class TestExpansionOrder:
    def test_nested_library_matches_old_walk(self):
        geometry = read_gdsii(NESTED_LIBRARY)
        expanded = geometry.expand()
        expected = old_expand(geometry, "TOP")
        assert len(expected) == 6 * (1 + 1 + 6 * 3 + 3 + 3) + 1 + 26 + 4 + 4 * 2
        assert_same_order(expanded, expected)
        assert {len(points) for _, _, points in expanded} == {4, 6}
        assert {(layer, datatype) for layer, datatype, _ in expanded} == {(1, 0), (1, 1), (2, 0)}

    def test_inner_cells_match_old_walk(self):
        geometry = read_gdsii(NESTED_LIBRARY)
        for name in ("HEX", "PAIR", "PAD", "MID"):
            assert_same_order(geometry.expand(name), old_expand(geometry, name))

    def test_arrayed_walls_export_matches_old_walk(self):
        layout = Layout(zones=(
            Zone(HoneycombSpec(pitch=4000, wall=1000, height=4000), Rect(0, 0, 30_000, 20_000)),
            Zone(HoneycombSpec(pitch=4000, wall=400, height=4000),
                 Rect(30_000, 0, 30_000, 20_000)),
        ))
        for mode in ("arrayed", "flat"):
            geometry = read_gdsii(
                write_gdsii(layout, mode=mode, polarity="walls")
            )
            assert_same_order(geometry.expand(), old_expand(geometry, "TOP"))

    def test_expand_returns_fresh_arrays(self):
        geometry = read_gdsii(NESTED_LIBRARY)
        first = geometry.expand("PAD")
        first[1][2][0, 0] = 123_456
        second = geometry.expand("PAD")
        assert second[1][2][0, 0] == 1500
        assert own_polygons(geometry.cells["PAD"])[1][2][0, 0] == 1500


# Random libraries for the order oracle: each cell references at most two
# of the cells defined before it, so one child recurs both consecutively
# and alternating with another.  Broken libraries may also reference
# undefined cells and any cell at all, cycles included.
ORACLE_SEEDS = range(200)


def random_point(rng: random.Random, reach: int) -> tuple[int, int]:
    return rng.randint(-reach, reach), rng.randint(-reach, reach)


def random_library(rng: random.Random, broken: bool = False) -> bytes:
    names = [f"C{k}" for k in range(rng.randint(2, 6))]
    structures = []
    for k, name in enumerate(names):
        elements = [
            boundary(
                rng.randint(1, 2),
                rng.randint(0, 1),
                [random_point(rng, 20_000) for _ in range(rng.choice((4, 6)))],
            )
            for _ in range(rng.randint(0, 3))
        ]
        pool = rng.sample(names[:k], min(2, k))
        if broken:
            pool += [rng.choice(names), f"U{k}"]
        if pool:
            elements += [
                sref(rng.choice(pool), *random_point(rng, 50_000))
                for _ in range(rng.randint(0, 3))
            ]
            elements += [
                aref(
                    rng.choice(pool),
                    rng.randint(1, 3),
                    rng.randint(1, 3),
                    random_point(rng, 50_000),
                    random_point(rng, 5000),
                    random_point(rng, 5000),
                )
                for _ in range(rng.randint(0, 3))
            ]
        rng.shuffle(elements)
        structures.append(structure(name, *elements))
    return library(*structures)


def reference_patterns(cell) -> set[str]:
    """Which of the oracle's reference patterns a cell shows, in expand order."""
    children = [ref.cell for ref in (*cell.srefs, *cell.arefs)]
    patterns = set()
    if not (cell.runs or children):
        patterns.add("empty cell")
    if any(a == b for a, b in zip(children, children[1:])):
        patterns.add("consecutive")
    if any(a == c != b for a, b, c in zip(children, children[1:], children[2:])):
        patterns.add("alternating")
    if cell.srefs and cell.arefs and cell.srefs[-1].cell == cell.arefs[0].cell:
        patterns.add("sref then aref")
    return patterns


class TestRandomExpansionOrder:
    def test_random_libraries_match_old_walk(self):
        seen = set()
        for seed in ORACLE_SEEDS:
            geometry = read_gdsii(random_library(random.Random(seed)))
            for name, cell in geometry.cells.items():
                seen |= reference_patterns(cell)
                assert_same_order(geometry.expand(name), old_expand(geometry, name))
        assert seen == {"empty cell", "consecutive", "alternating", "sref then aref"}

    def test_random_broken_libraries_fail_like_old_walk(self):
        failures = set()
        for seed in ORACLE_SEEDS:
            geometry = read_gdsii(random_library(random.Random(seed), broken=True))
            for name in geometry.cells:
                try:
                    expected = old_expand(geometry, name)
                except ValueError as error:
                    with pytest.raises(ValueError) as excinfo:
                        geometry.expand(name)
                    assert str(excinfo.value) == str(error), (seed, name)
                    failures.add("cycle" if "cycle" in str(error) else "undefined")
                    continue
                assert_same_order(geometry.expand(name), expected)
        assert failures == {"undefined", "cycle"}


# --------------------------------------------------------------------------
# Strict decoding inside a long run of identical boundaries
# --------------------------------------------------------------------------

RUN_LENGTH = 1200
ELEMENT = boundary(1, 0, hexagon(0, 0))  # 4 + 6 + 6 + 60 + 4 bytes
RUN_PREFIX = library(structure("TOP"))[: -8]  # up to STRNAME; drop ENDSTR, ENDLIB
RUN_SUFFIX = record(0x07, 0x00) + record(0x04, 0x00)
RUN_INDICES = [0, 1, 617, RUN_LENGTH - 1]


def run_stream(elements: list[bytes]) -> bytes:
    return RUN_PREFIX + b"".join(elements) + RUN_SUFFIX


def element_offset(k: int) -> int:
    return len(RUN_PREFIX) + k * len(ELEMENT)


def corrupted(k: int, position: int, raw: bytes) -> bytes:
    element = bytearray(ELEMENT)
    element[position : position + len(raw)] = raw
    elements = [ELEMENT] * RUN_LENGTH
    elements[k] = bytes(element)
    return run_stream(elements)


def parse_error(data: bytes) -> GdsParseError:
    with pytest.raises(GdsParseError) as excinfo:
        read_gdsii(data)
    return excinfo.value


class TestLongRunStrictness:
    def test_intact_run_decodes(self):
        assert len(ELEMENT) == 80
        geometry = read_gdsii(run_stream([ELEMENT] * RUN_LENGTH))
        polygons = own_polygons(geometry.cells["TOP"])
        assert len(polygons) == RUN_LENGTH
        expected = np.array(hexagon(0, 0), dtype=np.int64)
        for layer, datatype, points in polygons:
            assert (layer, datatype) == (1, 0)
            assert points.dtype == np.int64
            assert np.array_equal(points, expected)

    @pytest.mark.parametrize("k", RUN_INDICES)
    def test_unclosed_element(self, k):
        # The closure vertex is the XY payload's last 8 bytes (72..79 - 4).
        error = parse_error(corrupted(k, 68, struct.pack(">i", 1501)))
        offset = element_offset(k) + 16
        assert error.offset == offset
        assert str(error) == (
            f"offset {offset} (XY): boundary is not closed (first point must repeat last)"
        )

    @pytest.mark.parametrize("k", RUN_INDICES)
    @pytest.mark.parametrize(
        "position, new_type, message",
        [
            (0, 0x09, "(0x09): unexpected 0x09 inside structure 'TOP'"),
            (4, 0x0E, "(DATATYPE): expected LAYER, found DATATYPE"),
            (10, 0x0D, "(LAYER): expected DATATYPE, found LAYER"),
            (16, 0x11, "(ENDEL): data type 0x03, expected 0x00"),
            (76, 0x07, "(ENDSTR): expected ENDEL, found ENDSTR"),
        ],
    )
    def test_changed_record_type(self, k, position, new_type, message):
        error = parse_error(corrupted(k, position + 2, bytes([new_type])))
        offset = element_offset(k) + position
        assert error.offset == offset
        assert error.record_type == new_type
        assert str(error) == f"offset {offset} {message}"

    @pytest.mark.parametrize("k", RUN_INDICES)
    @pytest.mark.parametrize(
        "position, message",
        [
            (0, "(BOUNDARY): data type 0x06, expected 0x00"),
            (4, "(LAYER): data type 0x06, expected 0x02"),
            (10, "(DATATYPE): data type 0x06, expected 0x02"),
            (16, "(XY): data type 0x06, expected 0x03"),
            (76, "(ENDEL): data type 0x06, expected 0x00"),
        ],
    )
    def test_changed_data_type(self, k, position, message):
        error = parse_error(corrupted(k, position + 3, b"\x06"))
        offset = element_offset(k) + position
        assert error.offset == offset
        assert str(error) == f"offset {offset} {message}"

    @pytest.mark.parametrize("k", RUN_INDICES)
    @pytest.mark.parametrize(
        "cut, at, message",
        [
            (0, None, "(?): unexpected end of stream while reading element in "
                      "structure 'TOP'"),
            (2, 0, "(?): truncated record header (2 bytes left)"),
            (10, None, "(?): unexpected end of stream while reading DATATYPE"),
            (40, 16, "(XY): record of length 60 runs past end of stream (24 bytes left)"),
            (78, 76, "(?): truncated record header (2 bytes left)"),
        ],
    )
    def test_truncated_element(self, k, cut, at, message):
        data = run_stream([ELEMENT] * RUN_LENGTH)[: element_offset(k) + cut]
        error = parse_error(data)
        offset = len(data) if at is None else element_offset(k) + at
        assert error.offset == offset
        assert str(error) == f"offset {offset} {message}"


# --------------------------------------------------------------------------
# Run model: a cell's own polygons as vertex blocks
# --------------------------------------------------------------------------

def read_pinned_export(name: str, tmp_path) -> MaskGeometry:
    out = tmp_path / name
    assert run(["export", *PINNED_EXPORTS[name][0], "--out", str(out)]) == 0
    return read_gdsii(out.read_bytes())


class TestRunModel:
    def test_flat_export_reads_as_one_block(self, tmp_path, capsys):
        geometry = read_pinned_export("flat.gds", tmp_path)
        capsys.readouterr()
        [(layer, datatype, block)] = geometry.cells["TOP"].runs
        assert (layer, datatype) == (1, 0)
        assert block.shape == (52_200, 6, 2)
        assert block.dtype == np.int64

    def test_gradient_hexagon_cells_hold_one_polygon(self, tmp_path, capsys):
        geometry = read_pinned_export("gradient.gds", tmp_path)
        capsys.readouterr()
        hexagon_cells = [cell for name, cell in geometry.cells.items() if name.startswith("HEX_")]
        assert hexagon_cells
        for cell in hexagon_cells:
            [(layer, datatype, block)] = cell.runs
            assert (layer, datatype) == (1, 0)
            assert block.shape == (1, 6, 2)

    def test_interrupted_run_reads_as_three_runs(self):
        elements = [boundary(1, 0, hexagon(4000 * k, 0)) for k in range(300)]
        elements.insert(200, boundary(2, 0, rectangle(0, 0, 9000, 9000)))
        geometry = read_gdsii(run_stream(elements))
        cell = geometry.cells["TOP"]
        assert [(layer, datatype, block.shape) for layer, datatype, block in cell.runs] == [
            (1, 0, (200, 6, 2)),
            (2, 0, (1, 4, 2)),
            (1, 0, (100, 6, 2)),
        ]
        assert np.array_equal(cell.runs[2][2][0], hexagon(4000 * 200, 0))
        expanded = geometry.expand()
        own = own_polygons(cell)
        assert len(own) == len(expanded) == 301
        for (layer, datatype, points), (placed_layer, placed_datatype, placed) in zip(
            own, expanded
        ):
            assert (layer, datatype) == (placed_layer, placed_datatype)
            assert np.array_equal(points, placed)

    def test_int32_block_expands_to_int64(self):
        block = np.array([hexagon(0, 0), hexagon(3000, 0)], dtype=np.int32)
        cell = MaskCell(name="TOP", runs=[(1, 0, block)])
        geometry = MaskGeometry("LOTUS", 1e-3, 1e-9, {"TOP": cell})
        expanded = geometry.expand()
        assert [points.dtype for _, _, points in expanded] == [np.int64, np.int64]
        assert np.array_equal(expanded[1][2], hexagon(3000, 0))
        assert block.dtype == np.int32


class TestExpandBudget:
    """expand() refuses a cell of more than 2**22 polygons before placing any."""

    @staticmethod
    def expand_peak(geometry):
        tracemalloc.start()
        try:
            try:
                outcome = geometry.expand()
            except ValueError as error:
                outcome = error
            return outcome, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_largest_aref_is_refused_before_allocating(self):
        stream = library(
            structure("C", boundary(1, 0, rectangle(0, 0, 9, 9))),
            structure("TOP", aref("C", 32767, 32767, (0, 0), (10, 0), (0, 10))),
        )
        error, peak = self.expand_peak(read_gdsii(stream))
        assert str(error) == (
            "expanding cell 'TOP' places 1073676289 polygons, over the budget of 4194304"
        )
        assert peak < 1_000_000

    def test_own_polygons_count_toward_the_budget(self):
        stream = library(
            structure("C", boundary(1, 0, rectangle(0, 0, 9, 9))),
            structure(
                "TOP",
                boundary(2, 0, rectangle(0, 0, 9, 9)),
                aref("C", 2048, 2048, (0, 0), (10, 0), (0, 10)),
            ),
        )
        error, peak = self.expand_peak(read_gdsii(stream))
        assert str(error) == (
            "expanding cell 'TOP' places 4194305 polygons, over the budget of 4194304"
        )
        assert peak < 1_000_000

    def test_array_of_an_empty_cell_places_nothing(self):
        stream = library(
            structure("EMPTY"),
            structure("TOP", aref("EMPTY", 32767, 32767, (0, 0), (10, 0), (0, 10))),
        )
        expanded, peak = self.expand_peak(read_gdsii(stream))
        assert expanded == []
        assert peak < 1_000_000


def test_units_error_reports_the_units_record_offset():
    data = library(structure("TOP"), units_reals=1)
    assert data[44 + 2] == 0x03  # HEADER 6 + BGNLIB 28 + LIBNAME 10 bytes
    error = parse_error(data)
    assert error.offset == 44
    assert str(error) == "offset 44 (UNITS): UNITS must carry 2 reals, found 1"
    # 0.0 and -1.0 as excess-64 reals.
    data = library(structure("TOP"))
    data = data[:48] + bytes.fromhex("0000000000000000c110000000000000") + data[64:]
    error = parse_error(data)
    assert error.offset == 44
    assert str(error) == "offset 44 (UNITS): UNITS must be positive, got (0.0, -1.0)"


def test_every_record_kind_refuses_a_wrong_data_type():
    written = write_gdsii(Zone(HoneycombSpec(4000, 1000, 4000), Rect(0, 0, 20000, 20000)))
    with_sref = library(
        structure("C", boundary(1, 0, rectangle(0, 0, 9, 9))),
        structure("TOP", sref("C", 0, 0)),
    )
    checked = set()
    for data in (written, with_sref):
        kinds = {}
        for rec in iter_records(data):
            kinds.setdefault(rec.record_type, rec)
        for rec in kinds.values():
            wrong = 0x02 if rec.data_type == 0x06 else 0x06
            changed = bytearray(data)
            changed[rec.offset + 3] = wrong
            error = parse_error(bytes(changed))
            assert error.offset == rec.offset
            assert str(error) == (
                f"offset {rec.offset} ({rec.name}): "
                f"data type 0x{wrong:02X}, expected 0x{rec.data_type:02X}"
            )
        checked |= kinds.keys()
    assert checked == RECORD_NAMES.keys()


# --------------------------------------------------------------------------
# Rejected elements, one hand-assembled stream each
# --------------------------------------------------------------------------

def xy(*points: tuple[int, int]) -> bytes:
    coords = [c for point in points for c in point]
    return record(0x10, 0x03, struct.pack(f">{len(coords)}i", *coords))


BOUNDARY_HEAD = record(0x08, 0x00) + record(0x0D, 0x02, struct.pack(">h", 1))
SNAME_C = name_record(0x12, "C")


@pytest.mark.parametrize(
    "element, at, message",
    [
        (
            BOUNDARY_HEAD + record(0x0E, 0x02) + xy(*rectangle(0, 0, 9, 9), (0, 0)),
            10,
            "(DATATYPE): DATATYPE carries no value",
        ),
        (
            BOUNDARY_HEAD + record(0x0E, 0x02, struct.pack(">h", 0))
            + record(0x10, 0x03, struct.pack(">9i", *range(9))),
            16,
            "(XY): XY carries an odd number of coordinates",
        ),
        (
            boundary(1, 0, [(0, 0), (9, 0)]),
            16,
            "(XY): boundary needs at least 4 points (closed triangle), got 3",
        ),
        (
            record(0x0A, 0x00) + SNAME_C + xy((0, 0), (1, 1)),
            4 + len(SNAME_C),
            "(XY): SREF XY must carry exactly 1 point, got 2",
        ),
        (
            aref("C", 0, 2, (0, 0), (10, 0), (0, 10)),
            4 + len(SNAME_C),
            "(COLROW): COLROW must carry two positive counts, got (0, 2)",
        ),
        (
            record(0x0B, 0x00) + SNAME_C + record(0x13, 0x02, struct.pack(">2h", 1, 1))
            + xy((0, 0), (10, 0)),
            4 + len(SNAME_C) + 8,
            "(XY): AREF XY must carry exactly 3 points, got 2",
        ),
        # The first fault in stream order wins: each record is checked
        # before the next one is read.
        (
            record(0x08, 0x00) + record(0x0D, 0x02)
            + record(0x0E, 0x06, struct.pack(">h", 0)) + xy(*rectangle(0, 0, 9, 9), (0, 0)),
            4,
            "(LAYER): LAYER carries no value",
        ),
        (
            record(0x0B, 0x00) + SNAME_C + record(0x13, 0x02, struct.pack(">2h", 0, 2))
            + xy((0, 0), (10, 0)),
            4 + len(SNAME_C),
            "(COLROW): COLROW must carry two positive counts, got (0, 2)",
        ),
    ],
    ids=[
        "datatype-empty", "xy-odd", "boundary-3", "sref-xy", "colrow-0", "aref-xy",
        "layer-empty-before-bad-datatype", "colrow-0-before-short-xy",
    ],
)
def test_rejected_element_names_its_record(element, at, message):
    offset = len(RUN_PREFIX) + at
    error = parse_error(run_stream([element]))
    assert error.offset == offset
    assert str(error) == f"offset {offset} {message}"


def test_header_without_version_is_rejected():
    data = record(0x00, 0x02) + library(structure("TOP"))[6:]
    assert str(parse_error(data)) == "offset 0 (HEADER): HEADER carries no version"


def test_non_ascii_structure_name_is_rejected():
    data = library(structure("TOP"))
    name = name_record(0x06, "TOP")
    at = data.index(name)
    data = data[:at] + record(0x06, 0x06, b"T\xc9") + data[at + len(name):]
    error = parse_error(data)
    assert error.offset == at == 92  # HEADER 6, BGNLIB 28, LIBNAME 10, UNITS 20, BGNSTR 28
    assert str(error) == (
        f"offset {at} (STRNAME): non-ASCII string payload: 'ascii' codec can't "
        f"decode byte 0xc9 in position 1: ordinal not in range(128)"
    )


# --------------------------------------------------------------------------
# Seeded byte mutations
# --------------------------------------------------------------------------

MUTATION_TRIALS = 2000
MUTATION_STREAMS = [
    write_gdsii(
        Zone(HoneycombSpec(4000, 1000, 4000), Rect(0, 0, 20000, 20000)),
        mode="flat",
        polarity="walls",
    ),
    write_gdsii(
        design_linear_gradient(
            GradientSpec(length=40000, lateral_width=20000, pitch=4000, f_start=0.19, f_end=0.4375)
        )
    ),
    library(
        structure("C", boundary(1, 0, rectangle(0, 0, 9, 9)), boundary(2, 0, hexagon(0, 0))),
        structure(
            "TOP",
            sref("C", 0, 0),
            sref("C", 100, 0),
            aref("C", 2, 3, (0, 0), (10, 0), (0, 10)),
        ),
    ),
]
EXPAND_INSTANCE_BUDGET = 10**6  # a changed COLROW byte can ask for ~10**9 instances


def mutated(rng: random.Random, data: bytes, start: int = 0, stop: int | None = None) -> bytes:
    """``data`` with 1-3 bytes in ``[start, stop)`` XORed with random nonzero bytes."""
    changed = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        changed[rng.randrange(start, len(data) if stop is None else stop)] ^= rng.randrange(1, 256)
    return bytes(changed)


def test_mutated_streams_fail_only_with_value_errors():
    """1-3 changed bytes make read_gdsii raise GdsParseError or nothing else.

    A geometry that reads cleanly is expanded when its references place at
    most ``EXPAND_INSTANCE_BUDGET`` instances; expand may raise only
    ValueError.  Any other exception (IndexError, struct.error, ...) fails.
    """
    rng = random.Random(0)
    outcomes = {"parse error": 0, "expand error": 0, "clean": 0}
    for trial in range(MUTATION_TRIALS):
        data = mutated(rng, MUTATION_STREAMS[trial % len(MUTATION_STREAMS)])
        try:
            geometry = read_gdsii(data)
        except GdsParseError:
            outcomes["parse error"] += 1
            continue
        refs = [ref for cell in geometry.cells.values() for ref in (*cell.srefs, *cell.arefs)]
        if sum(ref.cols * ref.rows for ref in refs) > EXPAND_INSTANCE_BUDGET:
            continue
        try:
            geometry.expand()
        except ValueError:
            outcomes["expand error"] += 1
            continue
        outcomes["clean"] += 1
    assert all(outcomes.values()), outcomes


# --------------------------------------------------------------------------
# Strict AREF decoding
# --------------------------------------------------------------------------

# Arrayed gradients of 12 one-column runs: 24 AREFs in TOP.
AREF_STREAMS = [
    write_gdsii(
        design_linear_gradient(
            GradientSpec(length=48_000, lateral_width=20_000, pitch=4000, f_start=0.19, f_end=0.9)
        ),
        polarity=polarity,
    )
    for polarity in ("openings", "walls")
] + [
    # Names of two lengths, and a single placement between AREFs.
    library(
        structure("C", boundary(1, 0, rectangle(0, 0, 9, 9))),
        structure("CELL_B", boundary(2, 0, hexagon(0, 0))),
        structure(
            "TOP",
            *(aref("C", 2 + k, 3, (k, -k), (10, 1), (-2, 10)) for k in range(9)),
            sref("C", 5, 5),
            *(aref("CELL_B", 1, 1 + k, (0, 0), (0, 0), (3, 4000)) for k in range(10)),
            *(aref("C", 4, 2, (100 * k, 0), (10, 0), (0, 10)) for k in range(8)),
        ),
    ),
]


def read_outcome(data: bytes):
    """read_gdsii's error on a stream as (text, offset, record type), or "parsed"."""
    try:
        read_gdsii(data)
    except GdsParseError as error:
        return str(error), error.offset, error.record_type
    return "parsed"


def aref_region(data: bytes) -> tuple[int, int]:
    """The bytes from the first AREF to TOP's ENDSTR, TOP being the last structure."""
    offsets = [record.offset for record in iter_records(data) if record.record_type == 0x0B]
    return offsets[0], len(data) - 8  # ENDSTR and ENDLIB are 4 bytes each


class TestArefStrictness:
    def test_mutations_fail_at_every_aref_record(self):
        rng = random.Random(26)
        kinds = set()
        for trial in range(800):
            data = AREF_STREAMS[trial % len(AREF_STREAMS)]
            outcome = read_outcome(mutated(rng, data, *aref_region(data)))
            kinds.add(outcome if outcome == "parsed" else outcome[2])
        # Clean reads and errors at each record of an AREF element.
        assert {"parsed", 0x0B, 0x12, 0x13, 0x10, 0x11} <= kinds, kinds

    @pytest.mark.parametrize("k", [1, 7, 23])
    @pytest.mark.parametrize(
        "at, xor, record_type, message",
        [
            (8, b"\x81", 0x12, "non-ASCII string payload: 'ascii' codec can't decode "
                                "byte 0xc9 in position 0: ordinal not in range(128)"),
            (20, b"\x00\x01", 0x13, "COLROW must carry two positive counts, got (0, 2)"),
            (22, b"\xff\xfd", 0x13, "COLROW must carry two positive counts, got (1, -1)"),
            (51, b"\x01", 0x10, "AREF spacing is not an integer number of database units"),
            (26, b"\x01", 0x11, "data type 0x03, expected 0x00"),
            (54, b"\x16", 0x07, "expected ENDEL, found ENDSTR"),
        ],
    )
    def test_a_fault_deep_among_arefs_keeps_its_error(self, k, at, xor, record_type, message):
        # Each AREF is 56 bytes: AREF 0-3, SNAME 4-15 ("HEX_nnnn" from 8),
        # COLROW 16-23 (counts from 20), XY 24-51 (the row end's y ends at
        # 51) and ENDEL 52-55.  Odd-k arrays are the one-column, two-row
        # odd rows of a one-column run.
        design = design_linear_gradient(
            GradientSpec(length=48_000, lateral_width=14_000, pitch=4000, f_start=0.19, f_end=0.9)
        )
        data = bytearray(write_gdsii(design))
        element = aref_region(bytes(data))[0] + 56 * k
        assert data[element + 2] == 0x0B and data[element + 20 : element + 24] == b"\0\1\0\2"
        for index, value in enumerate(xor, element + at):
            data[index] ^= value
        text, offset, found = read_outcome(bytes(data))
        assert found == record_type
        assert text == f"offset {offset} ({RECORD_NAMES[record_type][0]}): {message}"
        assert element <= offset < element + 56


# --------------------------------------------------------------------------
# The row-buffer flat writer against the numpy template
# --------------------------------------------------------------------------

def template_flat_array(out: bytearray, array: LatticeArray, layer: int, datatype: int) -> None:
    """Frozen copy of the flat writer that added each center to a numpy template."""
    hexagon = hexagon_vertices(array.comb)
    (x0, y0), (cx, cy), (rx, ry) = array.origin, array.col_vector, array.row_vector
    i = np.arange(array.cols, dtype=np.int64)
    j = np.arange(array.rows, dtype=np.int64)[:, None]
    centers = np.stack([(x0 + i * cx + j * rx).ravel(), (y0 + i * cy + j * ry).ravel()], axis=1)
    low, high = centers.min(axis=0).tolist(), centers.max(axis=0).tolist()
    if not all(
        -(2**31) <= offset + bound <= 2**31 - 1
        for point in hexagon
        for axis, offset in enumerate(point)
        for bound in (low[axis], high[axis])
    ):
        raise ValueError(
            "coordinate overflow: XY values must fit signed 32-bit database "
            f"units (cell centers span {low} to {high} nm)"
        )
    template = np.frombuffer(boundary(layer, datatype, hexagon), dtype=">i4").astype(np.int64)
    xy_end = 5 + 2 * (len(hexagon) + 1)
    along_x = np.zeros_like(template)
    along_x[5:xy_end:2] = 1
    along_y = np.zeros_like(template)
    along_y[6:xy_end:2] = 1
    for first in range(0, len(centers), 8192):
        block = centers[first : first + 8192]
        words = template + block[:, :1] * along_x + block[:, 1:] * along_y
        out += words.astype(">i4").data


def flat_outcome(writer, *args):
    out = bytearray(b"HEAD")
    try:
        writer(out, *args)
    except ValueError as error:
        return str(error)
    return bytes(out)


# hexagon_vertices(3000): half width 1500, apex 1732; (3001): 1500, 1733.
TOP, BOTTOM = 2**31 - 1, -(2**31)
FLAT_ARRAYS = {
    "one row": LatticeArray(3000, (0, 0), 7, 1, (4000, 0), (0, 6920)),
    "one column": LatticeArray(3000, (0, 0), 1, 9, (4000, 0), (0, 6920)),
    "one cell": LatticeArray(3600, (5, -5), 1, 1, (4000, 0), (0, 6920)),
    "odd rows": LatticeArray(3000, (2000, 3460), 5, 3, (4000, 0), (0, 6920)),
    "negative origin": LatticeArray(3600, (-7130, -2350), 4, 5, (4000, 0), (0, 6920)),
    "odd comb": LatticeArray(3001, (-1, 1), 3, 4, (4002, 0), (0, 6940)),
    "skewed vectors": LatticeArray(2990, (-1000, 500), 6, 4, (4000, 35), (-90, 6920)),
    "backward vectors": LatticeArray(3000, (90_000, 70_000), 5, 6, (-4000, 0), (10, -6920)),
    "x at the top": LatticeArray(3000, (TOP - 1500 - 3 * 4000, 0), 4, 2, (4000, 0), (0, 6920)),
    "x past the top": LatticeArray(3000, (TOP - 1499 - 3 * 4000, 0), 4, 2, (4000, 0), (0, 6920)),
    "x at the bottom": LatticeArray(3000, (BOTTOM + 1500, 0), 4, 2, (4000, 0), (0, 6920)),
    "x past the bottom": LatticeArray(3000, (BOTTOM + 1499, 0), 4, 2, (4000, 0), (0, 6920)),
    "y at the top": LatticeArray(3001, (0, TOP - 1733 - 6940), 2, 2, (4002, 0), (0, 6940)),
    "y past the top": LatticeArray(3001, (0, TOP - 1732 - 6940), 2, 2, (4002, 0), (0, 6940)),
    "y at the bottom": LatticeArray(3000, (0, BOTTOM + 1732), 2, 2, (4000, 0), (0, 6920)),
    "y past the bottom": LatticeArray(3000, (0, BOTTOM + 1731), 2, 2, (4000, 0), (0, 6920)),
}


class TestRowBufferFlatWriter:
    @pytest.mark.parametrize("name", sorted(FLAT_ARRAYS))
    @pytest.mark.parametrize("layer, datatype", [(0, 0), (255, 255), (1, 0), (0, 255)])
    def test_same_bytes_and_errors_as_the_template(self, name, layer, datatype):
        array = FLAT_ARRAYS[name]
        expected = flat_outcome(template_flat_array, array, layer, datatype)
        assert flat_outcome(maskio._write_flat_array, array, layer, datatype) == expected
        if "past" in name:
            assert expected.startswith("coordinate overflow: XY values must fit signed 32-bit")
        else:
            assert len(expected) == 4 + 80 * array.cols * array.rows

    @pytest.mark.parametrize("polarity", ["openings", "walls"])
    @pytest.mark.parametrize("layer, datatype", [(0, 0), (255, 254)])
    def test_streams_equal_the_template_writers(self, monkeypatch, polarity, layer, datatype):
        targets = [
            Layout(zones=(
                Zone(HoneycombSpec(4000, 1000, 4000), Rect(-30_000, -9_000, 30_000, 20_000)),
                Zone(HoneycombSpec(4000, 400, 4000), Rect(0, -9_000, 17_000, 20_000)),
            )),
            Zone(HoneycombSpec(4000, 400, 4000), Rect(0, 0, 4000, 3000)),  # one cell
            design_linear_gradient(
                GradientSpec(length=40_000, lateral_width=10_000, pitch=4000,
                             f_start=0.19, f_end=0.4375)
            ),
        ]
        options = {"mode": "flat", "polarity": polarity, "layer": layer, "datatype": datatype}
        streams = [write_gdsii(target, **options) for target in targets]
        monkeypatch.setattr(maskio, "_write_flat_array", template_flat_array)
        assert streams == [write_gdsii(target, **options) for target in targets]
