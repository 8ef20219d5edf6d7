"""Mask artifact I/O: GDSII geometry round trips, SVG previews, stats.

Independence of the checks:

* ``walk_records`` below is a self-contained record walker (struct only,
  no package imports) used to validate the writer's output framing.
* ``EXTERNAL_HEX_STREAM`` is a GDSII byte stream assembled by hand from the
  format definition, never touched by the package writer, used to validate
  the reader.
* ``independent_centers``/``independent_hexagon`` recompute lattice
  geometry from first principles (plain loops, no package calls) for the
  round-trip vertex comparisons.
"""

import math
import random
import struct
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from lotuskit.gdsii import GdsParseError
from lotuskit.gradient import GradientDesign, GradientSpec, Measure, design_linear_gradient
from lotuskit.lattice import (
    HoneycombSpec,
    LatticeArray,
    Layout,
    Rect,
    Zone,
    build_two_zone_layout,
    lattice_arrays,
)
from lotuskit.maskio import (
    CellArray,
    MaskCell,
    MaskGeometry,
    layout_stats,
    read_gdsii,
    write_gdsii,
    write_svg,
)
from lotuskit.reference import reference_two_zone_layout

WIDE = HoneycombSpec(pitch=4000, wall=1000, height=4000)
FINE = HoneycombSpec(pitch=4000, wall=400, height=4000)
CROP = Rect(0, 0, 100_000, 100_000)
# The 2,500-column ramp of the benchmark, and a falling one of 150 columns.
BENCHMARK_RAMP = design_linear_gradient(GradientSpec(
    length=10_000_000, lateral_width=200_000, pitch=4000, f_start=0.19, f_end=0.4375,
))
FALLING_RAMP = design_linear_gradient(GradientSpec(
    length=602_000, lateral_width=101_000, pitch=4000, f_start=0.4375, f_end=0.19,
))

ROW_SPACING = 3460  # snap(4000 * sqrt(3)/2, 10 nm grid)


# --------------------------------------------------------------------------
# Independent oracles
# --------------------------------------------------------------------------

def random_layout(rng: random.Random) -> Layout:
    """Some cells of a tiling whose columns and rows vary in size, in row
    order (so that neighbours in a row meet in turn) or shuffled."""
    xs, ys = [4000 * rng.randint(-3, 3)], [2000 * rng.randint(-3, 3)]
    for _ in range(rng.randint(1, 5)):
        xs.append(xs[-1] + 4000 * rng.randint(1, 3))
    for _ in range(rng.randint(1, 3)):
        ys.append(ys[-1] + 2000 * rng.randint(1, 4))
    zones = [
        Zone(rng.choice((WIDE, FINE)), Rect(x0, y0, x1 - x0, y1 - y0))
        for y0, y1 in zip(ys, ys[1:])
        for x0, x1 in zip(xs, xs[1:])
        if rng.random() < 0.8
    ]
    if rng.random() < 0.5:
        rng.shuffle(zones)
    return Layout(zones=tuple(zones))


def walls_backgrounds(target) -> list[Rect]:
    """The background rectangles of a walls-polarity stream, read back."""
    runs = read_gdsii(write_gdsii(target, polarity="walls")).cells["TOP"].runs
    rects = []
    for _, datatype, block in runs:
        for points in block if datatype == 0 else ():
            (x0, y0), (x1, y1) = points.min(axis=0), points.max(axis=0)
            assert len(points) == 4 and sorted(map(tuple, points.tolist())) == [
                (x0, y0), (x0, y1), (x1, y0), (x1, y1)
            ]
            rects.append(Rect(int(x0), int(y0), int(x1 - x0), int(y1 - y0)))
    return rects


def walk_records(data: bytes) -> list[tuple[int, int, bytes]]:
    """Minimal stand-alone GDSII record walker sharing no package code."""
    records = []
    offset = 0
    while offset < len(data):
        assert len(data) - offset >= 4, "truncated record header"
        length, record_type, data_type = struct.unpack_from(">HBB", data, offset)
        assert length >= 4 and length % 2 == 0, "bad record length"
        assert offset + length <= len(data), "record overruns stream"
        records.append((record_type, data_type, data[offset + 4 : offset + length]))
        offset += length
    return records


def independent_hexagon(comb: int, cx: int, cy: int) -> list[tuple[int, int]]:
    """Hexagon vertices (flat sides facing +/-x) from the defining geometry."""
    half = comb // 2
    edge = round(comb * math.sqrt(3.0) / 6.0)
    apex = round(comb * math.sqrt(3.0) / 3.0)
    return [
        (cx + half, cy - edge),
        (cx + half, cy + edge),
        (cx, cy + apex),
        (cx - half, cy + edge),
        (cx - half, cy - edge),
        (cx, cy - apex),
    ]


def independent_centers(extent: Rect, pitch: int) -> list[tuple[int, int]]:
    """Triangular lattice centers over [origin, origin+size) by plain loops."""
    centers = []
    level = 0
    while level * ROW_SPACING < extent.height:
        y = extent.y + level * ROW_SPACING
        x = extent.x + (pitch // 2 if level % 2 else 0)
        while x < extent.x + extent.width:
            centers.append((x, y))
            x += pitch
        level += 1
    return centers


def canonical(polygons) -> list[tuple[tuple[int, int], ...]]:
    """Order-independent form: each polygon as its sorted vertex tuple."""
    return sorted(
        tuple(sorted((int(x), int(y)) for x, y in polygon)) for polygon in polygons
    )


def real8(value: float) -> bytes:
    """Hand encoder for the two unit constants (subset: positive values)."""
    fraction, exponent2 = math.frexp(value)
    exponent16 = -((-exponent2) // 4)
    mantissa = int(fraction * (1 << 53)) << (3 + exponent2 - 4 * exponent16)
    return struct.pack(">Q", (64 + exponent16) << 56 | mantissa)


def record(record_type: int, data_type: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HBB", len(payload) + 4, record_type, data_type) + payload


def external_stream(elements: bytes) -> bytes:
    """Assemble a GDSII stream by hand around the given HEX-cell elements."""
    return b"".join(
        [
            record(0x00, 0x02, struct.pack(">h", 600)),
            record(0x01, 0x02, b"\x00" * 24),
            record(0x02, 0x06, b"EXT\x00"),
            record(0x03, 0x05, real8(0.001) + real8(1e-9)),
            record(0x05, 0x02, b"\x00" * 24),
            record(0x06, 0x06, b"HEX\x00"),
            record(0x08, 0x00),
            record(0x0D, 0x02, struct.pack(">h", 1)),
            record(0x0E, 0x02, struct.pack(">h", 0)),
            record(
                0x10,
                0x03,
                struct.pack(
                    ">14i",
                    *[
                        coord
                        for point in (
                            independent_hexagon(3000, 0, 0)
                            + independent_hexagon(3000, 0, 0)[:1]
                        )
                        for coord in point
                    ],
                ),
            ),
            record(0x11, 0x00),
            record(0x07, 0x00),
            elements,
            record(0x04, 0x00),
        ]
    )


EXTERNAL_HEX_STREAM = external_stream(b"")

EXTERNAL_SREF_STREAM = external_stream(
    b"".join(
        [
            record(0x05, 0x02, b"\x00" * 24),
            record(0x06, 0x06, b"TOP\x00"),
            record(0x0A, 0x00),
            record(0x12, 0x06, b"HEX\x00"),
            record(0x10, 0x03, struct.pack(">2i", 100, 200)),
            record(0x11, 0x00),
            record(0x07, 0x00),
        ]
    )
)

EXTERNAL_AREF_STREAM = external_stream(
    b"".join(
        [
            record(0x05, 0x02, b"\x00" * 24),
            record(0x06, 0x06, b"TOP\x00"),
            record(0x0B, 0x00),
            record(0x12, 0x06, b"HEX\x00"),
            record(0x13, 0x02, struct.pack(">2h", 3, 2)),
            record(
                0x10, 0x03,
                struct.pack(">6i", 0, 0, 3 * 4000, 0, 0, 2 * 6920),
            ),
            record(0x11, 0x00),
            record(0x07, 0x00),
        ]
    )
)


# --------------------------------------------------------------------------
# Writer
# --------------------------------------------------------------------------

class TestWriteGdsii:
    def test_magic_first_six_bytes(self):
        data = write_gdsii(Layout(zones=()))
        assert data[:6] == bytes.fromhex("000600020258")

    def test_byte_reproducible(self):
        layout = build_two_zone_layout(WIDE, FINE)
        assert write_gdsii(layout) == write_gdsii(layout)

    def test_full_zone_arrayed_is_small(self):
        layout = build_two_zone_layout(WIDE, FINE)
        data = write_gdsii(layout, mode="arrayed")
        assert len(data) < 10_000

    def test_record_grammar_validated_by_standalone_walker(self):
        layout = build_two_zone_layout(WIDE, FINE)
        records = walk_records(write_gdsii(layout))
        types = [r[0] for r in records]
        hex_cell = [0x05, 0x06, 0x08, 0x0D, 0x0E, 0x10, 0x11, 0x07]
        aref = [0x0B, 0x12, 0x13, 0x10, 0x11]
        expected = (
            [0x00, 0x01, 0x02, 0x03]
            + hex_cell * 2  # HEX_3000 and HEX_3600
            + [0x05, 0x06] + aref * 4 + [0x07]  # TOP with two AREFs per zone
            + [0x04]
        )
        assert types == expected

    def test_units_payload_matches_hand_encoding(self):
        records = walk_records(write_gdsii(Layout(zones=())))
        units = [r for r in records if r[0] == 0x03][0]
        assert units[2] == real8(0.001) + real8(1e-9)
        assert units[2].hex() == "3e4189374bc6a7f03944b82fa09b5a54"

    def test_header_version_600(self):
        records = walk_records(write_gdsii(Layout(zones=())))
        assert struct.unpack(">h", records[0][2])[0] == 600

    def test_timestamps_zeroed_by_default(self):
        records = walk_records(write_gdsii(Zone(spec=WIDE, extent=CROP)))
        bgnlib = records[1]
        assert bgnlib[2] == b"\x00" * 24

    def test_aref_counts_match_independent_census(self):
        zone = Zone(spec=WIDE, extent=CROP)
        records = walk_records(write_gdsii(zone))
        colrows = [struct.unpack(">2h", r[2]) for r in records if r[0] == 0x13]
        levels = math.ceil(CROP.height / ROW_SPACING)  # 29
        base_columns = math.ceil(CROP.width / WIDE.pitch)  # 25
        assert colrows == [
            (base_columns, (levels + 1) // 2),
            (base_columns, levels // 2),
        ]

    def test_odd_pitch_cannot_be_arrayed(self):
        spec = HoneycombSpec(pitch=4001, wall=401, height=4000)
        zone = Zone(spec=spec, extent=Rect(0, 0, 20_000, 20_000))
        with pytest.raises(ValueError, match="even pitch"):
            write_gdsii(zone, mode="arrayed")

    def test_array_beyond_16_bits_is_tiled(self):
        def tiles(data: bytes) -> list[tuple[int, int, int, int]]:
            """Each AREF's column and row counts and origin."""
            records = walk_records(data)
            return [
                (*struct.unpack(">2h", colrow[2]), *struct.unpack(">2i", xy[2][:8]))
                for colrow, xy in zip(records, records[1:])
                if colrow[0] == 0x13
            ]

        def census(data: bytes) -> int:
            arrays = read_gdsii(data).cells["TOP"].arefs
            return sum(array.cols * array.rows for array in arrays)

        # One row of 32,768 cells: a full tile, then the one cell left.
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 32768 * 4000, 1000))
        data = write_gdsii(zone)
        assert tiles(data) == [(32767, 1, 0, 0), (1, 1, 32767 * 4000, 0)]
        assert census(data) == layout_stats(zone)["total_cells"] == 32768
        # A uniform ramp is one run, written as 2 arrays of 40,000 columns.
        ramp = design_linear_gradient(GradientSpec(
            length=40_000 * 4000, lateral_width=20_000, pitch=4000, f_start=0.3, f_end=0.3,
        ))
        data = write_gdsii(ramp)
        assert len(ramp.runs) == 1 and len(tiles(data)) == 4
        assert all(cols <= 32767 and rows <= 32767 for cols, rows, _, _ in tiles(data))
        assert census(data) == layout_stats(ramp)["total_cells"] == 40_000 * 6
        # The first tile fits int32, the second tile's column end does not.
        far = Zone(spec=WIDE, extent=Rect(2**31 - 1 - 35_000 * 4000, 0, 40_000 * 4000, 1000))
        with pytest.raises(ValueError, match="coordinate overflow"):
            write_gdsii(far)

    def test_coordinate_overflow_rejected(self):
        # An in-range origin whose cells cross 2**31 - 1 nm.
        zone = Zone(spec=WIDE, extent=Rect(2**31 - 1 - 10_000, 0, 20_000, 20_000))
        with pytest.raises(ValueError, match="overflow"):
            write_gdsii(zone, mode="flat")

    @pytest.mark.parametrize("mode", ["flat", "arrayed", "svg"])
    def test_odd_pitch_error_names_no_mode(self, mode):
        spec = HoneycombSpec(pitch=4001, wall=401, height=4000)
        zone = Zone(spec=spec, extent=Rect(0, 0, 20_000, 20_000))
        # Built directly: design_linear_gradient rejects the x.5 half pitch
        # first, and this checks the writers' own message.
        design = GradientDesign(
            runs=((1, 401), (1, 601)),
            spec=GradientSpec(
                length=8002, lateral_width=20_000, pitch=4001,
                f_start=0.19, f_end=0.3, measure=Measure.AREA_FRACTION,
            ),
            fabrication_grid=1,
        )
        for target in (zone, design):
            with pytest.raises(ValueError, match="even pitch") as error:
                if mode == "svg":
                    write_svg(target)
                else:
                    write_gdsii(target, mode=mode)
            assert "mode" not in str(error.value)

    def test_far_origin_stays_exact(self):
        # A lattice anchored 4000 nm below 2**31 - 1 nm: its cells cross
        # the int32 range, so both GDSII modes refuse them, while the SVG
        # preview, which has no word size, still draws every cell.
        zone = Zone(spec=WIDE, extent=Rect(2**31 - 1 - 4000, 0, 8000, 8000))
        for mode in ("flat", "arrayed"):
            with pytest.raises(ValueError, match="coordinate overflow"):
                write_gdsii(zone, mode=mode)
        assert write_svg(zone).count("<path") == 6

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            write_gdsii(Layout(zones=()), layer=256)
        with pytest.raises(ValueError):
            write_gdsii(Layout(zones=()), layer=-1)

    def test_settings_follow_the_integer_rule(self):
        # As for lengths in nanometers: a bool is no number here, while a
        # numpy integer is one.
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 8000, 4000))
        with pytest.raises(ValueError, match=r"^layer must be an integer, got True$"):
            write_gdsii(zone, layer=True)
        with pytest.raises(ValueError, match=r"^datatype must be an integer, got False$"):
            write_gdsii(zone, datatype=False)
        assert write_gdsii(zone, layer=np.int64(7)) == write_gdsii(zone, layer=7)
        with pytest.raises(ValueError, match="openings on datatype 256, beyond 255"):
            write_gdsii(zone, datatype=np.uint8(255), polarity="walls")
        with pytest.raises(ValueError, match="mode must be 'flat' or 'arrayed', got 'bogus'"):
            write_gdsii(zone, mode="bogus")

    def test_walls_polarity_needs_datatype_headroom(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 20_000, 20_000))
        with pytest.raises(ValueError, match="datatype"):
            write_gdsii(zone, datatype=255, polarity="walls")

    def test_unknown_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            write_gdsii(Layout(zones=()), polarity="holes")


# --------------------------------------------------------------------------
# Reader on hand-assembled streams (independent of the writer)
# --------------------------------------------------------------------------

class TestReadExternalStreams:
    def test_single_hexagon_cell(self):
        geometry = read_gdsii(EXTERNAL_HEX_STREAM)
        assert geometry.library_name == "EXT"
        assert geometry.db_unit_in_user_units == 0.001
        assert geometry.database_unit == 1e-9
        assert list(geometry.cells) == ["HEX"]
        layer, datatype, block = geometry.cells["HEX"].runs[0]
        assert layer == 1
        assert datatype == 0
        assert canonical([block[0]]) == canonical(
            [independent_hexagon(3000, 0, 0)]
        )

    def test_sref_translation(self):
        geometry = read_gdsii(EXTERNAL_SREF_STREAM)
        assert geometry.top_cell_names() == ["TOP"]
        assert geometry.cells["TOP"].srefs == [
            CellArray("HEX", (100, 200), 1, 1, (0, 0), (0, 0))
        ]
        expanded = geometry.expand()
        assert canonical(points for _, _, points in expanded) == canonical(
            [independent_hexagon(3000, 100, 200)]
        )

    def test_aref_unrolling(self):
        geometry = read_gdsii(EXTERNAL_AREF_STREAM)
        array = geometry.cells["TOP"].arefs[0]
        assert (array.cols, array.rows) == (3, 2)
        assert array.col_vector == (4000, 0)
        assert array.row_vector == (0, 6920)
        expanded = geometry.expand("TOP")
        expected = [
            independent_hexagon(3000, i * 4000, j * 6920)
            for i in range(3)
            for j in range(2)
        ]
        assert canonical(points for _, _, points in expanded) == canonical(expected)

    def test_truncation_reports_offset(self):
        data = EXTERNAL_HEX_STREAM[:-4]  # drop ENDLIB
        with pytest.raises(GdsParseError, match="unexpected end of stream"):
            read_gdsii(data)

    def test_wrong_first_record(self):
        with pytest.raises(GdsParseError, match="expected HEADER"):
            read_gdsii(EXTERNAL_HEX_STREAM[6:])

    def test_records_after_endlib_rejected(self):
        data = EXTERNAL_HEX_STREAM + record(0x04, 0x00)
        with pytest.raises(GdsParseError, match="after ENDLIB"):
            read_gdsii(data)

    def test_records_after_endlib_checked_for_data_type(self):
        data = EXTERNAL_HEX_STREAM + record(0x04, 0x02)
        with pytest.raises(GdsParseError) as excinfo:
            read_gdsii(data)
        offset = len(EXTERNAL_HEX_STREAM)
        assert str(excinfo.value) == f"offset {offset} (ENDLIB): data type 0x02, expected 0x00"

    def test_duplicate_structure_rejected(self):
        duplicate = b"".join(
            [
                record(0x05, 0x02, b"\x00" * 24),
                record(0x06, 0x06, b"HEX\x00"),
                record(0x07, 0x00),
            ]
        )
        with pytest.raises(GdsParseError, match="duplicate structure"):
            read_gdsii(external_stream(duplicate))

    def test_unclosed_boundary_rejected(self):
        hexagon = independent_hexagon(3000, 0, 0)
        coords = [c for point in hexagon for c in point]  # no closure vertex
        elements = b"".join(
            [
                record(0x05, 0x02, b"\x00" * 24),
                record(0x06, 0x06, b"BAD\x00"),
                record(0x08, 0x00),
                record(0x0D, 0x02, struct.pack(">h", 1)),
                record(0x0E, 0x02, struct.pack(">h", 0)),
                record(0x10, 0x03, struct.pack(f">{len(coords)}i", *coords)),
                record(0x11, 0x00),
                record(0x07, 0x00),
            ]
        )
        with pytest.raises(GdsParseError, match="not closed"):
            read_gdsii(external_stream(elements))

    def test_non_divisible_aref_span_rejected(self):
        elements = b"".join(
            [
                record(0x05, 0x02, b"\x00" * 24),
                record(0x06, 0x06, b"TOP\x00"),
                record(0x0B, 0x00),
                record(0x12, 0x06, b"HEX\x00"),
                record(0x13, 0x02, struct.pack(">2h", 3, 2)),
                record(0x10, 0x03, struct.pack(">6i", 0, 0, 10_001, 0, 0, 4000)),
                record(0x11, 0x00),
                record(0x07, 0x00),
            ]
        )
        with pytest.raises(GdsParseError, match="not an integer number"):
            read_gdsii(external_stream(elements))

    def test_empty_layer_record_rejected(self):
        elements = b"".join(
            [
                record(0x05, 0x02, b"\x00" * 24),
                record(0x06, 0x06, b"BAD\x00"),
                record(0x08, 0x00),
                record(0x0D, 0x02),
                record(0x0E, 0x02, struct.pack(">h", 0)),
                record(0x10, 0x03, struct.pack(">8i", 0, 0, 1, 0, 1, 1, 0, 0)),
                record(0x11, 0x00),
                record(0x07, 0x00),
            ]
        )
        with pytest.raises(GdsParseError, match="LAYER carries no value"):
            read_gdsii(external_stream(elements))


# --------------------------------------------------------------------------
# Round trips and mode equivalence
# --------------------------------------------------------------------------

class TestRoundTrip:
    def expected_crop_polygons(self, spec: HoneycombSpec) -> list:
        return [
            independent_hexagon(spec.comb_diameter, cx, cy)
            for cx, cy in independent_centers(CROP, spec.pitch)
        ]

    @pytest.mark.parametrize("mode", ["flat", "arrayed"])
    def test_crop_round_trip_matches_independent_geometry(self, mode):
        zone = Zone(spec=WIDE, extent=CROP)
        geometry = read_gdsii(write_gdsii(zone, mode=mode))
        expanded = geometry.expand("TOP")
        assert canonical(points for _, _, points in expanded) == canonical(
            self.expected_crop_polygons(WIDE)
        )

    def test_flat_boundary_count_equals_tiling_census(self):
        zone = Zone(spec=WIDE, extent=CROP)
        geometry = read_gdsii(write_gdsii(zone, mode="flat"))
        count = sum(len(block) for _, _, block in geometry.cells["TOP"].runs)
        assert count == sum(a.cols * a.rows for a in lattice_arrays(zone, 10)) == 725

    def test_two_zone_modes_expand_identically(self):
        crop_layout = Layout(
            zones=(
                Zone(spec=WIDE, extent=Rect(0, 0, 60_000, 60_000)),
                Zone(spec=FINE, extent=Rect(60_000, 0, 60_000, 60_000)),
            )
        )
        flat = read_gdsii(write_gdsii(crop_layout, mode="flat"))
        arrayed = read_gdsii(write_gdsii(crop_layout, mode="arrayed"))
        flat_polygons = canonical(points for _, _, points in flat.expand("TOP"))
        arrayed_polygons = canonical(points for _, _, points in arrayed.expand("TOP"))
        assert flat_polygons == arrayed_polygons
        assert len(flat_polygons) > 0

    def test_gradient_modes_expand_identically(self):
        spec = GradientSpec(
            length=20_000, lateral_width=15_000, pitch=4000,
            f_start=0.10, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        flat = read_gdsii(write_gdsii(design, mode="flat"))
        arrayed = read_gdsii(write_gdsii(design, mode="arrayed"))
        flat_polygons = canonical(points for _, _, points in flat.expand("TOP"))
        assert flat_polygons == canonical(points for _, _, points in arrayed.expand("TOP"))
        # Independent reconstruction: per-column combs on the shared lattice.
        walls = design.columns
        expected = []
        level = 0
        while level * ROW_SPACING < 15_000:
            y = level * ROW_SPACING
            x = 2000 if level % 2 else 0
            while x < 20_000:
                comb = 4000 - walls[x // 4000]
                expected.append(independent_hexagon(comb, x, y))
                x += 4000
            level += 1
        assert flat_polygons == canonical(expected)

    def test_empty_layout_round_trips(self):
        geometry = read_gdsii(write_gdsii(Layout(zones=())))
        assert geometry.top_cell_names() == ["TOP"]
        assert geometry.expand() == []

    def test_walls_polarity_adds_background_rect(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 20_000, 20_000))
        geometry = read_gdsii(
            write_gdsii(zone, mode="flat", polarity="walls")
        )
        runs = geometry.cells["TOP"].runs
        rects = [points for _, datatype, block in runs if datatype == 0 for points in block]
        openings = [points for _, datatype, block in runs if datatype == 1 for points in block]
        assert len(rects) == 1
        assert len(rects[0]) == 4
        assert rects[0][:, 0].max() == 20_000
        assert len(openings) == sum(a.cols * a.rows for a in lattice_arrays(zone, 10))

    def test_walls_backgrounds_cover_the_zones_once(self):
        rng = random.Random(19)
        merged = 0
        for _ in range(120):
            layout = random_layout(rng)
            rects = walls_backgrounds(layout)
            assert all(not a.overlaps(b) for i, a in enumerate(rects) for b in rects[i + 1 :])
            area = sum(zone.extent.width * zone.extent.height for zone in layout.zones)
            assert sum(rect.width * rect.height for rect in rects) == area
            merged += len(rects) < len(layout.zones)
        assert merged >= 20

    def test_a_design_draws_one_ramp_rectangle(self):
        rng = random.Random(5)
        for _ in range(40):
            low, high = sorted(rng.uniform(0.2, 0.45) for _ in range(2))
            spec = GradientSpec(
                length=rng.randint(4000, 160_000), lateral_width=rng.randint(1000, 30_000),
                pitch=4000, f_start=rng.choice((low, high)), f_end=rng.choice((low, high)),
            )
            design = design_linear_gradient(spec)
            expected = [Rect(0, 0, design.length_nm, spec.lateral_width)]
            assert walls_backgrounds(design) == expected

    @pytest.mark.parametrize("writer", [write_gdsii, write_svg, layout_stats])
    def test_only_a_layout_or_a_zone_is_a_target(self, writer):
        with pytest.raises(TypeError, match=r"^expected Layout or Zone, got HoneycombSpec$"):
            writer(WIDE)

    def test_custom_layer_round_trips(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 8000, 4000))
        geometry = read_gdsii(
            write_gdsii(zone, layer=7, datatype=3, mode="flat")
        )
        for layer, datatype, _ in geometry.cells["TOP"].runs:
            assert layer == 7
            assert datatype == 3


class TestMaskGeometryModel:
    def test_expand_rejects_undefined_reference(self):
        geometry = MaskGeometry(
            library_name="X", db_unit_in_user_units=0.001, database_unit=1e-9,
            cells={
                "TOP": MaskCell(
                    name="TOP", srefs=[CellArray("GHOST", (0, 0), 1, 1, (0, 0), (0, 0))]
                )
            },
        )
        with pytest.raises(ValueError, match="undefined cell"):
            geometry.expand("TOP")

    def test_expand_rejects_cycles(self):
        geometry = MaskGeometry(
            library_name="X", db_unit_in_user_units=0.001, database_unit=1e-9,
            cells={
                "A": MaskCell(name="A", srefs=[CellArray("B", (0, 0), 1, 1, (0, 0), (0, 0))]),
                "B": MaskCell(name="B", srefs=[CellArray("A", (0, 0), 1, 1, (0, 0), (0, 0))]),
            },
        )
        with pytest.raises(ValueError, match="cycle"):
            geometry.expand("A")

    def test_expand_needs_unique_top_for_default(self):
        geometry = MaskGeometry(
            library_name="X", db_unit_in_user_units=0.001, database_unit=1e-9,
            cells={"A": MaskCell(name="A"), "B": MaskCell(name="B")},
        )
        with pytest.raises(ValueError, match="top cells"):
            geometry.expand()


# --------------------------------------------------------------------------
# SVG
# --------------------------------------------------------------------------

def svg_path_polygons(svg_text: str) -> list[list[tuple[float, float]]]:
    root = ElementTree.fromstring(svg_text)
    polygons = []
    for path in root.iter("{http://www.w3.org/2000/svg}path"):
        d = path.get("d")
        body = d.removeprefix("M ").removesuffix(" Z")
        polygons.append(
            [tuple(map(float, pair.split(","))) for pair in body.split(" L ")]
        )
    return polygons


def shoelace(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


class TestWriteSvg:
    def test_two_cell_zone_has_two_paths(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 4000, 3464))
        svg = write_svg(zone)
        assert len(svg_path_polygons(svg)) == 2

    def test_output_is_well_formed_xml(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 20_000, 20_000))
        root = ElementTree.fromstring(write_svg(zone))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_empty_layout_is_a_one_pixel_document(self):
        root = ElementTree.fromstring(write_svg(Layout(zones=())))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert (root.get("width"), root.get("height")) == ("1.00", "1.00")
        assert root.get("viewBox") == "0 0 1.00 1.00"
        assert len(root) == 0

    def test_cell_budget_enforced_with_suggestion(self):
        layout = build_two_zone_layout(WIDE, FINE)
        with pytest.raises(ValueError, match="max_cells"):
            write_svg(layout)

    def test_cell_budget_refused_before_cells_are_drawn(self, monkeypatch):
        # The budget counts the cells of the emitted arrays, records of an
        # origin, counts and vectors, before any center is enumerated.
        def refuse(array):
            raise AssertionError("a cell center was enumerated")

        monkeypatch.setattr(LatticeArray, "centers", refuse)
        ramp = design_linear_gradient(GradientSpec(
            length=100_000_000, lateral_width=200_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        ))
        with pytest.raises(ValueError, match="^1450000 cells exceed max_cells=20000;"):
            write_svg(ramp)
        with pytest.raises(ValueError, match="exceed max_cells=20000;"):
            write_svg(build_two_zone_layout(WIDE, FINE))

    @pytest.mark.parametrize(
        "target, cells",
        [
            pytest.param(BENCHMARK_RAMP, 145_000, id="benchmark-ramp"),
            pytest.param(FALLING_RAMP, 4500, id="falling-ramp"),
            pytest.param(reference_two_zone_layout(), 14_455_000, id="reference"),
            pytest.param(Zone(spec=WIDE, extent=Rect(-7000, 2500, 30_000, 9_000)), 23, id="offset-zone"),
        ],
    )
    def test_cell_budget_counts_the_census(self, target, cells):
        # The cells the writer draws are the layout_stats census.
        assert layout_stats(target)["total_cells"] == cells
        with pytest.raises(ValueError, match=f"^{cells} cells exceed max_cells={cells - 1};"):
            write_svg(target, max_cells=cells - 1)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_cell_budget_below_one_is_refused(self, budget):
        # Refused before the cells are counted: the empty layout has none.
        with pytest.raises(ValueError, match=f"^max_cells must be >= 1, got {budget}$"):
            write_svg(Layout(zones=()), max_cells=budget)

    @pytest.mark.parametrize(
        "budget, message",
        [
            (float("nan"), "max_cells must be an integer, got nan"),
            (1.5, "max_cells must be an integer, got 1.5"),
            (True, "max_cells must be an integer, got True"),
            (0, "max_cells must be >= 1, got 0"),
        ],
    )
    def test_cell_budget_must_be_a_positive_integer(self, budget, message):
        # A NaN budget compares false with every count: unless refused, it
        # would render this zone of 725 cells, which max_cells=1 refuses.
        zone = Zone(spec=WIDE, extent=CROP)
        with pytest.raises(ValueError, match="max_cells=1;"):
            write_svg(zone, max_cells=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_svg(zone, max_cells=budget)
        assert write_svg(zone, max_cells=np.int64(725)).count("<path") == 725

    def test_solid_area_ratio_between_designs(self):
        # Solid (background minus openings) areas of equal crops relate as
        # the two area fractions: 0.4375 / 0.19, within 1%.  The window is
        # lattice-commensurate (25 columns x 28 rows) so every opening is
        # a whole hexagon of the window's own lattice.  The preview of this
        # 100 um wide window is drawn at 100_000 / 800 = 125 nm per pixel.
        window = Rect(0, 0, 25 * 4000, 28 * ROW_SPACING)
        solids = {}
        for key, spec in (("wide", WIDE), ("fine", FINE)):
            svg = write_svg(Zone(spec=spec, extent=window))
            polygons = svg_path_polygons(svg)
            assert len(polygons) == 700
            opening_area = sum(shoelace(p) for p in polygons)
            extent_area = (window.width / 125.0) * (window.height / 125.0)
            solids[key] = extent_area - opening_area
        assert solids["wide"] / solids["fine"] == pytest.approx(
            0.4375 / 0.19, rel=0.01
        )

    def test_gradient_preview_renders(self):
        spec = GradientSpec(
            length=40_000, lateral_width=20_000, pitch=4000,
            f_start=0.10, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        svg = write_svg(design)
        polygons = svg_path_polygons(svg)
        assert len(polygons) >= 10
        root = ElementTree.fromstring(svg)
        rects = list(root.iter("{http://www.w3.org/2000/svg}rect"))
        assert len(rects) == 1


# --------------------------------------------------------------------------
# Stats
# --------------------------------------------------------------------------

class TestLayoutStats:
    def test_reference_layout_values(self):
        stats = layout_stats(build_two_zone_layout(WIDE, FINE))
        assert (stats["label"], stats["zone_count"]) == ("two-zone", 2)
        a, b = stats["zones"]
        assert a["linear_ratio"] == 0.25 and b["linear_ratio"] == 0.10
        assert a["area_fraction"] == pytest.approx(0.4375, abs=1e-12)
        assert b["area_fraction"] == pytest.approx(0.19, abs=1e-12)
        assert a["aspect_ratio"] == 4.0 and b["aspect_ratio"] == 10.0
        assert a["cell_count"] == b["cell_count"] == 7_227_500
        assert stats["total_cells"] == 14_455_000

    def test_empty_layout_zero_counts(self):
        stats = layout_stats(Layout(zones=()))
        assert stats["zone_count"] == 0
        assert stats["total_cells"] == 0

    def test_idempotent(self):
        layout = build_two_zone_layout(WIDE, FINE)
        assert layout_stats(layout) == layout_stats(layout)

    def test_gradient_stats(self):
        spec = GradientSpec(
            length=10_000_000, lateral_width=2_000_000, pitch=4000,
            f_start=0.10, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        stats = layout_stats(design)
        # A design is a layout: its zones are its runs.
        assert stats["label"] == "gradient"
        assert stats["zone_count"] == len(design.runs)
        first, last = stats["zones"][0], stats["zones"][-1]
        assert (first["wall_nm"], last["wall_nm"]) == (400, 1000)
        assert sum(zone["size_nm"][0] for zone in stats["zones"]) == 10_000_000
        rows = -(-2_000_000 // ROW_SPACING)
        assert stats["total_cells"] == 2500 * rows
        assert first["linear_ratio"] == pytest.approx(0.10, abs=1e-12)
        assert last["linear_ratio"] == pytest.approx(0.25, abs=1e-12)
