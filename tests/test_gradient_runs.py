"""A gradient design stored as runs of equal walls.

* The seeded equivalence test holds ``design_linear_gradient`` to a frozen
  copy of the one-wall-per-column design (``oracles.per_column_design``):
  the same walls column by column, the same local apparent angle
  everywhere, and the same DRC error text.
* The columns test makes ``GradientDesign.columns`` raise and runs every
  consumer of a design: what they write must still hash to the pins.
* The mask writers take a design as its zones, one per run of equal
  walls, and write each as two lattice arrays.  The seeded emitter test
  checks that the zones abut and cover the ramp, and holds the arrays to
  the two arrays per column that the writers once took
  (``oracles.per_column_arrays``): the same polygons, arrayed and flat,
  with each polarity, and the same cell census.
"""

import hashlib
import random

import pytest

from lotuskit import maskio
from lotuskit.gradient import (
    GradientDesign,
    GradientSpec,
    Measure,
    design_linear_gradient,
    local_apparent_angle,
)
from lotuskit.lattice import DesignRules, honeycomb_area_fraction, honeycomb_linear_ratio
from lotuskit.maskio import layout_stats, read_gdsii, write_gdsii, write_svg
from lotuskit.wetting import WATER_ON_PMMA, cassie_apparent_angle

from oracles import per_column_arrays, per_column_design, per_column_index
from test_gradient import BENCHMARK_RAMP, BENCHMARK_TRACE_PINS, check_trace
from test_mask_codec import PINNED_EXPORTS


def random_case(rng: random.Random) -> tuple[GradientSpec, DesignRules]:
    """A ramp and rules: rising, falling or uniform, one column to 1,200."""
    pitch = rng.choice((2000, 3000, 4000, 4010, 5000, 6000))
    n_columns = rng.choice((1, 1, 2, 3, rng.randint(4, 1200)))
    ramp = rng.choice(("rising", "falling", "uniform"))
    low, high = sorted(rng.uniform(0.03, 0.6) for _ in range(2))
    f_start, f_end = {"rising": (low, high), "falling": (high, low), "uniform": (low, low)}[ramp]
    spec = GradientSpec(
        length=n_columns * pitch + rng.randrange(pitch),
        lateral_width=20_000,
        pitch=pitch,
        f_start=f_start,
        f_end=f_end,
        measure=rng.choice(list(Measure)),
        height=rng.choice((2000, 4000, 6000)),
    )
    rules = DesignRules(
        min_wall=rng.choice((100, 200, 400)),
        max_aspect_ratio=rng.choice((10.0, 50.0)),
        max_height=rng.choice((4000, 6000)),
        fabrication_grid=rng.choice((1, 2, 5, 10, 20, 40)),
    )
    return spec, rules


class TestRunsMatchThePerColumnDesign:
    def test_seeded_ramps(self):
        rng = random.Random(27)
        designed = refused = single = 0
        for _ in range(250):
            spec, rules = random_case(rng)
            try:
                walls, fractions = per_column_design(spec, rules)
            except ValueError as expected:
                with pytest.raises(ValueError) as actual:
                    design_linear_gradient(spec, rules)
                assert str(actual.value) == str(expected)
                refused += "gradient violates design rules" in str(expected)
                continue
            design = design_linear_gradient(spec, rules)
            assert design.columns == walls
            assert design.n_columns == len(walls)
            pitch = spec.pitch
            # Each column's midpoint and both of its ends see its fraction's angle.
            theta = WATER_ON_PMMA.theta_flat
            for x_m in (
                *(k * pitch * 1e-9 for k in range(len(walls) + 1)),
                *((k + 0.5) * pitch * 1e-9 for k in range(len(walls))),
            ):
                expected = fractions[per_column_index(x_m, pitch, len(walls))]
                angle = local_apparent_angle(design, x_m, WATER_ON_PMMA)
                assert angle == cassie_apparent_angle(expected, theta)
            designed += 1
            # One column on a sloped ramp targets f_start: k / max(N - 1, 1) is 0.
            single += len(walls) == 1 and spec.f_start != spec.f_end
        assert designed >= 80 and refused >= 20 and single >= 10


def polygon_multiset(data: bytes) -> list[tuple[int, int, bytes]]:
    """The expanded polygons of a stream, sorted, each vertex list as bytes."""
    return sorted(
        (layer, datatype, points.tobytes())
        for layer, datatype, points in read_gdsii(data).expand()
    )


class TestRunArraysMatchPerColumnArrays:
    def test_seeded_ramps(self, monkeypatch):
        rng = random.Random(30)
        ramps = set()
        designs = []
        while len(designs) < 30:
            spec, rules = random_case(rng)
            try:
                designs.append(design_linear_gradient(spec, rules))
            except ValueError:
                continue
        for design in designs:
            spec = design.spec
            ramps.add(
                "uniform" if spec.f_start == spec.f_end
                else "falling" if spec.f_start > spec.f_end else "rising"
            )
            # One zone per run, in run order: abutting, covering the ramp.
            fraction = (
                honeycomb_linear_ratio
                if spec.measure is Measure.LINEAR_RATIO
                else honeycomb_area_fraction
            )
            assert len(design.zones) == len(design.runs)
            x = 0
            for zone, (count, wall), run_fraction in zip(
                design.zones, design.runs, design.fractions
            ):
                extent = zone.extent
                assert extent.width == count * spec.pitch
                assert (extent.y, extent.height) == (0, spec.lateral_width)
                assert extent.x == x
                x = extent.x_max
                assert (zone.spec.pitch, zone.spec.wall, zone.spec.height) == (
                    spec.pitch, wall, spec.height
                )
                assert run_fraction == fraction(zone.spec)
            assert x == design.length_nm
            per_column = per_column_arrays(design)
            assert layout_stats(design)["total_cells"] == sum(a.cols * a.rows for a in per_column)
            rects = [(0, 0, design.length_nm, spec.lateral_width)]
            for mode in ("arrayed", "flat"):
                for polarity in ("openings", "walls"):
                    written = write_gdsii(design, mode=mode, polarity=polarity)
                    with monkeypatch.context() as patch:
                        patch.setattr(maskio, "_emitted", lambda target: (per_column, rects))
                        expected = write_gdsii(design, mode=mode, polarity=polarity)
                    assert polygon_multiset(written) == polygon_multiset(expected)
        assert ramps == {"rising", "falling", "uniform"}


#: ``design_linear_gradient(BENCHMARK_RAMP)`` written flat with walls
#: polarity: its 61 runs of equal walls, each run's even-row array and then
#: its odd-row array, row by row.  A 200 um ramp as SVG: its 50 columns are
#: 50 one-column runs, so its bytes are those of the one-wall-per-column
#: design.
FLAT_WALLS_DIGEST = "92ae1ef981cd3abdcfdf8d8c1b3459444053ff9a20f22d08a45a581142a105e9"
SMALL_SVG_DIGEST = "99cb862f2ce2fab8b25c5a1de2457b328cb76f3511a9f27cc4fabe0cb2401e17"


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("ascii") if isinstance(data, str) else data).hexdigest()


def test_no_production_path_reads_columns(monkeypatch):
    def refuse(design):
        raise AssertionError("GradientDesign.columns was read")

    monkeypatch.setattr(GradientDesign, "columns", property(refuse))
    design = design_linear_gradient(BENCHMARK_RAMP)
    assert sha256(write_gdsii(design, mode="arrayed")) == PINNED_EXPORTS["gradient.gds"][1]
    assert sha256(write_gdsii(design, mode="flat", polarity="walls")) == FLAT_WALLS_DIGEST
    small = design_linear_gradient(
        GradientSpec(length=200_000, lateral_width=40_000, pitch=4000, f_start=0.19, f_end=0.4375)
    )
    assert sha256(write_svg(small)) == SMALL_SVG_DIGEST
    assert layout_stats(design) == {
        "kind": "gradient",
        "material": "water on PMMA",
        "theta_flat_deg": 81.0,
        "measure": "area_fraction",
        "columns": 2500,
        "pitch_nm": 4000,
        "length_nm": 10_000_000,
        "lateral_width_nm": 200_000,
        "height_nm": 4000,
        "row_pitch_nm": 3460,
        "lattice_rows": 58,
        "total_cells": 145_000,
        "wall_start_nm": 400,
        "wall_end_nm": 1000,
        "fraction_start": 0.19,
        "fraction_end": 0.4375,
        "cassie_angle_start_deg": 141.2859856357785,
        "cassie_angle_end_deg": 119.60777958751162,
    }
    for pin in BENCHMARK_TRACE_PINS:
        check_trace(design, 1000 * 1e-9, *pin)
    with pytest.raises(AssertionError, match="columns was read"):
        design.columns
