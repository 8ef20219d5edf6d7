"""Solid-fraction gradients, droplet forces, and quasi-static transport.

Force-chain reference numbers were frozen from an independent high-precision
evaluation of the closed forms (see the cosine/footprint constants below).
"""

import dataclasses
import hashlib
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lotuskit.gradient import (
    FootprintError,
    _FootprintSolver,
    GradientDesign,
    GradientSpec,
    Measure,
    SimulationTrace,
    TerminalReason,
    design_linear_gradient,
    local_apparent_angle,
    retention_force,
    simulate_droplet,
    trace_to_csv,
    wall_for_fraction,
)
from lotuskit.lattice import DesignRules, HoneycombSpec, check_design_rules
from lotuskit.wetting import (
    WATER_ON_PMMA,
    Droplet,
    Material,
    cassie_apparent_angle,
    spherical_cap_footprint_radius,
)

from oracles import fraction_at, net_driving_force, oracle_force_state, oracle_trace, runs_of

WATER = Material(name="water", theta_flat=81.0)

# Frozen oracles.
ORACLE_ANGLE_F010 = 152.17244227349166  # apparent angle at f=0.10, theta=81
ORACLE_ANGLE_F025 = 135.30748711240016  # apparent angle at f=0.25, theta=81
ORACLE_DELTA_COS = 0.17346516975603463  # cos(135.307...) - cos(152.172...)
ORACLE_RETENTION = 2.0476956269470325e-5  # f=1, dtheta=10, theta=90, 1.1 ul


def reference_gradient(measure=Measure.LINEAR_RATIO) -> GradientDesign:
    """10 mm ramp, f 0.10 -> 0.25, pitch 4 um, 2 mm wide."""
    spec = GradientSpec(
        length=10_000_000,
        lateral_width=2_000_000,
        pitch=4000,
        f_start=0.10,
        f_end=0.25,
        measure=measure,
    )
    return design_linear_gradient(spec)


class TestWallForFraction:
    def test_linear_endpoints(self):
        assert wall_for_fraction(0.10, 4000, Measure.LINEAR_RATIO) == 400
        assert wall_for_fraction(0.25, 4000, Measure.LINEAR_RATIO) == 1000

    def test_area_endpoints(self):
        # w = p(1 - sqrt(1 - f)): exact at 0.4375 -> 1000 and 0.19 -> 400.
        assert wall_for_fraction(0.4375, 4000, Measure.AREA_FRACTION) == 1000
        assert wall_for_fraction(0.19, 4000, Measure.AREA_FRACTION) == 400

    def test_snaps_to_fabrication_grid(self):
        assert wall_for_fraction(0.1003, 4000, Measure.LINEAR_RATIO) == 400
        assert wall_for_fraction(0.1013, 4000, Measure.LINEAR_RATIO) == 410

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ValueError):
            wall_for_fraction(0.0004, 4000, Measure.LINEAR_RATIO)

    def test_round_trip_on_grid_points(self):
        # A design's fractions are w/p or 2q - q^2 in exact rationals,
        # rounded once, and wall_for_fraction maps each back to its wall.
        walls = range(400, 1001, 10)
        for measure in Measure:
            spec = GradientSpec(
                length=4000 * len(walls), lateral_width=4000, pitch=4000,
                f_start=0.1, f_end=0.4, measure=measure,
            )
            design = GradientDesign(runs=tuple((1, wall) for wall in walls), spec=spec)
            for wall, fraction in zip(walls, design.fractions):
                q = Fraction(wall, 4000)
                exact = q if measure is Measure.LINEAR_RATIO else 2 * q - q * q
                assert fraction == float(exact)
                assert wall_for_fraction(fraction, 4000, measure) == wall

    @pytest.mark.parametrize(
        "fraction, pitch, message",
        [
            (0.0, 4000, "target_fraction must lie in (0, 1), got 0.0"),
            (1.0, 4000, "target_fraction must lie in (0, 1), got 1.0"),
            (math.nan, 4000, "target_fraction must lie in (0, 1), got nan"),
            (0.19, 0, "pitch must be >= 1 nm, got 0"),
            (0.19, -4000, "pitch must be >= 1 nm, got -4000"),
        ],
        ids=["fraction-0", "fraction-1", "fraction-nan", "pitch-0", "pitch-negative"],
    )
    def test_inputs_outside_the_domain_rejected(self, fraction, pitch, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wall_for_fraction(fraction, pitch)

    def test_pitch_beyond_the_float_range_is_named(self):
        for pitch in (2**31, 10**400):
            with pytest.raises(ValueError, match=f"^pitch must be <= 2147483647 nm, got {pitch}$"):
                wall_for_fraction(0.19, pitch)

    def test_fabrication_grid_follows_the_integer_nm_rules(self):
        for grid, error, message in (
            (0, ValueError, "fabrication_grid must be >= 1 nm, got 0"),
            (2.5, ValueError, "fabrication_grid must be an integer nanometer count, got 2.5"),
            (True, TypeError, "fabrication_grid must be a number in integer nanometers, got True"),
        ):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                wall_for_fraction(0.19, 4000, fabrication_grid=grid)
        for grid in (20.0, np.int64(20)):
            wall = wall_for_fraction(0.19, 4000, fabrication_grid=grid)
            assert wall == 400 and type(wall) is int


class TestDesignLinearGradient:
    def test_column_census_and_endpoints(self):
        design = reference_gradient()
        assert design.n_columns == 2500
        assert design.runs[0][1] == 400
        assert design.runs[-1][1] == 1000
        assert design.length_nm == 10_000_000

    def test_columns_are_one_int_wall_per_column(self):
        """``lotusbench/tracer.py:64`` counts a design's columns as ``len(columns)``."""
        design = reference_gradient()
        assert len(design.columns) == design.n_columns == 2500
        assert all(type(wall) is int for wall in design.columns)

    def test_walls_rise_from_run_to_run_on_a_rising_ramp(self):
        design = reference_gradient()
        walls = [wall for _, wall in design.runs]
        assert all(b > a for a, b in zip(walls, walls[1:]))
        assert sum(count for count, _ in design.runs) == design.n_columns

    def test_single_column_design(self):
        spec = GradientSpec(
            length=4000, lateral_width=100_000, pitch=4000,
            f_start=0.25, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        assert design.n_columns == 1
        assert design.runs == ((1, 1000),)

    def test_rule_violations_rejected_exhaustively(self):
        spec = GradientSpec(
            length=400_000, lateral_width=100_000, pitch=4000,
            f_start=0.05, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        with pytest.raises(ValueError, match="min_wall"):
            design_linear_gradient(spec)

    def test_custom_rules_admit_thin_walls(self):
        spec = GradientSpec(
            length=400_000, lateral_width=100_000, pitch=4000,
            f_start=0.05, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        lax = DesignRules(min_wall=100, max_aspect_ratio=50.0)
        design = design_linear_gradient(spec, lax)
        assert design.runs[0][1] == 200

    def test_off_grid_pitch_and_height_rejected(self):
        spec = GradientSpec(
            length=100_000, lateral_width=100_000, pitch=4005,
            f_start=0.2, f_end=0.3, height=3995,
        )
        with pytest.raises(ValueError, match="gradient violates design rules") as error:
            design_linear_gradient(spec)
        message = str(error.value)
        assert message.count("fabrication_grid(pitch)") == 1
        assert message.count("fabrication_grid(height)") == 1

    @pytest.mark.parametrize(
        ("ramp", "rules"),
        [
            ((100_000, 4005, 3995, 0.2, 0.3, Measure.AREA_FRACTION), DesignRules()),
            ((400_000, 4000, 4000, 0.05, 0.25, Measure.LINEAR_RATIO), DesignRules()),
            (
                (200_000, 4000, 6000, 0.3, 0.1, Measure.LINEAR_RATIO),
                DesignRules(min_wall=300, max_aspect_ratio=12.5, max_height=5000,
                            fabrication_grid=20),
            ),
            (
                (120_000, 6000, 4000, 0.05, 0.1, Measure.LINEAR_RATIO),
                DesignRules(fabrication_grid=40),
            ),
        ],
    )
    def test_violations_are_the_spec_checks_of_each_distinct_wall(self, ramp, rules):
        length, pitch, height, f_start, f_end, measure = ramp
        spec = GradientSpec(length, 100_000, pitch, f_start, f_end, measure, height)
        n_columns = length // pitch
        expected = {}  # (rule, value) -> first column with that violation
        for index in range(n_columns):
            target = f_start + (f_end - f_start) * index / (n_columns - 1)
            wall = wall_for_fraction(target, pitch, measure, rules.fabrication_grid)
            for violation in check_design_rules(HoneycombSpec(pitch, wall, height), rules):
                expected.setdefault((violation.rule, float(violation.value)), index)
        with pytest.raises(ValueError, match="gradient violates design rules") as error:
            design_linear_gradient(spec, rules)
        message = str(error.value)
        shown = {
            (rule, float(value)): int(column)
            for column, rule, value in re.findall(
                r"column (\d+): (\S+): value (\S+) violates limit", message
            )
        }
        more = re.search(r"\(\+(\d+) more\)$", message)
        assert len(shown) == min(len(expected), 5)
        assert len(shown) + (int(more.group(1)) if more else 0) == len(expected)
        assert shown == {key: expected[key] for key in shown}

    @pytest.mark.parametrize(
        "runs, f_end, message",
        [
            ((), 0.2, "a gradient design needs at least one run"),
            (((0, 400),), 0.2, "run 0 count must be >= 1, got 0"),
            (((1, 400), (-2, 410)), 0.2, "run 1 count must be >= 1, got -2"),
            (((True, 400),), 0.2, "run 0 count must be an integer, got True"),
            (((2.5, 400),), 0.2, "run 0 count must be an integer, got 2.5"),
            (((1, 400), (1, 400.5)), 0.2, "run 1 wall must be an integer nanometer count, got 400.5"),
            (((1, 400), (1, 4000)), 0.2, "run 1 wall must be below the 4000 nm pitch, got 4000"),
            (((1, 400), (1, 405)), 0.2, "run 1 wall 405 nm is off the 10 nm fabrication grid"),
            (((1, 400), (2, 400)), 0.2, "run 1 repeats the 400 nm wall of run 0"),
            (
                ((1, 800), (1, 400)), 0.2,
                "run 1 wall 400 nm after 800 nm: walls must rise from run to run on this ramp",
            ),
            (
                ((1, 400), (1, 800)), 0.05,
                "run 1 wall 800 nm after 400 nm: walls must fall from run to run on this ramp",
            ),
            (((1, 400), (1, 800)), 0.1, "a uniform ramp has exactly one run, got 2"),
        ],
        ids=[
            "empty", "count-0", "count-negative", "count-bool", "count-2.5",
            "fractional", "at-pitch", "off-grid", "repeated-wall",
            "falling-on-rising", "rising-on-falling", "uneven-uniform",
        ],
    )
    def test_runs_rejected(self, runs, f_end, message):
        spec = GradientSpec(
            length=8000, lateral_width=100_000, pitch=4000,
            f_start=0.1, f_end=f_end, measure=Measure.LINEAR_RATIO,
        )
        with pytest.raises(ValueError) as excinfo:
            GradientDesign(runs=runs, spec=spec)
        assert str(excinfo.value) == message

    def test_covered_length_ends_at_the_coordinate_limit(self):
        spec = GradientSpec(
            length=8000, lateral_width=100_000, pitch=4000, f_start=0.1, f_end=0.2
        )
        # 536,870 columns of 4000 nm are 2,147,480,000 nm, inside 2**31 - 1.
        fits = GradientDesign(runs=((536_869, 400), (1, 410)), spec=spec)
        assert fits.length_nm == 2_147_480_000
        message = (
            "runs of 4000 nm columns cover more than 2147483647 nm: "
            "at most 536870 columns fit"
        )
        for runs in (((536_870, 400), (1, 410)), ((2**30, 400), (2**30, 410))):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    GradientDesign(runs=runs, spec=spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_numpy_integer_runs_are_stored_as_ints(self):
        spec = GradientSpec(
            length=8000, lateral_width=100_000, pitch=4000,
            f_start=0.1, f_end=0.2, measure=Measure.LINEAR_RATIO,
        )
        design = GradientDesign(
            runs=((np.int64(1), np.int64(400)), (np.int32(1), np.int32(800))), spec=spec
        )
        assert design.runs == ((1, 400), (1, 800))
        assert all(type(v) is int for run in design.runs for v in run)
        assert design.fractions == GradientDesign(runs=((1, 400), (1, 800)), spec=spec).fractions

    def test_spec_lengths_use_the_integer_nm_validator(self):
        def spec(**lengths):
            fields = dict(length=8000, lateral_width=100_000, pitch=4000, height=4000)
            fields.update(lengths)
            return GradientSpec(f_start=0.1, f_end=0.2, **fields)

        exact = spec(length=np.int64(8000), pitch=np.int32(4000), height=4000.0)
        assert (exact.length, exact.pitch, exact.height) == (8000, 4000, 4000)
        assert all(type(v) is int for v in (exact.length, exact.pitch, exact.height))
        for name in ("length", "lateral_width", "pitch", "height"):
            for bad in (True, "4000", None):
                with pytest.raises(TypeError, match=f"{name} must be a number"):
                    spec(**{name: bad})
            for bad in (2.5, math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be an integer nanometer count"):
                    spec(**{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be >= 1 nm, got 0"):
                spec(**{name: 0})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"length": 3999}, "length (3999 nm) must cover at least one pitch (4000 nm)"),
            ({"f_start": 0.0}, "f_start must lie in (0, 1), got 0.0"),
            ({"f_start": math.nan}, "f_start must lie in (0, 1), got nan"),
            ({"f_end": 1.0}, "f_end must lie in (0, 1), got 1.0"),
            ({"f_end": -0.1}, "f_end must lie in (0, 1), got -0.1"),
        ],
        ids=["short", "f_start-0", "f_start-nan", "f_end-1", "f_end-negative"],
    )
    def test_spec_outside_the_domain_rejected(self, fields, message):
        values = dict(length=8000, lateral_width=100_000, pitch=4000, f_start=0.1, f_end=0.2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradientSpec(**{**values, **fields})


def one_column_runs() -> tuple[GradientDesign, list[float]]:
    """360 columns of 4 um, each its own run, and each column's angle in WATER."""
    walls = range(400, 4000, 10)
    spec = GradientSpec(
        length=4000 * len(walls), lateral_width=4000, pitch=4000,
        f_start=0.1, f_end=0.9, measure=Measure.LINEAR_RATIO,
    )
    design = GradientDesign(runs=tuple((1, wall) for wall in walls), spec=spec)
    angles = [cassie_apparent_angle(fraction, WATER.theta_flat) for fraction in design.fractions]
    assert len(set(angles)) == len(walls)
    return design, angles


class TestColumnLookup:
    def test_position_quantization(self):
        # Positions round to the 1 nm grid, and x = length lies in the last column.
        design, angles = one_column_runs()
        for x_m, column in (
            (0.0, 0), (3999e-9, 0), (3999.4e-9, 0), (3999.6e-9, 1), (4000e-9, 1),
            (design.length_m - 4000e-9, 359), (design.length_m, 359),
        ):
            assert local_apparent_angle(design, x_m, WATER) == angles[column]

    def test_out_of_range_rejected(self):
        design, _ = one_column_runs()
        for x_m in (-1e-9, design.length_m + 1e-9):
            message = f"^position {re.escape(repr(x_m))} m lies outside the design "
            with pytest.raises(ValueError, match=message):
                local_apparent_angle(design, x_m, WATER)

    @pytest.mark.parametrize(
        "x_m",
        [math.inf, -math.inf, math.nan, 1e300, -(10**400)],
        ids=["inf", "-inf", "nan", "1e300", "int-401-digits"],
    )
    def test_non_finite_and_huge_positions_lie_outside(self, x_m):
        # x * 1e9 has no finite float value for any of these.
        design, _ = one_column_runs()
        message = f"^position {re.escape(repr(x_m))} m lies outside the design "
        with pytest.raises(ValueError, match=message):
            local_apparent_angle(design, x_m, WATER)

    def test_local_angle_endpoints(self):
        design = reference_gradient()
        assert local_apparent_angle(design, 0.0, WATER) == pytest.approx(
            ORACLE_ANGLE_F010, abs=1e-9
        )
        assert local_apparent_angle(design, design.length_m, WATER) == pytest.approx(
            ORACLE_ANGLE_F025, abs=1e-9
        )

    def test_local_angle_monotone_non_increasing(self):
        design = reference_gradient()
        xs = [k * 1e-4 for k in range(101)]
        angles = [local_apparent_angle(design, x, WATER) for x in xs]
        assert all(b <= a for a, b in zip(angles, angles[1:]))

    def test_uniform_design_has_constant_angle(self):
        spec = GradientSpec(
            length=100_000, lateral_width=100_000, pitch=4000,
            f_start=0.25, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        angles = {local_apparent_angle(design, k * 1e-5, WATER) for k in range(10)}
        assert len(angles) == 1


class TestNetDrivingForce:
    def test_uniform_design_gives_zero(self):
        spec = GradientSpec(
            length=4_000_000, lateral_width=100_000, pitch=4000,
            f_start=0.25, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        droplet = Droplet(volume=1.1e-9, position=2e-3)
        assert net_driving_force(design, droplet, WATER) == 0.0

    def test_positive_toward_rising_fraction(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=5e-3)
        assert net_driving_force(design, droplet, WATER) > 0.0

    def test_antisymmetric_under_column_reversal(self):
        design = reference_gradient()
        reversed_spec = GradientSpec(
            length=design.spec.length,
            lateral_width=design.spec.lateral_width,
            pitch=design.spec.pitch,
            f_start=design.spec.f_end,
            f_end=design.spec.f_start,
            measure=design.spec.measure,
        )
        mirrored = GradientDesign(
            runs=design.runs[::-1],
            spec=reversed_spec,
        )
        droplet = Droplet(volume=1.1e-9, position=3.0001e-3)
        twin = Droplet(volume=1.1e-9, position=design.length_m - 3.0001e-3)
        forward = net_driving_force(design, droplet, WATER)
        backward = net_driving_force(mirrored, twin, WATER)
        assert backward == pytest.approx(-forward, rel=1e-9)

    def test_footprint_overhang_rejected(self):
        design = reference_gradient()
        with pytest.raises(FootprintError):
            net_driving_force(design, Droplet(volume=1.1e-9, position=1e-4), WATER)

    def test_self_consistent_footprint_radius(self):
        # The solved radius must satisfy r = cap_radius(V, mean angle) with
        # the front/rear angles sampled at x +/- r; verify via the recorded
        # trace thetas of a one-evaluation simulation.
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=5e-3)
        trace = simulate_droplet(design, droplet, WATER, max_steps=1)
        record = trace.steps[0]
        radius = spherical_cap_footprint_radius(
            1.1e-9, 0.5 * (record.theta_front + record.theta_rear)
        )
        expected = (
            WATER.surface_tension
            * 2.0
            * radius
            * (
                math.cos(math.radians(record.theta_front))
                - math.cos(math.radians(record.theta_rear))
            )
        )
        assert record.net_force == pytest.approx(expected, rel=1e-9)
        front = local_apparent_angle(design, droplet.position + radius, WATER)
        rear = local_apparent_angle(design, droplet.position - radius, WATER)
        assert record.theta_front == pytest.approx(front, abs=1e-9)
        assert record.theta_rear == pytest.approx(rear, abs=1e-9)


class TestRetentionForce:
    def test_zero_hysteresis_is_zero(self):
        droplet = Droplet(volume=1.1e-9)
        assert retention_force(droplet, WATER, 0.25) == 0.0

    def test_frozen_oracle_chain(self):
        # f=1, hysteresis 10 deg, flat angle 90: advancing 95, receding 85,
        # footprint from the cap relation at their 90-degree mean.
        material = Material(name="x", theta_flat=90.0, hysteresis=10.0)
        droplet = Droplet(volume=1.1e-9)
        assert retention_force(droplet, material, 1.0) == pytest.approx(
            ORACLE_RETENTION, rel=1e-9
        )

    def test_monotone_in_hysteresis(self):
        droplet = Droplet(volume=1.1e-9)
        previous = 0.0
        for hysteresis in (0.0, 2.0, 5.0, 10.0, 20.0):
            material = Material(name="x", theta_flat=90.0, hysteresis=hysteresis)
            value = retention_force(droplet, material, 0.25)
            assert value >= previous
            previous = value

    def test_never_negative(self):
        for hysteresis in (0.0, 1.0, 15.0):
            material = Material(name="x", theta_flat=81.0, hysteresis=hysteresis)
            assert retention_force(Droplet(volume=1.1e-9), material, 0.19) >= 0.0


def random_transport(rng, walls):
    """A droplet on a design of 4 um columns with the rising ``walls``.

    The ramp is rising, falling (the walls reversed) or uniform (the first
    wall throughout) at random, and so are the fraction measure, the
    material and the droplet.  Returns ``(ramp, design, material, droplet)``.
    """
    columns = len(walls)
    ramp = rng.choice(("rising", "falling", "uniform"))
    f_start, f_end = {"rising": (0.2, 0.4), "falling": (0.4, 0.2), "uniform": (0.3, 0.3)}[ramp]
    if ramp == "falling":
        walls = walls[::-1]
    elif ramp == "uniform":
        walls = [walls[0]] * columns
    spec = GradientSpec(
        length=4000 * columns, lateral_width=100_000, pitch=4000,
        f_start=f_start, f_end=f_end, measure=rng.choice(list(Measure)),
    )
    design = GradientDesign(runs=runs_of(walls), spec=spec)
    material = Material(
        name="probe",
        theta_flat=rng.uniform(70.0, 120.0),
        hysteresis=rng.choice((0.0, rng.uniform(0.0, 3.0))),
    )
    droplet = Droplet(
        volume=rng.uniform(2e-14, 1e-13),
        position=rng.uniform(0.3, 0.7) * design.length_m,
    )
    return ramp, design, material, droplet


def assert_trace_matches_oracle(design, droplet, material, step, max_steps):
    """Simulate, and hold the trace to the loop that solved every position.

    Every record must be bit for bit the oracle loop's: position, both
    angles, force, radius and retention; so must the terminal reason and
    the CSV, and each interval's radius and force must be its first
    record's.  Returns the trace.
    """
    trace = simulate_droplet(design, droplet, material, step=step, max_steps=max_steps)
    records, reason = oracle_trace(design, droplet, material, step, max_steps)
    assert trace.terminal_reason.value == reason
    assert trace.records == len(records)
    solved = [
        (r.position, r.theta_front, r.theta_rear, r.net_force, r.footprint_radius, r.retention)
        for r in trace.steps
    ]
    assert [tuple(map(float.hex, r)) for r in solved] == [
        tuple(map(float.hex, r)) for r in records
    ]
    for interval in trace.intervals:
        _, radius, force = next(interval.solved())
        assert (interval.footprint_radius, interval.net_force) == (radius, force)
    moved = [int(index < trace.moves) for index in range(len(records))]
    rows = [f"{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r},{m}\n" for r, m in zip(records, moved)]
    assert trace_to_csv(trace) == (
        "position_m,theta_front_deg,theta_rear_deg,net_force_N,moved\n" + "".join(rows)
    )
    return trace


class TestSimulateDroplet:
    def test_uniform_design_balances_immediately(self):
        spec = GradientSpec(
            length=4_000_000, lateral_width=100_000, pitch=4000,
            f_start=0.25, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        droplet = Droplet(volume=1.1e-9, position=2e-3)
        trace = simulate_droplet(design, droplet, WATER)
        assert trace.terminal_reason is TerminalReason.FORCE_BALANCE
        assert len(trace.steps) == 1
        assert trace.moves == 0
        assert trace.final_position == 2e-3

    def test_random_designs_never_revisit_a_position(self):
        # Walls follow the ramp, so the force keeps the ramp's sign and the
        # droplet moves one way: positions are strictly monotone, and every
        # run ends at an edge or in balance, long before max_steps.
        rng = random.Random(10)
        ends = set()
        for _ in range(30):
            columns = rng.randint(60, 200)
            walls = sorted(rng.randrange(400, 3000, 10) for _ in range(columns))
            ramp, design, material, droplet = random_transport(rng, walls)
            trace = assert_trace_matches_oracle(
                design, droplet, material, rng.uniform(1e-6, 4e-6), 10_000
            )
            assert trace.terminal_reason is not TerminalReason.MAX_STEPS
            ends.add(trace.terminal_reason)
            positions = [x for interval in trace.intervals for x in interval.positions()]
            moves = [b - a for a, b in zip(positions, positions[1:])]
            if ramp == "rising":
                assert all(move > 0.0 for move in moves)
                assert all(record.net_force >= 0.0 for record in trace.steps)
            elif ramp == "falling":
                assert all(move < 0.0 for move in moves)
                assert all(record.net_force <= 0.0 for record in trace.steps)
            else:
                assert moves == [] and trace.steps[0].net_force == 0.0
        assert ends == {TerminalReason.REACHED_END, TerminalReason.FORCE_BALANCE}

    def test_monotone_gradient_reaches_end(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        trace = simulate_droplet(design, droplet, WATER)
        assert trace.terminal_reason is TerminalReason.REACHED_END
        positions = [x for interval in trace.intervals for x in interval.positions()]
        assert all(b > a for a, b in zip(positions, positions[1:]))
        assert trace.final_position > 9e-3

    def test_inflated_retention_balances_at_step_zero(self):
        design = reference_gradient()
        sticky = Material(name="sticky", theta_flat=81.0, hysteresis=30.0)
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        trace = simulate_droplet(design, droplet, sticky)
        assert trace.terminal_reason is TerminalReason.FORCE_BALANCE
        assert len(trace.steps) == 1
        assert trace.moves == 0

    def test_max_steps_exhaustion(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        trace = simulate_droplet(design, droplet, WATER, max_steps=10)
        assert trace.terminal_reason is TerminalReason.MAX_STEPS
        assert len(trace.steps) == 10
        assert trace.moves == 10

    def test_unfit_initial_position_raises(self):
        design = reference_gradient()
        with pytest.raises(FootprintError):
            simulate_droplet(design, Droplet(volume=1.1e-9, position=1e-4), WATER)

    def test_step_halving_terminal_stability(self):
        spec = GradientSpec(
            length=2_000_000, lateral_width=100_000, pitch=4000,
            f_start=0.10, f_end=0.25, measure=Measure.LINEAR_RATIO,
        )
        design = design_linear_gradient(spec)
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        coarse = simulate_droplet(design, droplet, WATER, step=4e-6)
        fine = simulate_droplet(design, droplet, WATER, step=2e-6)
        assert abs(coarse.final_position - fine.final_position) < 2 * 4e-6

    def test_step_validation(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        with pytest.raises(ValueError):
            simulate_droplet(design, droplet, WATER, step=0.0)
        with pytest.raises(ValueError):
            simulate_droplet(design, droplet, WATER, max_steps=0)

    @pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan, True, False])
    def test_non_finite_step_rejected(self, step):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        with pytest.raises(ValueError, match=f"^step must lie in \\(0, inf\\) m, got {step!r}$"):
            simulate_droplet(design, droplet, WATER, step=step)

    def test_step_below_the_float_spacing_is_refused(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        with pytest.raises(ValueError) as excinfo:
            simulate_droplet(design, droplet, WATER, step=1e-19, max_steps=5)
        assert str(excinfo.value) == "step 1e-19 m does not move the droplet from 0.001 m"

    def test_records_carry_footprint_and_retention(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        material = Material(name="x", theta_flat=81.0, hysteresis=2.0)
        trace = simulate_droplet(design, droplet, material, max_steps=20)
        solver = _FootprintSolver(design, droplet.volume, material)
        for record in trace.steps:
            state = solver.record(solver.walk(record.position), record.position)
            assert (record.theta_front, record.theta_rear, record.net_force,
                    record.footprint_radius, record.retention) == (
                state.theta_front, state.theta_rear, state.net_force,
                state.footprint_radius, state.retention)
            assert record.retention == retention_force(
                droplet, material, fraction_at(design, record.position)
            )

    def test_force_balance_stop_is_auditable(self):
        spec = GradientSpec(
            length=10_000_000, lateral_width=200_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        )
        material = Material(name="x", theta_flat=81.0, hysteresis=5.0)
        trace = simulate_droplet(
            design_linear_gradient(spec), Droplet(volume=1.1e-9, position=1e-3),
            material,
        )
        assert trace.terminal_reason is TerminalReason.FORCE_BALANCE
        last = trace.steps[-1]
        assert last.retention > 0.0
        assert abs(last.net_force) <= last.retention
        assert all(abs(r.net_force) > r.retention for r in trace.steps[:-1])


class TestTraceMatchesPerPositionLoop:
    """The interval trace against the loop that solved every position."""

    def test_seeded_designs_under_every_terminal_reason(self):
        # Two kinds of design.  One run per column, with steps of 2.5-6
        # pitches: each move crosses several run edges.  A few runs of 8-15
        # columns with wide wall steps, with steps under a pitch: roots on a
        # jump then hold over several records, where the radius and force
        # vary.  Small move budgets stop some runs at max_steps.
        rng = random.Random(35)
        reasons, jump_records = set(), 0
        for _ in range(40):
            if rng.random() < 0.5:
                walls = sorted(rng.sample(range(400, 3000, 10), rng.randint(40, 120)))
                step = rng.uniform(2.5, 6.0) * 4e-6
            else:
                width = rng.randint(8, 15)
                walls = sorted(rng.sample(range(400, 3600, 100), rng.randint(4, 8)))
                walls = [wall for wall in walls for _ in range(width)]
                step = rng.uniform(0.1e-6, 0.3e-6)
            _, design, material, droplet = random_transport(rng, walls)
            trace = assert_trace_matches_oracle(
                design, droplet, material, step, rng.choice((1, 5, 10_000, 10_000))
            )
            reasons.add(trace.terminal_reason)
            jump_records += sum(
                interval.count for interval in trace.intervals
                if interval.edges is not None and interval.count > 1
            )
        assert reasons == set(TerminalReason)
        assert jump_records > 100

    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_steps_within_ulps_of_the_far_end(self, ulps):
        # Past the middle the no-fit check reads the run at x + (L - x).
        # Steps of a few ulps walk up to the last position that fits; the
        # search for an interval's end probes positions on both sides of it.
        design = design_linear_gradient(GradientSpec(
            length=400_000, lateral_width=100_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        ))
        volume = 1e-13

        def fits(x):
            try:
                oracle_force_state(design, x, volume, WATER_ON_PMMA)
            except FootprintError:
                return False
            return True

        fitting, beyond = 0.5 * design.length_m, design.length_m
        while (middle := 0.5 * (fitting + beyond)) not in (fitting, beyond):
            if fits(middle):
                fitting = middle
            else:
                beyond = middle
        ulp = math.ulp(fitting)
        for offset in range(ulps):
            droplet = Droplet(volume=volume, position=fitting - (40 * ulps + offset) * ulp)
            capped = assert_trace_matches_oracle(design, droplet, WATER_ON_PMMA, ulps * ulp, 40)
            assert capped.terminal_reason is TerminalReason.MAX_STEPS
            trace = assert_trace_matches_oracle(design, droplet, WATER_ON_PMMA, ulps * ulp, 10_000)
            assert trace.terminal_reason is TerminalReason.REACHED_END
            assert 0.0 <= fitting - trace.final_position < ulps * ulp


    def test_a_step_that_stops_moving_is_refused_where_the_loop_refused_it(self):
        # Below 2**-10 m the step rounds up to one ulp; from 2**-10 on it is
        # under half an ulp and no longer moves the droplet, 50 records in.
        design = design_linear_gradient(GradientSpec(
            length=4_000_000, lateral_width=100_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        ))
        ulp = math.ulp(2.0**-11)
        droplet = Droplet(volume=2e-11, position=2.0**-10 - 50 * ulp)
        for max_steps in (1, 30, 50):
            trace = assert_trace_matches_oracle(design, droplet, WATER_ON_PMMA, 0.6 * ulp, max_steps)
            assert trace.terminal_reason is TerminalReason.MAX_STEPS
        message = f"step {0.6 * ulp!r} m does not move the droplet from 0.0009765625 m"
        for run in (simulate_droplet, oracle_trace):
            for max_steps in (51, 10_000):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    run(design, droplet, WATER_ON_PMMA, 0.6 * ulp, max_steps)


def test_no_later_record_of_a_jump_interval_can_balance():
    # simulate_droplet tests balance on each interval's first record only.
    # On a root on a jump over several records, the premise that makes this
    # enough: the droplet moves with the ramp, the radius is the distance
    # to the run edge behind it, and |net_force| never falls along the move.
    # Designs as in TestTraceMatchesPerPositionLoop: runs of 8-15 columns,
    # wide wall steps, steps under a pitch.
    rng = random.Random(36)
    intervals = {"rising": 0, "falling": 0}
    for _ in range(320):
        width = rng.randint(8, 15)
        walls = sorted(rng.sample(range(400, 3600, 100), rng.randint(4, 8)))
        walls = [wall for wall in walls for _ in range(width)]
        step = rng.uniform(0.1e-6, 0.3e-6)
        ramp, design, material, droplet = random_transport(rng, walls)
        trace = simulate_droplet(design, droplet, material, step=step, max_steps=10_000)
        for interval in trace.intervals:
            if interval.edges is None or interval.count < 2:
                continue
            intervals[ramp] += 1
            front_edge, rear_edge = interval.edges
            assert (interval.step > 0.0) == (ramp == "rising")
            forces = []
            for x, radius, force in interval.solved():
                assert radius == (x - rear_edge if ramp == "rising" else front_edge - x)
                forces.append(abs(force))
            assert forces == sorted(forces)
    assert min(intervals.values()) >= 100, intervals


class TestTraceCsv:
    def test_header_and_shape(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        trace = simulate_droplet(design, droplet, WATER, max_steps=5)
        text = trace_to_csv(trace)
        lines = text.splitlines()
        assert lines[0] == "position_m,theta_front_deg,theta_rear_deg,net_force_N,moved"
        assert len(lines) == 1 + len(trace.steps)
        first = lines[1].split(",")
        assert float(first[0]) == trace.steps[0].position
        assert first[4] == "1"
        assert text.endswith("\n")

    def test_round_trip_floats(self):
        design = reference_gradient()
        droplet = Droplet(volume=1.1e-9, position=1e-3)
        trace = simulate_droplet(design, droplet, WATER, max_steps=3)
        lines = trace_to_csv(trace).splitlines()[1:]
        for line, step in zip(lines, trace.steps):
            parts = line.split(",")
            assert float(parts[1]) == step.theta_front
            assert float(parts[2]) == step.theta_rear
            assert float(parts[3]) == step.net_force

    def test_empty_trace_is_header_only(self):
        trace = SimulationTrace(intervals=(), terminal_reason=TerminalReason.MAX_STEPS)
        assert trace_to_csv(trace) == (
            "position_m,theta_front_deg,theta_rear_deg,net_force_N,moved\n"
        )

    @pytest.mark.parametrize("reason", list(TerminalReason))
    def test_empty_trace_has_no_moves(self, reason):
        assert SimulationTrace(intervals=(), terminal_reason=reason).moves == 0


#: The benchmark's 10 mm ramp, the design of every trace pin below.
BENCHMARK_RAMP = GradientSpec(
    length=10_000_000, lateral_width=200_000, pitch=4000,
    f_start=0.19, f_end=0.4375,
)

#: ``(hysteresis, reason, records, digest)`` of the traces at the default
#: one-pitch step.
TRACE_PINS = [
    (
        0.0, TerminalReason.REACHED_END, 2105,
        "e0d733f34fc63e6f5a94aed08df178fe3d62ca28dcf8d33dd68f0ee744fa00c6",
    ),
    (
        5.0, TerminalReason.FORCE_BALANCE, 699,
        "bccc79a7c1b7869c69ea64892f7ae564e5379aa4a8ab31000fd4ac3528bbed20",
    ),
]

#: The benchmark's transport traces: ``lotus simulate ... --step-nm 1000``.
BENCHMARK_TRACE_PINS = [
    (
        0.0, TerminalReason.REACHED_END, 8420,
        "d7c46f522a8f264b7575c822aebd8b46bacd7fe01ee57e7f4eca8f7e677feaa9",
    ),
    (
        5.0, TerminalReason.FORCE_BALANCE, 2793,
        "ce531f91a401800eb8f73d42520b9dada1df28810812558f87d98c0517f429ab",
    ),
]


def check_trace(design, step, hysteresis, reason, records, digest):
    """Simulate the pinned droplet on ``design``; its CSV must hash to ``digest``."""
    material = dataclasses.replace(WATER_ON_PMMA, hysteresis=hysteresis)
    trace = simulate_droplet(
        design, Droplet(volume=1.1e-9, position=1e-3), material, step=step
    )
    assert trace.terminal_reason is reason
    assert len(trace.steps) == records
    text = trace_to_csv(trace)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestPinnedTraceBytes:
    """sha256 of whole CSV traces, frozen so solver changes keep every byte."""

    SPEC = BENCHMARK_RAMP

    @pytest.mark.parametrize(("hysteresis", "reason", "records", "digest"), TRACE_PINS)
    def test_trace_csv_digest(self, hysteresis, reason, records, digest):
        check_trace(design_linear_gradient(self.SPEC), None, hysteresis, reason, records, digest)

    @pytest.mark.parametrize(("hysteresis", "reason", "records", "digest"), BENCHMARK_TRACE_PINS)
    def test_benchmark_trace_csv_digest(self, hysteresis, reason, records, digest):
        check_trace(
            design_linear_gradient(self.SPEC), 1000 * 1e-9, hysteresis, reason, records, digest
        )


def test_simulation_memory_does_not_grow_with_the_record_count():
    # The benchmark ramp to its end at the one-pitch step (2,105 records)
    # and at a 100 nm step (84,193 records): the trace holds intervals of
    # one solved state, so the peak differs by a few kB.  A trace of one
    # record per position peaked at 0.47 MB and 16.3 MB on Python 3.11.
    design = design_linear_gradient(BENCHMARK_RAMP)
    peaks = {}
    for step, records in ((None, 2105), (100e-9, 84_193)):
        tracemalloc.start()
        try:
            trace = simulate_droplet(
                design, Droplet(volume=1.1e-9, position=1e-3), WATER_ON_PMMA, step=step
            )
            peaks[records] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.records == records
    assert peaks[84_193] - peaks[2105] < 64 * 1024, peaks


def assert_solver_matches_oracle(design, volume_m3, material, positions):
    """Solve every position both ways; return how many fitted.

    Where the footprint fits, radius, angles and force must be identical;
    where it does not, both must raise the same ``FootprintError``.
    """
    solver = _FootprintSolver(design, volume_m3, material)
    fitted = 0
    for position in positions:
        try:
            radius, front, rear, force, _ = oracle_force_state(
                design, position, volume_m3, material
            )
        except FootprintError as expected:
            with pytest.raises(FootprintError) as actual:
                solver.walk(position)
            assert str(actual.value) == str(expected)
            continue
        state = solver.record(solver.walk(position), position)
        assert state.footprint_radius == radius
        assert (state.theta_front, state.theta_rear) == (front, rear)
        assert state.net_force == force
        fitted += 1
    return fitted


class TestSolverMatchesColumnWalk:
    """The run-edge walk must agree bit for bit with the column-edge walk."""

    VOLUME = 1.1e-9

    @pytest.mark.parametrize(
        ("spec", "material"),
        [
            (
                GradientSpec(
                    length=10_000_000, lateral_width=200_000, pitch=4000,
                    f_start=0.19, f_end=0.4375,
                ),
                WATER_ON_PMMA,
            ),
            (
                GradientSpec(
                    length=10_000_000, lateral_width=200_000, pitch=4000,
                    f_start=0.30, f_end=0.12, measure=Measure.LINEAR_RATIO,
                ),
                Material(name="steep", theta_flat=100.0, hysteresis=4.0),
            ),
        ],
    )
    def test_radius_angles_and_force_are_identical(self, spec, material):
        design = design_linear_gradient(spec)
        solver = _FootprintSolver(design, self.VOLUME, material)
        on_jump = 0
        compared = 0
        # An irregular stride so positions fall at every offset in a column.
        for k in range(300):
            position = 1.6e-3 + k * 7.3e-6 * (1.0 + 0.37 * (k % 7))
            if position > design.length_m - 1.6e-3:
                break
            radius, front, rear, force, jump = oracle_force_state(
                design, position, self.VOLUME, material
            )
            state = solver.record(solver.walk(position), position)
            assert state.footprint_radius == radius
            assert state.theta_front == front
            assert state.theta_rear == rear
            assert state.net_force == force
            compared += 1
            on_jump += jump
        assert compared >= 250
        assert on_jump >= 3  # roots sitting on a column jump are covered

    def test_footprint_inside_one_column(self):
        # A droplet of 1e-19 m^3 spans well under one 4 um column, so near
        # either design end the walk stops at its first pair, the end column's.
        volume = 1e-19
        spec = GradientSpec(
            length=40_000, lateral_width=200_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        )
        design = design_linear_gradient(spec)
        solver = _FootprintSolver(design, volume, WATER_ON_PMMA)
        positions = [k * 1e-7 for k in range(8, 20)]
        positions += [design.length_m - x for x in positions]
        for position in positions:
            radius, front, rear, force, _ = oracle_force_state(
                design, position, volume, WATER_ON_PMMA
            )
            assert radius < 2e-6
            state = solver.record(solver.walk(position), position)
            assert state.footprint_radius == radius
            assert (state.theta_front, state.theta_rear) == (front, rear)
            assert state.net_force == force

    # Runs of equal walls: one run; 63 walls in runs of 16 columns, several
    # under the droplet; and one run per column under a droplet a few
    # columns wide.
    @pytest.mark.parametrize(
        ("design", "volume", "material", "positions"),
        [
            pytest.param(
                design_linear_gradient(GradientSpec(
                    length=10_000_000, lateral_width=200_000, pitch=4000,
                    f_start=0.3, f_end=0.3,
                )),
                VOLUME, WATER_ON_PMMA, [0.8e-3 + k * 3.1e-5 for k in range(280)],
                id="one-run",
            ),
            pytest.param(
                GradientDesign(
                    runs=runs_of(400 + 10 * (k // 16) for k in range(1000)),
                    spec=GradientSpec(
                        length=4_000_000, lateral_width=200_000, pitch=4000,
                        f_start=0.1, f_end=0.3,
                    ),
                ),
                1e-10, Material(name="steep", theta_flat=100.0, hysteresis=4.0),
                [0.3e-3 + k * 1.37e-6 * (1.0 + 0.29 * (k % 5)) for k in range(1500)],
                id="many-wall-ramp",
            ),
            pytest.param(
                design_linear_gradient(GradientSpec(
                    length=160_000, lateral_width=100_000, pitch=4000,
                    f_start=0.19, f_end=0.9,
                )),
                2e-15, WATER_ON_PMMA, [k * 0.37e-6 for k in range(433)],
                id="run-per-column",
            ),
        ],
    )
    def test_runs_of_equal_walls(self, design, volume, material, positions):
        fitted = assert_solver_matches_oracle(design, volume, material, positions)
        assert fitted >= 0.9 * len(positions)

    def test_positions_within_ulps_of_the_ends_and_the_middle(self):
        # The solver looks up runs at x and x ± min(x, L - x) with no range
        # check of its own: each stays inside [0, L], exactly for x >= L/2.
        design = design_linear_gradient(GradientSpec(
            length=10_000_000, lateral_width=200_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        ))
        positions = []
        for anchor in (0.0, 0.5 * design.length_m, design.length_m):
            below = above = anchor
            positions.append(anchor)
            for _ in range(4):
                below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                positions += [below, above]
        fitted = assert_solver_matches_oracle(design, self.VOLUME, WATER_ON_PMMA, positions)
        assert fitted == 9  # those around the middle

    @pytest.mark.parametrize("position", [-1e-3, 10.5e-3, float("nan"), 0.0, 1e-4])
    def test_footprint_errors_keep_their_messages(self, position):
        spec = GradientSpec(
            length=10_000_000, lateral_width=200_000, pitch=4000,
            f_start=0.19, f_end=0.4375,
        )
        design = design_linear_gradient(spec)
        solver = _FootprintSolver(design, self.VOLUME, WATER_ON_PMMA)
        with pytest.raises(FootprintError) as expected:
            oracle_force_state(design, position, self.VOLUME, WATER_ON_PMMA)
        with pytest.raises(FootprintError) as actual:
            solver.walk(position)
        assert str(actual.value) == str(expected.value)


class TestSolverCallCounts:
    """A simulation evaluates each wall's angle and each wall pair's cap once."""

    @staticmethod
    def counted(monkeypatch, name):
        import lotuskit.gradient as gradient

        calls = []
        original = getattr(gradient, name)

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gradient, name, wrapper)
        return calls

    @pytest.mark.parametrize(
        ("design", "position", "hysteresis"),
        [
            pytest.param(
                design_linear_gradient(TestPinnedTraceBytes.SPEC), 1e-3, 0.0,
                id="ramp-to-end",
            ),
            pytest.param(
                design_linear_gradient(TestPinnedTraceBytes.SPEC), 1e-3, 5.0,
                id="ramp-to-balance",
            ),
            pytest.param(
                GradientDesign(
                    runs=runs_of(400 + 10 * (k // 7) for k in range(2500)),
                    spec=TestPinnedTraceBytes.SPEC,
                ),
                5e-3, 0.0,
                id="many-wall-ramp",
            ),
        ],
    )
    def test_calls_bounded_by_walls_and_wall_pairs(
        self, monkeypatch, design, position, hysteresis
    ):
        material = dataclasses.replace(WATER_ON_PMMA, hysteresis=hysteresis)
        angles = self.counted(monkeypatch, "cassie_apparent_angle")
        caps = self.counted(monkeypatch, "spherical_cap_footprint_radius")
        trace = simulate_droplet(
            design, Droplet(volume=1.1e-9, position=position), material,
            step=1000 * 1e-9, max_steps=3000,
        )
        assert len(trace.steps) > 100
        walls = len(design.runs)
        # One angle per wall; one cap radius per (front, rear) wall pair and
        # one per wall for the retention force.
        assert len(angles) <= walls
        assert len(caps) <= walls * walls + walls
