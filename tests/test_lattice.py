"""Honeycomb lattice geometry, fractions, lattice arrays, and design rules.

Closed-form fraction values and cell counts are checked against independent
arithmetic (exact rationals, hand-derived counting), and the Monte Carlo
estimator is treated as an oracle sharing no code with the closed forms.
"""

import concurrent.futures
import importlib
import math
import pkgutil
import re
import tracemalloc
from concurrent.futures import Executor, Future
from fractions import Fraction

import numpy as np
import pytest

import lotuskit
from lotuskit import lattice
from lotuskit.gradient import (
    GradientDesign,
    GradientSpec,
    design_linear_gradient,
    simulate_droplet,
    wall_for_fraction,
)
from lotuskit.lattice import (
    DEFAULT_RULES,
    DesignRules,
    HoneycombSpec,
    LatticeArray,
    Layout,
    PillarSpec,
    Rect,
    Zone,
    aspect_ratio,
    build_two_zone_layout,
    check_design_rules,
    hexagon_vertices,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
    lattice_arrays,
    monte_carlo_fraction,
    row_pitch,
    snap_to_grid,
    square_pillar_fraction,
)
from lotuskit.wetting import WATER_ON_PMMA, Droplet

WIDE = HoneycombSpec(pitch=4000, wall=1000, height=4000)
FINE = HoneycombSpec(pitch=4000, wall=400, height=4000)

#: The largest length or coordinate in nm, the largest GDSII coordinate.
TOP_NM = 2**31 - 1
TOP_GRADIENT = GradientSpec(
    length=TOP_NM, lateral_width=1000, pitch=TOP_NM, f_start=0.19, f_end=0.3
)


def gradient_spec(**lengths) -> GradientSpec:
    return GradientSpec(
        **{"length": 8000, "lateral_width": 1000, "pitch": 4000, **lengths},
        f_start=0.19, f_end=0.3,
    )


# (field named by the refusal of 2**31, build from one value, the largest
# value accepted).  A wall stays below its pitch, so the top wall, and the
# top grid of a gradient design, whose walls lie on it, is TOP_NM - 1.
NM_ENTRY_POINTS = {
    "honeycomb-pitch": ("pitch", lambda v: HoneycombSpec(pitch=v, wall=400, height=4000), TOP_NM),
    "honeycomb-wall": ("wall", lambda v: HoneycombSpec(pitch=TOP_NM, wall=v, height=4000), TOP_NM - 1),
    "honeycomb-height": ("height", lambda v: HoneycombSpec(pitch=4000, wall=400, height=v), TOP_NM),
    "pillar-width_a": ("width_a", lambda v: PillarSpec(width_a=v, spacing_b=400), TOP_NM),
    "pillar-spacing_b": ("spacing_b", lambda v: PillarSpec(width_a=400, spacing_b=v), TOP_NM),
    "rect-x": ("x", lambda v: Rect(v, 0, 10, 10), TOP_NM),
    "rect-y": ("y", lambda v: Rect(0, v, 10, 10), TOP_NM),
    "rect-width": ("width", lambda v: Rect(0, 0, v, 10), TOP_NM),
    "rect-height": ("height", lambda v: Rect(0, 0, 10, v), TOP_NM),
    "gradient-length": ("length", lambda v: gradient_spec(length=v), TOP_NM),
    "gradient-lateral_width": ("lateral_width", lambda v: gradient_spec(lateral_width=v), TOP_NM),
    "gradient-pitch": ("pitch", lambda v: gradient_spec(length=TOP_NM, pitch=v), TOP_NM),
    "gradient-height": ("height", lambda v: gradient_spec(height=v), TOP_NM),
    "rules-min_wall": ("min_wall", lambda v: DesignRules(min_wall=v), TOP_NM),
    "rules-max_height": ("max_height", lambda v: DesignRules(max_height=v), TOP_NM),
    "rules-fabrication_grid": ("fabrication_grid", lambda v: DesignRules(fabrication_grid=v), TOP_NM),
    "layout-fabrication_grid": (
        "fabrication_grid", lambda v: Layout(zones=(), fabrication_grid=v), TOP_NM
    ),
    "design-fabrication_grid": (
        "fabrication_grid",
        lambda v: GradientDesign(runs=((1, TOP_NM - 1),), spec=TOP_GRADIENT, fabrication_grid=v),
        TOP_NM - 1,
    ),
    "design-walls": (
        "run 0 wall",
        lambda v: GradientDesign(runs=((1, v),), spec=TOP_GRADIENT, fabrication_grid=1),
        TOP_NM - 1,
    ),
    "wall_for_fraction-pitch": ("pitch", lambda v: wall_for_fraction(0.19, v), TOP_NM),
}


def polygon_area(points: np.ndarray) -> float:
    """Unsigned polygon area by the shoelace formula (vertices as (k, 2))."""
    coords = np.asarray(points, dtype=np.float64)
    x = coords[:, 0]
    y = coords[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def census(zone: Zone) -> int:
    """A zone's cell count from its arrays, without building any centers."""
    return sum(array.cols * array.rows for array in lattice_arrays(zone, 10))


def all_centers(zone: Zone) -> np.ndarray:
    """A zone's cell centers in emission order: even rows, then odd rows."""
    centers = [center for array in lattice_arrays(zone, 10) for center in array.centers()]
    return np.array(centers, dtype=np.int64).reshape(-1, 2)


def old_mc_chunk_solid_count(
    spec: HoneycombSpec, chunk_index: int, chunk_samples: int, seed: int
) -> int:
    """Frozen copy of the original Monte Carlo kernel: four candidate openings.

    Samples span one full period (pitch wide, two rows tall); each is tested
    against the two bracketing columns of the two bracketing rows.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )
    pitch = float(spec.pitch)
    row_spacing = pitch * math.sqrt(3.0) / 2.0
    points = rng.random((chunk_samples, 2))
    xs = points[:, 0] * pitch
    ys = points[:, 1] * (2.0 * row_spacing)

    half_comb = spec.comb_diameter / 2.0
    sqrt3_half = math.sqrt(3.0) / 2.0
    inside_opening = np.zeros(chunk_samples, dtype=bool)
    base_row = np.floor(ys / row_spacing).astype(np.int64)
    for row_step in (0, 1):
        row = base_row + row_step
        center_y = row * row_spacing
        offset_x = np.where(row % 2 == 0, 0.0, pitch / 2.0)
        base_col = np.floor((xs - offset_x) / pitch)
        for col_step in (0, 1):
            center_x = offset_x + (base_col + col_step) * pitch
            dx = xs - center_x
            dy = ys - center_y
            proj_a = np.abs(dx)
            proj_b = np.abs(0.5 * dx + sqrt3_half * dy)
            proj_c = np.abs(0.5 * dx - sqrt3_half * dy)
            inside_opening |= (
                np.maximum(proj_a, np.maximum(proj_b, proj_c)) <= half_comb
            )
    return int(chunk_samples - np.count_nonzero(inside_opening))


def old_hexagon_offsets(comb_diameter: int) -> np.ndarray:
    """Frozen copy of the original float hexagon: the ideal vertices, CCW.

    The writers emitted these rounded with ``np.rint``; it stays as the
    reference for the ideal-hexagon tests and for :func:`hexagon_vertices`.
    """
    half_width = comb_diameter / 2.0
    edge_y = comb_diameter * math.sqrt(3.0) / 6.0
    apex_y = comb_diameter * math.sqrt(3.0) / 3.0
    return np.array(
        [
            (half_width, -edge_y),
            (half_width, edge_y),
            (0.0, apex_y),
            (-half_width, edge_y),
            (-half_width, -edge_y),
            (0.0, -apex_y),
        ]
    )


def old_row_pitch(pitch: int, fabrication_grid: int) -> int:
    """Frozen copy of the original float row pitch, snapped half up."""
    spacing = pitch * math.sqrt(3.0) / 2.0
    return int(math.floor(spacing / fabrication_grid + 0.5)) * fabrication_grid


class FixedPoints:
    """Stands in for a numpy Generator whose ``random`` returns given points.

    ``random(shape)`` returns them all, as the frozen kernel draws them;
    ``random(out=block)`` fills ``block`` with the next ``len(block)`` of them.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.drawn = 0

    def random(self, shape=None, out=None):
        if out is None:
            assert shape == self.points.shape
            return self.points.copy()
        out[...] = self.points[self.drawn : self.drawn + len(out)]
        self.drawn += len(out)
        return out


def edge_points(spec: HoneycombSpec, per_edge: int = 64, ulps: int = 3) -> np.ndarray:
    """Unit-square samples on and a few ulps around every opening edge.

    Covers the five openings that reach one period (pitch wide, two rows
    tall) and the fold lines u = 1/2 and v = 1/2, where rounding decides
    which side of a boundary a point lands on.
    """
    pitch = float(spec.pitch)
    period_y = pitch * math.sqrt(3.0)
    vertices = old_hexagon_offsets(spec.comb_diameter)
    t = np.linspace(0.0, 1.0, per_edge)[:, None]
    centers = [(0.0, 0.0), (pitch, 0.0), (pitch / 2.0, period_y / 2.0), (0.0, period_y), (pitch, period_y)]
    on_edges = np.concatenate(
        [
            np.array(center) + start + t * (end - start)
            for center in centers
            for start, end in zip(vertices, np.roll(vertices, -1, axis=0))
        ]
    )
    across = np.linspace(0.0, 1.0, per_edge)
    half = np.full(per_edge, 0.5)
    u = np.concatenate([on_edges[:, 0] / pitch, half, across])
    v = np.concatenate([on_edges[:, 1] / period_y, across, half])
    shifted = []
    for du in range(-ulps, ulps + 1):
        for dv in range(-ulps, ulps + 1):
            su, sv = u, v
            for _ in range(abs(du)):
                su = np.nextafter(su, math.copysign(math.inf, du))
            for _ in range(abs(dv)):
                sv = np.nextafter(sv, math.copysign(math.inf, dv))
            shifted.append(np.stack([su, sv], axis=1))
    return np.clip(np.concatenate(shifted), 0.0, np.nextafter(1.0, 0.0))


class TestSpecs:
    def test_comb_diameter_derived(self):
        assert WIDE.comb_diameter == 3000
        assert FINE.comb_diameter == 3600

    def test_rejects_wall_not_smaller_than_pitch(self):
        with pytest.raises(ValueError):
            HoneycombSpec(pitch=4000, wall=4000, height=4000)

    def test_rejects_fractional_nanometers(self):
        with pytest.raises(ValueError):
            HoneycombSpec(pitch=4000.5, wall=1000, height=4000)

    def test_accepts_integral_floats(self):
        spec = HoneycombSpec(pitch=4000.0, wall=1000, height=4000)
        assert spec.pitch == 4000 and isinstance(spec.pitch, int)

    def test_numpy_scalars_follow_the_integer_nm_rules(self):
        spec = HoneycombSpec(pitch=np.int64(4000), wall=np.int32(1000), height=4000)
        assert (spec.pitch, spec.wall) == (4000, 1000)
        assert type(spec.pitch) is int and type(spec.wall) is int
        rect = Rect(np.int32(-5), np.int32(7), np.int32(10), np.int64(20))
        assert (rect.x, rect.y, rect.width, rect.height) == (-5, 7, 10, 20)
        assert all(type(v) is int for v in (rect.x, rect.y, rect.width, rect.height))
        half = np.float64(1.5)
        message = f"pitch must be an integer nanometer count, got {half!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HoneycombSpec(pitch=half, wall=1000, height=4000)
        with pytest.raises(TypeError, match=r"^width must be a number in integer nanometers, got True$"):
            Rect(0, 0, True, 10)

    def test_rect_overlap_is_strict_interior(self):
        a = Rect(0, 0, 10, 10)
        touching = Rect(10, 0, 10, 10)
        overlapping = Rect(9, 0, 10, 10)
        assert not a.overlaps(touching)
        assert a.overlaps(overlapping)

    def test_layout_rejects_overlapping_zones(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 100, 100))
        bad = Zone(spec=FINE, extent=Rect(50, 50, 100, 100))
        with pytest.raises(ValueError, match="overlap"):
            Layout(zones=(zone, bad))

    def test_empty_layout_allowed(self):
        assert Layout(zones=()).zones == ()

    @pytest.mark.parametrize(
        "field, build, top", NM_ENTRY_POINTS.values(), ids=NM_ENTRY_POINTS.keys()
    )
    def test_lengths_end_at_the_gdsii_coordinate_limit(self, field, build, top):
        build(top)
        message = f"{field} must be <= 2147483647 nm, got 2147483648"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(2**31)

    def test_rect_origins_start_at_minus_the_limit(self):
        rect = Rect(-TOP_NM, -TOP_NM, 10, 10)
        assert (rect.x, rect.y) == (-TOP_NM, -TOP_NM)
        for name, build in (("x", lambda v: Rect(v, 0, 10, 10)), ("y", lambda v: Rect(0, v, 10, 10))):
            message = f"{name} must be >= -2147483647 nm, got -2147483648"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(-(2**31))

    @pytest.mark.parametrize(
        ("value", "minimum", "error", "message"),
        [
            (True, 1, TypeError, "pitch must be a number in integer nanometers, got True"),
            (False, 0, TypeError, "pitch must be a number in integer nanometers, got False"),
            ("4000", 1, TypeError, "pitch must be a number in integer nanometers, got '4000'"),
            (Fraction(4000), 1, TypeError,
             "pitch must be a number in integer nanometers, got Fraction(4000, 1)"),
            (4000.5, 1, ValueError, "pitch must be an integer nanometer count, got 4000.5"),
            (math.nan, 1, ValueError, "pitch must be an integer nanometer count, got nan"),
            (math.inf, 1, ValueError, "pitch must be an integer nanometer count, got inf"),
            (-math.inf, 1, ValueError, "pitch must be an integer nanometer count, got -inf"),
            (np.float64(1.5), 1, ValueError,
             f"pitch must be an integer nanometer count, got {np.float64(1.5)!r}"),
            (np.int64(2**31), 1, ValueError,
             f"pitch must be <= 2147483647 nm, got {np.int64(2**31)!r}"),
            (2**31, 1, ValueError, "pitch must be <= 2147483647 nm, got 2147483648"),
            (0, 1, ValueError, "pitch must be >= 1 nm, got 0"),
            (-1, 0, ValueError, "pitch must be >= 0 nm, got -1"),
            (-(2**31), -TOP_NM, ValueError, "pitch must be >= -2147483647 nm, got -2147483648"),
            (2**1999, 1, ValueError, f"pitch must be <= 2147483647 nm, got {2**1999}"),
            (2**2000, 1, ValueError, "pitch must be <= 2147483647 nm"),
            (-(2**2000), 1, ValueError, "pitch must be >= 1 nm"),
        ],
    )
    def test_integer_nm_refusals_keep_their_type_and_message(self, value, minimum, error, message):
        with pytest.raises(error) as refused:
            lattice._as_int_nm(value, "pitch", minimum)
        assert type(refused.value) is error and str(refused.value) == message

    @pytest.mark.parametrize(
        ("value", "minimum"),
        [(4000, 1), (TOP_NM, 1), (0, 0), (-TOP_NM, -TOP_NM), (4000.0, 1), (np.int64(4000), 1)],
    )
    def test_integer_nm_accepts_exact_integers_as_int(self, value, minimum):
        coerced = lattice._as_int_nm(value, "pitch", minimum)
        assert coerced == value and type(coerced) is int

    def test_values_too_long_to_print_are_refused_by_field_and_bound(self):
        # 10**5000 has more digits than the interpreter converts to text; the
        # refusal leaves the value out and still names the field and the bound.
        for build, message in (
            (lambda: HoneycombSpec(pitch=10**5000, wall=400, height=4000), "pitch must be <= 2147483647 nm"),
            (lambda: Rect(-(10**5000), 0, 5, 5), "x must be >= -2147483647 nm"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda grid: GradientDesign(
                runs=((1, 400), (1, 800)),
                spec=GradientSpec(
                    length=8000, lateral_width=20000, pitch=4000, f_start=0.19, f_end=0.3
                ),
                fabrication_grid=grid,
            ),
            lambda grid: Layout(
                zones=(Zone(spec=WIDE, extent=Rect(0, 0, 20_000, 20_000)),),
                fabrication_grid=grid,
            ),
        ],
        ids=["gradient", "layout"],
    )
    def test_fabrication_grid_follows_the_integer_nm_rules(self, build):
        for grid, error, message in (
            (0, ValueError, "fabrication_grid must be >= 1 nm, got 0"),
            (-10, ValueError, "fabrication_grid must be >= 1 nm, got -10"),
            (2.5, ValueError, "fabrication_grid must be an integer nanometer count, got 2.5"),
            (True, TypeError, "fabrication_grid must be a number in integer nanometers, got True"),
        ):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build(grid)
        grid = build(np.int64(10)).fabrication_grid
        assert grid == 10 and type(grid) is int


def _simulate_with(max_steps):
    spec = GradientSpec(length=8000, lateral_width=1000, pitch=4000, f_start=0.19, f_end=0.3)
    simulate_droplet(
        design_linear_gradient(spec), Droplet(volume=1e-18, position=4e-6), WATER_ON_PMMA,
        max_steps=max_steps,
    )


def _monte_carlo_with(**budget):
    monte_carlo_fraction(FINE, **{"samples": 1000, "seed": 0, "workers": 1, **budget})


class TestCountBudgets:
    @pytest.mark.parametrize(
        "call, value, message",
        [
            (_simulate_with, True, "max_steps must be an integer, got True"),
            (_simulate_with, 2.5, "max_steps must be an integer, got 2.5"),
            (_simulate_with, 3.0, "max_steps must be an integer, got 3.0"),
            (_simulate_with, 0, "max_steps must be >= 1, got 0"),
            (lambda v: _monte_carlo_with(samples=v), 4000.0, "samples must be an integer, got 4000.0"),
            (lambda v: _monte_carlo_with(samples=v), 999, "samples must be >= 1000, got 999"),
            (lambda v: _monte_carlo_with(workers=v), 1.5, "workers must be an integer, got 1.5"),
            (lambda v: _monte_carlo_with(workers=v), True, "workers must be an integer, got True"),
            (lambda v: _monte_carlo_with(workers=v), 0, "workers must be >= 1, got 0"),
            (lambda v: _monte_carlo_with(seed=v), 0.5, "seed must be a non-negative integer, got 0.5"),
            (lambda v: _monte_carlo_with(seed=v), True, "seed must be a non-negative integer, got True"),
            (lambda v: _monte_carlo_with(seed=v), -1, "seed must be a non-negative integer, got -1"),
        ],
        ids=[
            "max_steps-True", "max_steps-2.5", "max_steps-3.0", "max_steps-0",
            "samples-4000.0", "samples-999", "workers-1.5", "workers-True", "workers-0",
            "seed-0.5", "seed-True", "seed--1",
        ],
    )
    def test_non_integer_or_small_counts_are_refused(self, call, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    def test_numpy_integer_counts_are_accepted(self):
        _simulate_with(np.int64(1))
        _monte_carlo_with(samples=np.int64(1000), seed=np.int64(0), workers=np.int32(1))


class TestFractions:
    def test_linear_ratio_exact(self):
        assert honeycomb_linear_ratio(WIDE) == 0.25
        assert honeycomb_linear_ratio(FINE) == 0.10

    def test_area_fraction_exact_rational(self):
        # 1 - (1 - w/p)^2, evaluated with exact rationals independently.
        for spec in (WIDE, FINE):
            q = Fraction(spec.wall, spec.pitch)
            expected = float(1 - (1 - q) ** 2)
            assert honeycomb_area_fraction(spec) == expected

    def test_reference_area_fractions(self):
        assert honeycomb_area_fraction(WIDE) == pytest.approx(0.4375, abs=1e-12)
        assert honeycomb_area_fraction(FINE) == pytest.approx(0.19, abs=1e-12)

    def test_square_pillar_fraction(self):
        spec = PillarSpec(width_a=1000, spacing_b=1000)
        assert square_pillar_fraction(spec) == 0.25
        solid = PillarSpec(width_a=1000, spacing_b=0)
        assert square_pillar_fraction(solid) == 1.0

    def test_aspect_ratio(self):
        assert aspect_ratio(WIDE) == 4.0
        assert aspect_ratio(FINE) == 10.0


@pytest.fixture
def chunk_peaks(monkeypatch):
    """Most Monte Carlo chunks in flight, one entry per run.

    The pool starts no thread: a chunk runs when its count is first asked
    for, so a chunk is in flight from its submission until then.
    """
    peaks = []

    class LazyFuture(Future):
        def __init__(self, executor, fn, args):
            super().__init__()
            self.executor, self.call = executor, (fn, args)

        def result(self, timeout=None):
            if not self.done():
                fn, args = self.call
                self.set_result(fn(*args))
                self.executor.pending -= 1
            return super().result(timeout)

    class CountingExecutor(Executor):
        def __init__(self, max_workers):
            self.pending = 0
            peaks.append(0)

        def submit(self, fn, /, *args):
            self.pending += 1
            peaks[-1] = max(peaks[-1], self.pending)
            return LazyFuture(self, fn, args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingExecutor)
    return peaks


class TestMonteCarlo:
    def test_matches_closed_form_within_3_sigma(self):
        for spec, exact in ((WIDE, 0.4375), (FINE, 0.19)):
            estimate, stderr = monte_carlo_fraction(spec, samples=200_000, seed=11)
            assert abs(estimate - exact) < 3.0 * stderr

    def test_seed_determinism_across_workers(self):
        results = {
            workers: monte_carlo_fraction(WIDE, samples=600_000, seed=5, workers=workers)
            for workers in (1, 2, 8)
        }
        assert results[1] == results[2] == results[8]

    def test_different_seeds_differ(self):
        a, _ = monte_carlo_fraction(WIDE, samples=100_000, seed=1)
        b, _ = monte_carlo_fraction(WIDE, samples=100_000, seed=2)
        assert a != b

    def test_many_seeds_stay_within_5_sigma(self):
        # Distributional sanity: repeated estimates bracket the closed form.
        exact = honeycomb_area_fraction(WIDE)
        for seed in range(30):
            estimate, stderr = monte_carlo_fraction(WIDE, samples=50_000, seed=seed)
            assert abs(estimate - exact) < 5.0 * stderr

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            monte_carlo_fraction(WIDE, samples=999, seed=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_benchmark_input_is_pinned(self, workers):
        # The benchmark's mc_w1/mc_w2 input: 4e6 samples on the 400 nm wall.
        estimate, _ = monte_carlo_fraction(FINE, 4_000_000, seed=0, workers=workers)
        assert estimate == 0.18992425

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pending_chunks_do_not_grow_with_samples(self, workers, chunk_peaks, monkeypatch):
        calls = []

        def fake_count(spec, chunk_index, chunk_samples, seed):
            calls.append((chunk_index, chunk_samples))
            return chunk_samples

        # Enough CPUs that each requested worker gets a thread.
        monkeypatch.setattr(lattice.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(lattice, "_mc_chunk_solid_count", fake_count)
        for chunks in (16, 100, 1000):
            calls.clear()
            samples = chunks * lattice._MC_CHUNK - 5
            assert monte_carlo_fraction(FINE, samples, seed=0, workers=workers) == (1.0, 0.0)
            assert calls == [(k, lattice._MC_CHUNK) for k in range(chunks - 1)] + [
                (chunks - 1, lattice._MC_CHUNK - 5)
            ]
        assert chunk_peaks == [16, 16 * workers, 16 * workers]

    @pytest.mark.parametrize("workers, threads", [(1, 1), (2, 2), (1000, 2)])
    def test_chunks_in_flight_follow_the_thread_count(
        self, workers, threads, chunk_peaks, monkeypatch
    ):
        # --workers 1000 on 2 CPUs starts 2 threads, so 32 chunks wait, not
        # 16,000 (or, past 1000 chunks, every chunk of the run).
        monkeypatch.setattr(lattice.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(lattice, "_mc_chunk_solid_count", lambda spec, k, size, seed: size)
        samples = 1000 * lattice._MC_CHUNK
        assert monte_carlo_fraction(FINE, samples, seed=0, workers=workers) == (1.0, 0.0)
        assert chunk_peaks == [16 * threads]

    @pytest.mark.parametrize(
        "cpus, workers, threads",
        [(2, 1, 1), (2, 2, 2), (2, 8, 2), (2, 1000, 2), (None, 8, 1), (64, 8, 8)],
    )
    def test_threads_are_capped_at_the_cpu_count(self, cpus, workers, threads, monkeypatch):
        # Each running thread holds its own arrays, under 1 MB, so
        # --workers 1000 must not start 1000 of them.  The fake pool runs
        # the chunk at submit and starts no thread.
        started = []

        class RecordingExecutor(Executor):
            def __init__(self, max_workers):
                started.append(max_workers)

            def submit(self, fn, /, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(lattice.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
        monte_carlo_fraction(FINE, 1000, seed=0, workers=workers)
        assert started == [threads]


#: (pitch, wall) of the frozen-kernel comparison on random chunks.
KERNEL_WALLS = [
    (pitch, wall) for pitch in (4000, 3001) for wall in (1, DEFAULT_RULES.min_wall, pitch - 1)
] + [(2, 1)]

#: Specs of the frozen-kernel comparison on edge and fold-line points.
EDGE_SPECS = {
    "fine": FINE,
    "wide": WIDE,
    "odd-pitch-thin": HoneycombSpec(3001, 1, 10),
    "odd-pitch-thick": HoneycombSpec(3001, 3000, 10),
    "pitch-2": HoneycombSpec(2, 1, 10),
}


class TestMonteCarloKernel:
    """The chunk kernel counts exactly what the frozen four-candidate one counts."""

    @staticmethod
    def assert_counts_equal(spec, seeds, chunk_indices, sizes):
        for seed in seeds:
            for chunk_index in chunk_indices:
                for samples in sizes:
                    assert lattice._mc_chunk_solid_count(
                        spec, chunk_index, samples, seed
                    ) == old_mc_chunk_solid_count(spec, chunk_index, samples, seed)

    @staticmethod
    def assert_edge_counts_equal(spec, points, monkeypatch):
        # Points on the hexagon edges and the fold lines, give or take a few
        # ulps, are where a different rounding would change the count.
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda seed_seq: FixedPoints(points))
            new = lattice._mc_chunk_solid_count(spec, 0, len(points), 0)
            old = old_mc_chunk_solid_count(spec, 0, len(points), 0)
        assert new == old
        assert 0 < new < len(points)

    @pytest.mark.parametrize("pitch, wall", KERNEL_WALLS)
    def test_counts_equal_the_frozen_kernel(self, pitch, wall):
        spec = HoneycombSpec(pitch=pitch, wall=wall, height=4000)
        self.assert_counts_equal(spec, (0, 1, 2**64 - 1), (0, 7, 10**6), (4096, 1001))

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    def test_counts_equal_on_edges_and_fold_lines(self, spec, monkeypatch):
        # 100,352 points: six full blocks and a partial one.
        self.assert_edge_counts_equal(spec, edge_points(spec), monkeypatch)

    def test_blocks_of_1000_count_the_same(self, monkeypatch):
        # Every chunk and edge set above ends in a partial block.
        monkeypatch.setattr(lattice, "_MC_BLOCK", 1000)
        for pitch, wall in KERNEL_WALLS:
            spec = HoneycombSpec(pitch=pitch, wall=wall, height=4000)
            self.assert_counts_equal(spec, (0, 1, 2**64 - 1), (0, 7, 10**6), (4096, 1001))
        for spec in EDGE_SPECS.values():
            self.assert_edge_counts_equal(spec, edge_points(spec), monkeypatch)

    def test_single_sample_blocks_count_the_same(self, monkeypatch):
        # A block costs about 40 us whatever its size, so single-sample
        # blocks see one seed, one chunk and edge points within one ulp.
        monkeypatch.setattr(lattice, "_MC_BLOCK", 1)
        for pitch, wall in KERNEL_WALLS:
            spec = HoneycombSpec(pitch=pitch, wall=wall, height=4000)
            self.assert_counts_equal(spec, (2**64 - 1,), (7,), (1001,))
        for spec in EDGE_SPECS.values():
            self.assert_edge_counts_equal(spec, edge_points(spec, per_edge=8, ulps=1), monkeypatch)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_blocks_drawn_in_place_continue_one_stream(self, seed):
        # The kernel draws its chunk block by block with random(out=...); the
        # count is the frozen one's only if that gives random((n, 2)) exactly.
        def generator():
            return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

        whole = generator().random((lattice._MC_CHUNK, 2))
        blocks, rng, start = np.empty_like(whole), generator(), 0
        for size in (1, 7, 16_384, lattice._MC_CHUNK - 16_392):
            rng.random(out=blocks[start : start + size])
            start += size
        assert blocks.tobytes() == whole.tobytes()

    def test_a_chunk_holds_under_2_mb(self):
        # RSS cannot show this: a spawned process starts at its parent's
        # size.  The unblocked kernel peaked at 16.5 MB.
        lattice._mc_chunk_solid_count(FINE, 0, 1000, 0)  # import numpy's generator first
        tracemalloc.start()
        try:
            lattice._mc_chunk_solid_count(FINE, 0, lattice._MC_CHUNK, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_partial_last_chunk(self):
        samples = lattice._MC_CHUNK + 777
        estimate, _ = monte_carlo_fraction(FINE, samples, seed=3)
        solid = old_mc_chunk_solid_count(FINE, 0, lattice._MC_CHUNK, 3)
        solid += old_mc_chunk_solid_count(FINE, 1, 777, 3)
        assert estimate == solid / samples


class TestCounting:
    def test_row_pitch_snaps_to_grid(self):
        assert row_pitch(4000, 10) == 3460  # snap(4000 * sqrt(3)/2 = 3464.1)
        assert snap_to_grid(3464.1, 10) == 3460
        assert snap_to_grid(3465.0, 10) == 3470  # round-half-up
        for grid in (0, -10):
            with pytest.raises(ValueError, match=f"^grid_nm must be > 0, got {grid}$"):
                snap_to_grid(3464.1, grid)

    def test_two_cell_example(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 4000, 3464))
        assert census(zone) == 2
        centers = all_centers(zone)
        assert centers.shape == (2, 2)
        # Base row cell at the origin; offset row at (pitch/2, row_pitch).
        assert centers.tolist() == [[0, 0], [2000, 3460]]

    def test_full_zone_census(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 10_000_000, 10_000_000))
        # 2891 rows of 2500 cells: 1446 even, 1445 odd.
        assert [(a.cols, a.rows) for a in lattice_arrays(zone, 10)] == [(2500, 1446), (2500, 1445)]
        assert census(zone) == 7_227_500

    def test_crop_census(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 100_000, 100_000))
        # 29 rows of 25 cells: 15 even, 14 odd.
        assert [(a.cols, a.rows) for a in lattice_arrays(zone, 10)] == [(25, 15), (25, 14)]
        assert census(zone) == 725

    def test_census_matches_brute_force(self):
        # Independent O(n^2) enumeration over a small irregular extent.
        spec = HoneycombSpec(pitch=4000, wall=400, height=4000)
        extent = Rect(0, 0, 37_130, 21_890)
        spacing = row_pitch(spec.pitch, 10)
        brute = []
        level = 0
        while level * spacing < extent.height:
            offset = (spec.pitch // 2) if level % 2 else 0
            x = offset
            while x < extent.width:
                brute.append([x, level * spacing])
                x += spec.pitch
            level += 1
        zone = Zone(spec=spec, extent=extent)
        assert census(zone) == len(brute)
        assert sorted(all_centers(zone).tolist()) == sorted(brute)

    @pytest.mark.parametrize("grid", [10, 20])
    @pytest.mark.parametrize("pitch", [4000, 5000])
    @pytest.mark.parametrize("origin", [(0, 0), (-7_130, -2_350)])
    def test_census_sweep_matches_brute_force(self, pitch, grid, origin):
        # Extents down to one cell: widths at and around half a pitch (no
        # odd-row columns), heights at and around one row pitch (no odd rows).
        spacing = row_pitch(pitch, grid)
        widths = (1, pitch // 2 - 1, pitch // 2, pitch // 2 + 1, pitch, 3 * pitch + 1, 37_130)
        heights = (1, spacing - 1, spacing, spacing + 1, 2 * spacing + 1, 21_890)
        for width in widths:
            for height in heights:
                extent = Rect(origin[0], origin[1], width, height)
                brute = [
                    (x, extent.y + level * spacing)
                    for level in range(-(-height // spacing))
                    for x in range(extent.x + (pitch // 2 if level % 2 else 0), extent.x_max, pitch)
                ]
                zone = Zone(spec=HoneycombSpec(pitch=pitch, wall=400, height=4000), extent=extent)
                arrays = lattice_arrays(zone, grid)
                assert sum(a.cols * a.rows for a in arrays) == len(brute), (width, height)
                centers = [center for a in arrays for center in a.centers()]
                assert sorted(centers) == sorted(brute)

    def test_offset_origin_preserves_census(self):
        base = Zone(spec=WIDE, extent=Rect(0, 0, 100_000, 100_000))
        moved = Zone(spec=WIDE, extent=Rect(10_000_000, 0, 100_000, 100_000))
        assert census(base) == census(moved)
        shifted = all_centers(moved)
        assert len(shifted) == census(moved)
        assert shifted[0].tolist() == [10_000_000, 0]


class TestHexagonGeometry:
    def test_vertex_set(self):
        offsets = old_hexagon_offsets(3000)
        assert offsets.shape == (6, 2)
        xs = sorted(offsets[:, 0].tolist())
        # Flat sides face +/-x: extreme x = +/- comb/2 (two vertices each).
        assert xs[0] == xs[1] == -1500.0
        assert xs[4] == xs[5] == 1500.0
        # Extreme y = +/- comb/sqrt(3) (single vertices).
        ys = sorted(offsets[:, 1].tolist())
        assert ys[0] == pytest.approx(-3000 / math.sqrt(3.0))
        assert ys[-1] == pytest.approx(3000 / math.sqrt(3.0))

    def test_hexagon_area_closed_form(self):
        # Area of a flat-to-flat width c hexagon: c^2 * sqrt(3)/2.
        area = polygon_area(old_hexagon_offsets(3000))
        assert area == pytest.approx(3000.0**2 * math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_neighbor_openings_are_disjoint(self):
        # Openings of adjacent cells must be separated by a positive wall:
        # check minimum vertex-pair distance across all three neighbor
        # directions stays below pitch but polygons never intersect.
        spec = WIDE
        spacing = spec.pitch * math.sqrt(3.0) / 2.0
        hexagon = old_hexagon_offsets(spec.comb_diameter)
        neighbors = [
            (spec.pitch, 0.0),
            (spec.pitch / 2.0, spacing),
            (-spec.pitch / 2.0, spacing),
        ]
        for dx, dy in neighbors:
            shifted = hexagon + (dx, dy)
            # Separating-axis check on x and on the two hexagon edge normals.
            gap_found = False
            for nx, ny in ((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0), (0.5, -math.sqrt(3.0) / 2.0)):
                a = hexagon[:, 0] * nx + hexagon[:, 1] * ny
                b = shifted[:, 0] * nx + shifted[:, 1] * ny
                if a.max() < b.min() or b.max() < a.min():
                    gap_found = True
            assert gap_found, f"openings toward ({dx},{dy}) are not separated"


class TestIntegerGeometry:
    """The emitted hexagon and row pitch are exact integers, equal to the
    frozen float forms wherever those are exact enough to round right."""

    # Small and large lengths; the float forms were checked equal on every
    # comb and pitch from 1 to 200,000 nm, which takes too long for tier-1.
    SWEEP = [*range(1, 5_001), *range(199_001, 200_001)]

    def test_vertices_equal_the_rounded_float_hexagon(self):
        for comb in self.SWEEP:
            rounded = np.rint(old_hexagon_offsets(comb)).astype(np.int64)
            assert hexagon_vertices(comb) == list(map(tuple, rounded.tolist())), comb

    def test_row_pitch_equals_the_float_snap(self):
        def spacing_or_zero(pitch, grid):
            try:
                return row_pitch(pitch, grid)
            except ValueError:  # collapsed: the float form snaps to 0
                return 0

        for grid in (1, 2, 5, 10, 20, 40, 100):
            for pitch in self.SWEEP[1:]:
                assert spacing_or_zero(pitch, grid) == old_row_pitch(pitch, grid), (pitch, grid)

    def test_exact_vertices(self):
        assert hexagon_vertices(3000) == [
            (1500, -866), (1500, 866), (0, 1732), (-1500, 866), (-1500, -866), (0, -1732),
        ]
        # An odd comb's half width rounds half to even, on both sides.
        assert [x for x, _ in hexagon_vertices(3001)] == [1500, 1500, 0, -1500, -1500, 0]
        assert [x for x, _ in hexagon_vertices(3003)] == [1502, 1502, 0, -1502, -1502, 0]

    @pytest.mark.parametrize("length", [2**53 + 1, 10**400, 10**400 + 1])
    def test_rounding_holds_beyond_the_float_range(self, length):
        # Nearest-integer rounding of x = sqrt(n) / d, checked by squaring:
        # (d (k - 1/2))^2 <= n < (d (k + 1/2))^2, with no tie for n > 0.
        _, (_, edge), (_, apex), *_ = hexagon_vertices(length)
        assert (6 * edge - 3) ** 2 < 3 * length**2 < (6 * edge + 3) ** 2
        assert (6 * apex - 3) ** 2 < 12 * length**2 < (6 * apex + 3) ** 2
        for grid in (1, 10):
            steps = row_pitch(length, grid) // grid
            assert (grid * (2 * steps - 1)) ** 2 <= 3 * length**2 < (grid * (2 * steps + 1)) ** 2

    def test_row_pitch_refuses_a_grid_below_one(self):
        with pytest.raises(ValueError, match="^fabrication_grid must be > 0, got 0$"):
            row_pitch(4000, 0)

    def test_lengths_at_the_limit_are_data_and_beyond_it_refused(self):
        tall = HoneycombSpec(pitch=4000, wall=400, height=TOP_NM)
        assert aspect_ratio(tall) == TOP_NM / 400
        assert [(v.rule, v.value) for v in check_design_rules(tall)] == [
            ("fabrication_grid(height)", TOP_NM),
            ("max_aspect_ratio", TOP_NM / 400),
            ("max_height", TOP_NM),
        ]
        odd = HoneycombSpec(pitch=TOP_NM, wall=400, height=4000)
        assert [(v.rule, v.value) for v in check_design_rules(odd)] == [
            ("fabrication_grid(half_pitch)", TOP_NM / 2),
            ("fabrication_grid(pitch)", TOP_NM),
        ]
        # A single cell whose lattice vector is the largest even pitch.
        wide = HoneycombSpec(pitch=TOP_NM - 1, wall=400, height=4000)
        (even,) = lattice_arrays(Zone(wide, Rect(0, 0, 10, 10)), 10)
        assert even.col_vector == (TOP_NM - 1, 0)
        assert even.centers() == [(0, 0)]
        big = 10**400
        with pytest.raises(ValueError, match=f"^height must be <= 2147483647 nm, got {big}$"):
            HoneycombSpec(pitch=4000, wall=400, height=big)


class TestLatticeArrays:
    def test_even_and_odd_row_arrays(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 100_000, 100_000))
        even, odd = lattice_arrays(zone, 10)
        assert even == LatticeArray(3000, (0, 0), 25, 15, (4000, 0), (0, 6920))
        assert odd == LatticeArray(3000, (2000, 3460), 25, 14, (4000, 0), (0, 6920))

    def test_centers_lie_in_the_half_open_extent(self):
        extent = Rect(-7_000, 300, 30_000, 20_000)
        zone = Zone(spec=WIDE, extent=extent)
        centers = all_centers(zone)
        assert len(centers) == census(zone)
        assert (centers[:, 0] >= extent.x).all() and (centers[:, 0] < extent.x_max).all()
        assert (centers[:, 1] >= extent.y).all() and (centers[:, 1] < extent.y_max).all()

    def test_minimal_extent_still_covers(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 100, 100))
        assert len(all_centers(zone)) == census(zone) == 1

    def test_area_ratio_approaches_area_fraction(self):
        # Opening area over extent area ~ 1 - area_fraction on a large crop.
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 200_000, 200_000))
        hexagon_area = polygon_area(hexagon_vertices(WIDE.comb_diameter))
        opening_area = len(all_centers(zone)) * hexagon_area
        extent_area = 200_000.0**2
        expected_open = 1.0 - honeycomb_area_fraction(WIDE)
        assert opening_area / extent_area == pytest.approx(expected_open, rel=0.01)

    def test_row_major_ordering(self):
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 30_000, 30_000))
        for array in lattice_arrays(zone, 10):
            centers = np.array(array.centers())
            ys = centers[:, 1]
            assert (np.diff(ys) >= 0).all()
            for y in np.unique(ys):
                xs = centers[ys == y][:, 0]
                assert (np.diff(xs) > 0).all()

    def test_centers_stay_exact_across_the_limit(self):
        # Centers of an in-range extent may pass 2**31 - 1 nm; the writers
        # refuse them, and the centers stay exact integers.
        x = TOP_NM - 4000
        zone = Zone(spec=WIDE, extent=Rect(x, 0, 8000, 8000))
        even = [(x + 4000 * i, 6920 * j) for j in range(2) for i in range(2)]
        odd = [(x + 2000 + 4000 * i, 3460) for i in range(2)]
        centers = [center for array in lattice_arrays(zone, 10) for center in array.centers()]
        assert all(type(value) is int for center in centers for value in center)
        assert centers == even + odd
        with pytest.raises(ValueError, match=r"^x must be <= 2147483647 nm, got 9223372036854775808$"):
            Rect(2**63, 0, 8000, 8000)

    def test_odd_pitch_needs_no_offset_without_odd_rows(self):
        spec = HoneycombSpec(pitch=4001, wall=401, height=4000)
        single_row = Zone(spec=spec, extent=Rect(0, 0, 20_000, 3000))
        (array,) = lattice_arrays(single_row, 10)
        assert (array.cols, array.rows) == (5, 1)
        with pytest.raises(ValueError, match="even pitch"):
            lattice_arrays(Zone(spec=spec, extent=Rect(0, 0, 20_000, 20_000)), 10)


MODULES = [
    lotuskit,
    *(importlib.import_module(f"lotuskit.{info.name}") for info in pkgutil.iter_modules(lotuskit.__path__)),
]


class TestPublicNames:
    def test_every_module_is_listed(self):
        names = {module.__name__ for module in MODULES}
        assert {"lotuskit", "lotuskit.lattice", "lotuskit.maskio", "lotuskit.reference"} <= names

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_every_exported_name_resolves(self, module):
        for name in module.__all__:
            assert hasattr(module, name), name

    def test_mask_names_import_from_the_package(self):
        from lotuskit import MaskGeometry, layout_stats, write_gdsii
        from lotuskit import maskio

        assert (write_gdsii, MaskGeometry, layout_stats) == (
            maskio.write_gdsii, maskio.MaskGeometry, maskio.layout_stats,
        )

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from lotuskit import *", namespace)
        assert set(lotuskit.__all__) <= namespace.keys()

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lotuskit.no_such_name
        with pytest.raises(ImportError):
            exec("from lotuskit import no_such_name", {})


class TestTwoZoneLayout:
    def test_reference_arrangement(self):
        layout = build_two_zone_layout(WIDE, FINE)
        assert len(layout.zones) == 2
        a, b = layout.zones
        assert (a.extent.x, a.extent.y) == (0, 0)
        assert (b.extent.x, b.extent.y) == (10_000_000, 0)
        assert a.extent.width == a.extent.height == 10_000_000
        # Abutting, not overlapping: shared edge only.
        assert not a.extent.overlaps(b.extent)
        assert a.extent.x_max == b.extent.x

    def test_identical_specs_still_two_zones(self):
        layout = build_two_zone_layout(WIDE, WIDE)
        assert len(layout.zones) == 2

    def test_mismatched_pitch_rejected(self):
        other = HoneycombSpec(pitch=5000, wall=1000, height=4000)
        with pytest.raises(ValueError, match="pitch"):
            build_two_zone_layout(WIDE, other)


class TestDesignRules:
    def test_reference_designs_pass(self):
        assert check_design_rules(WIDE) == []
        assert check_design_rules(FINE) == []
        assert check_design_rules(build_two_zone_layout(WIDE, FINE)) == []

    def test_aspect_limit_is_boundary_inclusive(self):
        # wall 400, height 4000 -> ratio exactly 10 with limit 10: passes.
        assert aspect_ratio(FINE) == DEFAULT_RULES.max_aspect_ratio
        assert check_design_rules(FINE) == []

    @pytest.mark.parametrize("limit", [0, -1.0, math.nan])
    def test_rejects_nonpositive_aspect_limit(self, limit):
        message = f"max_aspect_ratio must be > 0, got {limit!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DesignRules(max_aspect_ratio=limit)

    def test_thin_wall_flagged(self):
        thin = HoneycombSpec(pitch=4000, wall=300, height=3000)
        violations = check_design_rules(thin)
        assert [v.rule for v in violations] == ["min_wall"]
        assert violations[0].value == 300
        assert violations[0].limit == 400

    def test_tall_thin_structure_flags_aspect(self):
        tall = HoneycombSpec(pitch=4000, wall=400, height=10_000)
        rules = {v.rule for v in check_design_rules(tall)}
        assert "max_aspect_ratio" in rules
        assert "max_height" in rules

    def test_off_grid_dimensions_flagged(self):
        off = HoneycombSpec(pitch=4004, wall=401, height=4000)
        rules = [v.rule for v in check_design_rules(off)]
        assert "fabrication_grid(pitch)" in rules
        assert "fabrication_grid(wall)" in rules

    def test_layout_violations_name_the_zone(self):
        thin = HoneycombSpec(pitch=4000, wall=300, height=3000)
        layout = build_two_zone_layout(WIDE, thin)
        violations = check_design_rules(layout)
        assert len(violations) == 1
        assert violations[0].subject == "zone@(10000000,0)nm"
        assert "min_wall" in str(violations[0])

    def test_row_pitch_checked_as_written(self):
        # Odd rows are written one row pitch up, snapped to the layout's own
        # grid: 3460 nm for a 4000 nm pitch on 10 nm, 3480 nm on 40 nm.  It
        # lies on the rules' grid exactly when the layout carries that grid.
        zone = Zone(spec=WIDE, extent=Rect(0, 0, 20_000, 20_000))
        assert lattice_arrays(zone, 10)[1].origin == (2000, 3460)
        assert lattice_arrays(zone, 40)[1].origin == (2000, 3480)
        layout = Layout(zones=(zone,), fabrication_grid=40)
        assert check_design_rules(layout, DesignRules(fabrication_grid=40)) == []
        # A bare zone is written on the default 10 nm grid, off a 40 nm one.
        for target, grid, rules_grid in ((zone, 10, 40), (layout, 40, 10), (layout, 40, 20)):
            assert [
                str(v) for v in check_design_rules(target, DesignRules(fabrication_grid=rules_grid))
            ] == [f"layout: fabrication_grid(layout): value {grid} violates limit {rules_grid}"]

    def test_half_pitch_checked_against_the_grid(self):
        # Odd rows start half a pitch right: 2005 nm for a 4010 nm pitch,
        # off the 10 nm grid that the pitch itself is on.
        spec = HoneycombSpec(pitch=4010, wall=400, height=4000)
        zone = Zone(spec=spec, extent=Rect(0, 0, 20_000, 20_000))
        assert lattice_arrays(zone, 10)[1].origin == (2005, 3470)
        assert [str(v) for v in check_design_rules(spec)] == [
            "spec: fabrication_grid(half_pitch): value 2005 violates limit 10"
        ]
        assert [str(v) for v in check_design_rules(zone)] == [
            "zone@(0,0)nm: fabrication_grid(half_pitch): value 2005 violates limit 10"
        ]
        # An odd pitch has an x.5 half pitch, which no grid divides.
        odd = HoneycombSpec(pitch=4001, wall=401, height=4000)
        assert [str(v) for v in check_design_rules(odd, DesignRules(fabrication_grid=1))] == [
            "spec: fabrication_grid(half_pitch): value 2000.5 violates limit 1"
        ]
        # The reference half pitch, 2000 nm, lies on each of these grids.
        for grid in (5, 10, 20, 40, 400):
            assert check_design_rules(FINE, DesignRules(min_wall=1, fabrication_grid=grid)) == []

    def test_collapsed_row_pitch_is_refused(self):
        # A 4 nm pitch has no row pitch on the default 10 nm grid, so no
        # writer accepts the zone, and the check refuses the grid it is on.
        tiny = Zone(HoneycombSpec(pitch=4, wall=1, height=10), Rect(0, 0, 100, 100))
        with pytest.raises(ValueError, match="collapses to zero"):
            lattice_arrays(tiny, 10)
        lax = DesignRules(min_wall=1, fabrication_grid=1)
        assert [str(v) for v in check_design_rules(tiny, lax)] == [
            "layout: fabrication_grid(layout): value 10 violates limit 1"
        ]
        assert lattice_arrays(tiny, 1)[1].origin == (2, 3)
        assert check_design_rules(Layout(zones=(tiny,), fabrication_grid=1), lax) == []

    def test_custom_rules(self):
        lax = DesignRules(min_wall=100, max_aspect_ratio=50.0, max_height=20_000)
        tall = HoneycombSpec(pitch=4000, wall=400, height=10_000)
        assert check_design_rules(tall, lax) == []
