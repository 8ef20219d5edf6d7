"""Honeycomb / pillar pattern geometry, surface fractions, and design rules.

The patterns handled here are hexagonal-cell ("honeycomb") lattices: a
triangular grid of hexagonal openings separated by thin solid walls, plus a
simpler square-pillar pattern used for fraction comparisons.  All lengths at
this module's boundaries are integer nanometers, which keeps the geometric
identities (``comb_diameter + wall == pitch``) exact.

Lattice conventions
-------------------
* Hexagonal openings have their flat sides facing left/right (vertices at
  top and bottom); ``comb_diameter`` is the flat-to-flat width, so walls
  between same-row neighbors are exactly ``pitch - comb_diameter`` thick.
* Cell centers form a triangular lattice: column spacing = ``pitch`` along
  x, row spacing = ``pitch * sqrt(3)/2`` along y (snapped to the fabrication
  grid), and every other row shifted by ``pitch / 2``.
* A cell belongs to a zone iff its center lies in the half-open extent
  ``[x, x+width) x [y, y+height)``; its opening is always a whole hexagon
  (never clipped), so edge openings may protrude up to half a comb
  diameter past the extent.
* The lattice is two interleaved rectangular arrays, even rows and
  half-pitch-shifted odd rows (:func:`lattice_arrays`).  Mask export, SVG
  previews and the cell census all read the arrays.

Two independent routes to the solid area fraction are provided: the closed
form ``1 - (1 - wall/pitch)^2`` and a seeded Monte Carlo estimator with an
exact point-in-hexagon test.  They deliberately share no geometry code.
The estimator mirror-folds each sample into a quarter period, where only
two openings can contain it; every step of the fold is exact in floating
point, so it counts the same solid points as testing the four openings
around the unfolded sample.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction as _Rational
from typing import Union

# numpy is imported by the Monte Carlo sampler alone, and the thread pool by
# monte_carlo_fraction alone, so the rest of the module starts without either.

__all__ = [
    "HoneycombSpec",
    "PillarSpec",
    "Rect",
    "Zone",
    "Layout",
    "DesignRules",
    "RuleViolation",
    "LatticeArray",
    "DEFAULT_RULES",
    "ZONE_SIDE_NM",
    "square_pillar_fraction",
    "honeycomb_linear_ratio",
    "honeycomb_area_fraction",
    "monte_carlo_fraction",
    "snap_to_grid",
    "row_pitch",
    "hexagon_vertices",
    "lattice_arrays",
    "build_two_zone_layout",
    "check_design_rules",
    "aspect_ratio",
]

#: Side length of one layout zone in the standard two-zone arrangement: 10 mm.
ZONE_SIDE_NM = 10_000_000

#: Default fabrication grid, nm, of the design rules and of every target.
_DEFAULT_GRID_NM = 10

#: Monte Carlo work unit.  Fixed so that the estimate for a given
#: (samples, seed) is bitwise identical no matter how many workers run.
_MC_CHUNK = 1 << 18

#: Samples classified at once within a chunk: keeps one worker's arrays near
#: 0.8 MB, in cache, whatever the chunk size.
_MC_BLOCK = 1 << 14

#: Monte Carlo chunks in flight per worker thread: bounds the pending work,
#: whatever the sample count, and lets 16 chunks (4e6 samples) start at once.
_MC_WINDOW = 16

#: Largest length or coordinate, nm: the largest GDSII coordinate (signed
#: 32-bit), about 2.1 m.
_MAX_NM = 2**31 - 1


def _as_int_nm(value: object, name: str, minimum: int = 1) -> int:
    """Coerce a length to integer nanometers in ``[minimum, _MAX_NM]``, refusing fractions."""
    if type(value) is int and minimum <= value <= _MAX_NM:  # the common case, ahead of the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)):
        raise TypeError(f"{name} must be a number in integer nanometers, got {value!r}")
    if isinstance(value, float) and not value.is_integer():  # also NaN and inf
        raise ValueError(f"{name} must be an integer nanometer count, got {value!r}")
    as_int = int(value)
    if minimum <= as_int <= _MAX_NM:
        return as_int
    bound = f">= {minimum}" if as_int < minimum else f"<= {_MAX_NM}"
    # At most 603 digits, within any limit of int-to-str conversion (>= 640).
    got = f", got {value!r}" if as_int.bit_length() <= 2000 else ""
    raise ValueError(f"{name} must be {bound} nm{got}")


def _as_count(value: object, name: str, minimum: int) -> int:
    """Refuse a count or budget that is not an integer (a bool is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class HoneycombSpec:
    """Unit-cell geometry of a honeycomb pattern, in integer nanometers.

    Attributes
    ----------
    pitch:
        Flat-to-flat period of the cell lattice (center-to-center distance
        of same-row neighbors), > 0.
    wall:
        Thickness of the solid wall separating neighboring openings,
        0 < wall < pitch.
    height:
        Structure height (metadata for aspect-ratio rules; the lattice
        itself is 2D), > 0.
    comb_diameter:
        Flat-to-flat width of the hexagonal opening, always ``pitch - wall``.
    """

    pitch: int
    wall: int
    height: int
    comb_diameter: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pitch", _as_int_nm(self.pitch, "pitch"))
        object.__setattr__(self, "wall", _as_int_nm(self.wall, "wall"))
        object.__setattr__(self, "height", _as_int_nm(self.height, "height"))
        if self.wall >= self.pitch:
            raise ValueError(
                f"wall ({self.wall} nm) must be thinner than pitch ({self.pitch} nm)"
            )
        object.__setattr__(self, "comb_diameter", self.pitch - self.wall)


@dataclass(frozen=True)
class PillarSpec:
    """Square-pillar pattern geometry, in integer nanometers.

    Pillars of width ``width_a`` on a square grid with gaps of
    ``spacing_b`` between pillar edges; period = ``width_a + spacing_b``.
    """

    width_a: int
    spacing_b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "width_a", _as_int_nm(self.width_a, "width_a"))
        object.__setattr__(
            self, "spacing_b", _as_int_nm(self.spacing_b, "spacing_b", minimum=0)
        )


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in integer nanometers (origin + size)."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_int_nm(self.x, "x", minimum=-_MAX_NM))
        object.__setattr__(self, "y", _as_int_nm(self.y, "y", minimum=-_MAX_NM))
        object.__setattr__(self, "width", _as_int_nm(self.width, "width"))
        object.__setattr__(self, "height", _as_int_nm(self.height, "height"))

    @property
    def x_max(self) -> int:
        return self.x + self.width

    @property
    def y_max(self) -> int:
        return self.y + self.height

    def overlaps(self, other: "Rect") -> bool:
        """True if the two rectangles share interior area (edges may touch)."""
        return (
            self.x < other.x_max
            and other.x < self.x_max
            and self.y < other.y_max
            and other.y < self.y_max
        )


@dataclass(frozen=True)
class Zone:
    """One honeycomb pattern placed over a rectangular extent."""

    spec: HoneycombSpec
    extent: Rect


@dataclass(frozen=True)
class Layout:
    """An ordered set of pattern zones with pairwise non-overlapping extents.

    Row pitches are written on ``fabrication_grid`` nm (default 10).
    """

    zones: tuple[Zone, ...]
    label: str = ""
    fabrication_grid: int = _DEFAULT_GRID_NM

    def __post_init__(self) -> None:
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(
            self, "fabrication_grid", _as_int_nm(self.fabrication_grid, "fabrication_grid")
        )
        for i, a in enumerate(self.zones):
            for b in self.zones[i + 1 :]:
                if a.extent.overlaps(b.extent):
                    raise ValueError(
                        f"zone extents overlap: {a.extent} and {b.extent}"
                    )


@dataclass(frozen=True)
class DesignRules:
    """Fabrication limits a pattern must satisfy.

    Attributes
    ----------
    min_wall:
        Thinnest wall that survives fabrication, nm.
    max_aspect_ratio:
        Largest allowed height/wall ratio (demolding limit); boundary
        inclusive — a ratio exactly at the limit passes.
    max_height:
        Tallest allowed structure, nm.
    fabrication_grid:
        Writing-address grid, nm; wall, pitch, half pitch (the odd-row
        offset) and height must be multiples.
    """

    min_wall: int = 400
    max_aspect_ratio: float = 10.0
    max_height: int = 4000
    fabrication_grid: int = _DEFAULT_GRID_NM

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_wall", _as_int_nm(self.min_wall, "min_wall"))
        object.__setattr__(self, "max_height", _as_int_nm(self.max_height, "max_height"))
        object.__setattr__(
            self, "fabrication_grid", _as_int_nm(self.fabrication_grid, "fabrication_grid")
        )
        if not self.max_aspect_ratio > 0:
            raise ValueError(
                f"max_aspect_ratio must be > 0, got {self.max_aspect_ratio!r}"
            )


#: Default rules: 400 nm minimum wall, aspect ratio up to 10, structures up
#: to 4 um tall, 10 nm writing grid.
DEFAULT_RULES = DesignRules()


@dataclass(frozen=True)
class RuleViolation:
    """One failed design-rule check.  Violations are data, not exceptions."""

    rule: str
    value: float
    limit: float
    subject: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.rule}: value {self.value} violates limit {self.limit}"


def _violation_error(what: str, violations: list[RuleViolation]) -> ValueError:
    """The error refusing ``what``: its first five violations, then ``(+N more)``."""
    shown = "; ".join(str(violation) for violation in violations[:5])
    extra = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
    return ValueError(f"{what} violates design rules: {shown}{extra}")


def square_pillar_fraction(spec: PillarSpec) -> float:
    """Solid fraction of a square-pillar pattern: ``a^2 / (a + b)^2``.

    ``a`` is the pillar width, ``b`` the edge-to-edge spacing; the liquid in
    the composite state touches only the pillar tops, one ``a x a`` square
    per ``(a+b) x (a+b)`` period.
    """
    ratio = _Rational(spec.width_a, spec.width_a + spec.spacing_b)
    return float(ratio * ratio)


def honeycomb_linear_ratio(spec: HoneycombSpec) -> float:
    """Wall thickness over pitch: the one-dimensional solid ratio.

    This is the "opening ratio" convention used when a honeycomb design is
    characterized by a single cut across the lattice; it understates the
    true solid *area* fraction (see :func:`honeycomb_area_fraction`).
    """
    return float(_Rational(spec.wall, spec.pitch))


def honeycomb_area_fraction(spec: HoneycombSpec) -> float:
    """Solid area fraction of the honeycomb: ``1 - (1 - wall/pitch)^2``.

    The hexagonal openings have flat-to-flat size ``pitch - wall`` on a
    lattice of period ``pitch``; openings cover ``(comb/pitch)^2`` of the
    plane regardless of hexagon orientation, so the solid remainder is
    ``1 - (1 - q)^2 = 2q - q^2`` with ``q = wall/pitch``.  Evaluated in
    exact rational arithmetic, rounded once to float.
    """
    q = _Rational(spec.wall, spec.pitch)
    return float(2 * q - q * q)


def aspect_ratio(spec: HoneycombSpec) -> float:
    """Structure height over wall thickness (the demolding-risk number).

    Both lengths are at most ``2**31 - 1`` nm, so the ratio is finite.
    """
    return spec.height / spec.wall


def snap_to_grid(value_nm: float, grid_nm: int) -> int:
    """Round a length to the nearest fabrication-grid multiple, half up."""
    if grid_nm <= 0:
        raise ValueError(f"grid_nm must be > 0, got {grid_nm!r}")
    return int(math.floor(value_nm / grid_nm + 0.5)) * grid_nm


# --------------------------------------------------------------------------
# Monte Carlo area fraction (independent oracle for the closed form)
# --------------------------------------------------------------------------

def _mc_chunk_solid_count(
    spec: HoneycombSpec, chunk_index: int, chunk_samples: int, seed: int
) -> int:
    """Classify one chunk of random points; returns the solid-point count.

    Each chunk derives its own generator from (seed, chunk_index), so the
    full stream is independent of how chunks are distributed over workers.
    """
    import numpy as np

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )
    pitch = float(spec.pitch)
    row_spacing = pitch * math.sqrt(3.0) / 2.0
    half_comb = spec.comb_diameter / 2.0
    sqrt3_half = math.sqrt(3.0) / 2.0
    # The lattice is mirror-symmetric about x = p/2 and y = rs, so each
    # point is folded into the quarter period [0, p/2] x [0, rs], which
    # only two openings reach: the even-row one at (0, 0) and the odd-row
    # one at (p/2, rs).  The fold is exact, so the count equals a test of
    # the four bracketing openings of the unfolded point:
    # * p - x for x >= p/2 and 2rs - y for y >= rs are exact (Sterbenz).
    # * The odd-row offsets p/2 - x and rs - y after the fold are the
    #   unfolded offsets with their sign flipped, or exactly representable
    #   differences (x - p/2 and y - rs, again by Sterbenz).
    # * With both offsets non-negative, 0.5 dx + (sqrt3/2) dy is the larger
    #   of the two oblique projections |0.5 dx +- (sqrt3/2) dy|, because
    #   rounding is monotone; the smaller one never decides the test.
    # Blocks of samples reuse the same buffers, and every step runs in place;
    # random(out=) fills a block in the order that random((n, 2)) returns.
    block = min(_MC_BLOCK, chunk_samples)
    points, floats, flags = np.empty((block, 2)), np.empty((4, block)), np.empty((3, block), bool)
    solid = 0
    for start in range(0, chunk_samples, block):
        n = min(block, chunk_samples - start)
        (xs, ys, sx, sy), (inside_opening, near, below) = floats[:, :n], flags[:, :n]
        unit = rng.random(out=points[:n])
        np.multiply(unit[:, 0], pitch, out=xs)
        np.multiply(unit[:, 1], 2.0 * row_spacing, out=ys)  # one full two-row period
        np.minimum(xs, np.subtract(pitch, xs, out=sx), out=xs)
        np.minimum(ys, np.subtract(2.0 * row_spacing, ys, out=sy), out=ys)
        inside_opening.fill(False)
        for opening in range(2):
            if opening:  # offsets to the odd-row opening
                np.subtract(pitch / 2.0, xs, out=xs)
                np.subtract(row_spacing, ys, out=ys)
            np.less_equal(xs, half_comb, out=near)
            np.add(np.multiply(0.5, xs, out=sx), np.multiply(sqrt3_half, ys, out=sy), out=sx)
            near &= np.less_equal(sx, half_comb, out=below)
            inside_opening |= near
        solid += n - int(np.count_nonzero(inside_opening))
    return solid


def monte_carlo_fraction(
    spec: HoneycombSpec, samples: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Estimate the solid area fraction by uniform random sampling.

    Points are drawn uniformly over one lattice period (pitch wide, two
    rows tall) and classified by an exact point-in-hexagon test; a point is
    solid iff it lies in no opening.  Each point is first mirrored into the
    quarter period ``[0, pitch/2] x [0, row spacing]``, which only two
    openings reach.  The mirror images ``pitch - x`` and
    ``2 * row spacing - y`` are exact (Sterbenz lemma), and each folded
    offset to the two openings equals, up to sign, the rounded offset of
    the unfolded point, so the count is the one a test of the four
    openings around the unfolded point gives, not just a statistically
    equal one.  This shares no code with
    :func:`honeycomb_area_fraction` and serves as its independent check.

    Parameters
    ----------
    spec:
        Pattern geometry.
    samples:
        Number of random points, >= 1000.
    seed:
        Any non-negative integer, of any size: it is the entropy of a numpy
        ``SeedSequence``.  Results for a given (samples, seed) are
        bitwise identical regardless of ``workers``: work is split into
        fixed-size chunks, each with a generator derived from
        (seed, chunk_index), and chunk counts are summed in index order.
        At most 16 chunks per worker thread are submitted and not yet
        counted.
    workers:
        Number of chunks classified concurrently, by at most one worker
        thread per CPU (``os.cpu_count()``): each running thread holds
        under 1 MB of arrays, since it classifies its chunk in fixed blocks.

    Returns
    -------
    tuple[float, float]
        (solid fraction estimate, binomial standard error).
    """
    samples = _as_count(samples, "samples", 1000)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    workers = _as_count(workers, "workers", 1)
    from concurrent.futures import ThreadPoolExecutor

    def count(index: int) -> int:
        size = min(_MC_CHUNK, samples - index * _MC_CHUNK)
        return _mc_chunk_solid_count(spec, index, size, seed)

    solid = 0
    pending = deque()
    threads = min(workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for index in range(-(-samples // _MC_CHUNK)):
            if len(pending) == _MC_WINDOW * threads:
                solid += pending.popleft().result()
            pending.append(pool.submit(count, index))
        solid += sum(future.result() for future in pending)
    estimate = solid / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, std_error


# --------------------------------------------------------------------------
# Tiling
# --------------------------------------------------------------------------

def row_pitch(pitch: int, fabrication_grid: int) -> int:
    """Vertical lattice row spacing: ``pitch * sqrt(3)/2`` snapped to the grid.

    Rounds half up, exactly: ``(isqrt(3 p^2) + g) // 2g`` grid steps, since
    flooring the root first leaves the outer floor unchanged.
    """
    if fabrication_grid <= 0:
        raise ValueError(f"fabrication_grid must be > 0, got {fabrication_grid!r}")
    grid = fabrication_grid
    spacing = (math.isqrt(3 * pitch * pitch) + grid) // (2 * grid) * grid
    if spacing <= 0:
        raise ValueError(
            f"row pitch collapses to zero on a {fabrication_grid} nm grid "
            f"(pitch {pitch} nm is too small)"
        )
    return spacing


def hexagon_vertices(comb: int) -> list[tuple[int, int]]:
    """Integer vertices of a flat-to-flat ``comb`` hexagon, counter-clockwise.

    Flat sides face +/-x; vertices sit at the top and bottom.  ``comb/2``
    rounds half to even; ``comb*sqrt(3)/6`` and ``comb*sqrt(3)/3`` never
    tie and round to nearest, exactly, as in :func:`row_pitch`.
    """
    half_width = round(_Rational(comb, 2))
    edge_y = (math.isqrt(3 * comb * comb) + 3) // 6
    apex_y = (math.isqrt(12 * comb * comb) + 3) // 6
    return [
        (half_width, -edge_y),
        (half_width, edge_y),
        (0, apex_y),
        (-half_width, edge_y),
        (-half_width, -edge_y),
        (0, -apex_y),
    ]


@dataclass(frozen=True)
class LatticeArray:
    """One rectangular sub-grid of honeycomb cells.

    Cell (i, j) for 0 <= i < cols, 0 <= j < rows is centered at
    ``origin + i * col_vector + j * row_vector``; every opening is a whole
    hexagon ``comb`` nm flat to flat.  This is exactly one GDSII array
    reference, and a triangular lattice is two of them: see
    :func:`lattice_arrays`.
    """

    comb: int
    origin: tuple[int, int]
    cols: int
    rows: int
    col_vector: tuple[int, int]
    row_vector: tuple[int, int]

    def centers(self) -> list[tuple[int, int]]:
        """All cell centers as ``(x, y)`` integer pairs in nm, row-major."""
        (x0, y0), (cx, cy), (rx, ry) = self.origin, self.col_vector, self.row_vector
        return [
            (x0 + i * cx + j * rx, y0 + i * cy + j * ry)
            for j in range(self.rows)
            for i in range(self.cols)
        ]


def lattice_arrays(zone: Zone, fabrication_grid: int) -> list[LatticeArray]:
    """A zone's triangular lattice as its even-row and odd-row arrays.

    Even lattice rows anchor at the extent origin, odd rows are shifted
    half a pitch right and one row spacing up; each array steps by twice
    the row spacing vertically.  A cell is kept iff its center lies inside
    the half-open extent, and empty arrays are left out.  The arrays are
    built in closed form, so ``sum(cols * rows)`` is an O(1) cell census.

    Raises ValueError for an odd pitch when the zone has odd rows, since
    their half-pitch offset would fall off the 1 nm grid.
    """
    pitch = zone.spec.pitch
    extent = zone.extent
    spacing = row_pitch(pitch, fabrication_grid)
    levels = -(-extent.height // spacing)
    odd_rows = levels // 2
    base_columns = -(-extent.width // pitch)
    # Odd-row centers sit at x + pitch/2 + k * pitch: none if 2 * width <= pitch.
    offset_columns = -(-(2 * extent.width - pitch) // (2 * pitch))
    if pitch % 2 and offset_columns > 0 and odd_rows > 0:
        raise ValueError(
            f"odd lattice rows need an even pitch (the half-pitch row offset "
            f"must land on the 1 nm grid), got {pitch} nm"
        )
    arrays = []
    for origin, cols, rows in (
        ((extent.x, extent.y), base_columns, levels - odd_rows),
        ((extent.x + pitch // 2, extent.y + spacing), offset_columns, odd_rows),
    ):
        if cols > 0 and rows > 0:
            arrays.append(
                LatticeArray(
                    comb=zone.spec.comb_diameter,
                    origin=origin,
                    cols=cols,
                    rows=rows,
                    col_vector=(pitch, 0),
                    row_vector=(0, 2 * spacing),
                )
            )
    return arrays


def build_two_zone_layout(
    spec_a: HoneycombSpec, spec_b: HoneycombSpec, label: str = "two-zone"
) -> Layout:
    """Two same-pitch patterns side by side on one substrate, zero gap.

    Zone A occupies the left 10x10 mm square with its origin at (0, 0),
    zone B the right one; they share the x = 10 mm edge, forming a 20x10 mm
    patterned area overall.
    """
    if spec_a.pitch != spec_b.pitch:
        raise ValueError(
            f"both zones must share one lattice pitch, got "
            f"{spec_a.pitch} nm and {spec_b.pitch} nm"
        )
    zone_a = Zone(spec=spec_a, extent=Rect(0, 0, ZONE_SIDE_NM, ZONE_SIDE_NM))
    zone_b = Zone(spec=spec_b, extent=Rect(ZONE_SIDE_NM, 0, ZONE_SIDE_NM, ZONE_SIDE_NM))
    return Layout(zones=(zone_a, zone_b), label=label)


def _check_spec(
    spec: HoneycombSpec, rules: DesignRules, subject: str
) -> list[RuleViolation]:
    violations = []
    if spec.wall < rules.min_wall:
        violations.append(
            RuleViolation("min_wall", spec.wall, rules.min_wall, subject)
        )
    ratio = aspect_ratio(spec)
    if ratio > rules.max_aspect_ratio:
        violations.append(
            RuleViolation("max_aspect_ratio", ratio, rules.max_aspect_ratio, subject)
        )
    if spec.height > rules.max_height:
        violations.append(
            RuleViolation("max_height", spec.height, rules.max_height, subject)
        )
    grid = rules.fabrication_grid
    half_pitch = spec.pitch / 2 if spec.pitch % 2 else spec.pitch // 2  # the odd-row offset
    dimensions = {"wall": spec.wall, "pitch": spec.pitch, "half_pitch": half_pitch, "height": spec.height}
    for name, value in dimensions.items():
        if value % grid != 0:
            violations.append(
                RuleViolation(f"fabrication_grid({name})", value, grid, subject)
            )
    return violations


def check_design_rules(
    target: Union[HoneycombSpec, Zone, Layout], rules: DesignRules = DEFAULT_RULES
) -> list[RuleViolation]:
    """Check a spec, zone, or whole layout against fabrication rules.

    Returns a list of violations (empty = pass), sorted by (subject, rule)
    so the result is independent of zone ordering.  Limits are boundary
    inclusive: a value exactly at its limit passes.  A layout (a bare zone
    is one on the default grid) must carry the rules' ``fabrication_grid``,
    so that its written row pitches lie on that grid and never collapse.
    """
    if isinstance(target, Zone):
        target = Layout(zones=(target,))
    if isinstance(target, HoneycombSpec):
        violations = _check_spec(target, rules, "spec")
    elif isinstance(target, Layout):
        violations = []
        for zone in target.zones:
            subject = f"zone@({zone.extent.x},{zone.extent.y})nm"
            violations.extend(_check_spec(zone.spec, rules, subject))
        grid = target.fabrication_grid
        if grid != rules.fabrication_grid:
            violations.append(
                RuleViolation("fabrication_grid(layout)", grid, rules.fabrication_grid, "layout")
            )
    else:
        raise TypeError(
            f"expected HoneycombSpec, Zone, or Layout, got {type(target).__name__}"
        )
    return sorted(violations, key=lambda v: (v.subject, v.rule))
