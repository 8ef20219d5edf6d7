"""Wall-thickness gradients and quasi-static droplet transport on them.

A honeycomb pattern whose wall thickness grows along one axis presents the
droplet with a rising solid fraction, hence a falling apparent contact angle.
The front and rear contact lines of a droplet straddling such a gradient pull
with different strengths, and the imbalance drives the droplet toward the
denser, better-wetting end — transport with no moving parts.

This module inverse-designs the wall profile, as runs of equal walls, that
realizes a target fraction ramp, evaluates the resulting capillary driving
force against the hysteresis retention force, and steps a droplet
quasi-statically until it balances or runs off the end.

Force model (documented choice, not a measured law): the contact line is
represented by the droplet's footprint diameter ``2r``; apparent angles are
evaluated at the footprint front and rear points only;

    F_drive     = gamma * 2r * (cos(theta_front) - cos(theta_rear)),
    F_retention = gamma * 2r * (cos(theta_receding) - cos(theta_advancing)),

with ``r`` recomputed from the spherical-cap relation at the mean of the two
local apparent angles so the cap stays consistent as wettability changes.
That makes ``r`` a fixed point, and the trace takes the smallest one, which
depends on the droplet and the design alone.  Positions are meters at this
module's boundary; pattern geometry stays in integer nanometers.

A simulation builds one footprint solver per (design, volume, material).  It
reads the design's runs, blocks of consecutive columns with one wall, and
evaluates the apparent angle and the retention force once per run and the
cap radius once per (front run, rear run) pair.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, repeat

from lotuskit.lattice import (
    DEFAULT_RULES,
    DesignRules,
    HoneycombSpec,
    Layout,
    Measure,
    Rect,
    Zone,
    _MAX_NM,
    _as_count,
    _as_int_nm,
    _check_spec,
    _violation_error,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
)
from lotuskit.wetting import (
    Droplet,
    Material,
    _require_in,
    apparent_advancing_receding,
    cassie_apparent_angle,
    spherical_cap_footprint_radius,
)

__all__ = [
    "Measure",
    "GradientSpec",
    "GradientDesign",
    "TraceStep",
    "TraceInterval",
    "SimulationTrace",
    "TerminalReason",
    "FootprintError",
    "wall_for_fraction",
    "design_linear_gradient",
    "local_apparent_angle",
    "retention_force",
    "simulate_droplet",
    "trace_to_csv",
]

_NM_PER_M = 1e9
_M_PER_NM = 1e-9


def _contact_force(tension: float, radius: float, theta_a: float, theta_b: float) -> float:
    """``tension * radius * (cos(theta_a) - cos(theta_b))``, angles in degrees:
    the one form of the drive and the retention, with ``tension`` twice the
    surface tension."""
    return tension * radius * (math.cos(math.radians(theta_a)) - math.cos(math.radians(theta_b)))


class FootprintError(ValueError):
    """Droplet footprint cannot fit inside the design at the given position."""


@dataclass(frozen=True)
class GradientSpec:
    """Target of a gradient design, lengths in integer nanometers.

    Attributes
    ----------
    length:
        Channel length along the transport axis, >= pitch.
    lateral_width:
        Channel width across the transport axis (pattern extent in y).
    pitch:
        Honeycomb lattice period; one design column per period.
    f_start, f_end:
        Solid fraction at the two channel ends, each in (0, 1), measured per
        ``measure``.  Equal values give a uniform control pattern.
    measure:
        Fraction convention, see :class:`Measure`.
    height:
        Structure height in nm (metadata for design rules).
    """

    length: int
    lateral_width: int
    pitch: int
    f_start: float
    f_end: float
    measure: Measure = Measure.AREA_FRACTION
    height: int = 4000

    def __post_init__(self) -> None:
        object.__setattr__(self, "measure", Measure(self.measure))
        for name in ("length", "lateral_width", "pitch", "height"):
            object.__setattr__(self, name, _as_int_nm(getattr(self, name), name))
        if self.length < self.pitch:
            raise ValueError(
                f"length ({self.length} nm) must cover at least one pitch "
                f"({self.pitch} nm)"
            )
        _require_in(self.f_start, "f_start", 0, 1)
        _require_in(self.f_end, "f_end", 0, 1)


@dataclass(frozen=True, kw_only=True)
class GradientDesign(Layout):
    """A realized gradient as runs of equal walls: a layout labelled ``gradient``.

    ``runs[i] = (count, wall)``: ``count`` consecutive lattice columns with
    one wall.  Columns are pitch-wide strips starting at x = 0, so column k
    spans ``[k*pitch, (k+1)*pitch)`` nm; no x coordinate is stored.  Walls
    are integer nanometers, snapped to the fabrication grid, inside
    (0, pitch), and follow the requested fraction ramp: they rise strictly
    from run to run on a rising ramp and fall strictly on a falling one,
    and a uniform ramp is one run.  ``fractions[i]`` is run i's solid
    fraction and ``zones[i]`` run i as a zone, which alone stores its start:
    ``HoneycombSpec(pitch, wall, height)`` over ``[start*pitch,
    (start+count)*pitch) x [0, lateral_width)``, so the zones abut and
    cover ``length_nm``.  The zones and the label are derived, never set;
    ``fabrication_grid`` is the layout's (default 10 nm).
    """

    zones: tuple[Zone, ...] = field(init=False, repr=False)
    label: str = field(default="gradient", init=False, repr=False)
    runs: tuple[tuple[int, int], ...]
    spec: GradientSpec
    fractions: tuple[float, ...] = field(init=False, repr=False)
    n_columns: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        grid = _as_int_nm(self.fabrication_grid, "fabrication_grid")  # stored by Layout's check
        spec, rising = self.spec, self.spec.f_end > self.spec.f_start
        if not self.runs:
            raise ValueError("a gradient design needs at least one run")
        if spec.f_start == spec.f_end and len(self.runs) > 1:
            raise ValueError(f"a uniform ramp has exactly one run, got {len(self.runs)}")
        runs, n_columns = [], 0
        for index, (count, wall) in enumerate(self.runs):
            count = _as_count(count, f"run {index} count", 1)
            wall = _as_int_nm(wall, f"run {index} wall")
            if wall >= spec.pitch:
                raise ValueError(
                    f"run {index} wall must be below the {spec.pitch} nm pitch, got {wall}"
                )
            if wall % grid != 0:
                raise ValueError(f"run {index} wall {wall} nm is off the {grid} nm fabrication grid")
            if runs and wall == runs[-1][1]:
                raise ValueError(f"run {index} repeats the {wall} nm wall of run {index - 1}")
            if runs and (wall > runs[-1][1]) != rising:
                raise ValueError(
                    f"run {index} wall {wall} nm after {runs[-1][1]} nm: walls must "
                    f"{'rise' if rising else 'fall'} from run to run on this ramp"
                )
            runs.append((count, wall))
            n_columns += count
        if n_columns * spec.pitch > _MAX_NM:
            raise ValueError(
                f"runs of {spec.pitch} nm columns cover more than {_MAX_NM} nm: "
                f"at most {_MAX_NM // spec.pitch} columns fit"
            )
        fraction = (
            honeycomb_linear_ratio
            if spec.measure is Measure.LINEAR_RATIO
            else honeycomb_area_fraction
        )
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "n_columns", n_columns)
        starts = accumulate((count for count, _ in runs), initial=0)
        zones = tuple(
            Zone(
                HoneycombSpec(pitch=spec.pitch, wall=wall, height=spec.height),
                Rect(start * spec.pitch, 0, count * spec.pitch, spec.lateral_width),
            )
            for (count, wall), start in zip(runs, starts)
        )
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "fractions", tuple(fraction(zone.spec) for zone in zones))
        super().__post_init__()

    @property
    def columns(self) -> tuple[int, ...]:
        """One wall per column, expanded from ``runs``; lotuskit itself never reads it."""
        return tuple(wall for count, wall in self.runs for _ in range(count))

    @property
    def length_nm(self) -> int:
        """Patterned length actually covered by columns (n_columns * pitch)."""
        return self.n_columns * self.spec.pitch

    @property
    def length_m(self) -> float:
        return self.length_nm * _M_PER_NM


class TerminalReason(Enum):
    """Why a droplet simulation stopped."""

    REACHED_END = "reached_end"
    FORCE_BALANCE = "force_balance"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class TraceStep:
    """The solved droplet at one position of the quasi-static stepping loop.

    ``footprint_radius`` is the solved footprint and ``retention`` the
    hysteresis retention force under the footprint's center, which the stop
    decision compares ``|net_force|`` against.
    """

    position: float  # m
    theta_front: float  # degrees
    theta_rear: float  # degrees
    net_force: float  # N, positive toward +x
    footprint_radius: float  # m
    retention: float  # N, >= 0


@dataclass(frozen=True)
class TraceInterval:
    """Consecutive trace records that share one solved state.

    The records stand at ``first``, ``first + step``, ... : ``count``
    positions, each the float sum of the one before and ``step``.  They
    share both angles and the retention.  On a cap root (``edges`` is None)
    they share the footprint radius and the net force too.  On a root on a
    jump the footprint reaches the nearer of two run edges, so a record at
    x has ``radius = min(edges[0] - x, x - edges[1])`` and ``net_force =
    tension * radius * (cos(theta_front) - cos(theta_rear))``;
    ``footprint_radius`` and ``net_force`` are then the first record's.
    """

    first: float  # m
    count: int
    step: float  # m, signed
    theta_front: float  # degrees
    theta_rear: float  # degrees
    footprint_radius: float  # m
    net_force: float  # N
    retention: float  # N, >= 0
    tension: float  # N/m, twice the surface tension
    edges: tuple[float, float] | None = None  # m: (front edge, rear edge)

    def positions(self) -> Iterator[float]:
        """The records' positions, made by the same float adds as stepping."""
        return accumulate(repeat(self.step, self.count - 1), initial=self.first)

    def solved(self) -> Iterator[tuple[float, float, float]]:
        """``(position, footprint_radius, net_force)`` of each record."""
        if self.edges is None:
            radius, force = self.footprint_radius, self.net_force
            return ((x, radius, force) for x in self.positions())
        return self._on_jump()

    def _on_jump(self) -> Iterator[tuple[float, float, float]]:
        front_edge, rear_edge = self.edges
        for x in self.positions():
            radius = min(front_edge - x, x - rear_edge)
            yield x, radius, _contact_force(self.tension, radius, self.theta_front, self.theta_rear)


@dataclass(frozen=True)
class SimulationTrace:
    """Time-ordered simulation record plus the reason stepping stopped.

    The records are stored as ``intervals``, runs of records that share one
    solved state; :attr:`steps` expands them into one :class:`TraceStep` per
    record.
    """

    intervals: tuple[TraceInterval, ...]
    terminal_reason: TerminalReason

    @property
    def records(self) -> int:
        return sum(interval.count for interval in self.intervals)

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        """One record per position, expanded from ``intervals``."""
        return tuple(
            TraceStep(x, interval.theta_front, interval.theta_rear, force, radius, interval.retention)
            for interval in self.intervals
            for x, radius, force in interval.solved()
        )

    @property
    def final_position(self) -> float:
        return deque(self.intervals[-1].positions(), maxlen=1)[0]

    @property
    def moves(self) -> int:
        """Steps the droplet took: one after each record but the last, and
        one after the last too when stepping stopped at ``max_steps``."""
        if self.terminal_reason is TerminalReason.MAX_STEPS:
            return self.records
        return max(self.records - 1, 0)


def wall_for_fraction(
    target_fraction: float,
    pitch: int,
    measure: Measure = Measure.AREA_FRACTION,
    fabrication_grid: int = DEFAULT_RULES.fabrication_grid,
) -> int:
    """Wall thickness (nm) whose pattern realizes a target solid fraction.

    Inverts the fraction conventions of the lattice geometry:

    * linear ratio ``q = w/p``      ->  ``w = f * p``
    * area fraction ``2q - q^2``    ->  ``w = p * (1 - sqrt(1 - f))``

    The result is snapped to the fabrication grid (round half up) and must
    stay strictly inside (0, pitch) after snapping; degenerate targets whose
    snapped wall would be 0 (unfabricable) or >= pitch (no opening) raise.
    """
    _require_in(target_fraction, "target_fraction", 0, 1)
    pitch = _as_int_nm(pitch, "pitch")
    fabrication_grid = _as_int_nm(fabrication_grid, "fabrication_grid")
    linear = Measure(measure) is Measure.LINEAR_RATIO
    wall = _snapped_wall(target_fraction, pitch, linear, fabrication_grid)
    if not 0 < wall < pitch:
        raise ValueError(
            f"fraction {target_fraction!r} maps to wall {wall} nm after snapping "
            f"to the {fabrication_grid} nm grid, outside the fabricable range "
            f"(0, {pitch}) nm"
        )
    return wall


def _snapped_wall(target: float, pitch: int, linear: bool, grid: int) -> int:
    """:func:`wall_for_fraction`'s inverse and grid snap, with no check of
    its arguments or its result; ``target`` lies in [0, 1].  Each step is
    monotone under round-to-nearest, so the wall is monotone in ``target``."""
    exact = target * pitch if linear else pitch * (1.0 - math.sqrt(1.0 - target))
    return math.floor(exact / grid + 0.5) * grid  # snap_to_grid's rounding


def _last_holding(holds, first: int, stop: int) -> int:
    """The last index in [first, stop) at which ``holds`` is true, where it
    holds at ``first`` and on a prefix from there.

    Gallop, probing first + 1, + 2, + 4, ..., then bisect below the first
    probe where it fails: O(log n) probes for a prefix of n, and one probe
    when n is 1.  Every probe lies above the last index known to hold.
    """
    low, stride = first, 1
    while low + stride < stop and holds(low + stride):
        low, stride = low + stride, 2 * stride
    high = min(low + stride, stop)  # the first index known to fail, or stop
    while high - low > 1:
        middle = (low + high) // 2
        if holds(middle):
            low = middle
        else:
            high = middle
    return low


def design_linear_gradient(
    spec: GradientSpec, rules: DesignRules = DEFAULT_RULES
) -> GradientDesign:
    """Realize a linear fraction ramp as runs of equal walls.

    One column per lattice period: N = floor(length / pitch) columns, column
    k targeting ``f_k = f_start + (f_end - f_start) * k / (N - 1)`` (a single
    column gets f_start), whose wall :func:`wall_for_fraction` gives.  Equal
    consecutive walls form one run, and each run's zone spec is checked
    against the design rules as :func:`~lotuskit.lattice.check_design_rules`
    checks a spec.  Any violation aborts the design; the error lists each
    (rule, value) once, under the first column that breaks it.

    The walls are found run by run, not column by column.  The target, the
    inverse and the snap are each monotone under round-to-nearest, so the
    wall is monotone in k, and each run's last column is found by galloping
    and then bisecting from its first (:func:`_last_holding`): O(runs *
    log N) unchecked inverses.  A column whose target or wall lies outside
    (0, 1) or (0, pitch) starts a run; it is refused by
    :func:`wall_for_fraction`, with the message a column-by-column design
    gave at its first refused column.
    """
    n_columns = spec.length // spec.pitch
    pitch, grid, span = spec.pitch, rules.fabrication_grid, max(n_columns - 1, 1)
    linear, slope = spec.measure is Measure.LINEAR_RATIO, spec.f_end - spec.f_start

    def target(index: int) -> float:
        return spec.f_start + slope * index / span

    def wall(index: int) -> int | None:
        """Column ``index``'s wall, or None where the column is refused."""
        fraction = target(index)
        if 0 < fraction < 1:
            snapped = _snapped_wall(fraction, pitch, linear, grid)
            if 0 < snapped < pitch:
                return snapped
        return None

    runs, start = [], 0
    while start < n_columns:
        run_wall = wall(start)
        if run_wall is None:  # raises, naming the column's target
            wall_for_fraction(target(start), pitch, spec.measure, grid)
        end = 1 + _last_holding(lambda index: wall(index) == run_wall, start, n_columns)
        runs.append((end - start, run_wall))
        start = end
    design = GradientDesign(runs=tuple(runs), spec=spec, fabrication_grid=grid)
    violations = {}
    for zone in design.zones:
        for violation in _check_spec(zone.spec, rules, f"column {zone.extent.x // spec.pitch}"):
            violations.setdefault((violation.rule, violation.value), violation)
    if violations:
        raise _violation_error("gradient", list(violations.values()))
    return design


def local_apparent_angle(
    design: GradientDesign, x_m: float, material: Material
) -> float:
    """Apparent contact angle over the column containing ``x_m`` (meters).

    Positions are quantized to the 1 nm geometry grid before lookup;
    ``x = length`` lies in the last column.  A position that is not finite
    in nanometers lies outside the design, and so does a bool.  The fraction
    field is piecewise constant per run; the angle is its Cassie-Baxter
    image at the material's flat angle.
    """
    try:
        x_nm = math.nan if isinstance(x_m, bool) else round(x_m * _NM_PER_M)
    except (OverflowError, ValueError):  # infinite, NaN or beyond the float range
        x_nm = math.nan
    if not 0 <= x_nm <= design.length_nm:
        raise ValueError(
            f"position {x_m!r} m lies outside the design [0, {design.length_m!r}] m"
        )
    run = bisect_right(design.zones, x_nm, key=lambda zone: zone.extent.x) - 1
    return cassie_apparent_angle(design.fractions[run], material.theta_flat)


def _no_fit(position_m: float, r_max: float) -> FootprintError:
    return FootprintError(
        f"droplet footprint does not fit at {position_m!r} m: needs more "
        f"than the {r_max!r} m available to the nearer design edge"
    )


class _FootprintSolver:
    """Footprint fixed point and driving force of one droplet on one design.

    The footprint radius depends on the local mean angle, which depends on
    where the footprint ends sit: r = cap_radius(front run, rear run) with
    the runs under x + r and x - r.  The design is read as its runs, each a
    block of consecutive columns with one wall, and the apparent angle and
    the retention force depend on the wall alone, so each is computed once
    per run, and the cap radius once per (front run, rear run) pair met.

    Between two run edges the pair, hence the cap, is constant.  The solve
    walks outward from r = 0 edge by edge and stops at the smallest fixed
    point: a cap short of the next edge, or an edge that the cap of the
    pair beyond it does not exceed (a root on a jump).  Run i's edge is
    half a nanometer below its start ``zones[i].extent.x``, where
    :meth:`run` rounds a position into run i.  ``r_max`` is the distance
    to the nearer design edge; a cap above it there means the droplet
    cannot fit, which raises FootprintError.

    :meth:`walk` makes those decisions at a position and returns them as
    its walk path; :meth:`solve` and :meth:`record` turn a path into the
    solved state.  Positions with one path share the state, but for the
    radius and force of a root on a jump, which follow the position.  Each
    decision compares a position-free cap or edge with a distance that is
    monotone in the position, so :meth:`horizon` can name the nearest
    position at which one of them flips.
    """

    def __init__(
        self, design: GradientDesign, volume_m3: float, material: Material
    ) -> None:
        self.design = design
        self.volume = volume_m3
        self.material = material
        self._run_angles = [
            cassie_apparent_angle(fraction, material.theta_flat)
            for fraction in design.fractions
        ]
        self._starts_nm = [zone.extent.x for zone in design.zones]
        # Where each run begins, in meters; no edge below run 0 or past the last.
        inner = [(start - 0.5) * _M_PER_NM for start in self._starts_nm[1:]]
        self._edges_m = [-math.inf, *inner, math.inf]
        self._caps: dict[tuple[int, int], float] = {}  # (front, rear) run -> radius
        self._retention: list[float | None] = [None] * len(design.runs)
        self.length_m = design.length_m
        self._droplet = Droplet(volume=volume_m3)

    def run(self, x_m: float) -> int:
        """Index of the run containing ``x_m`` (meters).

        The quantization is :func:`local_apparent_angle`'s.  :meth:`walk`
        asks only for x and x ± min(x, length - x), all inside [0, length].
        """
        return bisect_right(self._starts_nm, round(x_m * _NM_PER_M)) - 1

    def cap_radius(self, front: int, rear: int) -> float:
        """Footprint radius of the cap at the mean angle of two runs' walls."""
        radius = self._caps.get((front, rear))
        if radius is None:
            angles = self._run_angles
            radius = spherical_cap_footprint_radius(
                self.volume, 0.5 * (angles[front] + angles[rear])
            )
            self._caps[front, rear] = radius
        return radius

    def walk(self, position_m: float) -> tuple[int, ...]:
        """The walk path at ``position_m``: every decision that the solve makes.

        The path is the (front, rear) run pair of the no-fit check, each
        (front, rear) pair that the walk stands on, from (center, center)
        outward, and last 1 for a root on a jump or 0 for a cap.  Raises
        FootprintError where the droplet does not fit.
        """
        length_m = self.length_m
        if not 0.0 <= position_m <= length_m:
            raise FootprintError(
                f"droplet center {position_m!r} m lies outside the design "
                f"[0, {length_m!r}] m"
            )
        r_max = min(position_m, length_m - position_m)
        if r_max <= 0.0:
            raise _no_fit(position_m, r_max)
        run, cap_radius, caps, edges = self.run, self.cap_radius, self._caps, self._edges_m
        path = [run(position_m + r_max), run(position_m - r_max)]
        if cap_radius(*path) > r_max:
            raise _no_fit(position_m, r_max)

        front = rear = run(position_m)
        edge = 0.0  # the walk stands here, on the pair beyond this edge
        while True:
            path += (front, rear)
            radius = caps.get((front, rear)) or cap_radius(front, rear)  # a radius is > 0
            if radius <= edge:  # a root on a jump
                path.append(1)
                return tuple(path)
            front_edge = edges[front + 1] - position_m
            rear_edge = position_m - edges[rear]
            edge = front_edge if front_edge < rear_edge else rear_edge
            if radius < edge:
                path.append(0)
                return tuple(path)
            if front_edge == edge:
                front += 1
            if rear_edge == edge:
                rear -= 1

    def horizon(self, path: tuple[int, ...], position_m: float, move: float) -> float:
        """The nearest position past ``position_m``, in the direction of
        ``move``, at which a comparison that the walk ``path`` made flips.

        Moving toward +x, the distances to front edges shrink and those to
        rear edges grow.  So the comparisons that can flip are: the center
        passing the next run edge; the run that the no-fit check reads at
        ``2x`` below the middle, or at ``2x - length`` above it, passing
        its next edge; ``r_max = length - x`` falling to the no-fit cap; a
        crossed rear edge's distance growing past the cap before it, past
        the front edge's distance (where the crossing order turns) and past
        the cap beyond it, unless that is a root on a jump; a crossed front
        edge's distance falling below the cap of a root on a jump beyond
        it; and a cap root's front edge distance falling to the cap.  Toward
        -x the roles mirror.

        The thresholds are exact reals rounded once, so the result is an
        estimate, where :func:`_path_extent` starts its search.  A walk
        that crossed a front and a rear edge at once, a tie, gives
        ``position_m`` itself, and a path whose comparisons all hold onward
        an infinity.
        """
        edges, caps, length_m = self._edges_m, self._caps, self.length_m
        near_front, near_rear, center = path[:3]
        no_fit = caps[near_front, near_rear]  # every pair on the path has its cap cached
        forward = move > 0.0
        if forward:
            ahead = [
                edges[center + 1], 0.5 * edges[near_front + 1],
                0.5 * (edges[near_rear + 1] + length_m), length_m - no_fit,
            ]
        else:
            ahead = [edges[center], 0.5 * edges[near_front], 0.5 * (edges[near_rear] + length_m), no_fit]
        fronts, rears = path[2:-1:2], path[3:-1:2]
        last_crossing, on_jump = len(fronts) - 2, path[-1] == 1
        for index, (front, rear, next_front, next_rear) in enumerate(
            zip(fronts, rears, fronts[1:], rears[1:])
        ):
            if next_front != front and next_rear != rear:
                return position_m
            if next_front == front:  # crossed a rear edge, at distance x - edge
                edge, toward = edges[rear], 1.0
            else:  # crossed a front edge, at distance edge - x
                edge, toward = edges[front + 1], -1.0
            grows = (toward > 0.0) == forward
            if grows:  # past the cap before the edge and the other side's distance
                ahead += (edge + toward * caps[front, rear], 0.5 * (edges[front + 1] + edges[rear]))
            if grows != (on_jump and index == last_crossing):  # the cap beyond the edge
                ahead.append(edge + toward * caps[next_front, next_rear])
        if not on_jump:  # a cap root lies short of both edges
            front, rear = fronts[-1], rears[-1]
            ahead.append(
                edges[front + 1] - caps[front, rear] if forward else edges[rear] + caps[front, rear]
            )
        return min(ahead) if forward else max(ahead)

    def record(self, path: tuple[int, ...], position_m: float) -> TraceInterval:
        """The droplet solved at ``position_m``, whose walk path is ``path``,
        as an interval of one record: footprint, angles and forces."""
        return TraceInterval(position_m, 1, 0.0, *self.solve(path, position_m))

    def solve(
        self, path: tuple[int, ...], position_m: float
    ) -> tuple[float, float, float, float, float, float, tuple[float, float] | None]:
        """The fields of :meth:`record` after its position, count and step:
        both angles, the footprint radius, the net force, the retention,
        the tension and the jump edges."""
        front, rear, on_jump = path[-3:]
        edges = None
        if on_jump:  # the footprint reaches the edge the walk last crossed
            edges = (self._edges_m[path[-5] + 1], self._edges_m[path[-4]])
            radius = min(edges[0] - position_m, position_m - edges[1])
        else:
            radius = self.cap_radius(front, rear)
        front, rear = self._run_angles[front], self._run_angles[rear]
        tension = self.material.surface_tension * 2.0
        force = _contact_force(tension, radius, front, rear)
        center = path[2]
        holding = self._retention[center]
        if holding is None:
            holding = retention_force(self._droplet, self.material, self.design.fractions[center])
            self._retention[center] = holding
        return front, rear, radius, force, holding, tension, edges


def retention_force(droplet: Droplet, material: Material, f_local: float) -> float:
    """Hysteresis retention force pinning a droplet, in newtons (>= 0).

    Furmidge-type estimate ``F = gamma * 2r * (cos(theta_rec) -
    cos(theta_adv))`` with the apparent advancing/receding pair evaluated at
    the local solid fraction and ``r`` from the spherical-cap relation at
    their mean.  Zero flat-surface hysteresis gives exactly zero retention.
    """
    advancing, receding = apparent_advancing_receding(f_local, material)
    radius = spherical_cap_footprint_radius(
        droplet.volume, 0.5 * (advancing + receding)
    )
    return _contact_force(material.surface_tension * 2.0, radius, receding, advancing)


def simulate_droplet(
    design: GradientDesign,
    droplet: Droplet,
    material: Material,
    step: float | None = None,
    max_steps: int = 1_000_000,
) -> SimulationTrace:
    """Step a droplet quasi-statically along the gradient.

    Each iteration evaluates the driving force and the local retention
    force; while |drive| exceeds retention the droplet advances by
    ``step * sign(drive)`` meters, otherwise it stops in force balance.
    Stepping also stops when the next position's footprint would overhang a
    design edge (``reached_end``) or after ``max_steps`` moves.  The trace
    records each position the droplet stood at, as solved there;
    :attr:`SimulationTrace.moves` counts the moves, which on ``max_steps``
    include one past the last record.

    The footprint is solved once per walk path (see
    :meth:`_FootprintSolver.walk`), not once per position: the positions on
    one path share their solved state, and the trace stores them as one
    :class:`TraceInterval`.  Where that interval ends is predicted from the
    path's thresholds, and a search from there finds it (:func:`_path_extent`).
    A right prediction costs two walks, so a simulation walks about twice
    per interval, whatever the step.

    The droplet never returns to a position it held.  A design's walls
    follow its ramp, so the solid fraction is monotone along x, and with it
    the Cassie angle: the front angle stays on one side of the rear angle,
    the net force keeps one sign, and every move goes with the ramp.  In
    floating point this needs ``acos`` and ``cos`` to round monotonically,
    which seeded property tests check rather than assume.

    Parameters
    ----------
    step:
        Step length in meters; defaults to one lattice pitch.
    max_steps:
        Upper bound on droplet moves, an integer >= 1 (a ``bool`` is refused).

    Raises
    ------
    FootprintError
        If the droplet does not fit at its initial position.
    ValueError
        If a step is too small to change the position it is added to.
    """
    if step is None:
        step = design.spec.pitch * _M_PER_NM
    _require_in(step, "step", 0, math.inf, "m")
    max_steps = _as_count(max_steps, "max_steps", 1)

    solver = _FootprintSolver(design, droplet.volume, material)
    position = droplet.position
    path = solver.walk(position)
    intervals: list[TraceInterval] = []
    room = max_steps  # records still allowed
    while True:
        # Balance is tested on each interval's first record alone: its
        # records share angles and retention, and on a cap root the force.
        # A root on a jump over several records stands on the run edge
        # behind the droplet (rear on a rising ramp, front on a falling
        # one): the run past the edge ahead has a lower Cassie angle, so a
        # larger cap, which passes that edge.  Along the move the radius to
        # the edge behind cannot fall, nor, under monotone IEEE rounding,
        # can |net_force| = tension * radius * |cos(front) - cos(rear)|.
        state = solver.solve(path, position)
        force, holding = state[3:5]
        if abs(force) <= holding:
            intervals.append(TraceInterval(position, 1, 0.0, *state))
            return SimulationTrace(tuple(intervals), TerminalReason.FORCE_BALANCE)
        move = math.copysign(step, force)
        count, last, path = _path_extent(solver, path, position, move, room)
        intervals.append(TraceInterval(position, count, move, *state))
        room -= count
        position = last + move
        if position == last:
            raise ValueError(f"step {step!r} m does not move the droplet from {last!r} m")
        if path is None:
            return SimulationTrace(tuple(intervals), TerminalReason.REACHED_END)
        if not room:
            return SimulationTrace(tuple(intervals), TerminalReason.MAX_STEPS)


def _path_extent(
    solver: _FootprintSolver, path: tuple[int, ...], first: float, move: float, limit: int
) -> tuple[int, float, tuple[int, ...] | None]:
    """How many of the positions ``first``, ``first + move``, ... (at most
    ``limit``) the walk ``path`` holds on, the last of them, and the walk
    path at the position after it (None where the droplet does not fit).

    Each comparison of the walk is monotone in x, so one path holds on one
    interval of x, and its positions are a prefix of these, which
    :func:`_last_holding` finds.  The search starts at the last index of
    the prefix that :meth:`_FootprintSolver.horizon` predicts, turned into
    an index by one divide: upward from there if the path holds there,
    else upward from ``first`` below it.  So the result never rests on the
    prediction, and a right one costs two walks: the predicted last
    position and the one after it, whose walk is the next interval's path.

    A probe reaches its position by the same float adds as stepping makes,
    and one that the move no longer changes ends the prefix, since stepping
    refuses it.  The caller, not the search, raises for it: a probe can
    meet it past where the trace ends.
    """
    ahead = (solver.horizon(path, first, move) - first) / move
    guess = limit - 1 if ahead >= limit else math.ceil(ahead) - 1 if ahead > 1.0 else 0
    on, last = 0, first  # the last index known on the path, and its position
    off, after = 0, None  # the lowest index probed off it (0: none), and its walk path

    def holds(index: int) -> bool:
        nonlocal on, last, off, after
        x = last
        for _ in range(index - on):
            following = x + move
            if following == x:
                return False
            x = following
        walked = _walk_or_none(solver, x)
        if walked != path:
            off, after = index, walked
            return False
        on, last = index, x
        return True

    start, stop = (guess, limit) if guess == 0 or holds(guess) else (0, guess)
    count = 1 + _last_holding(holds, start, stop)
    if off != count:  # no probe walked past the prefix: it ends at limit, or stepping stays
        after = _walk_or_none(solver, last + move)
    return count, last, after


def _walk_or_none(solver: _FootprintSolver, position_m: float) -> tuple[int, ...] | None:
    try:
        return solver.walk(position_m)
    except FootprintError:
        return None


def trace_to_csv(trace: SimulationTrace) -> str:
    """Render a trace as CSV text.

    Columns: ``position_m, theta_front_deg, theta_rear_deg, net_force_N,
    moved``, where ``moved`` is 1 on the first :attr:`SimulationTrace.moves`
    rows and 0 after them; the header row is always present.  Floats use
    shortest round-trip formatting, so output is byte-stable for identical
    traces.
    """
    lines = ["position_m,theta_front_deg,theta_rear_deg,net_force_N,moved"]
    for interval in trace.intervals:
        angles = f",{interval.theta_front!r},{interval.theta_rear!r},"
        if interval.edges is None:
            row = f"{angles}{interval.net_force!r},1"
            lines += [f"{x!r}{row}" for x in interval.positions()]
        else:
            lines += [f"{x!r}{angles}{force!r},1" for x, _, force in interval.solved()]
    if trace.moves < trace.records:  # no move after the last record
        lines[-1] = lines[-1][:-1] + "0"
    return "\n".join(lines) + "\n"
