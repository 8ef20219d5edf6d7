"""Wall-thickness gradients and quasi-static droplet transport on them.

A honeycomb pattern whose wall thickness grows along one axis presents the
droplet with a rising solid fraction, hence a falling apparent contact angle.
The front and rear contact lines of a droplet straddling such a gradient pull
with different strengths, and the imbalance drives the droplet toward the
denser, better-wetting end — transport with no moving parts.

This module inverse-designs the per-column wall profile that realizes a
target fraction ramp, evaluates the resulting capillary driving force against
the hysteresis retention force, and steps a droplet quasi-statically until it
balances or runs off the end.

Force model (documented choice, not a measured law): the contact line is
represented by the droplet's footprint diameter ``2r``; apparent angles are
evaluated at the footprint front and rear points only;

    F_drive     = gamma * 2r * (cos(theta_front) - cos(theta_rear)),
    F_retention = gamma * 2r * (cos(theta_receding) - cos(theta_advancing)),

with ``r`` recomputed from the spherical-cap relation at the mean of the two
local apparent angles so the cap stays consistent as wettability changes
(a fixed point solved by bisection).  Positions are meters at this module's
boundary; pattern geometry stays in integer nanometers.

A simulation builds one footprint solver per (design, volume, material).  It
reads the design as runs, maximal blocks of consecutive columns with one
wall, and evaluates the apparent angle and the retention force once per
distinct wall and the cap radius once per (front wall, rear wall) pair.
Once both ends of the bisection bracket share one (front run, rear run)
pair, the residual becomes ``cap_radius(pair) - r``.  The bisection itself
is kept, iteration for iteration, because a closed-form solve would round
differently: the trace CSV stays byte-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from lotuskit.lattice import (
    DEFAULT_RULES,
    DesignRules,
    HoneycombSpec,
    _as_int_nm,
    _check_spec,
    _violation_error,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
    snap_to_grid,
)
from lotuskit.wetting import (
    Droplet,
    Material,
    apparent_advancing_receding,
    cassie_apparent_angle,
    spherical_cap_footprint_radius,
)

__all__ = [
    "Measure",
    "GradientSpec",
    "GradientDesign",
    "TraceStep",
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


class Measure(Enum):
    """Which solid-fraction convention a gradient is specified in.

    ``LINEAR_RATIO`` is the one-dimensional wall/pitch ratio; ``AREA_FRACTION``
    is the true plan-area solid fraction ``2q - q^2``.  The two conventions
    give different walls for the same target number, so a gradient spec must
    say which it means.
    """

    LINEAR_RATIO = "linear_ratio"
    AREA_FRACTION = "area_fraction"


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
        for name in ("f_start", "f_end"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"{name} must lie strictly inside (0, 1), got {value!r}"
                )


@dataclass(frozen=True)
class GradientDesign:
    """A realized gradient: ``columns[k]`` is the wall of lattice column k.

    Columns are pitch-wide strips starting at x = 0, so column k spans
    ``[k*pitch, (k+1)*pitch)`` nm; no x coordinate is stored.  Walls are
    integer nanometers, snapped to the fabrication grid, inside (0, pitch),
    and follow the requested fraction ramp: non-decreasing on a rising
    ramp, non-increasing on a falling one, and all equal on a uniform one.
    """

    columns: tuple[int, ...]
    spec: GradientSpec
    fabrication_grid: int = DEFAULT_RULES.fabrication_grid
    fractions: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fabrication_grid", _as_int_nm(self.fabrication_grid, "fabrication_grid")
        )
        pitch = self.spec.pitch
        walls = []
        for index, wall in enumerate(self.columns):
            wall = _as_int_nm(wall, f"column {index} wall")
            if wall >= pitch:
                raise ValueError(
                    f"column {index} wall must be below the {pitch} nm pitch, got {wall}"
                )
            if wall % self.fabrication_grid != 0:
                raise ValueError(
                    f"column {index} wall {wall} nm is off the "
                    f"{self.fabrication_grid} nm fabrication grid"
                )
            walls.append(wall)
        if not walls:
            raise ValueError("a gradient design needs at least one column")
        object.__setattr__(self, "columns", tuple(walls))
        if self.spec.f_start < self.spec.f_end:
            if any(b < a for a, b in zip(walls, walls[1:])):
                raise ValueError("walls must be non-decreasing for a rising ramp")
        elif self.spec.f_start > self.spec.f_end:
            if any(b > a for a, b in zip(walls, walls[1:])):
                raise ValueError("walls must be non-increasing for a falling ramp")
        elif any(wall != walls[0] for wall in walls):
            raise ValueError("walls must be equal for a uniform ramp")
        fraction = (
            honeycomb_linear_ratio
            if self.spec.measure is Measure.LINEAR_RATIO
            else honeycomb_area_fraction
        )
        fraction_of = {
            wall: fraction(HoneycombSpec(pitch=pitch, wall=wall, height=self.spec.height))
            for wall in set(walls)
        }
        object.__setattr__(self, "fractions", tuple(fraction_of[wall] for wall in walls))

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def length_nm(self) -> int:
        """Patterned length actually covered by columns (n_columns * pitch)."""
        return self.n_columns * self.spec.pitch

    @property
    def length_m(self) -> float:
        return self.length_nm * _M_PER_NM

    def column_index(self, x_m: float) -> int:
        """Index of the column containing position ``x_m`` (meters).

        Positions are quantized to the 1 nm geometry grid before lookup;
        ``x = length`` maps to the last column.  A position that is not
        finite in nanometers lies outside the design.
        """
        try:
            x_nm = round(x_m * _NM_PER_M)
        except (OverflowError, ValueError):  # infinite, NaN or beyond the float range
            x_nm = math.nan
        if not 0 <= x_nm <= self.length_nm:
            raise ValueError(
                f"position {x_m!r} m lies outside the design "
                f"[0, {self.length_m!r}] m"
            )
        return min(x_nm // self.spec.pitch, self.n_columns - 1)

    def fraction_at(self, x_m: float) -> float:
        """Solid fraction (in the design's measure convention) at ``x_m`` (meters)."""
        return self.fractions[self.column_index(x_m)]


class TerminalReason(Enum):
    """Why a droplet simulation stopped."""

    REACHED_END = "reached_end"
    FORCE_BALANCE = "force_balance"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class TraceStep:
    """One force evaluation of the quasi-static stepping loop.

    ``moved`` is True when the droplet advanced by one step after this
    evaluation and False on the terminal record.  ``footprint_radius`` and
    ``retention`` are the solved footprint and the hysteresis retention
    force the stop decision compared ``|net_force|`` against.
    """

    position: float  # m
    theta_front: float  # degrees
    theta_rear: float  # degrees
    net_force: float  # N, positive toward +x
    moved: bool
    footprint_radius: float  # m
    retention: float  # N, >= 0


@dataclass(frozen=True)
class SimulationTrace:
    """Time-ordered simulation record plus the reason stepping stopped."""

    steps: tuple[TraceStep, ...]
    terminal_reason: TerminalReason

    @property
    def positions(self) -> list[float]:
        return [step.position for step in self.steps]

    @property
    def final_position(self) -> float:
        return self.steps[-1].position


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
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(
            f"target_fraction must lie strictly inside (0, 1), got {target_fraction!r}"
        )
    pitch = _as_int_nm(pitch, "pitch")
    if Measure(measure) is Measure.LINEAR_RATIO:
        exact = target_fraction * pitch
    else:
        exact = pitch * (1.0 - math.sqrt(1.0 - target_fraction))
    wall = snap_to_grid(exact, fabrication_grid)
    if not 0 < wall < pitch:
        raise ValueError(
            f"fraction {target_fraction!r} maps to wall {wall} nm after snapping "
            f"to the {fabrication_grid} nm grid, outside the fabricable range "
            f"(0, {pitch}) nm"
        )
    return wall


def design_linear_gradient(
    spec: GradientSpec, rules: DesignRules = DEFAULT_RULES
) -> GradientDesign:
    """Realize a linear fraction ramp as a per-column wall profile.

    One column per lattice period: N = floor(length / pitch) columns, column
    k targeting ``f_k = f_start + (f_end - f_start) * k / (N - 1)`` (a single
    column gets f_start).  Each target is converted by
    :func:`wall_for_fraction`, and each distinct wall's
    ``HoneycombSpec(pitch, wall, height)`` is checked against the design
    rules as :func:`~lotuskit.lattice.check_design_rules` checks a spec.  Any
    violation aborts the design; the error lists each (rule, value) once,
    under the first column that breaks it.
    """
    n_columns = spec.length // spec.pitch
    walls = []
    for index in range(n_columns):
        if n_columns == 1:
            target = spec.f_start
        else:
            target = spec.f_start + (spec.f_end - spec.f_start) * index / (
                n_columns - 1
            )
        walls.append(
            wall_for_fraction(target, spec.pitch, spec.measure, rules.fabrication_grid)
        )

    first_column: dict[int, int] = {}
    for index, wall in enumerate(walls):
        first_column.setdefault(wall, index)
    violations = {}
    for wall, index in first_column.items():
        column = HoneycombSpec(pitch=spec.pitch, wall=wall, height=spec.height)
        for violation in _check_spec(column, rules, f"column {index}"):
            violations.setdefault((violation.rule, violation.value), violation)
    if violations:
        raise _violation_error("gradient", list(violations.values()))

    return GradientDesign(
        columns=tuple(walls), spec=spec, fabrication_grid=rules.fabrication_grid
    )


def local_apparent_angle(
    design: GradientDesign, x_m: float, material: Material
) -> float:
    """Apparent contact angle over the column containing ``x_m`` (meters).

    The fraction field is piecewise constant per column; the angle is its
    Cassie-Baxter image at the material's flat angle.
    """
    return cassie_apparent_angle(design.fraction_at(x_m), material.theta_flat)


@dataclass(frozen=True)
class _ForceState:
    """Converged footprint geometry and force at one droplet position."""

    footprint_radius: float  # m
    theta_front: float  # degrees
    theta_rear: float  # degrees
    net_force: float  # N


def _no_fit(position_m: float, r_max: float) -> FootprintError:
    return FootprintError(
        f"droplet footprint does not fit at {position_m!r} m: needs more "
        f"than the {r_max!r} m available to the nearer design edge"
    )


def _wall_runs(walls: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(first_column, wall)`` of each maximal block of equal consecutive walls."""
    return [
        (index, wall)
        for index, wall in enumerate(walls)
        if index == 0 or walls[index - 1] != wall
    ]


class _FootprintSolver:
    """Footprint fixed point and driving force of one droplet on one design.

    The footprint radius depends on the local mean angle, which depends on
    where the footprint ends sit — a fixed point r = cap_radius(mean(r)),
    solved by bisection on h(r) = cap_radius(mean(r)) - r over (0, r_max]
    with r_max the distance to the nearer design edge.  h(0+) > 0 always;
    h(r_max) > 0 means the droplet cannot fit, which raises FootprintError.

    The design is read as runs, maximal blocks of consecutive columns with
    one wall.  The apparent angle and the retention force depend on the
    wall alone, so each is computed once per distinct wall, and the cap
    radius once per (front wall, rear wall) pair met, in a table that a
    design of alternating walls cannot grow beyond its wall pairs.  The
    bisection tracks the (front run, rear run) pair at both bracket ends:
    x_nm = round(x * 1e9) is monotone in x, so the run of x +/- r is
    monotone in r, and a run that is the same at both ends of the bracket
    ``[low, high]`` is the run of every midpoint between them.  Such an end
    is not looked up again, and once both ends share one run pair the
    residual is ``c - mid`` with ``c`` that pair's cap radius.  A wall pair
    gives one angle pair and one cap radius, the same floats at every
    column, so every midpoint and comparison is the original per-column
    bisection's and the radius is bit-identical to evaluating ``h`` afresh.
    """

    def __init__(
        self, design: GradientDesign, volume_m3: float, material: Material
    ) -> None:
        self.design = design
        self.volume = volume_m3
        self.material = material
        runs = _wall_runs(design.columns)
        walls = list(dict.fromkeys(design.columns))  # distinct, first seen first
        slot_of = {wall: slot for slot, wall in enumerate(walls)}
        fraction_of = dict(zip(design.columns, design.fractions))
        self._fractions = [fraction_of[wall] for wall in walls]
        angles = [
            cassie_apparent_angle(fraction, material.theta_flat)
            for fraction in self._fractions
        ]
        self._starts_nm = [first * design.spec.pitch for first, _ in runs]
        self._slots = [slot_of[wall] for _, wall in runs]
        self._run_angles = [angles[slot] for slot in self._slots]
        self._caps: dict[tuple[int, int], float] = {}  # (front, rear) slot -> radius
        self._retention: list[float | None] = [None] * len(walls)
        self.length_m = design.length_m
        self._length_nm = design.length_nm
        self._droplet = Droplet(volume=volume_m3)

    def run(self, x_m: float) -> int:
        """Index of the run containing ``x_m`` (meters).

        The quantization and range check are :meth:`GradientDesign.column_index`'s.
        """
        x_nm = round(x_m * _NM_PER_M)
        if not 0 <= x_nm <= self._length_nm:
            self.design.column_index(x_m)  # raises the range error
        return bisect_right(self._starts_nm, x_nm) - 1

    def cap_radius(self, front: int, rear: int) -> float:
        """Footprint radius of the cap at the mean angle of two runs' walls."""
        key = (self._slots[front], self._slots[rear])
        radius = self._caps.get(key)
        if radius is None:
            angles = self._run_angles
            radius = spherical_cap_footprint_radius(
                self.volume, 0.5 * (angles[front] + angles[rear])
            )
            self._caps[key] = radius
        return radius

    def solve(self, position_m: float) -> _ForceState:
        """Footprint radius, both angles and driving force at ``position_m``."""
        length_m = self.length_m
        if not 0.0 <= position_m <= length_m:
            raise FootprintError(
                f"droplet center {position_m!r} m lies outside the design "
                f"[0, {length_m!r}] m"
            )
        r_max = min(position_m, length_m - position_m)
        if r_max <= 0.0:
            raise _no_fit(position_m, r_max)
        run, cap_radius = self.run, self.cap_radius
        front_high = run(position_m + r_max)
        rear_high = run(position_m - r_max)
        cap_high = cap_radius(front_high, rear_high)
        if cap_high - r_max > 0.0:
            raise _no_fit(position_m, r_max)

        front_low = rear_low = run(position_m)
        # Cap radius of the run pair both bracket ends share, else None.
        shared = cap_high if (front_low, rear_low) == (front_high, rear_high) else None
        low, high = 0.0, r_max
        for _ in range(200):
            mid = 0.5 * (low + high)
            if mid <= low or mid >= high:
                break
            if shared is not None:
                if shared - mid > 0.0:
                    low = mid
                else:
                    high = mid
            else:
                front = front_low if front_low == front_high else run(position_m + mid)
                rear = rear_low if rear_low == rear_high else run(position_m - mid)
                cap_mid = cap_radius(front, rear)
                if cap_mid - mid > 0.0:
                    low, front_low, rear_low = mid, front, rear
                else:
                    high, front_high, rear_high = mid, front, rear
                if front_low == front_high and rear_low == rear_high:
                    shared = cap_mid
            if high - low <= 1e-13:
                break
        radius = high
        front, rear = self._run_angles[front_high], self._run_angles[rear_high]
        cos_front = math.cos(math.radians(front))
        cos_rear = math.cos(math.radians(rear))
        force = self.material.surface_tension * 2.0 * radius * (cos_front - cos_rear)
        return _ForceState(
            footprint_radius=radius, theta_front=front, theta_rear=rear, net_force=force
        )

    def retention(self, position_m: float) -> float:
        """:func:`retention_force` under the wall at ``position_m``."""
        slot = self._slots[self.run(position_m)]
        holding = self._retention[slot]
        if holding is None:
            holding = retention_force(self._droplet, self.material, self._fractions[slot])
            self._retention[slot] = holding
        return holding


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
    cos_rec = math.cos(math.radians(receding))
    cos_adv = math.cos(math.radians(advancing))
    return material.surface_tension * 2.0 * radius * (cos_rec - cos_adv)


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
    design edge (``reached_end``) or after ``max_steps`` moves.  Every
    evaluation is recorded; the terminal record has ``moved=False`` except
    on ``max_steps`` exhaustion, where the last record reflects a move.

    The droplet never returns to a position it held.  A design's walls
    follow its ramp, so the solid fraction is monotone along x, and with it
    the Cassie angle: the front angle stays on one side of the rear angle,
    the net force keeps one sign, and every move goes the same way.  In
    floating point this needs ``acos`` and ``cos`` to round monotonically,
    which a seeded property test checks rather than assumes.

    Parameters
    ----------
    step:
        Step length in meters; defaults to one lattice pitch.
    max_steps:
        Upper bound on droplet moves.

    Raises
    ------
    FootprintError
        If the droplet does not fit at its initial position.
    ValueError
        If a step is too small to change the position it is added to.
    """
    if step is None:
        step = design.spec.pitch * _M_PER_NM
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be a finite length > 0 m, got {step!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps!r}")

    solver = _FootprintSolver(design, droplet.volume, material)
    position = droplet.position
    state = solver.solve(position)
    steps: list[TraceStep] = []
    terminal = TerminalReason.MAX_STEPS
    for _ in range(max_steps):
        holding = solver.retention(position)
        next_state = None
        if abs(state.net_force) <= holding:
            terminal = TerminalReason.FORCE_BALANCE
        else:
            next_position = position + math.copysign(step, state.net_force)
            if next_position == position:
                raise ValueError(
                    f"step {step!r} m does not move the droplet from {position!r} m"
                )
            try:
                next_state = solver.solve(next_position)
            except FootprintError:
                terminal = TerminalReason.REACHED_END
        steps.append(
            TraceStep(
                position, state.theta_front, state.theta_rear, state.net_force,
                moved=next_state is not None,
                footprint_radius=state.footprint_radius,
                retention=holding,
            )
        )
        if next_state is None:
            break
        position, state = next_position, next_state
    return SimulationTrace(steps=tuple(steps), terminal_reason=terminal)


def trace_to_csv(trace: SimulationTrace) -> str:
    """Render a trace as CSV text.

    Columns: ``position_m, theta_front_deg, theta_rear_deg, net_force_N,
    moved`` (0/1); the header row is always present.  Floats use shortest
    round-trip formatting, so output is byte-stable for identical traces.
    """
    lines = ["position_m,theta_front_deg,theta_rear_deg,net_force_N,moved"]
    for record in trace.steps:
        lines.append(
            f"{record.position!r},{record.theta_front!r},{record.theta_rear!r},"
            f"{record.net_force!r},{int(record.moved)}"
        )
    return "\n".join(lines) + "\n"
