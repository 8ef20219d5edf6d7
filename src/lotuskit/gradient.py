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

A simulation builds one footprint solver per (design, volume, material): it
holds one apparent-angle table per design column, so the bisection looks
angles up instead of re-evaluating Cassie-Baxter, and once both ends of the
bisection bracket share one (front, rear) column pair the residual becomes
``cap_radius(pair) - r`` with the cap radius computed once.  The bisection
itself is kept, iteration for iteration, because a closed-form solve would
round differently: the trace CSV stays byte-identical.
"""

from __future__ import annotations

import math
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
    "net_driving_force",
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
    and monotone whenever the requested fraction ramp is monotone.
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


class _FootprintSolver:
    """Footprint fixed point and driving force of one droplet on one design.

    The footprint radius depends on the local mean angle, which depends on
    where the footprint ends sit — a fixed point r = cap_radius(mean(r)),
    solved by bisection on h(r) = cap_radius(mean(r)) - r over (0, r_max]
    with r_max the distance to the nearer design edge.  h(0+) > 0 always;
    h(r_max) > 0 means the droplet cannot fit, which raises FootprintError.

    The apparent angle is piecewise constant per column, so it is tabulated
    once per column through :func:`cassie_apparent_angle`.  Column(x +/- r)
    is monotone in r, so once both ends of the bracket ``[low, high]`` map to
    the same (front, rear) column pair, every later midpoint does too and
    the residual is ``c - mid`` with ``c`` that pair's cap radius.  The
    bisection is otherwise the original one, update for update, so the
    radius is bit-identical to evaluating ``h`` afresh at every midpoint.
    The retention force depends only on the droplet's own column and is
    computed once per column visited.
    """

    def __init__(
        self, design: GradientDesign, volume_m3: float, material: Material
    ) -> None:
        self.design = design
        self.volume = volume_m3
        self.material = material
        self.angles = [
            cassie_apparent_angle(fraction, material.theta_flat)
            for fraction in design.fractions
        ]
        self.length_m = design.length_m
        self._length_nm = design.length_nm
        self._pitch = design.spec.pitch
        self._last = design.n_columns - 1
        self._droplet = Droplet(volume=volume_m3)
        self._retention: list[float | None] = [None] * design.n_columns

    def column(self, x_m: float) -> int:
        """Same quantization and range check as :meth:`GradientDesign.column_index`."""
        x_nm = round(x_m * _NM_PER_M)
        if not 0 <= x_nm <= self._length_nm:
            return self.design.column_index(x_m)  # raises the range error
        return min(x_nm // self._pitch, self._last)

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
        angles, column, volume = self.angles, self.column, self.volume
        cap_radius = spherical_cap_footprint_radius
        front_high = column(position_m + r_max)
        rear_high = column(position_m - r_max)
        cap_high = cap_radius(volume, 0.5 * (angles[front_high] + angles[rear_high]))
        if cap_high - r_max > 0.0:
            raise _no_fit(position_m, r_max)

        front_low = rear_low = column(position_m)
        # Cap radius of the column pair both bracket ends share, else None.
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
                front = column(position_m + mid)
                rear = column(position_m - mid)
                cap_mid = cap_radius(volume, 0.5 * (angles[front] + angles[rear]))
                if cap_mid - mid > 0.0:
                    low, front_low, rear_low = mid, front, rear
                else:
                    high, front_high, rear_high = mid, front, rear
                if front_low == front_high and rear_low == rear_high:
                    shared = cap_mid
            if high - low <= 1e-13:
                break
        radius = high
        front, rear = angles[front_high], angles[rear_high]
        cos_front = math.cos(math.radians(front))
        cos_rear = math.cos(math.radians(rear))
        force = self.material.surface_tension * 2.0 * radius * (cos_front - cos_rear)
        return _ForceState(
            footprint_radius=radius, theta_front=front, theta_rear=rear, net_force=force
        )

    def retention(self, position_m: float) -> float:
        """:func:`retention_force` at the column containing ``position_m``."""
        index = self.column(position_m)
        holding = self._retention[index]
        if holding is None:
            holding = retention_force(
                self._droplet, self.material, self.design.fractions[index]
            )
            self._retention[index] = holding
        return holding


def net_driving_force(
    design: GradientDesign, droplet: Droplet, material: Material
) -> float:
    """Net capillary driving force on a droplet, in newtons.

    ``F = gamma * 2r * (cos(theta*(x + r)) - cos(theta*(x - r)))`` with the
    footprint radius ``r`` solved self-consistently from the spherical-cap
    relation at the mean of the front/rear apparent angles.  Positive force
    points toward increasing solid fraction (falling apparent angle).

    Raises
    ------
    FootprintError
        If the footprint would overhang either end of the design.
    """
    solver = _FootprintSolver(design, droplet.volume, material)
    return solver.solve(droplet.position).net_force


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
