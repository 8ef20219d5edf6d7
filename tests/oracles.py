"""Oracles that only the tests call.

Each inverts or re-derives a library quantity by another route, so a test
can check the library against it: the solid fraction behind an apparent
angle, the volume behind a footprint radius, the driving force of one
footprint solve, the footprint found column by column, the stepping loop
that solved every position, and the one-wall-per-column design that runs
replaced.
"""

import math
from bisect import bisect_right
from itertools import groupby

from lotuskit.gradient import (
    FootprintError,
    GradientDesign,
    GradientSpec,
    Measure,
    _FootprintSolver,
    local_apparent_angle,
    retention_force,
    wall_for_fraction,
)
from lotuskit.lattice import (
    DEFAULT_RULES,
    DesignRules,
    HoneycombSpec,
    LatticeArray,
    Rect,
    Zone,
    _check_spec,
    _violation_error,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
    lattice_arrays,
)
from lotuskit.wetting import (
    Droplet,
    Material,
    _cap_shape,
    _require_open_angle,
    spherical_cap_footprint_radius,
)

# An inverted fraction may exceed 1 by a few ulp through rounding and is
# clamped; a larger excess means the apparent angle is below the flat one.
_COSINE_CLAMP_TOL = 1e-12


def invert_cassie_fraction(apparent_angle: float, theta_flat: float) -> float:
    """Solid fraction that produces a given composite apparent angle.

    Inverts the Cassie-Baxter relation:
    ``f = (cos(theta*) + 1) / (cos(theta_flat) + 1)``.

    Parameters
    ----------
    apparent_angle:
        Target apparent contact angle theta* in degrees.  Must satisfy
        ``theta_flat <= apparent_angle <= 180``: a composite interface can
        only raise the angle above the flat value.
    theta_flat:
        Intrinsic flat-surface contact angle in degrees, in (0, 180).

    Returns
    -------
    float
        Solid fraction in [0, 1] with
        ``cassie_apparent_angle(f, theta_flat) == apparent_angle``.

    Raises
    ------
    ValueError
        If ``apparent_angle`` exceeds 180 degrees or lies below
        ``theta_flat`` (no composite-state solution exists there).
    """
    _require_open_angle(theta_flat, "theta_flat")
    if not 0.0 < apparent_angle <= 180.0:
        raise ValueError(
            f"apparent_angle must lie in (0, 180] degrees, got {apparent_angle!r}"
        )
    denominator = math.cos(math.radians(theta_flat)) + 1.0  # > 0 for theta < 180
    fraction = (math.cos(math.radians(apparent_angle)) + 1.0) / denominator
    if fraction > 1.0:
        if fraction - 1.0 > _COSINE_CLAMP_TOL:
            raise ValueError(
                f"apparent angle {apparent_angle!r} degrees lies below the flat "
                f"angle {theta_flat!r} degrees; no solid fraction in [0, 1] "
                f"reproduces it in the composite state"
            )
        fraction = 1.0
    return fraction


def spherical_cap_volume(footprint_radius: float, theta: float) -> float:
    """Volume of a spherical cap from its footprint radius and contact angle.

    Exact inverse of :func:`spherical_cap_footprint_radius`; useful for
    round-trip verification.  Same half-angle evaluation, same units.
    """
    if not footprint_radius > 0.0:
        raise ValueError(f"footprint_radius must be > 0 m, got {footprint_radius!r}")
    _require_open_angle(theta, "theta")
    return math.pi * footprint_radius**3 * _cap_shape(theta) / 3.0


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
    return solver.record(solver.walk(droplet.position), droplet.position).net_force


def oracle_force_state(design, position_m, volume_m3, material):
    """The smallest footprint fixed point, walked column edge by column edge.

    Column k's edge is ``k*pitch - 0.5`` nm, where positions round into it.
    From r = 0 outward, each step looks both angles up afresh through
    ``local_apparent_angle`` at the centres of the front and rear columns
    and recomputes the cap radius.  The radius is the first cap short of
    the next column edge, or an edge that the cap of the columns beyond it
    does not exceed.  Returns ``(radius, theta_front, theta_rear, force,
    on_jump)``, where ``on_jump`` says the radius is such an edge, i.e. the
    root sits on a jump of the residual.
    """
    length_m = design.length_m
    if not 0.0 <= position_m <= length_m:
        raise FootprintError(
            f"droplet center {position_m!r} m lies outside the design "
            f"[0, {length_m!r}] m"
        )
    r_max = min(position_m, length_m - position_m)

    def cap(front_m, rear_m):
        front = local_apparent_angle(design, front_m, material)
        rear = local_apparent_angle(design, rear_m, material)
        radius = spherical_cap_footprint_radius(volume_m3, 0.5 * (front + rear))
        return radius, front, rear

    if r_max <= 0.0 or cap(position_m + r_max, position_m - r_max)[0] > r_max:
        raise FootprintError(
            f"droplet footprint does not fit at {position_m!r} m: needs more "
            f"than the {r_max!r} m available to the nearer design edge"
        )

    pitch, last = design.spec.pitch, design.n_columns - 1
    front_column = rear_column = per_column_index(position_m, pitch, design.n_columns)
    edge, on_jump = 0.0, False
    while True:
        radius, front, rear = cap(
            (front_column + 0.5) * pitch * 1e-9, (rear_column + 0.5) * pitch * 1e-9
        )
        if radius <= edge:
            radius, on_jump = edge, True
            break
        front_edge = rear_edge = math.inf
        if front_column < last:
            front_edge = ((front_column + 1) * pitch - 0.5) * 1e-9 - position_m
        if rear_column > 0:
            rear_edge = position_m - (rear_column * pitch - 0.5) * 1e-9
        edge = min(front_edge, rear_edge)
        if radius < edge:
            break
        if front_edge == edge:
            front_column += 1
        if rear_edge == edge:
            rear_column -= 1
    cos_front = math.cos(math.radians(front))
    cos_rear = math.cos(math.radians(rear))
    force = material.surface_tension * 2.0 * radius * (cos_front - cos_rear)
    return radius, front, rear, force, on_jump


def oracle_trace(design, droplet, material, step, max_steps):
    """The quasi-static stepping loop that solved every position afresh.

    A frozen copy of ``simulate_droplet``'s loop from before its trace
    became intervals, with each position solved by :func:`oracle_force_state`
    and :func:`retention_force` at the fraction under the center.  Returns
    ``(records, reason)``: one ``(position, theta_front, theta_rear,
    net_force, footprint_radius, retention)`` per record and the terminal
    reason's value.  Raises what that loop raised.
    """
    records = []
    position = droplet.position
    state = oracle_force_state(design, position, droplet.volume, material)
    for _ in range(max_steps):
        radius, front, rear, force, _ = state
        holding = retention_force(droplet, material, fraction_at(design, position))
        records.append((position, front, rear, force, radius, holding))
        if abs(force) <= holding:
            return records, "force_balance"
        following = position + math.copysign(step, force)
        if following == position:
            raise ValueError(f"step {step!r} m does not move the droplet from {position!r} m")
        try:
            state = oracle_force_state(design, following, droplet.volume, material)
        except FootprintError:
            return records, "reached_end"
        position = following
    return records, "max_steps"


def runs_of(walls) -> tuple[tuple[int, int], ...]:
    """``(count, wall)`` runs of a per-column wall sequence."""
    return tuple((sum(1 for _ in group), wall) for wall, group in groupby(walls))


def per_column_design(
    spec: GradientSpec, rules: DesignRules = DEFAULT_RULES
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """One wall and one solid fraction per column, as designs stored them
    before runs: a frozen copy of that ``design_linear_gradient`` column
    loop, its first-column DRC and the per-column ``fractions``.  Raises
    what that design raised.
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

    fraction = (
        honeycomb_linear_ratio
        if spec.measure is Measure.LINEAR_RATIO
        else honeycomb_area_fraction
    )
    fraction_of = {
        wall: fraction(HoneycombSpec(pitch=spec.pitch, wall=wall, height=spec.height))
        for wall in set(walls)
    }
    return tuple(walls), tuple(fraction_of[wall] for wall in walls)


def per_column_index(x_m: float, pitch: int, n_columns: int) -> int:
    """The column holding ``x_m`` (meters), as the per-column design looked it up."""
    return min(round(x_m * 1e9) // pitch, n_columns - 1)


def fraction_at(design: GradientDesign, x_m: float) -> float:
    """Solid fraction of the column holding ``x_m`` (meters), inside the design.

    A frozen copy of the lookup that ``GradientDesign.fraction_at`` made
    before ``local_apparent_angle`` took it over: the column's start, then
    the run that holds it.
    """
    start = per_column_index(x_m, design.spec.pitch, design.n_columns) * design.spec.pitch
    return design.fractions[bisect_right(design.zones, start, key=lambda zone: zone.extent.x) - 1]


def per_column_arrays(design: GradientDesign) -> list[LatticeArray]:
    """The two lattice arrays per column that the mask writers once took.

    A frozen copy of the per-column gradient branch of ``maskio._emitted``:
    column 0's arrays shifted by ``k * pitch`` for every column k, with the
    comb of column k's run.  Column 0 is built here, as a pitch-wide zone.
    """
    spec = design.spec
    pitch = spec.pitch
    column0 = Zone(
        HoneycombSpec(pitch=pitch, wall=design.runs[0][1], height=spec.height),
        Rect(0, 0, pitch, spec.lateral_width),
    )
    first = lattice_arrays(column0, design.fabrication_grid)
    return [
        LatticeArray(
            pitch - wall,
            (array.origin[0] + k * pitch, array.origin[1]),
            array.cols,
            array.rows,
            array.col_vector,
            array.row_vector,
        )
        for k, wall in enumerate(design.columns)
        for array in first
    ]
