"""Oracles that only the tests call.

Each inverts or re-derives a library quantity by another route, so a test
can check the library against it: the solid fraction behind an apparent
angle, the volume behind a footprint radius, and the driving force of one
footprint solve.
"""

import math

from lotuskit.gradient import GradientDesign, _FootprintSolver
from lotuskit.wetting import Droplet, Material, _cap_shape, _require_open_angle

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
    return solver.solve(droplet.position).net_force
