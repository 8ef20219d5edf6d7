"""Composite-interface (Cassie-Baxter) wetting model and droplet cap geometry.

A droplet resting on a micro-structured hydrophobic surface in the composite
regime touches solid only on the structure tops; air stays trapped in the
voids underneath.  The macroscopically observed ("apparent") contact angle
then follows the Cassie-Baxter relation

    cos(theta_apparent) = f * cos(theta_flat) + f - 1

where ``f`` is the solid surface fraction (solid-liquid contact area per unit
projected plan area, 0..1) and ``theta_flat`` is the intrinsic contact angle
of the same liquid on the flat, unstructured material.  ``f = 1`` recovers
the flat angle, ``f = 0`` the perfect-repellency limit of 180 degrees.

Angles cross every public interface in degrees; conversion to radians happens
exactly once on the way in and once on the way out of each function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Material",
    "Droplet",
    "WATER_ON_PMMA",
    "cassie_apparent_angle",
    "apparent_advancing_receding",
    "spherical_cap_footprint_radius",
]


@dataclass(frozen=True)
class Material:
    """A probe-liquid / substrate pairing with its flat-surface wetting data.

    Attributes
    ----------
    name:
        Free-text label, e.g. ``"water on PMMA"``.
    theta_flat:
        Intrinsic contact angle on the flat, unstructured material, in
        degrees, strictly between 0 and 180.
    hysteresis:
        Advancing minus receding contact angle on the flat material, in
        degrees, >= 0.  Zero models an ideal pinning-free surface.  Both
        flanking angles ``theta_flat +/- hysteresis/2`` must stay inside
        (0, 180).
    surface_tension:
        Liquid-vapor surface tension in N/m (water at 20 C: 72.8e-3).
    """

    name: str
    theta_flat: float
    hysteresis: float = 0.0
    surface_tension: float = 72.8e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.theta_flat < 180.0:
            raise ValueError(
                f"theta_flat must lie strictly between 0 and 180 degrees, "
                f"got {self.theta_flat!r}"
            )
        if not self.hysteresis >= 0.0:
            raise ValueError(f"hysteresis must be >= 0 degrees, got {self.hysteresis!r}")
        if self.theta_flat - self.hysteresis / 2.0 <= 0.0:
            raise ValueError(
                f"receding flat angle theta_flat - hysteresis/2 = "
                f"{self.theta_flat - self.hysteresis / 2.0!r} degrees must stay above 0"
            )
        if self.theta_flat + self.hysteresis / 2.0 >= 180.0:
            raise ValueError(
                f"advancing flat angle theta_flat + hysteresis/2 = "
                f"{self.theta_flat + self.hysteresis / 2.0!r} degrees must stay below 180"
            )
        if not 0.0 < self.surface_tension < math.inf:
            raise ValueError(
                f"surface_tension must be finite and > 0 N/m, got {self.surface_tension!r}"
            )

    @property
    def advancing_flat(self) -> float:
        """Advancing contact angle on the flat material, degrees."""
        return self.theta_flat + self.hysteresis / 2.0

    @property
    def receding_flat(self) -> float:
        """Receding contact angle on the flat material, degrees."""
        return self.theta_flat - self.hysteresis / 2.0


#: Distilled water on flat PMMA at room temperature.  The 81-degree flat
#: angle is the flat row of :mod:`lotuskit.reference`'s dataset, which has
#: no source in this repository; 72.8e-3 N/m is the standard literature
#: value for the water-air surface tension at 20 C.
WATER_ON_PMMA = Material(name="water on PMMA", theta_flat=81.0)


@dataclass(frozen=True)
class Droplet:
    """A sessile droplet on a one-dimensional transport axis.

    Attributes
    ----------
    volume:
        Droplet volume in m^3, > 0 (1 microliter = 1e-9 m^3).
    position:
        Center of the contact patch along the transport axis, in meters.
    """

    volume: float
    position: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.volume < math.inf:
            raise ValueError(f"volume must be finite and > 0 m^3, got {self.volume!r}")
        if not math.isfinite(self.position):
            raise ValueError(f"position must be finite, got {self.position!r}")


def _require_fraction(value: float, name: str = "solid_fraction") -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _require_open_angle(value: float, name: str) -> None:
    if not 0.0 < value < 180.0:
        raise ValueError(
            f"{name} must lie strictly between 0 and 180 degrees, got {value!r}"
        )


def cassie_apparent_angle(solid_fraction: float, theta_flat: float) -> float:
    """Apparent contact angle on a composite (air-cushioned) surface.

    Evaluates ``cos(theta*) = f*cos(theta_flat) + f - 1`` and returns
    ``theta*`` in degrees.

    Parameters
    ----------
    solid_fraction:
        Solid-liquid contact fraction ``f`` in [0, 1].
    theta_flat:
        Intrinsic flat-surface contact angle in degrees, in (0, 180).

    Returns
    -------
    float
        Apparent contact angle in degrees; always in [theta_flat, 180].

    Raises
    ------
    ValueError
        If either input leaves its domain.
    """
    _require_fraction(solid_fraction)
    _require_open_angle(theta_flat, "theta_flat")
    # With f in [0, 1] and |cos| <= 1, rounding is monotone at each step:
    # f*cos lands in [-f, f], adding f in [0, 2f], subtracting 1 in [-1, 1].
    cos_apparent = (
        solid_fraction * math.cos(math.radians(theta_flat)) + solid_fraction - 1.0
    )
    return math.degrees(math.acos(cos_apparent))


def apparent_advancing_receding(
    solid_fraction: float, material: Material
) -> tuple[float, float]:
    """Apparent advancing and receding angles on a composite surface.

    Maps the flat-surface hysteresis band through the Cassie-Baxter
    relation: the flat advancing angle ``theta_flat + hysteresis/2`` and the
    flat receding angle ``theta_flat - hysteresis/2`` are each converted to
    their apparent counterparts at the same solid fraction.  This flat-band
    propagation is a modeling choice; set ``hysteresis=0`` for the ideal
    hysteresis-free case, where both returned angles coincide.

    Returns
    -------
    tuple[float, float]
        ``(advancing, receding)`` apparent angles in degrees, with
        ``advancing >= receding``.
    """
    _require_fraction(solid_fraction)
    advancing = cassie_apparent_angle(solid_fraction, material.advancing_flat)
    receding = cassie_apparent_angle(solid_fraction, material.receding_flat)
    return advancing, receding


def _cap_shape(theta: float) -> float:
    """The spherical-cap shape factor ``k(theta)``, in half-angle form."""
    half = math.radians(theta) / 2.0
    sin_half = math.sin(half)
    cos_half = math.cos(half)
    return sin_half * (3.0 - 2.0 * sin_half * sin_half) / (2.0 * cos_half**3)


def spherical_cap_footprint_radius(volume: float, theta: float) -> float:
    """Contact-patch radius of a spherical-cap droplet.

    A sessile droplet of volume ``V`` meeting the surface at contact angle
    ``theta`` forms a spherical cap whose circular footprint radius ``r``
    satisfies

        V = (pi * r^3 / 3) * k(theta),
        k(theta) = (2 - 3*cos(theta) + cos(theta)^3) / sin(theta)^3.

    ``k`` is evaluated in the algebraically equivalent half-angle form
    ``k = sin(t) * (3 - 2*sin(t)^2) / (2*cos(t)^3)`` with ``t = theta/2``,
    which avoids the catastrophic cancellation of the direct form at small
    angles.

    Parameters
    ----------
    volume:
        Droplet volume in m^3, > 0.
    theta:
        Contact angle in degrees, strictly between 0 and 180.  As theta
        approaches 180 the cap closes into a sphere and r tends to 0.

    Returns
    -------
    float
        Footprint (contact-patch) radius in meters.
    """
    if not volume > 0.0:
        raise ValueError(f"volume must be > 0 m^3, got {volume!r}")
    _require_open_angle(theta, "theta")
    return (3.0 * volume / (math.pi * _cap_shape(theta))) ** (1.0 / 3.0)
