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
import numbers
from dataclasses import dataclass

__all__ = [
    "Material",
    "Droplet",
    "WATER_ON_PMMA",
    "cassie_apparent_angle",
    "apparent_advancing_receding",
    "spherical_cap_footprint_radius",
]


def _require_in(
    value: float, name: str, low: float, high: float, unit: str = "", ends: str = "()"
) -> None:
    """Refuse a bool, a non-real, NaN or a value outside the interval ``low``..``high``.

    ``ends`` brackets the interval as the message prints it: ``"[)"`` takes
    ``low`` in and leaves ``high`` out.
    """
    if type(value) is float and low < value < high:  # the common case, ahead of the ABC check
        return
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and (
        low < value < high or value == low and ends[0] == "[" or value == high and ends[1] == "]"
    ):
        return
    interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}" + (f" {unit}" if unit else "")
    raise ValueError(f"{name} must lie in {interval}, got {value!r}")


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
        _require_in(self.theta_flat, "theta_flat", 0, 180, "degrees")
        _require_in(self.hysteresis, "hysteresis", 0, math.inf, "degrees", "[)")
        _require_in(self.receding_flat, "theta_flat - hysteresis/2", 0, 180, "degrees")
        _require_in(self.advancing_flat, "theta_flat + hysteresis/2", 0, 180, "degrees")
        _require_in(self.surface_tension, "surface_tension", 0, math.inf, "N/m")

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
        _require_in(self.volume, "volume", 0, math.inf, "m^3")
        _require_in(self.position, "position", -math.inf, math.inf, "m")


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
    _require_in(solid_fraction, "solid_fraction", 0, 1, ends="[]")
    _require_in(theta_flat, "theta_flat", 0, 180, "degrees")
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
    _require_in(volume, "volume", 0, math.inf, "m^3")
    _require_in(theta, "theta", 0, 180, "degrees")
    return (3.0 * volume / (math.pi * _cap_shape(theta))) ** (1.0 / 3.0)
