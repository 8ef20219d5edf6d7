"""Composite-interface wetting relation and spherical-cap geometry.

Reference values were frozen from an independent 40-digit arbitrary-
precision evaluation of the closed forms; tests compare against those
constants, not against the code under test.
"""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from lotuskit.wetting import (
    WATER_ON_PMMA,
    Droplet,
    Material,
    apparent_advancing_receding,
    cassie_apparent_angle,
    spherical_cap_footprint_radius,
)

from oracles import invert_cassie_fraction, spherical_cap_volume

# Frozen high-precision oracle values.
ORACLE_ANGLES = {
    (0.4375, 81.0): 119.6077795875116,
    (0.19, 81.0): 141.2859856357785,
    (0.25, 81.0): 135.30748711240016,
    (0.10, 81.0): 152.17244227349166,
    (0.25, 86.0): 137.10151361871722,
    (0.25, 76.0): 133.59208722139616,
}
ORACLE_INVERT_14128_AT_81 = 0.1900565035958785
ORACLE_RADIUS_90DEG_1P1UL = 8.068225425138189e-4
ORACLE_RADIUS_81DEG_1P1UL = 8.704623196111743e-4


class TestCassieApparentAngle:
    def test_oracle_values(self):
        for (fraction, theta), expected in ORACLE_ANGLES.items():
            assert cassie_apparent_angle(fraction, theta) == pytest.approx(
                expected, abs=1e-9
            )

    def test_full_contact_recovers_flat_angle(self):
        for theta in (10.0, 81.0, 90.0, 170.0):
            assert cassie_apparent_angle(1.0, theta) == pytest.approx(theta, abs=1e-9)

    def test_zero_contact_gives_180(self):
        for theta in (10.0, 81.0, 90.0, 170.0):
            assert cassie_apparent_angle(0.0, theta) == pytest.approx(180.0, abs=1e-9)

    def test_monotone_decreasing_in_fraction(self):
        rng = random.Random(2024)
        for _ in range(500):
            theta = rng.uniform(1.0, 179.0)
            f_low = rng.uniform(0.0, 1.0)
            f_high = rng.uniform(f_low, 1.0)
            if f_high == f_low:
                continue
            assert cassie_apparent_angle(f_high, theta) <= cassie_apparent_angle(
                f_low, theta
            )

    def test_rejects_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError):
            cassie_apparent_angle(-0.01, 81.0)
        with pytest.raises(ValueError):
            cassie_apparent_angle(1.01, 81.0)

    def test_rejects_bad_flat_angle(self):
        for theta in (0.0, -5.0, 180.0, 200.0):
            with pytest.raises(ValueError):
                cassie_apparent_angle(0.5, theta)

    @pytest.mark.parametrize(
        "fraction",
        [0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0 - 2.0**-53, 1.0,
         np.float32(1.0 - 2.0**-24), np.float16(0.999), Fraction(1, 3)],
    )
    @pytest.mark.parametrize(
        "theta", [5e-324, 1e-12, 81.0, 180.0 - 1e-12, math.nextafter(180.0, 0.0)]
    )
    def test_rounding_extremes_stay_in_the_acos_domain(self, fraction, theta):
        angle = cassie_apparent_angle(fraction, theta)
        assert math.isfinite(angle)
        assert 0.0 <= angle <= 180.0


class TestInvertCassieFraction:
    def test_oracle_value(self):
        assert invert_cassie_fraction(141.28, 81.0) == pytest.approx(
            ORACLE_INVERT_14128_AT_81, abs=1e-12
        )

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(1000):
            theta = rng.uniform(5.0, 175.0)
            fraction = rng.uniform(0.0, 1.0)
            apparent = cassie_apparent_angle(fraction, theta)
            assert invert_cassie_fraction(apparent, theta) == pytest.approx(
                fraction, abs=1e-9
            )

    def test_apparent_at_flat_angle_gives_unity(self):
        assert invert_cassie_fraction(81.0, 81.0) == pytest.approx(1.0, abs=1e-12)

    def test_apparent_180_gives_zero(self):
        assert invert_cassie_fraction(180.0, 81.0) == pytest.approx(0.0, abs=1e-12)

    def test_apparent_below_flat_angle_rejected(self):
        with pytest.raises(ValueError, match="below the flat angle"):
            invert_cassie_fraction(60.0, 81.0)

    @pytest.mark.parametrize("apparent", [0.0, -1.0, 180.5, math.nan])
    def test_apparent_outside_the_angle_range_rejected(self, apparent):
        message = f"apparent_angle must lie in (0, 180] degrees, got {apparent!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            invert_cassie_fraction(apparent, 81.0)

    def test_rounding_just_past_unity_is_clamped(self):
        # 1e-11 degrees below the flat angle the quotient exceeds 1 by about
        # 1.5e-13, inside the 1e-12 tolerance; 1e-6 degrees below it is 1.5e-8.
        apparent = 81.0 - 1e-11
        raw = (math.cos(math.radians(apparent)) + 1.0) / (math.cos(math.radians(81.0)) + 1.0)
        assert 1.0 < raw <= 1.0 + 1e-12
        assert invert_cassie_fraction(apparent, 81.0) == 1.0
        with pytest.raises(ValueError, match="below the flat angle"):
            invert_cassie_fraction(81.0 - 1e-6, 81.0)


class TestApparentAdvancingReceding:
    def test_zero_hysteresis_collapses(self):
        material = Material(name="x", theta_flat=81.0)
        adv, rec = apparent_advancing_receding(0.25, material)
        assert adv == rec == cassie_apparent_angle(0.25, 81.0)

    def test_band_maps_through_relation(self):
        material = Material(name="x", theta_flat=81.0, hysteresis=10.0)
        adv, rec = apparent_advancing_receding(0.25, material)
        assert adv == pytest.approx(ORACLE_ANGLES[(0.25, 86.0)], abs=1e-9)
        assert rec == pytest.approx(ORACLE_ANGLES[(0.25, 76.0)], abs=1e-9)
        assert adv > rec


class TestSphericalCap:
    def test_hemisphere_oracle(self):
        # V = (2/3) pi r^3 at 90 degrees.
        radius = spherical_cap_footprint_radius(1.1e-9, 90.0)
        assert radius == pytest.approx(ORACLE_RADIUS_90DEG_1P1UL, rel=1e-12)
        assert radius == pytest.approx((3.0 * 1.1e-9 / (2.0 * math.pi)) ** (1.0 / 3.0), rel=1e-12)

    def test_partial_wetting_oracle(self):
        assert spherical_cap_footprint_radius(1.1e-9, 81.0) == pytest.approx(
            ORACLE_RADIUS_81DEG_1P1UL, rel=1e-12
        )

    def test_footprint_shrinks_toward_180(self):
        radius = spherical_cap_footprint_radius(1.1e-9, 179.9)
        assert radius < 1e-5

    def test_volume_round_trip(self):
        rng = random.Random(99)
        for _ in range(500):
            theta = rng.uniform(1.0, 179.0)
            volume = 10.0 ** rng.uniform(-12.0, -6.0)
            radius = spherical_cap_footprint_radius(volume, theta)
            assert spherical_cap_volume(radius, theta) == pytest.approx(
                volume, rel=1e-9
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            spherical_cap_footprint_radius(0.0, 90.0)
        with pytest.raises(ValueError):
            spherical_cap_footprint_radius(1e-9, 0.0)
        with pytest.raises(ValueError):
            spherical_cap_footprint_radius(1e-9, 180.0)
        with pytest.raises(ValueError, match=r"^footprint_radius must be > 0 m, got 0\.0$"):
            spherical_cap_volume(0.0, 90.0)


class TestMaterial:
    def test_default_reference_material(self):
        assert WATER_ON_PMMA.theta_flat == 81.0
        assert WATER_ON_PMMA.surface_tension == pytest.approx(72.8e-3)
        assert WATER_ON_PMMA.hysteresis == 0.0

    def test_advancing_receding_flat(self):
        material = Material(name="x", theta_flat=90.0, hysteresis=10.0)
        assert material.advancing_flat == pytest.approx(95.0)
        assert material.receding_flat == pytest.approx(85.0)

    def test_rejects_band_outside_domain(self):
        with pytest.raises(ValueError):
            Material(name="x", theta_flat=5.0, hysteresis=12.0)
        with pytest.raises(ValueError):
            Material(name="x", theta_flat=175.0, hysteresis=12.0)

    @pytest.mark.parametrize("theta", [0.0, 180.0, math.nan])
    def test_rejects_flat_angle_outside_domain(self, theta):
        message = f"theta_flat must lie in (0, 180) degrees, got {theta!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Material(name="x", theta_flat=theta)

    @pytest.mark.parametrize("hysteresis", [-1.0, math.nan])
    def test_rejects_negative_hysteresis(self, hysteresis):
        message = f"hysteresis must lie in [0, inf) degrees, got {hysteresis!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Material(name="x", theta_flat=81.0, hysteresis=hysteresis)

    def test_rejects_nonpositive_tension(self):
        for tension in (0.0, -1.0, math.inf, math.nan):
            message = f"surface_tension must lie in (0, inf) N/m, got {tension!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Material(name="x", theta_flat=81.0, surface_tension=tension)

    def test_droplet_requires_positive_volume(self):
        for volume in (0.0, -1e-9, math.inf, math.nan):
            message = f"volume must lie in (0, inf) m^3, got {volume!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Droplet(volume=volume)
        assert Droplet(volume=1.1e-9).position == 0.0
        for position in (math.inf, -math.inf, math.nan):
            message = f"position must lie in (-inf, inf) m, got {position!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Droplet(volume=1.1e-9, position=position)
