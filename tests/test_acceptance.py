"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test evaluates all sub-checks of one criterion, prints a single
``criterion N: PASS|FAIL`` line, and then asserts — so the printed line
always reflects the true outcome, and a failure names the sub-checks
that broke.
"""

import math
import struct
import time

import numpy as np

from lotuskit.cli import run
from lotuskit.gradient import (
    GradientSpec,
    Measure,
    TerminalReason,
    design_linear_gradient,
    retention_force,
    simulate_droplet,
)
from lotuskit.lattice import (
    DEFAULT_RULES,
    HoneycombSpec,
    Rect,
    Zone,
    check_design_rules,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
    lattice_arrays,
    monte_carlo_fraction,
)
from lotuskit.maskio import read_gdsii, write_gdsii
from lotuskit.reference import (
    build_validation_report,
    reference_two_zone_layout,
)
from lotuskit.wetting import (
    WATER_ON_PMMA,
    Droplet,
    cassie_apparent_angle,
    spherical_cap_footprint_radius,
)

from oracles import fraction_at, invert_cassie_fraction, net_driving_force

WIDE = HoneycombSpec(pitch=4000, wall=1000, height=4000)
FINE = HoneycombSpec(pitch=4000, wall=400, height=4000)


def criterion(number: int, label: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    failed = [name for name, passed in checks if not passed]
    assert not failed, f"criterion {number} ({label}) failed: {failed}"


def test_criterion_1_apparent_angle_endpoints():
    checks = []
    for theta in (10.0, 81.0, 90.0, 170.0):
        full = cassie_apparent_angle(1.0, theta)
        void = cassie_apparent_angle(0.0, theta)
        checks.append((f"f=1@{theta} recovers theta", abs(full - theta) <= 1e-9))
        checks.append((f"f=0@{theta} gives 180", abs(void - 180.0) <= 1e-9))
    criterion(1, "apparent-angle endpoints to 1e-9 deg", checks)


def test_criterion_2_two_zone_preset_geometry():
    start = time.perf_counter()
    layout = reference_two_zone_layout()
    zone_a, zone_b = layout.zones
    checks = [
        ("pitch A", zone_a.spec.pitch == 4000),
        ("pitch B", zone_b.spec.pitch == 4000),
        ("walls", (zone_a.spec.wall, zone_b.spec.wall) == (1000, 400)),
        (
            "comb diameters",
            (zone_a.spec.comb_diameter, zone_b.spec.comb_diameter) == (3000, 3600),
        ),
        ("heights", zone_a.spec.height == zone_b.spec.height == 4000),
        (
            "zone A extent 10x10 mm at origin",
            (zone_a.extent.x, zone_a.extent.y, zone_a.extent.width, zone_a.extent.height)
            == (0, 0, 10_000_000, 10_000_000),
        ),
        (
            "zone B abuts A into 20x10 mm",
            (zone_b.extent.x, zone_b.extent.y, zone_b.extent.width, zone_b.extent.height)
            == (10_000_000, 0, 10_000_000, 10_000_000),
        ),
        ("linear ratio A exactly 0.25", honeycomb_linear_ratio(zone_a.spec) == 0.25),
        ("linear ratio B exactly 0.10", honeycomb_linear_ratio(zone_b.spec) == 0.10),
    ]
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 1 s", elapsed < 1.0))
    criterion(2, "two-zone preset geometry regression", checks)


def test_criterion_3_fraction_duality():
    checks = [
        (
            "closed form 0.4375",
            abs(honeycomb_area_fraction(WIDE) - 0.4375) <= 1e-12,
        ),
        (
            "closed form 0.19",
            abs(honeycomb_area_fraction(FINE) - 0.19) <= 1e-12,
        ),
    ]
    for name, spec, expected in (("wide", WIDE, 0.4375), ("fine", FINE, 0.19)):
        estimate, std_error = monte_carlo_fraction(spec, 10_000_000, seed=0)
        checks.append(
            (
                f"Monte Carlo {name} within 3 sigma",
                abs(estimate - expected) <= 3.0 * std_error,
            )
        )
    criterion(3, "area fractions: closed form 1e-12, Monte Carlo 1e7 in 3 sigma", checks)


def test_criterion_4_model_vs_measurement_report(capsys):
    report = build_validation_report()
    rows = {row["label"]: row for row in report["rows"]}
    flat = rows["flat reference (unstructured)"]
    wide = rows["honeycomb, 1000 nm walls"]
    fine = rows["honeycomb, 400 nm walls"]

    assert run(["report"]) == 0
    table = capsys.readouterr().out

    checks = [
        ("prediction ~119.6 within 0.05", abs(wide["predicted_area_deg"] - 119.6) <= 0.05),
        ("prediction ~141.3 within 0.05", abs(fine["predicted_area_deg"] - 141.3) <= 0.05),
        (
            "measured dataset shown",
            (flat["measured_deg"], flat["uncertainty_deg"]) == (81.0, 4.0)
            and (wide["measured_deg"], wide["uncertainty_deg"]) == (87.0, 2.0)
            and (fine["measured_deg"], fine["uncertainty_deg"]) == (107.0, 6.0),
        ),
        (
            "deviations are signed predicted-minus-measured",
            wide["deviation_area_deg"] == wide["predicted_area_deg"] - wide["measured_deg"]
            and fine["deviation_area_deg"] == fine["predicted_area_deg"] - fine["measured_deg"],
        ),
        (
            "report tolerates large deviations without asserting equality",
            wide["deviation_area_deg"] > 30.0 and fine["deviation_area_deg"] > 30.0,
        ),
        ("table shows measured column", "87.0 +/- 2.0" in table and "107.0 +/- 6.0" in table),
        ("table shows signed deviations", "+32.61" in table and "+34.29" in table),
        ("table disclaims agreement", "need not match" in table),
    ]
    criterion(4, "model-vs-measurement report displays both, asserts neither", checks)


def test_criterion_5_gdsii_artifacts():
    checks = []

    # (a) stream magic
    magic = write_gdsii(reference_two_zone_layout())[:6]
    checks.append(("first six bytes 00 06 00 02 02 58", magic == bytes.fromhex("000600020258")))

    # (b) write -> read -> expand round trip on a 100x100 um crop
    crop = Zone(spec=WIDE, extent=Rect(0, 0, 100_000, 100_000))
    row_spacing = 3460
    expected = []
    level = 0
    while level * row_spacing < 100_000:
        y = level * row_spacing
        x = 2000 if level % 2 else 0
        while x < 100_000:
            expected.append(
                tuple(
                    sorted(
                        [
                            (x + 1500, y - 866), (x + 1500, y + 866), (x, y + 1732),
                            (x - 1500, y + 866), (x - 1500, y - 866), (x, y - 1732),
                        ]
                    )
                )
            )
            x += 4000
        level += 1
    expected.sort()
    for mode in ("flat", "arrayed"):
        geometry = read_gdsii(write_gdsii(crop, mode=mode))
        polygons = sorted(
            tuple(sorted((int(px), int(py)) for px, py in points))
            for _, _, points in geometry.expand("TOP")
        )
        checks.append((f"round trip exact vertices ({mode})", polygons == expected))

    # (c) arrayed export of a full 10x10 mm zone: < 1 s and < 10 kB
    full = Zone(spec=WIDE, extent=Rect(0, 0, 10_000_000, 10_000_000))
    start = time.perf_counter()
    data = write_gdsii(full, mode="arrayed")
    elapsed = time.perf_counter() - start
    checks.append(("arrayed full zone < 1 s", elapsed < 1.0))
    checks.append(("arrayed full zone < 10 kB", len(data) < 10_000))

    # (d) flat-mode crop boundary count == tiling census count
    flat_geometry = read_gdsii(write_gdsii(crop, mode="flat"))
    boundary_count = sum(len(block) for _, _, block in flat_geometry.cells["TOP"].runs)
    census = sum(array.cols * array.rows for array in lattice_arrays(crop, 10))
    checks.append(("flat boundary count == census", boundary_count == census))
    criterion(5, "GDSII magic, exact round trip, compact arrayed export, census", checks)


def test_criterion_6_design_rule_checks():
    checks = [
        ("wide-wall design passes (aspect 4)", check_design_rules(WIDE, DEFAULT_RULES) == []),
        (
            "fine-wall design passes (aspect 10, boundary-inclusive)",
            check_design_rules(FINE, DEFAULT_RULES) == [],
        ),
    ]
    tall = HoneycombSpec(pitch=4000, wall=400, height=10_000)
    violations = check_design_rules(tall, DEFAULT_RULES)
    rules_hit = {violation.rule for violation in violations}
    checks.append(("tall fine-wall design fails", len(violations) > 0))
    checks.append(("failure includes aspect-ratio rule", "max_aspect_ratio" in rules_hit))
    criterion(6, "design rules: presets pass, 10 um tall walls fail on aspect", checks)


def test_criterion_7_gradient_transport():
    start = time.perf_counter()
    spec = GradientSpec(
        length=10_000_000,
        lateral_width=2_000_000,
        pitch=4000,
        f_start=0.10,
        f_end=0.25,
        measure=Measure.LINEAR_RATIO,
    )
    design = design_linear_gradient(spec)
    droplet = Droplet(volume=1.1e-9, position=1.0e-3)
    material = WATER_ON_PMMA  # zero hysteresis: no retention
    trace = simulate_droplet(design, droplet, material)

    positions = [x for interval in trace.intervals for x in interval.positions()]
    monotone = all(b > a for a, b in zip(positions, positions[1:]))

    # The simulator's start force must equal the closed-form chain
    # gamma * 2r * (cos theta_front - cos theta_rear) evaluated with its
    # own converged footprint: reconstruct r from the recorded angles.
    first = trace.steps[0]
    radius = spherical_cap_footprint_radius(
        droplet.volume, (first.theta_front + first.theta_rear) / 2.0
    )
    chain_own = (
        material.surface_tension
        * (2.0 * radius)
        * (math.cos(math.radians(first.theta_front)) - math.cos(math.radians(first.theta_rear)))
    )

    # And the chain with the reference end-to-end inputs — fractions 0.10
    # and 0.25, flat angle 81 deg, contact width 1.614 mm (a 1.1 ul droplet
    # at 90 deg) — lands on ~2.04e-5 N.
    delta_cos = math.cos(math.radians(cassie_apparent_angle(0.25, 81.0))) - math.cos(
        math.radians(cassie_apparent_angle(0.10, 81.0))
    )
    chain_reference = 72.8e-3 * 1.614e-3 * delta_cos

    # Inflated retention: a 30-deg hysteresis band exceeds the peak
    # driving force everywhere, so the droplet never leaves step 0.
    import dataclasses

    sticky = dataclasses.replace(material, hysteresis=30.0)
    pinned = simulate_droplet(design, droplet, sticky)
    peak_drive = net_driving_force(design, droplet, material)
    pinned_retention = retention_force(
        droplet, sticky, fraction_at(design, droplet.position)
    )
    elapsed = time.perf_counter() - start

    checks = [
        ("advance strictly monotone", monotone),
        ("terminates reached_end", trace.terminal_reason is TerminalReason.REACHED_END),
        (
            "start force equals its closed-form chain",
            abs(first.net_force - chain_own) <= 1e-9 * abs(chain_own),
        ),
        (
            "reference-input chain lands on ~2.04e-5 N within 5%",
            abs(chain_reference - 2.04e-5) <= 0.05 * 2.04e-5,
        ),
        ("retention actually exceeds driving force", pinned_retention > abs(peak_drive)),
        (
            "inflated retention pins at step 0",
            pinned.terminal_reason is TerminalReason.FORCE_BALANCE
            and len(pinned.steps) == 1
            and pinned.moves == 0
            and pinned.final_position == droplet.position,
        ),
        ("runtime < 5 s", elapsed < 5.0),
    ]
    criterion(7, "gradient transport: monotone advance, force chain, pinning", checks)


def test_criterion_8_property_suites():
    checks = []

    # Apparent-angle property sweep: 1e4 random (f, theta) samples.
    rng = np.random.default_rng(20260819)
    samples = 10_000
    fractions = rng.uniform(1e-6, 1.0, samples)
    flats = rng.uniform(1.0, 179.0, samples)
    round_trip_failures = 0
    monotone_failures = 0
    bounds_failures = 0
    for f, theta in zip(fractions, flats):
        apparent = cassie_apparent_angle(f, theta)
        if not theta - 1e-9 <= apparent <= 180.0 + 1e-9:
            bounds_failures += 1
        if abs(invert_cassie_fraction(apparent, theta) - f) > 1e-9:
            round_trip_failures += 1
        f_hi = min(1.0, f + 0.01)
        if f_hi - f > 1e-12 and not cassie_apparent_angle(f_hi, theta) < apparent:
            monotone_failures += 1
    checks.append(("angle stays in [theta, 180]", bounds_failures == 0))
    checks.append(("round trip zero failures", round_trip_failures == 0))
    checks.append(("strictly decreasing in f, zero failures", monotone_failures == 0))

    # Monte Carlo determinism: byte-identical across 1/2/8-way parallelism.
    results = [
        struct.pack("<dd", *monte_carlo_fraction(FINE, 1 << 20, seed=123, workers=w))
        for w in (1, 2, 8)
    ]
    checks.append(("MC byte-identical across workers", results[0] == results[1] == results[2]))
    criterion(8, "property suites: angle model 1e4 samples, MC determinism", checks)
