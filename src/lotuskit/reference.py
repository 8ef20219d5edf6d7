"""Built-in reference designs and the measured validation dataset.

Two honeycomb demonstrator patterns (same 4 um pitch, 4 um structure height,
walls of 1000 nm and 400 nm) ship as constants, together with goniometer
contact-angle measurements taken on fabricated samples of exactly these
geometries.  The measurements are data, not model output: composite-state
predictions sit well above them (likely partial liquid penetration into the
openings on the real surfaces), and the toolkit reports the two side by side
with signed deviations instead of pretending they agree.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from lotuskit.lattice import (
    DEFAULT_RULES,
    DesignRules,
    HoneycombSpec,
    Layout,
    RuleViolation,
    build_two_zone_layout,
    check_design_rules,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
)
from lotuskit.wetting import WATER_ON_PMMA, Material, cassie_apparent_angle

__all__ = [
    "REFERENCE_PITCH_NM",
    "REFERENCE_HEIGHT_NM",
    "WIDE_WALL_DESIGN",
    "FINE_WALL_DESIGN",
    "DROPLET_VOLUME_M3",
    "DROPLET_VOLUME_UNCERTAINTY_M3",
    "MeasuredAngle",
    "MEASURED_ANGLES",
    "ReportRow",
    "ValidationReport",
    "build_validation_report",
    "reference_two_zone_layout",
]

#: Lattice period shared by both reference designs, nm.
REFERENCE_PITCH_NM = 4000
#: Structure height of both reference designs, nm.
REFERENCE_HEIGHT_NM = 4000

#: Coarser design: 1000 nm walls, 3000 nm openings, wall/pitch = 0.25,
#: aspect ratio 4.
WIDE_WALL_DESIGN = HoneycombSpec(
    pitch=REFERENCE_PITCH_NM, wall=1000, height=REFERENCE_HEIGHT_NM
)

#: Finer design: 400 nm walls, 3600 nm openings, wall/pitch = 0.10,
#: aspect ratio 10 (the fabrication limit).
FINE_WALL_DESIGN = HoneycombSpec(
    pitch=REFERENCE_PITCH_NM, wall=400, height=REFERENCE_HEIGHT_NM
)

#: Probe droplet volume used for the measurements: 1.1 +/- 0.1 microliter.
DROPLET_VOLUME_M3 = 1.1e-9
DROPLET_VOLUME_UNCERTAINTY_M3 = 0.1e-9

_PROVENANCE = (
    "sessile-drop goniometer measurement: distilled water, 1.1 +/- 0.1 ul "
    "droplets, on hot-embossed PMMA at room temperature"
)


@dataclass(frozen=True)
class MeasuredAngle:
    """One measured contact angle with its uncertainty and provenance.

    ``wall_nm`` is None for the flat (unstructured) reference area and the
    wall thickness of the honeycomb pattern otherwise; patterned samples
    share the reference pitch and height.
    """

    label: str
    wall_nm: int | None
    angle_deg: float
    uncertainty_deg: float
    provenance: str = _PROVENANCE

    def __post_init__(self) -> None:
        if not 0.0 < self.angle_deg < 180.0:
            raise ValueError(f"angle_deg must lie in (0, 180), got {self.angle_deg!r}")
        if not self.uncertainty_deg > 0.0:
            raise ValueError(
                f"every measured angle must carry a positive uncertainty, "
                f"got {self.uncertainty_deg!r}"
            )


#: Read-only measured dataset for the reference designs.
MEASURED_ANGLES: tuple[MeasuredAngle, ...] = (
    MeasuredAngle("flat reference (unstructured)", None, 81.0, 4.0),
    MeasuredAngle("honeycomb, 1000 nm walls", 1000, 87.0, 2.0),
    MeasuredAngle("honeycomb, 400 nm walls", 400, 107.0, 6.0),
)


def reference_two_zone_layout() -> Layout:
    """The standard demonstrator: both reference designs side by side.

    Two abutting 10 x 10 mm zones (20 x 10 mm total): wide walls on the
    left, fine walls on the right.
    """
    return build_two_zone_layout(
        WIDE_WALL_DESIGN, FINE_WALL_DESIGN, label="reference two-zone"
    )


@dataclass(frozen=True)
class ReportRow:
    """Prediction vs measurement for one sample; deviations are signed
    (predicted minus measured), never assertions of agreement."""

    label: str
    wall_nm: int | None
    measured_deg: float
    uncertainty_deg: float
    predicted_linear_deg: float
    predicted_area_deg: float
    deviation_linear_deg: float
    deviation_area_deg: float


@dataclass(frozen=True)
class ValidationReport:
    """Model-vs-measurement comparison plus design-rule results."""

    material_name: str
    theta_flat_deg: float
    rows: tuple[ReportRow, ...]
    drc_violations: tuple[RuleViolation, ...]

    def as_dict(self) -> dict:
        return {
            "material": self.material_name,
            "theta_flat_deg": self.theta_flat_deg,
            "rows": [asdict(row) for row in self.rows],
            "drc_violations": [str(v) for v in self.drc_violations],
            "drc_pass": not self.drc_violations,
        }


def build_validation_report(
    material: Material = WATER_ON_PMMA, rules: DesignRules = DEFAULT_RULES
) -> ValidationReport:
    """Predict apparent angles for the measured samples and compare.

    Predictions use both fraction conventions (wall/pitch and true area
    fraction) mapped through the Cassie-Baxter relation at the material's
    flat angle; the flat reference row uses the identity case f = 1.
    Design-rule results for the reference two-zone layout are attached.
    """
    rows = []
    for entry in MEASURED_ANGLES:
        if entry.wall_nm is None:
            predicted_linear = cassie_apparent_angle(1.0, material.theta_flat)
            predicted_area = predicted_linear
        else:
            spec = HoneycombSpec(
                pitch=REFERENCE_PITCH_NM,
                wall=entry.wall_nm,
                height=REFERENCE_HEIGHT_NM,
            )
            predicted_linear = cassie_apparent_angle(
                honeycomb_linear_ratio(spec), material.theta_flat
            )
            predicted_area = cassie_apparent_angle(
                honeycomb_area_fraction(spec), material.theta_flat
            )
        rows.append(
            ReportRow(
                label=entry.label,
                wall_nm=entry.wall_nm,
                measured_deg=entry.angle_deg,
                uncertainty_deg=entry.uncertainty_deg,
                predicted_linear_deg=predicted_linear,
                predicted_area_deg=predicted_area,
                deviation_linear_deg=predicted_linear - entry.angle_deg,
                deviation_area_deg=predicted_area - entry.angle_deg,
            )
        )
    return ValidationReport(
        material_name=material.name,
        theta_flat_deg=material.theta_flat,
        rows=tuple(rows),
        drc_violations=tuple(check_design_rules(reference_two_zone_layout(), rules)),
    )
