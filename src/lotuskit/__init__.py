"""Design toolkit for super-hydrophobic honeycomb surface patterns.

Computes apparent wetting angles on micro-structured surfaces, inverse-designs
surface-fraction gradients that passively transport droplets, validates pattern
geometry against fabrication design rules, and emits lithography-ready GDSII
mask layouts with SVG previews.
"""

from lotuskit.wetting import (
    Material,
    Droplet,
    cassie_apparent_angle,
    invert_cassie_fraction,
    apparent_advancing_receding,
    spherical_cap_footprint_radius,
)
from lotuskit.lattice import (
    HoneycombSpec,
    PillarSpec,
    Rect,
    Zone,
    Layout,
    DesignRules,
    RuleViolation,
    DEFAULT_RULES,
    square_pillar_fraction,
    honeycomb_linear_ratio,
    honeycomb_area_fraction,
    monte_carlo_fraction,
    lattice_arrays,
    build_two_zone_layout,
    check_design_rules,
    aspect_ratio,
)
from lotuskit.gradient import (
    GradientSpec,
    GradientDesign,
    SimulationTrace,
    TraceStep,
    wall_for_fraction,
    design_linear_gradient,
    local_apparent_angle,
    net_driving_force,
    retention_force,
    simulate_droplet,
    trace_to_csv,
)

__version__ = "0.1.0"

# The mask codec needs numpy; its names are resolved on first use, so that
# importing lotuskit (and every command that writes no mask) starts without it.
_MASKIO_NAMES = frozenset(
    {"MaskGeometry", "write_gdsii", "read_gdsii", "write_svg", "layout_stats"}
)


def __getattr__(name: str) -> object:
    if name in _MASKIO_NAMES:
        from lotuskit import maskio

        return getattr(maskio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Material",
    "Droplet",
    "cassie_apparent_angle",
    "invert_cassie_fraction",
    "apparent_advancing_receding",
    "spherical_cap_footprint_radius",
    "HoneycombSpec",
    "PillarSpec",
    "Rect",
    "Zone",
    "Layout",
    "DesignRules",
    "RuleViolation",
    "DEFAULT_RULES",
    "square_pillar_fraction",
    "honeycomb_linear_ratio",
    "honeycomb_area_fraction",
    "monte_carlo_fraction",
    "lattice_arrays",
    "build_two_zone_layout",
    "check_design_rules",
    "aspect_ratio",
    "GradientSpec",
    "GradientDesign",
    "SimulationTrace",
    "TraceStep",
    "wall_for_fraction",
    "design_linear_gradient",
    "local_apparent_angle",
    "net_driving_force",
    "retention_force",
    "simulate_droplet",
    "trace_to_csv",
    "MaskGeometry",
    "write_gdsii",
    "read_gdsii",
    "write_svg",
    "layout_stats",
    "__version__",
]
