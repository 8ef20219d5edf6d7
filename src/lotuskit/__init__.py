"""Design toolkit for super-hydrophobic honeycomb surface patterns.

Computes apparent wetting angles on micro-structured surfaces, inverse-designs
surface-fraction gradients that passively transport droplets, validates pattern
geometry against fabrication design rules, and emits lithography-ready GDSII
mask layouts with SVG previews.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A submodule is imported
# the first time one of its names (or the submodule itself) is used, so that
# ``import lotuskit`` loads none of them, and numpy only with the mask codec.
_EXPORTS = {
    "Material": "wetting",
    "Droplet": "wetting",
    "cassie_apparent_angle": "wetting",
    "invert_cassie_fraction": "wetting",
    "apparent_advancing_receding": "wetting",
    "spherical_cap_footprint_radius": "wetting",
    "HoneycombSpec": "lattice",
    "PillarSpec": "lattice",
    "Rect": "lattice",
    "Zone": "lattice",
    "Layout": "lattice",
    "DesignRules": "lattice",
    "RuleViolation": "lattice",
    "DEFAULT_RULES": "lattice",
    "square_pillar_fraction": "lattice",
    "honeycomb_linear_ratio": "lattice",
    "honeycomb_area_fraction": "lattice",
    "monte_carlo_fraction": "lattice",
    "lattice_arrays": "lattice",
    "build_two_zone_layout": "lattice",
    "check_design_rules": "lattice",
    "aspect_ratio": "lattice",
    "GradientSpec": "gradient",
    "GradientDesign": "gradient",
    "SimulationTrace": "gradient",
    "TraceStep": "gradient",
    "wall_for_fraction": "gradient",
    "design_linear_gradient": "gradient",
    "local_apparent_angle": "gradient",
    "net_driving_force": "gradient",
    "retention_force": "gradient",
    "simulate_droplet": "gradient",
    "trace_to_csv": "gradient",
    "MaskGeometry": "maskio",
    "write_gdsii": "maskio",
    "read_gdsii": "maskio",
    "write_svg": "maskio",
    "layout_stats": "maskio",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
