"""One refusal table over every number that the library checks.

Each checked number goes through one of three checkers, or is a position
on a gradient design, each with one message shape:

* a real value: ``<name> must lie in (low, high) <unit>, got <value>``, the
  brackets telling which ends belong to the interval;
* a count or budget: ``<name> must be an integer``, ``must be >= <minimum>``
  or ``must be <= <maximum>``, then ``got <value>``;
* a length in integer nanometers: ``<name> must be >= <minimum> nm`` or
  ``<= 2147483647 nm``, a fraction ``must be an integer nanometer count``,
  and a non-number a ``TypeError``: ``must be a number in integer
  nanometers``;
* a position: ``position <value> m lies outside the design [0, <length>] m``.

A bool is never a number here, and NaN lies in no interval.  Each row
below names an argument and the call that passes a value to it; the cases
are a bool, NaN, each open end of the interval, and one value beyond each
finite end.  A config file sets the fields of ``Material``, ``DesignRules``
and ``ProjectConfig``, and refuses each of their cases too.
"""

import json
import math
import re

import numpy as np
import pytest

from lotuskit.cli import run
from lotuskit.config import ConfigError, ProjectConfig, load_config
from lotuskit.gradient import (
    GradientDesign,
    GradientSpec,
    Measure,
    design_linear_gradient,
    local_apparent_angle,
    simulate_droplet,
    wall_for_fraction,
)
from lotuskit.lattice import (
    DEFAULT_RULES,
    DesignRules,
    HoneycombSpec,
    Layout,
    PillarSpec,
    Rect,
    Zone,
    hexagon_vertices,
    monte_carlo_fraction,
    row_pitch,
    snap_to_grid,
)
from lotuskit.maskio import write_gdsii, write_svg
from lotuskit.reference import MeasuredAngle
from lotuskit.wetting import (
    WATER_ON_PMMA,
    Droplet,
    Material,
    apparent_advancing_receding,
    cassie_apparent_angle,
    spherical_cap_footprint_radius,
)

_MAX_NM = 2**31 - 1
_ZONE = Zone(spec=HoneycombSpec(pitch=4000, wall=1000, height=4000), extent=Rect(0, 0, 8000, 4000))


def _spec(**fields):
    values = dict(length=8000, lateral_width=1000, pitch=4000, f_start=0.19, f_end=0.3)
    return GradientSpec(**{**values, **fields})


# A 1 m design of one run, within which True read as 1 m would lie.
_METER = GradientDesign(runs=((250_000, 400),), spec=_spec(length=1_000_000_000))


def _simulate(**options):
    droplet = Droplet(volume=1e-18, position=4e-6)
    simulate_droplet(design_linear_gradient(_spec()), droplet, WATER_ON_PMMA, **options)


def _monte_carlo(**budget):
    spec = HoneycombSpec(pitch=4000, wall=400, height=4000)
    monte_carlo_fraction(spec, **{"samples": 1000, "seed": 0, "workers": 1, **budget})


# (argument, call with the value, the refusal up to ", got"): the interval
# in the message gives the cases.
REALS = [
    ("Material.theta_flat", lambda v: Material("x", theta_flat=v),
     "theta_flat must lie in (0, 180) degrees"),
    ("Material.hysteresis", lambda v: Material("x", theta_flat=81.0, hysteresis=v),
     "hysteresis must lie in [0, inf) degrees"),
    ("Material.surface_tension", lambda v: Material("x", theta_flat=81.0, surface_tension=v),
     "surface_tension must lie in (0, inf) N/m"),
    ("Droplet.volume", lambda v: Droplet(volume=v), "volume must lie in (0, inf) m^3"),
    ("Droplet.position", lambda v: Droplet(volume=1e-9, position=v),
     "position must lie in (-inf, inf) m"),
    ("cassie_apparent_angle.solid_fraction", lambda v: cassie_apparent_angle(v, 81.0),
     "solid_fraction must lie in [0, 1]"),
    ("cassie_apparent_angle.theta_flat", lambda v: cassie_apparent_angle(0.3, v),
     "theta_flat must lie in (0, 180) degrees"),
    ("apparent_advancing_receding.solid_fraction",
     lambda v: apparent_advancing_receding(v, WATER_ON_PMMA), "solid_fraction must lie in [0, 1]"),
    ("spherical_cap_footprint_radius.volume", lambda v: spherical_cap_footprint_radius(v, 90.0),
     "volume must lie in (0, inf) m^3"),
    ("spherical_cap_footprint_radius.theta", lambda v: spherical_cap_footprint_radius(1e-9, v),
     "theta must lie in (0, 180) degrees"),
    ("GradientSpec.f_start", lambda v: _spec(f_start=v), "f_start must lie in (0, 1)"),
    ("GradientSpec.f_end", lambda v: _spec(f_end=v), "f_end must lie in (0, 1)"),
    ("wall_for_fraction.target_fraction", lambda v: wall_for_fraction(v, 4000),
     "target_fraction must lie in (0, 1)"),
    ("simulate_droplet.step", lambda v: _simulate(step=v), "step must lie in (0, inf) m"),
    ("DesignRules.max_aspect_ratio", lambda v: DesignRules(max_aspect_ratio=v),
     "max_aspect_ratio must lie in (0, inf]"),
    ("snap_to_grid.value_nm", lambda v: snap_to_grid(v, 10),
     "value_nm must lie in (-inf, inf) nm"),
    ("MeasuredAngle.angle_deg", lambda v: MeasuredAngle("x", None, v, 1.0),
     "angle_deg must lie in (0, 180) degrees"),
    ("MeasuredAngle.uncertainty_deg", lambda v: MeasuredAngle("x", None, 90.0, v),
     "uncertainty_deg must lie in (0, inf) degrees"),
]

# (argument, call with the value, name in the message, minimum, maximum).
COUNTS = [
    ("simulate_droplet.max_steps", lambda v: _simulate(max_steps=v), "max_steps", 1, None),
    ("monte_carlo_fraction.samples", lambda v: _monte_carlo(samples=v), "samples", 1000, None),
    ("monte_carlo_fraction.seed", lambda v: _monte_carlo(seed=v), "seed", 0, None),
    ("monte_carlo_fraction.workers", lambda v: _monte_carlo(workers=v), "workers", 1, None),
    ("GradientDesign.runs.count", lambda v: GradientDesign(runs=((v, 400),), spec=_spec()),
     "run 0 count", 1, None),
    ("write_gdsii.layer", lambda v: write_gdsii(_ZONE, layer=v), "layer", 0, 255),
    ("write_gdsii.datatype", lambda v: write_gdsii(_ZONE, datatype=v), "datatype", 0, 255),
    ("write_svg.max_cells", lambda v: write_svg(_ZONE, max_cells=v), "max_cells", 1, None),
]

# (argument, call with the value, name in the message, minimum).
LENGTHS = [
    ("HoneycombSpec.pitch", lambda v: HoneycombSpec(pitch=v, wall=400, height=4000), "pitch", 1),
    ("HoneycombSpec.wall", lambda v: HoneycombSpec(pitch=4000, wall=v, height=4000), "wall", 1),
    ("HoneycombSpec.height", lambda v: HoneycombSpec(pitch=4000, wall=400, height=v), "height", 1),
    ("PillarSpec.width_a", lambda v: PillarSpec(width_a=v, spacing_b=1000), "width_a", 1),
    ("PillarSpec.spacing_b", lambda v: PillarSpec(width_a=1000, spacing_b=v), "spacing_b", 0),
    ("Rect.x", lambda v: Rect(v, 0, 1000, 1000), "x", -_MAX_NM),
    ("Rect.y", lambda v: Rect(0, v, 1000, 1000), "y", -_MAX_NM),
    ("Rect.width", lambda v: Rect(0, 0, v, 1000), "width", 1),
    ("Rect.height", lambda v: Rect(0, 0, 1000, v), "height", 1),
    ("Layout.fabrication_grid", lambda v: Layout(zones=(), fabrication_grid=v),
     "fabrication_grid", 1),
    ("DesignRules.min_wall", lambda v: DesignRules(min_wall=v), "min_wall", 1),
    ("DesignRules.max_height", lambda v: DesignRules(max_height=v), "max_height", 1),
    ("DesignRules.fabrication_grid", lambda v: DesignRules(fabrication_grid=v),
     "fabrication_grid", 1),
    ("ProjectConfig.pitch", lambda v: ProjectConfig(WATER_ON_PMMA, DEFAULT_RULES, pitch=v),
     "pitch", 2),
    ("ProjectConfig.height", lambda v: ProjectConfig(WATER_ON_PMMA, DEFAULT_RULES, height=v),
     "height", 1),
    ("snap_to_grid.grid_nm", lambda v: snap_to_grid(3464.1, v), "grid_nm", 1),
    ("row_pitch.pitch", lambda v: row_pitch(v, 10), "pitch", 1),
    ("row_pitch.fabrication_grid", lambda v: row_pitch(4000, v), "fabrication_grid", 1),
    ("hexagon_vertices.comb", hexagon_vertices, "comb", 1),
    ("GradientSpec.length", lambda v: _spec(length=v), "length", 1),
    ("GradientSpec.lateral_width", lambda v: _spec(lateral_width=v), "lateral_width", 1),
    ("GradientSpec.pitch", lambda v: _spec(pitch=v), "pitch", 1),
    ("GradientSpec.height", lambda v: _spec(height=v), "height", 1),
    ("GradientDesign.fabrication_grid",
     lambda v: GradientDesign(runs=((2, 400),), spec=_spec(), fabrication_grid=v),
     "fabrication_grid", 1),
    ("GradientDesign.runs.wall", lambda v: GradientDesign(runs=((2, v),), spec=_spec()),
     "run 0 wall", 1),
    ("wall_for_fraction.pitch", lambda v: wall_for_fraction(0.19, v), "pitch", 1),
    ("wall_for_fraction.fabrication_grid",
     lambda v: wall_for_fraction(0.19, 4000, Measure.AREA_FRACTION, v), "fabrication_grid", 1),
]

# (argument, call with the value, the design's length in m): a position
# outside [0, length] is refused, and a bool lies in no design.
POSITIONS = [
    ("local_apparent_angle.x_m", lambda v: local_apparent_angle(_METER, v, WATER_ON_PMMA),
     _METER.length_m),
]

# The two ends of the flat hysteresis band are derived, not passed: each is
# reached through theta_flat and hysteresis, at and beyond its open end.
BAND_ENDS = [
    pytest.param(81.0, 162.0, "theta_flat - hysteresis/2", 0.0, id="receding=0.0"),
    pytest.param(81.0, 170.0, "theta_flat - hysteresis/2", -4.0, id="receding=-4.0"),
    pytest.param(99.0, 162.0, "theta_flat + hysteresis/2", 180.0, id="advancing=180.0"),
    pytest.param(99.0, 170.0, "theta_flat + hysteresis/2", 184.0, id="advancing=184.0"),
]


def _real_cases():
    for argument, call, refusal in REALS:
        opening, low, high, closing = re.search(r"([\[(])(\S+), (\S+)([\])])", refusal).groups()
        low, high = float(low), float(high)
        values = [True, math.nan]
        values += [low] if opening == "(" else []
        values += [high] if closing == ")" else []
        values += [low - 1.0] if math.isfinite(low) else []
        values += [high + 1.0] if math.isfinite(high) else []
        for value in values:
            yield argument, call, value, ValueError, f"{refusal}, got {value!r}"


def _count_cases():
    for argument, call, name, minimum, maximum in COUNTS:
        cases = [(True, "be an integer"), (math.nan, "be an integer")]
        cases += [(minimum - 1, f"be >= {minimum}")]
        cases += [(maximum + 1, f"be <= {maximum}")] if maximum is not None else []
        for value, rule in cases:
            yield argument, call, value, ValueError, f"{name} must {rule}, got {value!r}"


def _length_cases():
    for argument, call, name, minimum in LENGTHS:
        cases = [
            (True, TypeError, "be a number in integer nanometers"),
            (math.nan, ValueError, "be an integer nanometer count"),
            (minimum - 1, ValueError, f"be >= {minimum} nm"),
            (_MAX_NM + 1, ValueError, f"be <= {_MAX_NM} nm"),
        ]
        for value, error, rule in cases:
            yield argument, call, value, error, f"{name} must {rule}, got {value!r}"


def _position_cases():
    for argument, call, length in POSITIONS:
        for value in (True, math.nan, -1e-9, length + 1e-9):
            message = f"position {value!r} m lies outside the design [0, {length!r}] m"
            yield argument, call, value, ValueError, message


@pytest.mark.parametrize(
    "call, value, error, message",
    [
        pytest.param(call, value, error, message, id=f"{argument}={value!r}")
        for argument, call, value, error, message in [
            *_real_cases(), *_count_cases(), *_length_cases(), *_position_cases()
        ]
    ],
)
def test_refusal(call, value, error, message):
    with pytest.raises(error) as excinfo:
        call(value)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# The config section whose keys set each dataclass's fields; "" is the top level.
_CONFIG_SECTIONS = {"Material": "material", "DesignRules": "rules", "ProjectConfig": ""}


def _config_cases():
    for argument, _, value, _, message in [*_real_cases(), *_length_cases()]:
        owner, _, key = argument.partition(".")
        if owner in _CONFIG_SECTIONS:
            section = _CONFIG_SECTIONS[owner]
            yield pytest.param(section, key, value, message, id=f"{argument}={value!r}")


@pytest.mark.parametrize("section, key, value, message", _config_cases())
def test_config_refusal(tmp_path, capsys, section, key, value, message):
    # A finite number in a config file reaches the dataclass, and its refusal
    # is the dataclass's own, under the config key.  A bool, NaN or infinity
    # is refused as JSON, under the same key.
    path = tmp_path / "project.json"
    path.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    label = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    (problem,) = excinfo.value.problems
    if isinstance(value, bool) or not math.isfinite(value):
        assert problem.startswith(f"{label}: must be ")
    else:
        assert problem == f"{label}: {message}"
    assert run(["--config", str(path), "angle", "--f", "0.5"]) == 1
    assert capsys.readouterr() == ("", f"error: invalid configuration\n  - {problem}\n")


@pytest.mark.parametrize("theta_flat, hysteresis, name, end", BAND_ENDS)
def test_hysteresis_band_end_refusal(theta_flat, hysteresis, name, end):
    with pytest.raises(ValueError) as excinfo:
        Material("x", theta_flat=theta_flat, hysteresis=hysteresis)
    assert str(excinfo.value) == f"{name} must lie in (0, 180) degrees, got {end!r}"


def test_closed_ends_and_numpy_numbers_are_accepted():
    assert cassie_apparent_angle(0, 81.0) == 180.0
    assert cassie_apparent_angle(1, 81.0) == 81.0
    assert Material("x", theta_flat=81.0, hysteresis=0).hysteresis == 0
    assert DesignRules(max_aspect_ratio=math.inf).max_aspect_ratio == math.inf
    assert snap_to_grid(3464, 10) == 3460
    assert cassie_apparent_angle(np.float64(0.3), np.float32(81.0)) == pytest.approx(
        cassie_apparent_angle(0.3, 81.0)
    )
    assert write_gdsii(_ZONE, layer=np.uint8(255)) == write_gdsii(_ZONE, layer=255)
