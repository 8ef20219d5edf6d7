"""Project configuration: strict JSON, exhaustive validation, safe defaults.

The config format is deliberately rigid — unknown keys are errors, every
violation is reported (not just the first), and all physical values carry
their units in the key names' documented meaning.  A missing config or a
minimal one (for example only the material name) falls back to defaults:
distilled water on flat PMMA (81 degrees, 72.8e-3 N/m, zero hysteresis),
the standard design rules, and the reference 4000 nm pitch / 4000 nm height.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from lotuskit.lattice import DEFAULT_RULES, DesignRules, Measure, _MAX_NM
from lotuskit.wetting import WATER_ON_PMMA, Material

__all__ = [
    "ConfigError",
    "ProjectConfig",
    "default_config",
    "load_config",
    "resolve_out_dir",
]


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid configuration: " + "; ".join(self.problems)
        )


@dataclass(frozen=True)
class ProjectConfig:
    """Validated project settings shared by all CLI subcommands."""

    material: Material
    rules: DesignRules
    pitch: int = 4000
    height: int = 4000
    measure: Measure = Measure.AREA_FRACTION
    out_dir: str | None = None


def default_config() -> ProjectConfig:
    """The built-in preset: water on PMMA and the reference geometry."""
    return ProjectConfig(material=WATER_ON_PMMA, rules=DEFAULT_RULES)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_text(value: object) -> bool:
    return isinstance(value, str) and value != ""


class _LongInteger:
    """A JSON integer too long for ``int`` to read.

    Python limits integer string conversion (4,300 digits by default), so
    :func:`load_config` reads such a number as this marker and the key that
    holds it is reported like any other bad value.
    """

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))

    def __repr__(self) -> str:
        return f"an integer too long to read ({self.digits} digits)"


def _read_int(text: str) -> int | _LongInteger:
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _float_problem(value: object) -> str | None:
    """Why a number cannot become a finite float, or None if it can.

    JSON admits ``Infinity``, ``NaN`` and integers of any size.
    """
    if isinstance(value, _LongInteger):
        digits = value.digits
    elif not _is_number(value):
        return None
    else:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            digits = len(str(abs(value)))
        else:
            return None if finite else f"must be a finite number, got {value!r}"
    return f"must be a number within the float range, got an integer of {digits} digits"


# key -> (check on the raw JSON value, problem text, conversion), or None
# for a nested section.  The problem text is formatted with the raw value.
# A number for a key converted by ``float`` must be finite first.
_Entry = tuple[Callable[[object], bool], str, Callable[[object], object]]
_MEASURES = [m.value for m in Measure]
_POSITIVE_NM: _Entry = (
    lambda v: _is_int(v) and 1 <= v <= _MAX_NM,
    f"must be an integer in 1..{_MAX_NM} nm, got {{!r}}",
    int,
)

# One table per section; "" is the top level.  The allowed keys of a section
# are its table's keys, and its bad keys are reported in table order.
_SCHEMA: dict[str, dict[str, _Entry | None]] = {
    "": {
        "material": None,
        "rules": None,
        "pitch": (
            lambda v: _is_int(v) and 2 <= v <= _MAX_NM,
            f"must be an integer in 2..{_MAX_NM} nm, got {{!r}}",
            int,
        ),
        "height": _POSITIVE_NM,
        "measure": (lambda v: v in _MEASURES, f"must be one of {_MEASURES!r}, got {{!r}}", Measure),
        "out_dir": (_is_text, "must be a non-empty string, got {!r}", str),
    },
    "material": {
        "name": (_is_text, "must be a non-empty string", str),
        "theta_flat": (
            lambda v: _is_number(v) and 0.0 < v < 180.0,
            "must be a number strictly between 0 and 180 degrees, got {!r}",
            float,
        ),
        "hysteresis": (
            lambda v: _is_number(v) and not v < 0.0,
            "must be a number >= 0 degrees, got {!r}",
            float,
        ),
        "surface_tension": (
            lambda v: _is_number(v) and not v <= 0.0,
            "must be a number > 0 N/m, got {!r}",
            float,
        ),
    },
    "rules": {
        "min_wall": _POSITIVE_NM,
        "max_height": _POSITIVE_NM,
        "fabrication_grid": _POSITIVE_NM,
        "max_aspect_ratio": (
            lambda v: _is_number(v) and not v <= 0.0, "must be a number > 0, got {!r}", float
        ),
    },
}


def _band_problems(raw: dict, values: dict) -> list[str]:
    """The advancing/receding band check of a material section.

    It runs when both raw angles are numbers or absent, on the validated
    value of each, or its default where that value was rejected.
    """
    if not all(_is_number(raw.get(key, 0.0)) for key in ("theta_flat", "hysteresis")):
        return []
    theta_flat = values.get("theta_flat", WATER_ON_PMMA.theta_flat)
    hysteresis = values.get("hysteresis", WATER_ON_PMMA.hysteresis)
    if theta_flat - hysteresis / 2.0 <= 0.0 or theta_flat + hysteresis / 2.0 >= 180.0:
        return [
            f"material: theta_flat {theta_flat} with hysteresis "
            f"{hysteresis} pushes the advancing/receding band outside "
            f"(0, 180) degrees"
        ]
    return []


def _walk(raw: object, section: str, problems: list[str]) -> dict:
    """Check one config section; return its valid keys, converted.

    Appends to ``problems`` a non-object section, then unknown keys in
    sorted order, then each bad key in table order, walking a nested
    section where its table entry stands.
    """
    table = _SCHEMA[section]
    head = f"{section}: " if section else ""
    if not isinstance(raw, dict):
        problems.append(f"{head}must be an object, got {type(raw).__name__}")
        return {}
    for key in sorted(raw.keys() - table.keys()):
        problems.append(f"{head}unknown key {key!r} (allowed: {sorted(table)})")
    values = {}
    for key, entry in table.items():
        if entry is None:
            values[key] = _walk(raw.get(key, {}), key, problems)
        elif key in raw:
            check, problem, convert = entry
            value = raw[key]
            failure = _float_problem(value) if convert is float else None
            if failure is None and check(value):
                values[key] = convert(value)
            else:
                label = f"{section}.{key}" if section else key
                problems.append(f"{label}: " + (failure or problem.format(value)))
    if section == "material":
        problems.extend(_band_problems(raw, values))
    return values


def load_config(path: str | Path) -> ProjectConfig:
    """Load and validate a JSON config file.

    Raises
    ------
    ConfigError
        On JSON syntax errors (with line/column) or schema violations;
        ``problems`` enumerates every offending key, not only the first.
    OSError
        If the file cannot be read.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path.name}:{exc.lineno}:{exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(
            [f"top level must be a JSON object, got {type(raw).__name__}"]
        )

    problems: list[str] = []
    top = _walk(raw, "", problems)
    if problems:
        raise ConfigError(problems)

    try:
        material = replace(WATER_ON_PMMA, **top.pop("material"))
        rules = replace(DEFAULT_RULES, **top.pop("rules"))
    except ValueError as exc:  # safety net; the checks above should catch all
        raise ConfigError([str(exc)]) from None
    return ProjectConfig(material=material, rules=rules, **top)


def resolve_out_dir(config: ProjectConfig) -> Path:
    """Output directory: config value, else $LOTUS_OUT_DIR, else the cwd."""
    if config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get("LOTUS_OUT_DIR")
    if env:
        return Path(env)
    return Path.cwd()
