"""Project configuration: strict JSON, exhaustive validation, safe defaults.

The format is rigid: unknown keys are errors, and every violation is reported,
not just the first.  A missing or minimal config falls back to water on flat
PMMA (81 degrees, 72.8e-3 N/m, zero hysteresis), the standard design rules and
the reference 4000 nm pitch and height.

Only JSON is checked here: keys, types, finite numbers and printable text.
Ranges are checked by the dataclass a section builds (``Material``,
``DesignRules``, ``ProjectConfig``) on all of the section's values at once; if
it refuses them, each value is tried alone on the section's default to name the
key at fault, then the rest together.  A problem reads ``<key>: <message>``.
So a ``theta_flat ± hysteresis/2`` band that ``Material`` refuses is reported
under ``material.hysteresis`` when hysteresis breaks it even with the default
``theta_flat``, and under ``material`` when the values are each valid.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from lotuskit.lattice import DEFAULT_RULES, DesignRules, Measure, _as_int_nm
from lotuskit.wetting import WATER_ON_PMMA, Material

__all__ = ["ConfigError", "ProjectConfig", "default_config", "load_config", "resolve_out_dir"]


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


@dataclass(frozen=True)
class ProjectConfig:
    """Validated project settings shared by all CLI subcommands."""

    material: Material
    rules: DesignRules
    pitch: int = 4000
    height: int = 4000
    measure: Measure = Measure.AREA_FRACTION
    out_dir: str | None = None

    def __post_init__(self) -> None:
        # A pitch holds a wall and an opening of at least 1 nm each.
        object.__setattr__(self, "pitch", _as_int_nm(self.pitch, "pitch", minimum=2))
        object.__setattr__(self, "height", _as_int_nm(self.height, "height"))


def default_config() -> ProjectConfig:
    """The built-in preset: water on PMMA and the reference geometry."""
    return ProjectConfig(material=WATER_ON_PMMA, rules=DEFAULT_RULES)


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


# Each reader returns a JSON value as its field takes it, or raises ValueError.


def _text(value: object) -> str:
    if not isinstance(value, str) or value == "":
        raise ValueError(f"must be a non-empty string, got {value!r}")
    if not value.isprintable():  # a newline would forge an output line, a lone surrogate fail it
        raise ValueError(f"must be printable text, got {value!r}")
    return value


def _integer(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _number(value: object) -> float:
    """A JSON number as a finite float; JSON admits ``Infinity``, ``NaN`` and integers of any size."""
    if isinstance(value, _LongInteger):
        digits = value.digits
    elif type(value) not in (int, float):
        raise ValueError(f"must be a number, got {value!r}")
    else:
        try:
            number = float(value)
        except OverflowError:
            digits = len(str(abs(value)))
        else:
            if not math.isfinite(number):
                raise ValueError(f"must be a finite number, got {value!r}")
            return number
    raise ValueError(f"must be a number within the float range, got an integer of {digits} digits")


_MEASURES = [m.value for m in Measure]


def _measure(value: object) -> Measure:
    if value not in _MEASURES:
        raise ValueError(f"must be one of {_MEASURES!r}, got {value!r}")
    return Measure(value)


# One table per section; "" is the top level.  Each key has the reader of
# its JSON value, or None for a nested section.  The allowed keys of a
# section are its table's keys, and its bad keys are reported in table order.
_SCHEMA: dict[str, dict[str, Callable[[object], object] | None]] = {
    "": {"material": None, "rules": None, "pitch": _integer, "height": _integer,
         "measure": _measure, "out_dir": _text},
    "material": {"name": _text, "theta_flat": _number, "hysteresis": _number,
                 "surface_tension": _number},
    "rules": {"min_wall": _integer, "max_height": _integer, "fabrication_grid": _integer,
              "max_aspect_ratio": _number},
}


def _section(raw: object, section: str, default: object, problems: list[str]) -> object:
    """One config section as the dataclass of ``default``, built from its valid keys.

    Appends to ``problems`` a non-object section, then unknown keys in
    sorted order, then each bad key in table order (walking a nested
    section where it stands), then what the valid keys break together.
    """
    table = _SCHEMA[section]
    head, dot = (f"{section}: ", f"{section}.") if section else ("", "")
    if not isinstance(raw, dict):
        problems.append(f"{head}must be an object, got {type(raw).__name__}")
        return default
    for key in sorted(raw.keys() - table.keys()):
        problems.append(f"{head}unknown key {key!r} (allowed: {sorted(table)})")
    values, found = {}, {}
    for key, read in table.items():
        if read is None:
            found[key] = []
            values[key] = _section(raw.get(key, {}), key, getattr(default, key), found[key])
        elif key in raw:
            try:
                values[key] = read(raw[key])
            except ValueError as exc:
                found[key] = [f"{dot}{key}: {exc}"]
    built, refusal = _build(default, values)
    if refusal:  # name each key whose range fails alone on the default, then try the rest
        for key in list(values):
            if alone := _build(default, {key: values[key]})[1]:
                found[key] = [f"{dot}{key}: {alone}"]
                del values[key]
        built, refusal = _build(default, values)
    problems.extend(problem for key in table for problem in found.get(key, []))
    if refusal:  # what the valid values break together, such as the hysteresis band
        problems.append(f"{head}{refusal}")
    return built


def _build(default: object, values: dict) -> tuple[object, str | None]:
    """``replace(default, **values)`` and None, or ``default`` and the dataclass's refusal."""
    try:
        return replace(default, **values), None
    except ValueError as exc:
        return default, str(exc)


def load_config(path: str | Path) -> ProjectConfig:
    """Load and validate a JSON config file.

    Raises
    ------
    ConfigError
        On a file that is not UTF-8 (with the byte offset), JSON syntax
        errors (with line/column) or schema violations; ``problems``
        enumerates every offending key, not only the first.
    OSError
        If the file cannot be read.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path.name}: byte {exc.start}: not UTF-8 ({exc.reason})"]) from None
    try:
        raw = json.loads(text, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path.name}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"top level must be a JSON object, got {type(raw).__name__}"])

    problems: list[str] = []
    config = _section(raw, "", default_config(), problems)
    if problems:
        raise ConfigError(problems)
    return config


def resolve_out_dir(config: ProjectConfig) -> Path:
    """Output directory: config value, else $LOTUS_OUT_DIR, else the cwd."""
    if config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get("LOTUS_OUT_DIR")
    if env:
        return Path(env)
    return Path.cwd()
