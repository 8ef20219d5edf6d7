"""Project configuration loading and the command-line interface."""

import itertools
import json
import shlex
import struct
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest

from lotuskit.cli import run
from lotuskit.config import (
    ConfigError,
    ProjectConfig,
    default_config,
    load_config,
    resolve_out_dir,
)
from lotuskit.gradient import Measure
from lotuskit.lattice import DEFAULT_RULES, DesignRules
from lotuskit.maskio import read_gdsii
from lotuskit.wetting import WATER_ON_PMMA, Material


@pytest.fixture(autouse=True)
def _clear_out_dir_env(monkeypatch):
    monkeypatch.delenv("LOTUS_OUT_DIR", raising=False)


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "project.json"
    path.write_text(
        payload if isinstance(payload, str) else json.dumps(payload),
        encoding="utf-8",
    )
    return str(path)


_TOP_ALLOWED = "(allowed: ['height', 'material', 'measure', 'out_dir', 'pitch', 'rules'])"
_MATERIAL_ALLOWED = "(allowed: ['hysteresis', 'name', 'surface_tension', 'theta_flat'])"
_RULES_ALLOWED = (
    "(allowed: ['fabrication_grid', 'max_aspect_ratio', 'max_height', 'min_wall'])"
)
_MEASURES = "['linear_ratio', 'area_fraction']"
_BAND = "pushes the advancing/receding band outside (0, 180) degrees"

# (config payload, the exact ConfigError.problems list).  Together the
# cases reach every message of every key, in the order they are reported:
# top-level unknown keys, material, rules, then pitch, height, measure and
# out_dir; within a section unknown keys come sorted, bad keys in schema order.
CONFIG_PROBLEMS = [
    pytest.param(
        {
            "mystery": 1,
            "material": {"theta_flat": 200.0, "color": "blue"},
            "rules": {"min_wall": -3},
            "pitch": 1,
            "measure": "volume_fraction",
            "out_dir": "",
        },
        [
            f"unknown key 'mystery' {_TOP_ALLOWED}",
            f"material: unknown key 'color' {_MATERIAL_ALLOWED}",
            "material.theta_flat: must be a number strictly between 0 and 180 degrees, got 200.0",
            "rules.min_wall: must be a positive integer (nm), got -3",
            "pitch: must be an integer >= 2 nm, got 1",
            f"measure: must be one of {_MEASURES}, got 'volume_fraction'",
            "out_dir: must be a non-empty string, got ''",
        ],
        id="one-per-section",
    ),
    pytest.param(
        {"material": [], "rules": "fine"},
        ["material: must be an object, got list", "rules: must be an object, got str"],
        id="sections-not-objects",
    ),
    pytest.param(
        {
            "material": {
                "zeta": 1,
                "alpha": 2,
                "name": "",
                "theta_flat": "81",
                "hysteresis": -1,
                "surface_tension": 0,
            }
        },
        [
            f"material: unknown key 'alpha' {_MATERIAL_ALLOWED}",
            f"material: unknown key 'zeta' {_MATERIAL_ALLOWED}",
            "material.name: must be a non-empty string",
            "material.theta_flat: must be a number strictly between 0 and 180 degrees, got '81'",
            "material.hysteresis: must be a number >= 0 degrees, got -1",
            "material.surface_tension: must be a number > 0 N/m, got 0",
        ],
        id="every-material-key",
    ),
    pytest.param(
        {"material": {"theta_flat": 200.0, "hysteresis": 170.0}},
        [
            "material.theta_flat: must be a number strictly between 0 and 180 degrees, got 200.0",
            f"material: theta_flat 81.0 with hysteresis 170.0 {_BAND}",
        ],
        id="band-uses-default-for-bad-theta",
    ),
    pytest.param(
        {"material": {"theta_flat": 170, "hysteresis": 30}},
        [f"material: theta_flat 170.0 with hysteresis 30.0 {_BAND}"],
        id="band-above-180",
    ),
    pytest.param(
        {"material": {"theta_flat": 1.0, "hysteresis": True}},
        ["material.hysteresis: must be a number >= 0 degrees, got True"],
        id="band-skipped-for-non-number",
    ),
    pytest.param(
        {
            "rules": {
                "extra": None,
                "max_aspect_ratio": 0,
                "fabrication_grid": True,
                "max_height": 1.5,
                "min_wall": 0,
            }
        },
        [
            f"rules: unknown key 'extra' {_RULES_ALLOWED}",
            "rules.min_wall: must be a positive integer (nm), got 0",
            "rules.max_height: must be a positive integer (nm), got 1.5",
            "rules.fabrication_grid: must be a positive integer (nm), got True",
            "rules.max_aspect_ratio: must be a number > 0, got 0",
        ],
        id="every-rules-key",
    ),
    pytest.param(
        {"out_dir": 5, "measure": [], "height": 0, "pitch": 4000.0},
        [
            "pitch: must be an integer >= 2 nm, got 4000.0",
            "height: must be a positive integer (nm), got 0",
            f"measure: must be one of {_MEASURES}, got []",
            "out_dir: must be a non-empty string, got 5",
        ],
        id="every-top-level-key",
    ),
    pytest.param(
        {
            "pitch": True,
            "height": False,
            "material": {"surface_tension": False, "theta_flat": True},
            "rules": {"max_aspect_ratio": True},
        },
        [
            "material.theta_flat: must be a number strictly between 0 and 180 degrees, got True",
            "material.surface_tension: must be a number > 0 N/m, got False",
            "rules.max_aspect_ratio: must be a number > 0, got True",
            "pitch: must be an integer >= 2 nm, got True",
            "height: must be a positive integer (nm), got False",
        ],
        id="booleans-are-not-numbers",
    ),
    pytest.param(
        {
            "material": {"theta_flat": float("nan"), "surface_tension": float("inf")},
            "rules": {"max_aspect_ratio": float("-inf")},
        },
        [
            "material.theta_flat: must be a finite number, got nan",
            "material.surface_tension: must be a finite number, got inf",
            "rules.max_aspect_ratio: must be a finite number, got -inf",
        ],
        id="non-finite-numbers",
    ),
    pytest.param(
        {"material": {"hysteresis": 10**400}, "rules": {"max_aspect_ratio": -(10**309)}},
        [
            "material.hysteresis: must be a number within the float range, "
            "got an integer of 401 digits",
            "rules.max_aspect_ratio: must be a number within the float range, "
            "got an integer of 310 digits",
        ],
        id="integers-beyond-the-float-range",
    ),
    pytest.param(
        '{"material": {"hysteresis": 1%s}, "pitch": -2%s}' % ("0" * 5000, "0" * 5000),
        [
            "material.hysteresis: must be a number within the float range, "
            "got an integer of 5001 digits",
            "pitch: must be an integer >= 2 nm, got an integer too long to read (5001 digits)",
        ],
        id="integers-beyond-the-digit-limit",
    ),
    pytest.param(
        {"measure": None, "material": {"name": 7}, "rules": {"min_wall": "400"}, "z": 0, "a": 0},
        [
            f"unknown key 'a' {_TOP_ALLOWED}",
            f"unknown key 'z' {_TOP_ALLOWED}",
            "material.name: must be a non-empty string",
            "rules.min_wall: must be a positive integer (nm), got '400'",
            f"measure: must be one of {_MEASURES}, got None",
        ],
        id="wrong-types",
    ),
]

# (config payload, the ProjectConfig it loads to); reprs are compared too,
# so integer JSON values for float keys must come back as floats.
CONFIG_RESULTS = [
    (
        {
            "material": {
                "name": "glycerol on PDMS",
                "theta_flat": 100,
                "hysteresis": 12,
                "surface_tension": 0.0634,
            },
            "rules": {
                "min_wall": 200,
                "max_aspect_ratio": 25,
                "max_height": 8000,
                "fabrication_grid": 5,
            },
            "pitch": 2000,
            "height": 3000,
            "measure": "linear_ratio",
            "out_dir": "artifacts",
        },
        ProjectConfig(
            material=Material("glycerol on PDMS", 100.0, 12.0, 0.0634),
            rules=DesignRules(200, 25.0, 8000, 5),
            pitch=2000,
            height=3000,
            measure=Measure.LINEAR_RATIO,
            out_dir="artifacts",
        ),
    ),
    (
        {"material": {"hysteresis": 20.5}, "rules": {"fabrication_grid": 20}, "pitch": 2},
        ProjectConfig(
            material=Material("water on PMMA", 81.0, 20.5, 72.8e-3),
            rules=DesignRules(400, 10.0, 4000, 20),
            pitch=2,
        ),
    ),
    (
        {"material": {}, "rules": {}, "measure": "area_fraction"},
        ProjectConfig(material=WATER_ON_PMMA, rules=DEFAULT_RULES),
    ),
]


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

class TestConfig:
    def test_defaults(self):
        config = default_config()
        assert config.material.theta_flat == 81.0
        assert config.material.surface_tension == 72.8e-3
        assert config.material.hysteresis == 0.0
        assert config.rules.min_wall == 400
        assert config.rules.max_aspect_ratio == 10.0
        assert config.rules.max_height == 4000
        assert config.rules.fabrication_grid == 10
        assert config.pitch == 4000
        assert config.height == 4000
        assert config.measure is Measure.AREA_FRACTION
        assert config.out_dir is None

    def test_minimal_file_falls_back_to_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, {"material": {"name": "x"}}))
        assert config.material.name == "x"
        assert config.material.theta_flat == 81.0
        assert config.pitch == 4000
        assert config.measure is Measure.AREA_FRACTION

    def test_empty_object_is_the_default_config(self, tmp_path):
        assert load_config(write_config(tmp_path, {})) == default_config()

    def test_full_file(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                {
                    "material": {
                        "name": "glycerol on PDMS",
                        "theta_flat": 100.0,
                        "hysteresis": 12.0,
                        "surface_tension": 63.4e-3,
                    },
                    "rules": {
                        "min_wall": 200,
                        "max_aspect_ratio": 25.0,
                        "max_height": 8000,
                        "fabrication_grid": 5,
                    },
                    "pitch": 2000,
                    "height": 3000,
                    "measure": "linear_ratio",
                    "out_dir": "artifacts",
                },
            )
        )
        assert config.material.name == "glycerol on PDMS"
        assert config.material.theta_flat == 100.0
        assert config.material.hysteresis == 12.0
        assert config.rules.min_wall == 200
        assert config.rules.fabrication_grid == 5
        assert config.pitch == 2000
        assert config.height == 3000
        assert config.measure is Measure.LINEAR_RATIO
        assert config.out_dir == "artifacts"

    @pytest.mark.parametrize(("payload", "expected"), CONFIG_PROBLEMS)
    def test_all_problems_reported_not_first_only(self, tmp_path, payload, expected):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, payload))
        assert info.value.problems == expected
        assert str(info.value).startswith("invalid configuration: ")

    @pytest.mark.parametrize(("payload", "expected"), CONFIG_RESULTS)
    def test_valid_file_gives_exact_config(self, tmp_path, payload, expected):
        config = load_config(write_config(tmp_path, payload))
        assert config == expected
        assert repr(config) == repr(expected)

    def test_json_syntax_error_reports_line_and_column(self, tmp_path):
        path = write_config(tmp_path, '{\n  "pitch": 4000,\n}\n')
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.problems[0].startswith("project.json:3:1: ")

    def test_top_level_must_be_object(self, tmp_path):
        path = write_config(tmp_path, "[1, 2]")
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            load_config(path)

    def test_hysteresis_band_must_stay_physical(self, tmp_path):
        path = write_config(
            tmp_path, {"material": {"theta_flat": 10.0, "hysteresis": 30.0}}
        )
        with pytest.raises(ConfigError, match="advancing/receding band"):
            load_config(path)

    def test_booleans_are_not_numbers(self, tmp_path):
        path = write_config(tmp_path, {"pitch": True})
        with pytest.raises(ConfigError, match="pitch"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_out_dir_resolution_order(self, tmp_path, monkeypatch):
        config = default_config()
        monkeypatch.chdir(tmp_path)
        assert resolve_out_dir(config) == tmp_path

        monkeypatch.setenv("LOTUS_OUT_DIR", str(tmp_path / "from_env"))
        assert resolve_out_dir(config) == tmp_path / "from_env"

        pinned = ProjectConfig(
            material=config.material, rules=config.rules, out_dir="/pinned"
        )
        assert str(resolve_out_dir(pinned)) == "/pinned"


# --------------------------------------------------------------------------
# CLI basics and exit codes
# --------------------------------------------------------------------------

class TestCliBasics:
    def test_angle_reference_example(self, capsys):
        assert run(["angle", "--f", "0.19", "--theta", "81"]) == 0
        out = capsys.readouterr().out
        assert "apparent_angle_deg=141.285986" in out
        value = float(out.split("apparent_angle_deg=")[1].split()[0])
        assert abs(value - 141.28) <= 0.01

    def test_angle_full_solid_recovers_flat_angle(self, capsys):
        assert run(["angle", "--f", "1", "--theta", "81"]) == 0
        assert "apparent_angle_deg=81.000000" in capsys.readouterr().out

    def test_angle_fraction_alias(self, capsys):
        assert run(["angle", "--fraction", "0.19", "--theta", "81"]) == 0
        assert "141.285986" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["angle", "--f", "0.19", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["angle"]) == 2
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_domain_error_exits_one(self, capsys):
        assert run(["angle", "--f", "1.5", "--theta", "81"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


def readme_quick_start() -> list[tuple[str, str]]:
    """Each ``$ lotus ...`` command of README's Quick start, with its output."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start\n\n```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ ")[1:]:
        command, output = chunk.split("\n", 1)
        examples.append((command, output.rstrip("\n") + "\n"))
    return examples


@pytest.mark.parametrize(
    "command, output",
    [pytest.param(command, output, id=command) for command, output in readme_quick_start()],
)
def test_readme_quick_start_prints_its_block(command, output, capsys):
    program, *args = shlex.split(command)
    assert program == "lotus"
    assert run(args) == 0
    assert capsys.readouterr().out == output


class TestCliFraction:
    def test_honeycomb_values(self, capsys):
        assert run(["fraction", "--wall", "1000"]) == 0
        out = capsys.readouterr().out
        assert "pitch_nm=4000" in out
        assert "comb_diameter_nm=3000" in out
        assert "linear_ratio=0.250000000" in out
        assert "area_fraction=0.437500000" in out

    def test_fine_wall_values(self, capsys):
        assert run(["fraction", "--wall", "400"]) == 0
        out = capsys.readouterr().out
        assert "linear_ratio=0.100000000" in out
        assert "area_fraction=0.190000000" in out

    def test_pillar_fraction(self, capsys):
        code = run(["fraction", "--pillar-width", "1000", "--pillar-spacing", "1000"])
        assert code == 0
        assert "solid_fraction=0.250000000" in capsys.readouterr().out

    def test_pillar_fraction_ignores_the_lattice_flags(self, capsys):
        # A square-pillar pattern has no lattice pitch or structure height.
        pillars = ["fraction", "--pillar-width", "1000", "--pillar-spacing", "3000"]
        assert run(pillars) == 0
        expected = capsys.readouterr().out
        assert expected.endswith("solid_fraction=0.062500000\n")
        for flags in (["--height", "0"], ["--pitch", "0"]):
            assert run([*pillars, *flags]) == 0
            assert capsys.readouterr().out == expected

    def test_wall_and_pillar_flags_conflict(self, capsys):
        code = run(["fraction", "--wall", "400", "--pillar-width", "1000"])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    def test_pillar_needs_both_flags(self, capsys):
        assert run(["fraction", "--pillar-width", "1000"]) == 2
        capsys.readouterr()

    def test_no_pattern_flags_is_usage_error(self, capsys):
        assert run(["fraction"]) == 2
        capsys.readouterr()

    def test_monte_carlo_rejected_for_pillars(self, capsys):
        code = run(
            [
                "fraction", "--pillar-width", "1000", "--pillar-spacing", "1000",
                "--mc-samples", "1000",
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_monte_carlo_output_identical_across_workers(self, capsys):
        outputs = []
        for workers in ("1", "2", "8"):
            code = run(
                [
                    "fraction", "--wall", "1000", "--mc-samples", "200000",
                    "--seed", "7", "--workers", workers,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "mc_fraction=" in outputs[0]
        assert "mc_stderr=" in outputs[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_monte_carlo_pinned_values(self, capsys, workers):
        code = run(
            [
                "fraction", "--wall", "400", "--mc-samples", "1000000",
                "--seed", "0", "--workers", workers,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mc_fraction=0.189686000\n" in out
        assert "mc_stderr=3.920526e-04\n" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mc-samples", "999"], "samples must be >= 1000, got 999"),
            (["--mc-samples", "1000", "--workers", "0"], "workers must be >= 1, got 0"),
            (["--mc-samples", "1000", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_refused_monte_carlo_prints_nothing(self, capsys, flags, message):
        assert run(["fraction", "--wall", "400", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_monte_carlo_close_to_closed_form(self, capsys):
        assert run(["fraction", "--wall", "1000", "--mc-samples", "200000"]) == 0
        out = capsys.readouterr().out
        estimate = float(out.split("mc_fraction=")[1].split()[0])
        stderr = float(out.split("mc_stderr=")[1].split()[0])
        assert abs(estimate - 0.4375) <= 5.0 * stderr


REFERENCE_TWO_ZONE_STDOUT = """\
label=reference two-zone
material=water on PMMA
theta_flat_deg=81.000000
zone_count=2
total_cells=14455000
zone0.origin_nm=0,0
zone0.size_nm=10000000,10000000
zone0.pitch_nm=4000
zone0.wall_nm=1000
zone0.comb_diameter_nm=3000
zone0.height_nm=4000
zone0.cell_count=7227500
zone0.linear_ratio=0.250000000
zone0.area_fraction=0.437500000
zone0.aspect_ratio=4.000000
zone0.cassie_angle_linear_deg=135.307487
zone0.cassie_angle_area_deg=119.607780
zone1.origin_nm=10000000,0
zone1.size_nm=10000000,10000000
zone1.pitch_nm=4000
zone1.wall_nm=400
zone1.comb_diameter_nm=3600
zone1.height_nm=4000
zone1.cell_count=7227500
zone1.linear_ratio=0.100000000
zone1.area_fraction=0.190000000
zone1.aspect_ratio=10.000000
zone1.cassie_angle_linear_deg=152.172442
zone1.cassie_angle_area_deg=141.285986
drc_violations=0
"""

# The 2,500-column ramp of the mask benchmark's arrayed export.
GRADIENT_STDOUT = """\
material=water on PMMA
theta_flat_deg=81.000000
measure=area_fraction
columns=2500
pitch_nm=4000
length_nm=10000000
lateral_width_nm=200000
height_nm=4000
row_pitch_nm=3460
lattice_rows=58
total_cells=145000
wall_start_nm=400
wall_end_nm=1000
fraction_start=0.190000000
fraction_end=0.437500000
cassie_angle_start_deg=141.285986
cassie_angle_end_deg=119.607780
"""


class TestCliDesignAndCheck:
    def test_reference_two_zone_summary(self, capsys):
        assert run(["design", "two-zone", "--reference"]) == 0
        out = capsys.readouterr().out
        assert "zone_count=2" in out
        assert "total_cells=14455000" in out
        assert "zone0.wall_nm=1000" in out
        assert "zone1.wall_nm=400" in out
        assert "zone0.linear_ratio=0.250000000" in out
        assert "zone1.linear_ratio=0.100000000" in out
        assert "drc_violations=0" in out

    def test_custom_walls_two_zone(self, capsys):
        assert run(["design", "two-zone", "--wall-a", "800", "--wall-b", "600"]) == 0
        out = capsys.readouterr().out
        assert "zone0.wall_nm=800" in out
        assert "zone1.wall_nm=600" in out

    def test_two_zone_flag_conflicts(self, capsys):
        assert run(["design", "two-zone", "--reference", "--wall-a", "800"]) == 2
        assert run(["design", "two-zone", "--wall-a", "800"]) == 2
        assert run(["design", "two-zone"]) == 2
        capsys.readouterr()

    def test_gradient_summary(self, capsys):
        code = run(
            [
                "design", "gradient", "--length-nm", "10000000",
                "--width-nm", "2000000", "--f-start", "0.10", "--f-end", "0.25",
                "--measure", "linear_ratio",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "columns=2500" in out
        assert "wall_start_nm=400" in out
        assert "wall_end_nm=1000" in out
        assert "cassie_angle_start_deg=152.172442" in out
        assert "cassie_angle_end_deg=135.307487" in out

    def test_reference_two_zone_stdout_bytes(self, capsys):
        assert run(["design", "two-zone", "--reference"]) == 0
        assert capsys.readouterr().out == REFERENCE_TWO_ZONE_STDOUT

    def test_gradient_stdout_bytes(self, capsys):
        code = run(
            [
                "design", "gradient", "--length-nm", "10000000",
                "--width-nm", "200000", "--f-start", "0.19", "--f-end", "0.4375",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == GRADIENT_STDOUT

    def test_check_reference_passes(self, capsys):
        assert run(["check", "--reference"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out
        assert "result=pass" in out

    def test_check_violations_exit_one(self, capsys):
        assert run(["check", "--wall", "400", "--height", "10000"]) == 1
        out = capsys.readouterr().out
        assert "violations=2" in out
        assert "max_aspect_ratio" in out
        assert "max_height" in out
        assert "result=pass" not in out

    def test_gradient_rules_are_the_check_rules(self, capsys, tmp_path):
        off_grid = ["--pitch", "4005", "--height", "3995"]
        ramp = ["--length-nm", "100000", "--f-start", "0.2", "--f-end", "0.3", *off_grid]
        out_path = tmp_path / "gradient.gds"
        assert run(["check", "--wall", "400", *off_grid]) == 1
        checked = capsys.readouterr().out
        assert run(["design", "gradient", *ramp]) == 1
        designed = capsys.readouterr()
        assert run(["export", "--gradient", *ramp, "--out", str(out_path)]) == 1
        exported = capsys.readouterr()
        assert designed.out == exported.out == ""
        assert not out_path.exists()
        for rule in ("fabrication_grid(pitch)", "fabrication_grid(height)"):
            assert checked.count(rule) == 1
            assert designed.err.count(rule) == exported.err.count(rule) == 1

    def test_check_flags_an_off_grid_half_pitch(self, capsys):
        assert run(["check", "--wall", "400", "--pitch", "4010"]) == 1
        assert capsys.readouterr().out == (
            "violations=1\n"
            "violation0=spec: fabrication_grid(half_pitch): value 2005 violates limit 10\n"
        )

    def test_check_needs_a_target(self, capsys):
        assert run(["check"]) == 2
        assert run(["check", "--reference", "--wall", "400"]) == 2
        capsys.readouterr()


# --------------------------------------------------------------------------
# Simulate
# --------------------------------------------------------------------------

class TestCliSimulate:
    GRADIENT = [
        "--length-nm", "4000000", "--width-nm", "2000000",
        "--f-start", "0.10", "--f-end", "0.25", "--measure", "linear_ratio",
    ]

    def test_transport_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code = run(
            ["simulate", *self.GRADIENT, "--start-mm", "1.2", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "terminal_reason=reached_end" in out
        final = float(out.split("final_position_mm=")[1].split()[0])
        assert final > 1.2
        assert f"csv={csv_path}" in out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "position_m,theta_front_deg,theta_rear_deg,net_force_N,moved"
        assert len(lines) > 2

    def test_inflated_hysteresis_pins_the_droplet(self, capsys):
        code = run(
            ["simulate", *self.GRADIENT, "--start-mm", "1.2",
             "--hysteresis-deg", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "terminal_reason=force_balance" in out
        assert "moves=0" in out
        assert "final_position_mm=1.200000" in out

    def test_unfit_droplet_is_a_domain_error(self, capsys):
        code = run(["simulate", *self.GRADIENT, "--start-mm", "0.05"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_step_is_a_domain_error(self, capsys):
        code = run(
            ["simulate", "--length-nm", "10000000", "--f-start", "0.19",
             "--f-end", "0.4375", "--step-nm", "inf"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "terminal_reason" not in captured.out
        assert "step must be a finite length" in captured.err


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------

class TestCliExport:
    def test_gdsii_reference_export(self, capsys, tmp_path):
        out_path = tmp_path / "mask.gds"
        assert run(["export", "--reference", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        data = out_path.read_bytes()
        assert data[:6] == bytes.fromhex("000600020258")
        assert f"bytes={len(data)}" in out
        assert "format=gdsii" in out

    def test_svg_cropped_export(self, capsys, tmp_path):
        out_path = tmp_path / "mask.svg"
        code = run(
            ["export", "--reference", "--format", "svg", "--crop-um", "50",
             "--out", str(out_path)]
        )
        assert code == 0
        capsys.readouterr()
        root = ElementTree.parse(out_path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_gradient_export(self, capsys, tmp_path):
        out_path = tmp_path / "gradient.gds"
        code = run(
            [
                "export", "--gradient", "--length-nm", "10000000",
                "--width-nm", "2000000", "--f-start", "0.10", "--f-end", "0.25",
                "--measure", "linear_ratio", "--out", str(out_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert out_path.read_bytes()[:6] == bytes.fromhex("000600020258")

    def test_export_needs_a_target(self, capsys):
        assert run(["export"]) == 2
        capsys.readouterr()

    def test_gradient_and_zone_flags_conflict(self, capsys):
        assert run(["export", "--gradient", "--reference"]) == 2
        capsys.readouterr()

    def test_crop_rejected_for_gradients(self, capsys):
        code = run(
            [
                "export", "--gradient", "--length-nm", "10000000",
                "--f-start", "0.10", "--f-end", "0.25",
                "--measure", "linear_ratio", "--crop-um", "50",
            ]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--gradient"], "a gradient needs --length-nm, --f-start, and --f-end"),
            (["--reference", "--crop-um", "0"], "--crop-um must be > 0"),
            (["--reference", "--crop-um", "inf"], "--crop-um must be finite"),
            (["--reference", "--crop-um", "0.0001"], "--crop-um must round to at least 1 nm"),
        ],
    )
    def test_usage_errors_write_nothing(self, args, message, capsys, tmp_path):
        out_path = tmp_path / "mask.gds"
        assert run(["export", *args, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"
        assert not out_path.exists()

    def test_svg_cell_budget_maps_to_domain_error(self, capsys):
        code = run(["export", "--reference", "--format", "svg"])
        assert code == 1
        assert "max_cells" in capsys.readouterr().err

    def test_odd_pitch_flat_export_is_a_domain_error(self, capsys, tmp_path):
        code = run(
            [
                "export", "--wall-a", "401", "--wall-b", "401", "--pitch", "4001",
                "--crop-um", "20", "--mode", "flat", "--out", str(tmp_path / "odd.gds"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "even pitch" in err
        assert "mode" not in err
        assert not (tmp_path / "odd.gds").exists()

    def test_unknown_mode_lists_the_modes(self, capsys):
        assert run(["export", "--reference", "--mode", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "lotus export: error: argument --mode: invalid choice: 'bogus' "
            "(choose from 'flat', 'arrayed')\n"
        )

    def test_default_name_lands_in_cwd(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["export", "--reference", "--crop-um", "20"]) == 0
        capsys.readouterr()
        assert (tmp_path / "lotus_mask.gds").exists()

    def test_env_out_dir_fallback(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LOTUS_OUT_DIR", str(target))
        assert run(["export", "--reference", "--crop-um", "20"]) == 0
        capsys.readouterr()
        assert (target / "lotus_mask.gds").exists()

    def test_config_out_dir_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LOTUS_OUT_DIR", str(tmp_path / "from_env"))
        config_path = write_config(
            tmp_path, {"out_dir": str(tmp_path / "from_config")}
        )
        code = run(
            ["--config", config_path, "export", "--reference", "--crop-um", "20"]
        )
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "from_config" / "lotus_mask.gds").exists()
        assert not (tmp_path / "from_env").exists()

    def test_byte_reproducible_artifact(self, capsys, tmp_path):
        blobs = []
        for name in ("a.gds", "b.gds"):
            path = tmp_path / name
            assert run(["export", "--reference", "--out", str(path)]) == 0
            capsys.readouterr()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


# --------------------------------------------------------------------------
# Lengths beyond the float range
# --------------------------------------------------------------------------

HUGE_NM = "1" + "0" * 400  # 401 digits, far beyond the largest float
_RAMP = ["--f-start", "0.19", "--f-end", "0.4375"]
_CROPPED_PAIR = ["--wall-a", "1000", "--wall-b", "400", "--crop-um", "20"]
HUGE_LENGTH_COMMANDS = {
    "design-two-zone": ["design", "two-zone", "--wall-a", "1000", "--wall-b", "400"],
    "design-gradient": ["design", "gradient", *_RAMP],
    "check": ["check", "--wall", "400"],
    "export-gdsii": ["export", *_CROPPED_PAIR],
    "export-svg": ["export", *_CROPPED_PAIR, "--format", "svg"],
    "simulate": ["simulate", *_RAMP],
}


@pytest.mark.parametrize("flag", ["--pitch", "--height"])
@pytest.mark.parametrize("command", HUGE_LENGTH_COMMANDS)
def test_huge_lengths_end_in_data_or_one_error_line(command, flag, capsys, tmp_path):
    argv = [*HUGE_LENGTH_COMMANDS[command], flag, HUGE_NM]
    if command.startswith("export"):
        argv += ["--out", str(tmp_path / "mask")]
    if command in ("design-gradient", "simulate"):
        # One column as long as a huge pitch, so that the pitch reaches the design.
        argv += ["--length-nm", HUGE_NM if flag == "--pitch" else "200000"]
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    if code == 1 and command == "check":  # violations are data on stdout
        assert errors == [] and captured.out.startswith("violations=")
    elif code == 1:
        assert len(errors) == 1 and captured.out == ""
    else:
        assert errors == []


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

class TestCliReport:
    def test_table_contents(self, capsys):
        assert run(["report"]) == 0
        out = capsys.readouterr().out
        assert "81.0 +/- 4.0" in out
        assert "87.0 +/- 2.0" in out
        assert "107.0 +/- 6.0" in out
        assert "119.61" in out
        assert "141.29" in out
        assert "+32.61" in out
        assert "+34.29" in out
        assert "drc=pass" in out
        assert "deviations are signed" in out
        assert "need not match" in out

    def test_reference_designs_flag_accepted(self, capsys):
        assert run(["report", "--reference-designs"]) == 2
        assert capsys.readouterr().out == ""

    def test_json_report(self, capsys):
        assert run(["report", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drc_pass"] is True
        assert payload["theta_flat_deg"] == 81.0
        rows = {row["label"]: row for row in payload["rows"]}
        assert len(rows) == 3
        fine = rows["honeycomb, 400 nm walls"]
        assert fine["measured_deg"] == 107.0
        assert fine["uncertainty_deg"] == 6.0
        assert fine["predicted_area_deg"] == pytest.approx(141.2859856357785)
        assert fine["deviation_area_deg"] == pytest.approx(34.2859856357785)

    def test_report_is_reproducible(self, capsys):
        outputs = []
        for _ in range(2):
            assert run(["report"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


# --------------------------------------------------------------------------
# Config through the CLI
# --------------------------------------------------------------------------

ROW_PITCH_VIOLATIONS = [
    "zone@(0,0)nm: fabrication_grid(row_pitch): value 3460 violates limit 40",
    "zone@(10000000,0)nm: fabrication_grid(row_pitch): value 3460 violates limit 40",
]


class TestCliWithConfig:
    def test_check_reference_checks_the_written_row_pitch(self, capsys, tmp_path):
        # Two-zone layouts are written with a 3460 nm row pitch (the 10 nm
        # layout grid), which a 40 nm fabrication grid does not divide.
        config_path = write_config(tmp_path, {"rules": {"fabrication_grid": 40}})
        assert run(["--config", config_path, "check", "--reference"]) == 1
        assert capsys.readouterr().out == "".join(
            [
                "violations=2\n",
                *(f"violation{i}={line}\n" for i, line in enumerate(ROW_PITCH_VIOLATIONS)),
            ]
        )

    def test_design_two_zone_lists_the_row_pitch_violations(self, capsys, tmp_path):
        config_path = write_config(tmp_path, {"rules": {"fabrication_grid": 40}})
        assert run(["--config", config_path, "design", "two-zone", "--reference"]) == 0
        assert capsys.readouterr().out.endswith(
            "".join(
                [
                    "drc_violations=2\n",
                    *(f"drc{i}={line}\n" for i, line in enumerate(ROW_PITCH_VIOLATIONS)),
                ]
            )
        )

    @pytest.mark.parametrize("grid", [5, 20])
    def test_check_reference_passes_on_grids_dividing_the_row_pitch(
        self, capsys, tmp_path, grid
    ):
        config_path = write_config(tmp_path, {"rules": {"fabrication_grid": grid}})
        assert run(["--config", config_path, "check", "--reference"]) == 0
        assert capsys.readouterr().out == "violations=0\nresult=pass\n"

    @pytest.mark.parametrize(
        "rules, expected",
        [
            ({"fabrication_grid": 40}, ROW_PITCH_VIOLATIONS),
            ({"min_wall": 500}, ["zone@(10000000,0)nm: min_wall: value 400 violates limit 500"]),
        ],
        ids=["grid-40", "min-wall-500"],
    )
    def test_report_lists_the_violations_of_check_reference(
        self, capsys, tmp_path, rules, expected
    ):
        config_path = write_config(tmp_path, {"rules": rules})
        assert run(["--config", config_path, "check", "--reference"]) == 1
        checked = [line.split("=", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert checked == expected
        assert run(["--config", config_path, "report"]) == 0
        out = capsys.readouterr().out
        assert "drc=FAIL\n" in out
        reported = [
            line.split("=", 1)[1] for line in out.splitlines() if line.startswith("drc_violation")
        ]
        assert reported == expected
        assert run(["--config", config_path, "report", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drc_pass"] is False
        assert payload["drc_violations"] == expected

    def test_design_refuses_what_export_refuses(self, capsys, tmp_path):
        # On a 1 nm grid an odd pitch passes the spec rules of the zones,
        # but the writers cannot place its half-pitch odd rows.
        config_path = write_config(tmp_path, {"rules": {"fabrication_grid": 1}})
        walls = ["--wall-a", "1001", "--wall-b", "401", "--pitch", "4001"]
        out_path = tmp_path / "odd.gds"
        assert run(["--config", config_path, "design", "two-zone", *walls]) == 1
        designed = capsys.readouterr()
        assert run(["--config", config_path, "export", *walls, "--out", str(out_path)]) == 1
        exported = capsys.readouterr()
        assert designed.out == exported.out == ""
        assert designed.err == exported.err == (
            "error: odd lattice rows need an even pitch (the half-pitch row offset "
            "must land on the 1 nm grid), got 4001 nm\n"
        )
        assert not out_path.exists()
        ramp = ["--length-nm", "40000", "--f-start", "0.19", "--f-end", "0.3", "--pitch", "4001"]
        assert run(["--config", config_path, "design", "gradient", *ramp]) == 1
        assert capsys.readouterr() == (
            "",
            "error: gradient violates design rules: column 0: "
            "fabrication_grid(half_pitch): value 2000.5 violates limit 1\n",
        )

    def test_export_writes_exactly_the_masks_that_pass_drc(self, capsys, tmp_path):
        # A refused export lists the violations that design two-zone prints,
        # in the gradient's format: the first five, then (+N more).
        out_path = tmp_path / "mask.gds"
        clean_cases = 0
        walls = (300, 400, 1000)
        for grid, pitch, wall_a, wall_b in itertools.product((10, 40), (4000, 4010), walls, walls):
            config_path = write_config(tmp_path, {"rules": {"fabrication_grid": grid}})
            flags = ["--wall-a", str(wall_a), "--wall-b", str(wall_b), "--pitch", str(pitch)]
            case = (grid, *flags)
            assert run(["--config", config_path, "design", "two-zone", *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            found = [line.split("=", 1)[1] for line in lines if line.startswith("drc")]
            drc_count, violations = int(found[0]), found[1:]
            code = run(["--config", config_path, "export", *flags,
                        "--crop-um", "20", "--out", str(out_path)])
            exported = capsys.readouterr()
            assert (code == 0) == (drc_count == 0), case
            assert out_path.exists() == (code == 0), case
            if code == 0:
                clean_cases += 1
                out_path.unlink()
                continue
            more = f" (+{drc_count - 5} more)" if drc_count > 5 else ""
            assert code == 1, case
            assert exported.out == "", case
            assert exported.err == (
                f"error: mask violates design rules: {'; '.join(violations[:5])}{more}\n"
            ), case
        assert clean_cases == 4  # walls 400 and 1000 at pitch 4000 on the 10 nm grid

    def test_gradient_half_pitch_must_lie_on_the_grid(self, capsys, tmp_path):
        # Pitch 4000 is on an 800 nm grid; its odd rows, 2000 nm across, are not.
        config_path = write_config(tmp_path, {"rules": {"fabrication_grid": 800}})
        out_path = tmp_path / "gradient.gds"
        ramp = [
            "--length-nm", "40000", "--f-start", "0.36", "--f-end", "0.36",
            "--width-nm", "20000", "--out", str(out_path),
        ]
        assert run(["--config", config_path, "export", "--gradient", *ramp]) == 1
        assert capsys.readouterr() == (
            "",
            "error: gradient violates design rules: column 0: "
            "fabrication_grid(half_pitch): value 2000 violates limit 800\n",
        )
        assert not out_path.exists()

    def test_material_angle_default_from_config(self, capsys, tmp_path):
        config_path = write_config(tmp_path, {"material": {"theta_flat": 70.0}})
        assert run(["--config", config_path, "angle", "--f", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "theta_flat_deg=70.000000" in out

    def test_invalid_config_lists_every_problem(self, capsys, tmp_path):
        config_path = write_config(
            tmp_path, {"pitch": 0, "measure": "nope", "bogus": 1}
        )
        assert run(["--config", config_path, "report"]) == 1
        err = capsys.readouterr().err
        assert "error: invalid configuration" in err
        assert err.count("  - ") == 3

    def test_infinite_surface_tension_is_a_config_problem(self, capsys, tmp_path):
        config_path = write_config(tmp_path, '{"material": {"surface_tension": Infinity}}')
        code = run(
            ["--config", config_path, "simulate", "--length-nm", "10000000",
             "--f-start", "0.19", "--f-end", "0.4375"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid configuration\n"
            "  - material.surface_tension: must be a finite number, got inf\n"
        )

    def test_integer_beyond_the_digit_limit_is_a_config_problem(self, capsys, tmp_path):
        config_path = write_config(
            tmp_path, '{"material": {"hysteresis": 1%s}}' % ("0" * 5000)
        )
        assert run(["--config", config_path, "angle", "--f", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid configuration\n"
            "  - material.hysteresis: must be a number within the float range, "
            "got an integer of 5001 digits\n"
        )

    def test_missing_config_file_exits_one(self, capsys, tmp_path):
        code = run(["--config", str(tmp_path / "nope.json"), "report"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_pitch_feeds_fraction(self, capsys, tmp_path):
        config_path = write_config(tmp_path, {"pitch": 2000})
        assert run(["--config", config_path, "fraction", "--wall", "500"]) == 0
        out = capsys.readouterr().out
        assert "pitch_nm=2000" in out
        assert "linear_ratio=0.250000000" in out

    @pytest.mark.parametrize(
        "target",
        [
            ["--reference"],
            ["--length-nm", "10000000", "--width-nm", "200000", "--f-start", "0.19",
             "--f-end", "0.4375"],
        ],
        ids=["two-zone", "gradient"],
    )
    def test_design_census_is_the_exported_census(self, capsys, tmp_path, target):
        config_path = write_config(tmp_path, {"rules": {"fabrication_grid": 5}})
        kind = "gradient" if "--f-start" in target else "two-zone"
        assert run(["--config", config_path, "design", kind, *target]) == 0
        stats = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        out_path = tmp_path / "mask.gds"
        flag = ["--gradient"] if kind == "gradient" else []
        code = run(
            ["--config", config_path, "export", *flag, *target, "--out", str(out_path)]
        )
        assert code == 0
        capsys.readouterr()
        geometry = read_gdsii(out_path.read_bytes())
        (top,) = geometry.top_cell_names()
        exported = sum(array.cols * array.rows for array in geometry.cells[top].arefs)
        assert int(stats["total_cells"]) == exported

    def test_config_measure_feeds_gradient(self, capsys, tmp_path):
        config_path = write_config(tmp_path, {"measure": "linear_ratio"})
        code = run(
            [
                "--config", config_path, "design", "gradient",
                "--length-nm", "10000000", "--f-start", "0.10", "--f-end", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measure=linear_ratio" in out
        assert "wall_start_nm=400" in out
