"""End-to-end benchmark of the ``lotus`` design pipeline.

Run from the root of a checkout:

    python3 lotusbench/run.py --workload mask --seed 0 --seconds 38 --trace 0

Every operation runs in a fresh interpreter, the way a user runs it: a
``lotus`` command (``python -m lotuskit.cli`` with ``src`` on PYTHONPATH)
or the read-back script ``readback.py``.  One client drives a closed loop:
one operation at a time, each timed from spawn to exit with its artifact on
disk, then checked.  A repetition is the workload's whole sequence; the run
repeats it while another one fits into ``--seconds`` (at least twice) and
reports medians.  ``setup_s`` is probed before each repetition, and a
calibration task before each operation (see ``calibration_s``).

``--trace 1`` is the separate traced run.  It runs the operations of all
three workloads, each once plainly and once under ``tracer.py``, and
reports the per-layer metrics; see README.md for which operation each one
is taken from.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The seed picks the inputs (seed 0 gives the
canonical ones) and the Monte Carlo seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("mask", "transport", "oracle")
OP_TIMEOUT_S = 120.0  # a run must end within 180 s
MIN_REPS = 2
MIN_SETUP_PROBES = 7
MC_SAMPLES = 4_000_000
MC_SIGMAS = 5.0  # tolerance of the Monte Carlo check, fixed beforehand

#: End-to-end metrics of every workload: name -> unit.  A time in ``cal`` is
#: divided by the mean time of the calibration tasks of the same
#: repetition; see ``calibration_s``.
END_TO_END = {
    "setup_s": "s",  # a fresh interpreter up to `import lotuskit.cli` done
    "sequence_cal": "cal",  # the workload's single-threaded operations, spawn to exit
    "peak_rss_mb": "MB",  # the largest per-process max RSS
    "ops_ok_frac": "fraction",  # operations that passed their checks / attempted
}
#: Per-operation medians of each workload, printed by name: name -> unit.
OP_METRICS = {
    "mask": {"export_flat_s": "s", "readback_flat_s": "s", "export_arrayed_s": "s",
             "readback_arrayed_s": "s", "svg_s": "s"},
    "transport": {"simulate_end_s": "s", "simulate_balance_s": "s"},
    "oracle": {"mc_w1_s": "s", "mc_w2_s": "s", "quick_cmds_s": "s"},
}
CALIBRATION = """\
import math, struct
rows = [struct.pack(">HBB", i & 0xFFFF, 8, 3) + bytes(8) for i in range(150000)]
table = {i: (i, str(i)) for i in range(100000)}
total = 0.0
for i in range(250000):
    total += math.acos(math.cos(math.radians(i % 180)) * 0.5)
"""


class CheckFailed(Exception):
    """An operation exited 0 but its output is wrong."""


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def make_inputs(seed: int) -> dict:
    """Workload inputs for a seed; seed 0 gives the canonical inputs.

    Other seeds jitter walls on the 10 nm grid, the ramp ends of the
    exported gradient, crops, angles and the droplet start position within
    ranges that keep every design DRC-clean (walls >= 400 nm) and the work
    size within about 3 %.  The simulated ramp and hysteresis stay fixed:
    the force-balance stop moves from 2,793 to 803 records when f_start
    rises from 0.190 to 0.195.
    """
    inputs = {
        "wall_a": 1000, "wall_b": 400, "crop_flat_um": 600,
        "f_start": 0.19, "f_end": 0.4375, "crop_svg_um": 300,
        "start_mm": 1.0,
        "mc_wall": 400, "mc_seed": seed,
        "angle_f": 0.19, "angle_theta": 81.0, "fraction_wall": 1000,
        "pillar_width": 1000, "pillar_spacing": 3000, "config_theta": 81.0,
    }
    if seed == 0:
        return inputs
    rng = random.Random(seed)
    inputs.update(
        wall_a=1000 + 10 * rng.randint(-5, 5),
        wall_b=400 + 10 * rng.randint(0, 5),
        crop_flat_um=600 + rng.randint(-4, 4),  # cells grow as crop squared
        f_start=round(0.19 + 0.001 * rng.randint(0, 10), 3),
        f_end=round(0.4375 + 0.001 * rng.randint(-7, 7), 4),
        crop_svg_um=300 + rng.randint(-3, 3),
        start_mm=round(1.0 + 0.001 * rng.randint(-20, 20), 3),
        mc_wall=400 + 10 * rng.randint(0, 5),
        angle_f=round(0.19 + 0.001 * rng.randint(0, 50), 3),
        angle_theta=81.0 + rng.randint(-3, 3),
        fraction_wall=1000 + 10 * rng.randint(-20, 20),
        pillar_width=1000 + 10 * rng.randint(-20, 20),
        pillar_spacing=3000 + 10 * rng.randint(-20, 20),
        config_theta=81.0 + rng.randint(-3, 3),
    )
    return inputs


def expected_values(inputs: dict) -> dict:
    """Censuses the outputs must match, from lotuskit's own closed forms."""
    sys.path.insert(0, str(SRC))
    from lotuskit.gradient import GradientSpec, Measure, design_linear_gradient
    from lotuskit.lattice import HoneycombSpec, Layout, Rect, Zone, build_two_zone_layout
    from lotuskit.maskio import layout_stats
    from lotuskit.reference import reference_two_zone_layout

    def cropped(layout: Layout, crop_um: float) -> Layout:
        crop = int(round(crop_um * 1000.0))  # as `lotus export --crop-um` does
        return Layout(
            zones=tuple(
                Zone(z.spec, Rect(z.extent.x, z.extent.y,
                                  min(z.extent.width, crop), min(z.extent.height, crop)))
                for z in layout.zones
            ),
            label=layout.label,
        )

    flat = build_two_zone_layout(
        HoneycombSpec(pitch=4000, wall=inputs["wall_a"], height=4000),
        HoneycombSpec(pitch=4000, wall=inputs["wall_b"], height=4000),
    )
    gradient = design_linear_gradient(GradientSpec(
        length=10_000_000, lateral_width=200_000, pitch=4000,
        f_start=inputs["f_start"], f_end=inputs["f_end"],
        measure=Measure.AREA_FRACTION, height=4000,
    ))
    svg = cropped(reference_two_zone_layout(), inputs["crop_svg_um"])
    return {
        "flat_cells": layout_stats(cropped(flat, inputs["crop_flat_um"]))["total_cells"],
        "arrayed_cells": layout_stats(gradient)["total_cells"],
        "svg_cells": layout_stats(svg)["total_cells"],
    }


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def keyvals(stdout: str) -> dict[str, str]:
    """Parse ``key=value`` lines; any other line is malformed output."""
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep or not key or " " in key:
            raise CheckFailed(f"malformed output line {line!r}")
        pairs[key] = value
    if not pairs:
        raise CheckFailed("no output")
    return pairs


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_export(stdout: str, artifact: Path) -> None:
    out = keyvals(stdout)
    require(int(out["bytes"]) == artifact.stat().st_size, "bytes= differs from the file size")


def check_readback(expected_cells: int) -> Callable[[str, Path | None], None]:
    def check(stdout: str, artifact: Path | None) -> None:
        polygons = int(keyvals(stdout)["polygons"])
        require(polygons == expected_cells,
                f"expanded {polygons} polygons, layout_stats census is {expected_cells}")
    return check


def check_svg(expected_cells: int) -> Callable[[str, Path], None]:
    def check(stdout: str, artifact: Path) -> None:
        check_export(stdout, artifact)
        paths = artifact.read_text(encoding="utf-8").count("<path ")
        require(paths == expected_cells, f"{paths} <path> elements, census is {expected_cells}")
    return check


def check_simulate(terminal: str, with_csv: bool) -> Callable[[str, Path | None], None]:
    def check(stdout: str, artifact: Path | None) -> None:
        out = keyvals(stdout)
        require(out["terminal_reason"] == terminal,
                f"terminal_reason={out['terminal_reason']}, expected {terminal}")
        records = int(out["records"])
        require(records > 0, "no records")
        if with_csv:
            rows = artifact.read_text(encoding="utf-8").splitlines()
            require(len(rows) - 1 == records, f"{len(rows) - 1} CSV rows, records={records}")
            last_mm = f"{float(rows[-1].split(',')[0]) / 1e-3:.6f}"
            require(last_mm == out["final_position_mm"],
                    f"last CSV position {last_mm} mm, final_position_mm={out['final_position_mm']}")
    return check


def check_mc(reference: dict[str, str]) -> Callable[[str, Path | None], None]:
    """The estimate lies within MC_SIGMAS standard errors of the closed form,
    and every worker count prints the same estimate as the first one run.

    ``mc_fraction`` has nine decimals and a resolution of 1/MC_SAMPLES above
    1e-9, so equal text means a bit-equal solid count.
    """
    def check(stdout: str, artifact: Path | None) -> None:
        out = keyvals(stdout)
        estimate, stderr = float(out["mc_fraction"]), float(out["mc_stderr"])
        exact = float(out["area_fraction"])
        require(abs(estimate - exact) <= MC_SIGMAS * stderr,
                f"mc_fraction {estimate} is more than {MC_SIGMAS} sigma from area_fraction {exact}")
        first = reference.setdefault("mc_fraction", out["mc_fraction"])
        require(out["mc_fraction"] == first,
                f"mc_fraction {out['mc_fraction']} differs from {first} with other workers")
    return check


def check_pairs(*required: str, **values: str) -> Callable[[str, Path | None], None]:
    def check(stdout: str, artifact: Path | None) -> None:
        out = keyvals(stdout)
        for key in required:
            require(key in out, f"missing {key}=")
        for key, value in values.items():
            require(out.get(key) == value, f"{key}={out.get(key)}, expected {value}")
        if artifact is not None:
            check_export(stdout, artifact)
    return check


def check_report_json(stdout: str, artifact: Path | None) -> None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report --json is not JSON: {exc}") from None
    require(report.get("drc_pass") is True, "report drc_pass is not true")
    require(len(report.get("rows", ())) == 3, "report does not have 3 rows")


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

@dataclass
class Op:
    """One user operation: a lotus command or a read-back script."""

    name: str
    kind: str  # "cli" or "readback"
    args: list[str]
    check: Callable[[str, Path | None], None]
    artifact: Path | None = None
    # Uses several threads, so its time depends on whether the shared
    # machine's other cores are free; it stays out of sequence_cal.
    parallel: bool = False

    def argv(self, python: str) -> list[str]:
        if self.kind == "cli":
            return [python, "-m", "lotuskit.cli", *self.args]
        return [python, str(BENCH_DIR / "readback.py"), *self.args]

    def traced_argv(self, python: str, spans: Path) -> list[str]:
        return [python, str(BENCH_DIR / "tracer.py"), str(spans), self.name, self.kind, *self.args]


def build_ops(inputs: dict, expected: dict, work: Path, nproc: int) -> dict[str, list[Op]]:
    """The fixed operation sequence of each workload."""
    i = inputs
    flat, arrayed = work / "flat.gds", work / "gradient.gds"
    svg, csv, ref = work / "reference.svg", work / "trace.csv", work / "reference.gds"
    config = work / "bench_config.json"
    config.write_text(json.dumps({"material": {"theta_flat": i["config_theta"]}}), encoding="utf-8")
    ramp = ["--length-nm", "10000000", "--f-start", str(i["f_start"]), "--f-end", str(i["f_end"])]
    simulate = ["simulate", "--length-nm", "10000000", "--f-start", "0.19", "--f-end", "0.4375",
                "--step-nm", "1000", "--start-mm", str(i["start_mm"])]
    mc_reference: dict[str, str] = {}
    mc = ["fraction", "--wall", str(i["mc_wall"]), "--mc-samples", str(MC_SAMPLES),
          "--seed", str(i["mc_seed"])]
    return {
        "mask": [
            Op("export_flat", "cli",
               ["export", "--wall-a", str(i["wall_a"]), "--wall-b", str(i["wall_b"]),
                "--mode", "flat", "--crop-um", str(i["crop_flat_um"]), "--out", str(flat)],
               check_export, flat),
            Op("readback_flat", "readback", [str(flat)], check_readback(expected["flat_cells"])),
            Op("export_arrayed", "cli",
               ["export", "--gradient", *ramp, "--width-nm", "200000", "--out", str(arrayed)],
               check_export, arrayed),
            Op("readback_arrayed", "readback", [str(arrayed)],
               check_readback(expected["arrayed_cells"])),
            Op("svg", "cli",
               ["export", "--reference", "--format", "svg", "--crop-um", str(i["crop_svg_um"]),
                "--out", str(svg)],
               check_svg(expected["svg_cells"]), svg),
        ],
        "transport": [
            Op("simulate_end", "cli", [*simulate, "--csv", str(csv)],
               check_simulate("reached_end", True), csv),
            Op("simulate_balance", "cli", [*simulate, "--hysteresis-deg", "5"],
               check_simulate("force_balance", False)),
        ],
        "oracle": [
            Op("mc_w1", "cli", [*mc, "--workers", "1"], check_mc(mc_reference)),
            Op("mc_w2", "cli", [*mc, "--workers", str(min(2, nproc))], check_mc(mc_reference),
               parallel=nproc > 1),
            Op("quick.angle", "cli",
               ["angle", "--f", str(i["angle_f"]), "--theta", str(i["angle_theta"])],
               check_pairs("solid_fraction", "theta_flat_deg", "apparent_angle_deg")),
            Op("quick.fraction_wall", "cli", ["fraction", "--wall", str(i["fraction_wall"])],
               check_pairs("comb_diameter_nm", "linear_ratio", "area_fraction")),
            Op("quick.fraction_pillar", "cli",
               ["fraction", "--pillar-width", str(i["pillar_width"]),
                "--pillar-spacing", str(i["pillar_spacing"])],
               check_pairs("solid_fraction")),
            Op("quick.check", "cli", ["check", "--reference"],
               check_pairs(violations="0", result="pass")),
            Op("quick.design", "cli", ["design", "two-zone", "--reference"],
               check_pairs("total_cells", drc_violations="0")),
            Op("quick.report", "cli", ["--config", str(config), "report", "--json"],
               check_report_json),
            Op("quick.export", "cli", ["export", "--reference", "--out", str(ref)],
               check_pairs(format="gdsii"), ref),
        ],
    }


@dataclass
class Outcome:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    problem: str | None = None


class Runner:
    """Spawns operations one at a time and keeps the run's bookkeeping."""

    def __init__(self, work: Path, env: dict[str, str]):
        self.work = work
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, tuple[str, int]] = {}

    def spawn(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            seconds=seconds,
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )

    def run(self, op: Op, argv: list[str]) -> Outcome:
        """Run, check and fingerprint one operation; count its failure."""
        if op.artifact is not None and op.artifact.exists():
            op.artifact.unlink()
        outcome = self.spawn(argv)
        self.attempted += 1
        try:
            require(outcome.code == 0,
                    f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}")
            op.check(outcome.stdout, op.artifact)
            # The work directory differs per run; keep it out of the stdout digest.
            stdout = outcome.stdout.replace(str(self.work), "WORK")
            digests = {f"{op.name}:stdout": fingerprint(stdout.encode())}
            if op.artifact is not None:
                digests[f"{op.name}:{op.artifact.name}"] = fingerprint(op.artifact.read_bytes())
            for key, digest in digests.items():
                seen = self.digests.setdefault(key, digest)
                require(seen == digest, f"{key} differs between repetitions")
        except (CheckFailed, KeyError, ValueError, OSError) as exc:
            outcome.problem = f"{op.name}: {type(exc).__name__}: {exc}"
            self.failed += 1
            self.problems.append(outcome.problem)
        return outcome


def fingerprint(data: bytes) -> tuple[str, int]:
    return hashlib.sha256(data).hexdigest(), len(data)


# --------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# --------------------------------------------------------------------------

def setup_probe(runner: Runner, python: str) -> float:
    """A fresh interpreter up to ``import lotuskit.cli`` done."""
    outcome = runner.spawn([python, "-c", "import lotuskit.cli"])
    if outcome.code != 0:
        raise RuntimeError(f"import lotuskit.cli failed: {outcome.stderr.strip()[-300:]}")
    return outcome.seconds


def op_metric(name: str) -> str:
    """The per-operation metric an operation's time goes to."""
    return "quick_cmds_s" if name.startswith("quick.") else f"{name}_s"


def calibration_s(runner: Runner, python: str) -> float:
    """Spawn-to-exit time of a fixed Python task that runs no lotuskit code.

    The shared machines this runs on change speed by 20-40 % within
    minutes, for every process alike.  Like the operations, the task is a
    fresh interpreter that builds many small objects and evaluates scalar
    math in a loop.  Dividing an operation's time by this time, measured
    right before it, cancels most of that drift, and only a change to
    lotuskit moves the ratio.
    """
    outcome = runner.spawn([python, "-c", CALIBRATION])
    if outcome.code != 0:
        raise RuntimeError(f"calibration task failed: {outcome.stderr.strip()[-300:]}")
    return outcome.seconds


def run_workload(runner: Runner, python: str, ops: list[Op], seconds: float) -> dict:
    """Repeat the sequence while another one fits in ``seconds``."""
    samples: dict[str, list[float]] = {}
    setup: list[float] = []
    start = time.perf_counter()
    last = 0.0
    while len(setup) < MIN_REPS or time.perf_counter() - start + last <= seconds:
        rep_start = time.perf_counter()
        setup.append(setup_probe(runner, python))
        times: dict[str, float] = {}
        calibrations = []
        serial = 0.0
        ok = True
        rss = 0.0
        for op in ops:
            key = op_metric(op.name)
            if key not in times:  # once per metric: the short commands share one
                calibrations.append(calibration_s(runner, python))
                times[key] = 0.0
            outcome = runner.run(op, op.argv(python))
            ok = ok and outcome.problem is None
            rss = max(rss, outcome.rss_mb)
            times[key] += outcome.seconds
            serial += 0.0 if op.parallel else outcome.seconds
        cal = statistics.fmean(calibrations)
        if ok:  # a failed operation's time is no sample
            for key, value in {**times, "sequence_s": serial}.items():
                samples.setdefault(key, []).append(value)
                samples.setdefault(key[:-2] + "_cal", []).append(value / cal)
        samples.setdefault("calibration_s", []).append(cal)
        samples.setdefault("peak_rss_mb", []).append(rss)
        last = time.perf_counter() - rep_start
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(setup_probe(runner, python))
    samples["setup_s"] = setup
    return samples


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------

MASK_OPS = ("export_flat", "readback_flat", "export_arrayed", "readback_arrayed", "svg")
TRANSPORT_OPS = ("simulate_end", "simulate_balance")
QUICK_OPS = ("quick.angle", "quick.fraction_wall", "quick.fraction_pillar", "quick.check",
             "quick.design", "quick.report", "quick.export")

PER_LAYER = {  # name -> unit; README.md maps each to its end-to-end metric
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.self_s": "s",
    "config.load_s": "s",
    "reference.report_s": "s",
    "lattice.drc_s": "s",
    "gradient.steps": "count",
    "gradient.angle_evals": "count",
    "gradient.angle_evals_per_step": "evals/step",
    "wetting.cassie_calls": "count",
    "wetting.cap_radius_calls": "count",
    "wetting.busy_s": "s",
    "gradient.simulate_self_s": "s",
    "gradient.csv_s": "s",
    "gradient.design_s": "s",
    "gradient.design_columns": "count",
    "lattice.mc_w1_s": "s",
    "lattice.mc_samples_per_s": "1/s",
    "lattice.mc_rng_floor_s": "s",
    "lattice.mc_w2_s": "s",
    "lattice.mc_speedup_w2": "ratio",
    "gdsii.records_packed": "count",
    "maskio.write_flat_s": "s",
    "maskio.write_MBps": "MB/s",
    "maskio.write_arrayed_s": "s",
    "gdsii.records_walked": "count",
    "maskio.read_flat_s": "s",
    "maskio.read_MBps": "MB/s",
    "maskio.read_arrayed_s": "s",
    "maskio.expand_arrayed_s": "s",
    "maskio.expand_flat_s": "s",
    "maskio.polygons_expanded": "count",
    "maskio.write_svg_s": "s",
    "maskio.peak_rss_mb": "MB",
    "trace.overhead_s": "s",
    # The untraced time of each operation, from the same run.
    **{name: unit for units in OP_METRICS.values() for name, unit in units.items()},
}
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit == "count")


class Profile:
    """Per-function totals of one traced operation, from its spans file."""

    def __init__(self, record: dict):
        self.wrapped = set(record["wrapped"])
        self.imports = record["imports"]
        self.busy = record["busy"]
        self.counters = record["counters"]
        self.extra = record["extra"]
        self.calls: dict[str, list[float]] = {}  # name -> [count, total, self]
        for name, start, end, _parent, _op, self_time in record["spans"]:
            self._add(name, 1, end - start, self_time)
        for _parent, name, count, total, self_time in record["leaves"]:
            self._add(name, count, total, self_time)

    def _add(self, name: str, count: int, total: float, self_time: float) -> None:
        entry = self.calls.setdefault(name, [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += total
        entry[2] += self_time


class Absent(Exception):
    """A metric's function is not wrapped (renamed or removed)."""


def layer_metrics(profiles: dict[str, Profile]) -> dict[str, float]:
    """Per-layer values of one traced pass; absent metrics are left out."""

    def field_of(index: int, name: str, ops: tuple[str, ...]) -> float:
        total = 0.0
        for op in ops:
            profile = profiles[op]
            if name not in profile.wrapped:
                raise Absent(name)
            total += profile.calls.get(name, (0, 0.0, 0.0))[index]
        return total

    def calls(name, ops):
        return int(field_of(0, name, ops))

    def dur(name, ops):
        return field_of(1, name, ops)

    def self_s(name, ops):
        return field_of(2, name, ops)

    def counter(name, ops, function):
        for op in ops:
            if function not in profiles[op].wrapped:
                raise Absent(function)
        return sum(profiles[op].counters.get(name, 0) for op in ops)

    def busy(module, ops):
        return sum(profiles[op].busy.get(module, 0.0) for op in ops)

    flat, arrayed = ("readback_flat",), ("readback_arrayed",)
    formulas: dict[str, Callable[[], float]] = {
        "cli.import_s": lambda: statistics.median(p.imports["cli_s"] for p in profiles.values()),
        "cli.numpy_import_s": lambda: statistics.median(
            p.imports["numpy_s"] for p in profiles.values()),
        "cli.self_s": lambda: self_s("cli.run", QUICK_OPS),
        "config.load_s": lambda: (dur("config.load_config", QUICK_OPS)
                                  + dur("config.default_config", QUICK_OPS)),
        "reference.report_s": lambda: dur("reference.build_validation_report", QUICK_OPS),
        "lattice.drc_s": lambda: dur("lattice.check_design_rules", QUICK_OPS),
        "gradient.steps": lambda: counter(
            "gradient.steps", TRANSPORT_OPS, "gradient.simulate_droplet"),
        "gradient.angle_evals": lambda: calls("gradient.local_apparent_angle", TRANSPORT_OPS),
        "wetting.cassie_calls": lambda: calls("wetting.cassie_apparent_angle", TRANSPORT_OPS),
        "wetting.cap_radius_calls": lambda: calls(
            "wetting.spherical_cap_footprint_radius", TRANSPORT_OPS),
        "wetting.busy_s": lambda: busy("wetting", TRANSPORT_OPS),
        "gradient.simulate_self_s": lambda: self_s("gradient.simulate_droplet", TRANSPORT_OPS),
        "gradient.csv_s": lambda: dur("gradient.trace_to_csv", ("simulate_end",)),
        "gradient.design_s": lambda: dur("gradient.design_linear_gradient", ("export_arrayed",)),
        "gradient.design_columns": lambda: counter(
            "gradient.design_columns", ("export_arrayed",), "gradient.design_linear_gradient"),
        "lattice.mc_w1_s": lambda: dur("lattice.monte_carlo_fraction", ("mc_w1",)),
        "lattice.mc_w2_s": lambda: dur("lattice.monte_carlo_fraction", ("mc_w2",)),
        "gdsii.records_packed": lambda: calls("gdsii.pack_record", ("export_flat",)),
        "maskio.write_flat_s": lambda: dur("maskio.write_gdsii", ("export_flat",)),
        "maskio.write_arrayed_s": lambda: dur("maskio.write_gdsii", ("export_arrayed",)),
        "gdsii.records_walked": lambda: counter(
            "gdsii.records_walked", flat, "gdsii.iter_records"),
        "maskio.read_flat_s": lambda: dur("maskio.read_gdsii", flat),
        "maskio.read_arrayed_s": lambda: dur("maskio.read_gdsii", arrayed),
        "maskio.expand_flat_s": lambda: dur("maskio.MaskGeometry.expand", flat),
        "maskio.expand_arrayed_s": lambda: dur("maskio.MaskGeometry.expand", arrayed),
        "maskio.polygons_expanded": lambda: counter(
            "maskio.polygons_expanded", flat + arrayed, "maskio.MaskGeometry.expand"),
        "maskio.write_svg_s": lambda: dur("maskio.write_svg", ("svg",)),
    }
    values: dict[str, float] = {}
    for name, formula in formulas.items():
        try:
            values[name] = formula()
        except Absent:
            pass
    floor = profiles["mc_rng_floor"].extra.get("lattice.mc_rng_floor_s")
    if floor is not None:
        values["lattice.mc_rng_floor_s"] = floor
    ratios = {  # name -> (numerator, denominator)
        "gradient.angle_evals_per_step": ("gradient.angle_evals", "gradient.steps"),
        "lattice.mc_speedup_w2": ("lattice.mc_w1_s", "lattice.mc_w2_s"),
    }
    for name, (top, base) in ratios.items():
        if top in values and values.get(base):
            values[name] = values[top] / values[base]
    if values.get("lattice.mc_w1_s"):
        values["lattice.mc_samples_per_s"] = MC_SAMPLES / values["lattice.mc_w1_s"]
    if values.get("maskio.write_flat_s"):
        written = profiles["export_flat"].counters.get("maskio.bytes_written", 0)
        values["maskio.write_MBps"] = written / 1e6 / values["maskio.write_flat_s"]
    if values.get("maskio.read_flat_s"):
        read = profiles["readback_flat"].counters.get("maskio.bytes_read", 0)
        values["maskio.read_MBps"] = read / 1e6 / values["maskio.read_flat_s"]
    return values


def run_traced(runner: Runner, python: str, all_ops: dict[str, list[Op]], inputs: dict,
               seconds: float) -> tuple[dict[str, list[float]], list[str]]:
    """Each operation of every workload, plainly and traced, pass after pass.

    Returns the per-layer samples (one per pass) and the counts that did
    not repeat exactly between passes.
    """
    ops = [op for workload in WORKLOADS for op in all_ops[workload]]
    floor = Op("mc_rng_floor", "rngfloor", [str(MC_SAMPLES), str(inputs["mc_seed"])],
               lambda stdout, artifact: None)
    samples: dict[str, list[float]] = {}
    absent: set[str] = set()
    passes = 0
    start = time.perf_counter()
    last = 0.0
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        profiles: dict[str, Profile] = {}
        overheads = []
        mask_rss = []
        plain_times: dict[str, float] = {}
        for index, op in enumerate([*ops, floor]):
            spans = runner.work / f"spans-{op.name}.json"
            traced_argv = op.traced_argv(python, spans)
            if op is floor:
                traced = runner.run(op, traced_argv)
            elif (index + passes) % 2:  # alternate the order, so drift cancels
                traced = runner.run(op, traced_argv)
                plain = runner.run(op, op.argv(python))
            else:
                plain = runner.run(op, op.argv(python))
                traced = runner.run(op, traced_argv)
            if op is not floor and plain.problem is None and traced.problem is None:
                overheads.append(traced.seconds - plain.seconds)
                key = op_metric(op.name)
                plain_times[key] = plain_times.get(key, 0.0) + plain.seconds
            if op.name in MASK_OPS:
                mask_rss.append(plain.rss_mb)
            if traced.problem is None:
                record = json.loads(spans.read_text(encoding="utf-8"))
                absent.update(record["missing"])
                profiles[op.name] = Profile(record)
        passes += 1
        if len(profiles) < len(ops) + 1:
            break  # a failed operation leaves its metrics without a source
        values = layer_metrics(profiles)
        values["maskio.peak_rss_mb"] = max(mask_rss)
        values["trace.overhead_s"] = statistics.median(overheads)
        values.update(plain_times)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        last = time.perf_counter() - pass_start
    for name in sorted(absent):
        print(f"absent: lotuskit has no {name}; the metrics that need it are left out")
    unsteady = [name for name in COUNTS if len(set(samples.get(name, ()))) > 1]
    for name in unsteady:
        runner.problems.append(f"count {name} differs between passes: {samples[name]}")
    return samples, unsteady


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "pinning": "none: no CPU pinning or cache control was available",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = "missing"
    return facts


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            print(f"metric {name}: absent")
            continue
        median = statistics.median(values)
        spread = ""
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f" q1={q1:.6g} q3={q3:.6g}"
        print(f"metric {name}={median:.6g} {unit} (median of n={len(values)}{spread})")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lotuskit" / "cli.py").is_file():
        print(f"error: no lotuskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    python = sys.executable
    nproc = len(os.sched_getaffinity(0))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"  # lotuskit uses no BLAS; the MC workers are its only threads
    inputs = make_inputs(args.seed)
    expected = expected_values(inputs)
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    print("inputs: " + json.dumps(inputs, sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        runner = Runner(work, env)
        all_ops = build_ops(inputs, expected, work, nproc)
        setup_probe(runner, python)  # untimed: the first import writes the bytecode caches
        if args.trace:
            samples, unsteady = run_traced(runner, python, all_ops, inputs, args.seconds)
            units = reported = PER_LAYER
        else:
            samples = run_workload(runner, python, all_ops[args.workload], args.seconds)
            unsteady = []
            samples["ops_ok_frac"] = [1.0 - runner.failed / max(runner.attempted, 1)]
            printed = {**OP_METRICS[args.workload], "sequence_s": "s"}
            units = {
                **printed,
                **{name[:-2] + "_cal": "cal" for name in printed},
                "calibration_s": "s",
                **END_TO_END,
            }
            reported = END_TO_END
        for key, (digest, size) in sorted(runner.digests.items()):
            print(f"artifact {key} sha256={digest} bytes={size}")
        for problem in runner.problems:
            print(f"FAILED {problem}")
        metrics = summarize(samples, units)
        metrics = {name: metrics[name] for name in reported if name in metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = runner.failed == 0 and not unsteady and runner.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
