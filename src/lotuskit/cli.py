"""Command-line front end: a reproducible design pipeline.

Subcommands
-----------
angle
    Evaluate the composite-wetting apparent contact angle.
fraction
    Solid fractions from honeycomb or pillar geometry, with an optional
    Monte Carlo cross-check.
design two-zone / design gradient
    Build layouts and print their numeric summaries.
check
    Design-rule check; exits 1 when violations are found.
simulate
    Quasi-static droplet transport along a gradient, with CSV trace output.
export
    Write GDSII or SVG mask artifacts; exits 1, writing nothing, when the
    design breaks a rule.
report
    Model predictions next to the built-in measured dataset.

Exit codes: 0 success, 1 domain/validation failure, 2 usage error.  A
command that refuses writes nothing to stdout: :func:`run` releases its
output only once it has returned, so ``check`` still prints the violations
behind its exit 1.  Every ``key=value`` line is printed by :func:`_print_stats`
with units in its key; identical inputs (argv + config + seed) give
byte-identical output.  Output files land in --out if absolute, else under
the config ``out_dir``, ``LOTUS_OUT_DIR``, or the working directory.

The mask writers are imported by the ``design two-zone`` and ``export``
handlers only, the gradient module by ``design gradient``, ``simulate`` and
``export --gradient``, and the reference dataset by ``report`` and the
``--reference`` targets.  numpy and the thread pool (``concurrent.futures``)
are loaded only by ``fraction --mc-samples``; the other commands start
without either.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from lotuskit.config import (
    ConfigError,
    ProjectConfig,
    default_config,
    load_config,
    resolve_out_dir,
)
from lotuskit.lattice import (
    HoneycombSpec,
    Layout,
    Measure,
    PillarSpec,
    Rect,
    Zone,
    _MAX_NM,
    _violation_error,
    build_two_zone_layout,
    check_design_rules,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
    lattice_arrays,
    monte_carlo_fraction,
    row_pitch,
    square_pillar_fraction,
)
from lotuskit.wetting import Droplet, cassie_apparent_angle

if TYPE_CHECKING:  # the commands that need the gradient module import it
    from lotuskit.gradient import GradientDesign

__all__ = ["main", "run"]

_UL_TO_M3 = 1e-9  # 1 microliter = 1e-9 cubic meters
_MM_TO_M = 1e-3
_NM_TO_M = 1e-9

# The export flags that one output format or target alone reads, as argparse
# dests.  An unset writer setting takes the writer's default.
_EXPORT_FLAGS = {
    "--format gdsii": ("mode", "polarity", "layer", "datatype"),
    "--format svg": ("max_cells",),
    "--gradient": ("length_nm", "width_nm", "f_start", "f_end", "measure"),
    "zone layouts": ("crop_um",),
}
_REFERENCE_FIXES = ("wall", "wall_a", "wall_b", "pitch", "height")  # fixed by the reference


class _UsageError(Exception):
    """Bad flag combination; reported on stderr with exit code 2."""


def _resolve_out_path(value: str, config: ProjectConfig) -> Path:
    path = Path(value)
    if not path.is_absolute():
        path = resolve_out_dir(config) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# --------------------------------------------------------------------------
# Shared target builders
# --------------------------------------------------------------------------

def _honeycomb(config: ProjectConfig, wall: int, pitch: int | None, height: int | None) -> HoneycombSpec:
    return HoneycombSpec(
        pitch=pitch if pitch is not None else config.pitch,
        wall=wall,
        height=height if height is not None else config.height,
    )


def _refuse_set_flags(args: argparse.Namespace, names: Sequence[str], rule: str) -> None:
    """Raise a usage error, ``rule`` naming the flag, if any of ``names`` is set."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise _UsageError(rule.format(f"--{name.replace('_', '-')}"))


def _two_zone_from_args(args: argparse.Namespace, config: ProjectConfig) -> Layout:
    if args.reference:
        from lotuskit.reference import reference_two_zone_layout

        _refuse_set_flags(args, _REFERENCE_FIXES, "--reference cannot be combined with {}")
        layout = reference_two_zone_layout()
    elif args.wall_a is None or args.wall_b is None:
        raise _UsageError("provide --reference, or both --wall-a and --wall-b")
    else:
        layout = build_two_zone_layout(
            _honeycomb(config, args.wall_a, args.pitch, args.height),
            _honeycomb(config, args.wall_b, args.pitch, args.height),
        )
    return dataclasses.replace(layout, fabrication_grid=config.rules.fabrication_grid)


def _add_gradient_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--length-nm", type=int, required=required,
        help="channel length along the transport axis, integer nm",
    )
    parser.add_argument(
        "--width-nm", type=int, default=None,
        help="channel width across the transport axis, integer nm (default 1 mm)",
    )
    parser.add_argument(
        "--f-start", type=float, required=required,
        help="solid fraction at x = 0, strictly inside (0, 1)",
    )
    parser.add_argument(
        "--f-end", type=float, required=required,
        help="solid fraction at the far end, strictly inside (0, 1)",
    )
    parser.add_argument(
        "--measure", choices=[m.value for m in Measure], default=None,
        help="fraction convention (default from config)",
    )


def _gradient_from_args(args: argparse.Namespace, config: ProjectConfig) -> GradientDesign:
    from lotuskit.gradient import GradientSpec, design_linear_gradient

    if args.length_nm is None or args.f_start is None or args.f_end is None:
        raise _UsageError("a gradient needs --length-nm, --f-start, and --f-end")
    spec = GradientSpec(
        length=args.length_nm,
        lateral_width=args.width_nm if args.width_nm is not None else 1_000_000,  # 1 mm
        pitch=args.pitch if args.pitch is not None else config.pitch,
        f_start=args.f_start,
        f_end=args.f_end,
        measure=Measure(args.measure) if args.measure else config.measure,
        height=args.height if args.height is not None else config.height,
    )
    return design_linear_gradient(spec, config.rules)


def _print_stats(stats: dict, prefix: str = "") -> None:
    """Print a dict as ``key=value`` lines, in key order: the module's one such printer.

    A :func:`layout_stats` dict's zones are printed as ``zone<i>.`` entries.
    Lists are joined with commas, ratios and fractions get 9 decimals and
    other floats 6; other formats come as text.
    """
    for key, value in stats.items():
        if key == "zones":
            for index, zone in enumerate(value):
                _print_stats(zone, f"zone{index}.")
            continue
        if isinstance(value, list):
            value = ",".join(str(item) for item in value)
        elif isinstance(value, float):
            fractional = key != "aspect_ratio" and ("ratio" in key or "fraction" in key)
            value = f"{value:.9f}" if fractional else f"{value:.6f}"
        print(f"{prefix}{key}={value}")


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------

def _cmd_angle(args: argparse.Namespace, config: ProjectConfig) -> int:
    theta = args.theta if args.theta is not None else config.material.theta_flat
    _print_stats({
        "solid_fraction": args.fraction,
        "theta_flat_deg": theta,
        "apparent_angle_deg": cassie_apparent_angle(args.fraction, theta),
    })
    return 0


def _cmd_fraction(args: argparse.Namespace, config: ProjectConfig) -> int:
    pillar_flags = args.pillar_width is not None or args.pillar_spacing is not None
    if args.wall is not None and pillar_flags:
        raise _UsageError("choose either --wall (honeycomb) or --pillar-width/--pillar-spacing")
    if pillar_flags:
        if args.pillar_width is None or args.pillar_spacing is None:
            raise _UsageError("pillar patterns need both --pillar-width and --pillar-spacing")
        if args.mc_samples is not None:
            raise _UsageError("the Monte Carlo check supports honeycomb patterns only")
        spec = PillarSpec(width_a=args.pillar_width, spacing_b=args.pillar_spacing)
        stats = {
            "pillar_width_nm": spec.width_a,
            "pillar_spacing_nm": spec.spacing_b,
            "solid_fraction": square_pillar_fraction(spec),
        }
    elif args.wall is None:
        raise _UsageError("provide --wall (honeycomb) or --pillar-width/--pillar-spacing")
    else:
        spec = _honeycomb(config, args.wall, args.pitch, args.height)
        stats = {
            "pitch_nm": spec.pitch,
            "wall_nm": spec.wall,
            "comb_diameter_nm": spec.comb_diameter,
            "linear_ratio": honeycomb_linear_ratio(spec),
            "area_fraction": honeycomb_area_fraction(spec),
        }
        if args.mc_samples is not None:
            estimate, std_error = monte_carlo_fraction(spec, args.mc_samples, args.seed, args.workers)
            stats["mc_samples"] = args.mc_samples
            stats["mc_seed"] = args.seed
            stats["mc_fraction"] = estimate
            stats["mc_stderr"] = f"{std_error:.6e}"
    _print_stats(stats)
    return 0


def _cmd_design_two_zone(args: argparse.Namespace, config: ProjectConfig) -> int:
    from lotuskit.maskio import layout_stats

    layout = _two_zone_from_args(args, config)
    stats = layout_stats(layout, config.material)
    violations = check_design_rules(layout, config.rules)
    stats["drc_violations"] = len(violations)
    stats.update({f"drc{i}": v for i, v in enumerate(violations)})
    _print_stats(stats)
    return 0


def _cmd_design_gradient(args: argparse.Namespace, config: ProjectConfig) -> int:
    design = _gradient_from_args(args, config)
    spec, grid, theta = design.spec, design.fabrication_grid, config.material.theta_flat
    # Every run spans the same rows, and each of its columns holds one cell
    # per row: even rows at x = k*pitch, odd rows at k*pitch + pitch/2.
    rows = sum(a.rows for a in lattice_arrays(design.zones[0], grid))
    _print_stats({
        "material": config.material.name,
        "theta_flat_deg": theta,
        "measure": spec.measure.value,
        "columns": design.n_columns,
        "pitch_nm": spec.pitch,
        "length_nm": design.length_nm,
        "lateral_width_nm": spec.lateral_width,
        "height_nm": spec.height,
        "row_pitch_nm": row_pitch(spec.pitch, grid),
        "lattice_rows": rows,
        "total_cells": design.n_columns * rows,
        "wall_start_nm": design.runs[0][1],
        "wall_end_nm": design.runs[-1][1],
        "fraction_start": design.fractions[0],
        "fraction_end": design.fractions[-1],
        "cassie_angle_start_deg": cassie_apparent_angle(design.fractions[0], theta),
        "cassie_angle_end_deg": cassie_apparent_angle(design.fractions[-1], theta),
    })
    return 0


def _cmd_check(args: argparse.Namespace, config: ProjectConfig) -> int:
    if args.reference:
        target: Layout | HoneycombSpec = _two_zone_from_args(args, config)
    elif args.wall is not None:
        target = _honeycomb(config, args.wall, args.pitch, args.height)
    else:
        raise _UsageError("provide --reference or --wall")
    violations = check_design_rules(target, config.rules)
    stats = {"violations": len(violations)}
    stats.update({f"violation{i}": v for i, v in enumerate(violations)} if violations else {"result": "pass"})
    _print_stats(stats)
    return 1 if violations else 0


def _cmd_simulate(args: argparse.Namespace, config: ProjectConfig) -> int:
    from lotuskit.gradient import simulate_droplet, trace_to_csv

    design = _gradient_from_args(args, config)
    material = config.material
    if args.hysteresis_deg is not None:
        material = dataclasses.replace(material, hysteresis=args.hysteresis_deg)
    droplet = Droplet(
        volume=args.volume_ul * _UL_TO_M3,
        position=args.start_mm * _MM_TO_M,
    )
    step = args.step_nm * _NM_TO_M if args.step_nm is not None else None
    trace = simulate_droplet(design, droplet, material, step=step, max_steps=args.max_steps)
    stats = {
        "volume_ul": f"{args.volume_ul:.3f}",
        "hysteresis_deg": material.hysteresis,
        "records": trace.records,
        "moves": trace.moves,
        "terminal_reason": trace.terminal_reason.value,
        "start_position_mm": args.start_mm,
        "final_position_mm": trace.final_position / _MM_TO_M,
        "net_force_start_N": f"{trace.intervals[0].net_force:.6e}",
    }
    if args.csv is not None:
        stats["csv"] = path = _resolve_out_path(args.csv, config)
        path.write_text(trace_to_csv(trace), encoding="utf-8")
    _print_stats(stats)
    return 0


def _cmd_export(args: argparse.Namespace, config: ProjectConfig) -> int:
    from lotuskit.maskio import write_gdsii, write_svg

    wants_gradient = args.gradient
    wants_two_zone = args.reference or args.wall_a is not None or args.wall_b is not None
    if wants_gradient and wants_two_zone:
        raise _UsageError("--gradient cannot be combined with --reference/--wall-a/--wall-b")
    if not (wants_gradient or wants_two_zone):
        raise _UsageError("choose a target: --reference, --wall-a/--wall-b, or --gradient")
    # The flag rules come before the target is built, so that no usage error
    # waits for a design to be built and checked.
    chosen = (f"--format {args.format}", "--gradient" if wants_gradient else "zone layouts")
    for owner, names in _EXPORT_FLAGS.items():
        if owner not in chosen:
            _refuse_set_flags(args, names, f"{{}} applies to {owner} only")
    settings = {
        name: getattr(args, name)
        for name in _EXPORT_FLAGS[f"--format {args.format}"]
        if getattr(args, name) is not None
    }
    crop_nm = None
    if args.crop_um is not None:
        if not args.crop_um > 0:
            raise _UsageError("--crop-um must be > 0")
        if not math.isfinite(args.crop_um):
            raise _UsageError("--crop-um must be finite")
        if args.crop_um * 1000.0 >= _MAX_NM + 0.5:
            raise _UsageError(f"--crop-um must round to at most {_MAX_NM} nm")
        crop_nm = int(round(args.crop_um * 1000.0))
        if crop_nm < 1:
            raise _UsageError("--crop-um must round to at least 1 nm")

    target = _gradient_from_args(args, config) if wants_gradient else _two_zone_from_args(args, config)
    if crop_nm is not None:
        target = dataclasses.replace(
            target,
            zones=tuple(
                Zone(
                    spec=zone.spec,
                    extent=Rect(
                        zone.extent.x,
                        zone.extent.y,
                        min(zone.extent.width, crop_nm),
                        min(zone.extent.height, crop_nm),
                    ),
                )
                for zone in target.zones
            ),
        )

    if args.format == "gdsii":
        payload = write_gdsii(target, **settings)
    else:
        payload = write_svg(target, **settings).encode("utf-8")
    violations = check_design_rules(target, config.rules)  # after the writers' own refusals
    if violations:
        raise _violation_error("mask", violations)

    default_name = "lotus_mask.gds" if args.format == "gdsii" else "lotus_mask.svg"
    path = _resolve_out_path(args.out if args.out is not None else default_name, config)
    path.write_bytes(payload)
    _print_stats({
        "format": args.format,
        "out": path,
        "bytes": len(payload),
    })
    return 0


def _cmd_report(args: argparse.Namespace, config: ProjectConfig) -> int:
    from lotuskit.reference import build_validation_report

    report = build_validation_report(config.material, config.rules)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"material: {report['material']} (flat contact angle {report['theta_flat_deg']:.2f} deg)")
    label_width = max(len("sample"), *(len(row["label"]) for row in report["rows"]))
    header = (
        f"{'sample':<{label_width}} {'wall_nm':>7} {'measured_deg':>16} "
        f"{'pred_linear_deg':>15} {'pred_area_deg':>13} "
        f"{'dev_linear_deg':>14} {'dev_area_deg':>12}"
    )
    print(header)
    print("-" * len(header))
    for row in report["rows"]:
        wall = str(row["wall_nm"]) if row["wall_nm"] is not None else "-"
        measured = f"{row['measured_deg']:.1f} +/- {row['uncertainty_deg']:.1f}"
        print(
            f"{row['label']:<{label_width}} {wall:>7} {measured:>16} "
            f"{row['predicted_linear_deg']:>15.2f} {row['predicted_area_deg']:>13.2f} "
            f"{row['deviation_linear_deg']:>+14.2f} {row['deviation_area_deg']:>+12.2f}"
        )
    stats = {"drc": "pass" if report["drc_pass"] else "FAIL"}
    stats.update({f"drc_violation{i}": v for i, v in enumerate(report["drc_violations"])})
    _print_stats(stats)
    print(
        "note: deviations are signed (predicted - measured); the model is "
        "not fitted to, and need not match, the measurements."
    )
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_lattice_defaults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pitch", type=int, default=None,
        help="lattice period in integer nm (default from config)",
    )
    parser.add_argument(
        "--height", type=int, default=None,
        help="structure height in integer nm (default from config)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotus",
        description="Design tools for composite-wetting honeycomb surface textures.",
    )
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="JSON project config (strict schema; unknown keys are errors)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angle", help="apparent contact angle from a solid fraction")
    p.add_argument(
        "--f", "--fraction", dest="fraction", type=float, required=True,
        help="solid area fraction in [0, 1]",
    )
    p.add_argument(
        "--theta", type=float, default=None,
        help="flat-surface contact angle in degrees (default from config)",
    )
    p.set_defaults(handler=_cmd_angle)

    p = sub.add_parser("fraction", help="solid fractions from pattern geometry")
    p.add_argument("--wall", type=int, default=None, help="honeycomb wall thickness, integer nm")
    _add_lattice_defaults(p)
    p.add_argument("--pillar-width", type=int, default=None, help="square pillar width, integer nm")
    p.add_argument("--pillar-spacing", type=int, default=None, help="square pillar gap, integer nm")
    p.add_argument("--mc-samples", type=int, default=None, help="also run a Monte Carlo check with this many samples")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    p.add_argument("--workers", type=int, default=1, help="Monte Carlo worker threads, at most one per CPU (result is identical)")
    p.set_defaults(handler=_cmd_fraction)

    p = sub.add_parser("design", help="build layouts and print their summaries")
    design_sub = p.add_subparsers(dest="design_kind", required=True)

    q = design_sub.add_parser("two-zone", help="two abutting patterned zones")
    q.add_argument("--reference", action="store_true", help="use the built-in reference designs")
    q.add_argument("--wall-a", type=int, default=None, help="zone A wall thickness, integer nm")
    q.add_argument("--wall-b", type=int, default=None, help="zone B wall thickness, integer nm")
    _add_lattice_defaults(q)
    q.set_defaults(handler=_cmd_design_two_zone)

    q = design_sub.add_parser("gradient", help="linear solid-fraction gradient")
    _add_gradient_flags(q, required=True)
    _add_lattice_defaults(q)
    q.set_defaults(handler=_cmd_design_gradient)

    p = sub.add_parser("check", help="design-rule check (exit 1 on violations)")
    p.add_argument("--reference", action="store_true", help="check the built-in reference designs")
    p.add_argument("--wall", type=int, default=None, help="honeycomb wall thickness, integer nm")
    _add_lattice_defaults(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("simulate", help="quasi-static droplet transport on a gradient")
    _add_gradient_flags(p, required=True)
    _add_lattice_defaults(p)
    p.add_argument("--volume-ul", type=float, default=1.1, help="droplet volume in microliters (default 1.1)")
    p.add_argument("--start-mm", type=float, default=1.0, help="initial droplet center, mm from x = 0 (default 1.0)")
    p.add_argument("--hysteresis-deg", type=float, default=None, help="flat-surface hysteresis override, degrees")
    p.add_argument("--step-nm", type=float, default=None, help="step length in nm (default: one pitch)")
    p.add_argument("--max-steps", type=int, default=1_000_000, help="step budget (default 1e6)")
    p.add_argument("--csv", default=None, metavar="PATH", help="write the trace as CSV")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("export", help="write GDSII or SVG mask artifacts")
    p.add_argument("--reference", action="store_true", help="export the built-in reference layout")
    p.add_argument("--wall-a", type=int, default=None, help="zone A wall thickness, integer nm")
    p.add_argument("--wall-b", type=int, default=None, help="zone B wall thickness, integer nm")
    p.add_argument("--gradient", action="store_true", help="export a gradient design instead of zones")
    _add_gradient_flags(p, required=False)
    _add_lattice_defaults(p)
    p.add_argument("--format", choices=("gdsii", "svg"), default="gdsii", help="artifact format (default gdsii)")
    p.add_argument("--mode", choices=("flat", "arrayed"), default=None, help="GDSII geometry mode (default arrayed)")
    p.add_argument("--polarity", choices=("openings", "walls"), default=None, help="GDSII drawn regions (default openings)")
    p.add_argument("--layer", type=int, default=None, help="GDSII layer number (default 1)")
    p.add_argument("--datatype", type=int, default=None, help="GDSII datatype number (default 0)")
    p.add_argument("--crop-um", type=float, default=None, help="crop each zone to this square size in um")
    p.add_argument("--max-cells", type=int, default=None, help="SVG cell budget (default 20000)")
    p.add_argument("--out", default=None, metavar="PATH", help="output path (default under the output directory)")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("report", help="predictions vs the built-in measured dataset")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(handler=_cmd_report)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and map errors to exit codes (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        config = load_config(args.config) if args.config else default_config()
        with contextlib.redirect_stdout(io.StringIO()) as output:
            code = args.handler(args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("error: invalid configuration", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output.getvalue())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
