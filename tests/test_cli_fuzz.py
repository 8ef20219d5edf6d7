"""Hostile flag values, run in process through ``lotuskit.cli.run``.

Each case puts one value into one flag of a small valid argv: a number at
an edge of the int, float or int64 range, or, for a path flag, an existing
directory or a missing file.  The grid is small enough to run in full, so
every case runs on every test run, in a fixed order.  Each case must exit
0, 1 or 2 without raising, and a command that refuses (``error:``,
``usage error:`` or argparse's ``usage:`` on stderr) must leave stdout
empty, wherever in its work the refusal came.
"""

import pytest

from lotuskit.cli import run

VALUES = (
    "0", "-1", "nan", "inf", "-inf", "1e-300", "1e300",
    str(2**31 - 1), str(2**31), str(2**63),
)
_RAMP = ["--f-start", "0.19", "--f-end", "0.4375"]
_LATTICE = ("--pitch", "--height")
_GRADIENT = ("--length-nm", "--width-nm", "--f-start", "--f-end", *_LATTICE)

# name -> (a small valid argv, its fuzzed number flags, its fuzzed path flags)
BASES = {
    "angle": (["angle", "--f", "0.19", "--theta", "81"], ("--f", "--theta"), ("--config",)),
    "fraction": (
        ["fraction", "--wall", "400", "--mc-samples", "1000"],
        ("--wall", *_LATTICE, "--mc-samples", "--seed", "--workers"),
        (),
    ),
    "fraction pillars": (
        ["fraction", "--pillar-width", "1000", "--pillar-spacing", "3000"],
        ("--pillar-width", "--pillar-spacing"),
        (),
    ),
    "design two-zone": (
        ["design", "two-zone", "--wall-a", "400", "--wall-b", "1000"],
        ("--wall-a", "--wall-b", *_LATTICE),
        (),
    ),
    "design gradient": (
        ["design", "gradient", "--length-nm", "200000", "--width-nm", "20000", *_RAMP],
        _GRADIENT,
        (),
    ),
    "check": (["check", "--wall", "400"], ("--wall", *_LATTICE), ()),
    "simulate": (
        [
            "simulate", "--length-nm", "3000000", "--width-nm", "20000", *_RAMP,
            "--start-mm", "1.5", "--step-nm", "10000", "--max-steps", "200",
            "--csv", "trace.csv",
        ],
        (
            *_GRADIENT, "--volume-ul", "--start-mm", "--hysteresis-deg",
            "--step-nm", "--max-steps",
        ),
        ("--csv",),
    ),
    "export zones": (
        ["export", "--wall-a", "400", "--wall-b", "1000", "--crop-um", "20", "--out", "zones.gds"],
        ("--wall-a", "--wall-b", *_LATTICE, "--crop-um", "--layer", "--datatype"),
        ("--out",),
    ),
    "export gradient flat": (
        [
            "export", "--gradient", "--length-nm", "200000", "--width-nm", "20000",
            *_RAMP, "--mode", "flat", "--polarity", "walls", "--out", "ramp.gds",
        ],
        (*_GRADIENT, "--layer", "--datatype"),
        ("--out",),
    ),
    "export svg": (
        [
            "export", "--reference", "--format", "svg", "--crop-um", "20",
            "--max-cells", "1000", "--out", "mask.svg",
        ],
        ("--crop-um", "--max-cells"),
        ("--out",),
    ),
    "report": (["report", "--json"], (), ("--config",)),
}

# ROADMAP item 11b's open cases: work that grows with the value, and that no
# command bounds before it starts.  They are left out until it does.
OPEN_CASES = {
    ("fraction", "--mc-samples", str(2**31 - 1)),
    ("fraction", "--mc-samples", str(2**31)),
    ("fraction", "--mc-samples", str(2**63)),
    ("design gradient", "--length-nm", str(2**31 - 1)),
    ("simulate", "--length-nm", str(2**31 - 1)),
    ("export gradient flat", "--length-nm", str(2**31 - 1)),
    ("export gradient flat", "--width-nm", str(2**31 - 1)),
}


def with_value(argv: list[str], flag: str, value: str) -> list[str]:
    """``argv`` with ``flag`` set to ``value``, in place of any value it had."""
    if flag == "--config":  # the top-level parser's flag comes before the command
        return [f"{flag}={value}", *argv]
    if flag in argv:
        index = argv.index(flag)
        return [*argv[:index], f"{flag}={value}", *argv[index + 2:]]
    return [*argv, f"{flag}={value}"]


@pytest.mark.parametrize("name", BASES)
def test_hostile_values_exit_cleanly_and_refusals_print_nothing(
    name, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LOTUS_OUT_DIR", str(tmp_path))
    argv, number_flags, path_flags = BASES[name]
    paths = (str(tmp_path), str(tmp_path / "missing" / "file"))
    cases = [(flag, value) for flag in number_flags for value in VALUES]
    cases += [(flag, path) for flag in path_flags for path in paths]
    assert run(argv) == 0, capsys.readouterr()
    capsys.readouterr()
    failures = []
    for flag, value in cases:
        if (name, flag, value) in OPEN_CASES:
            continue
        case = with_value(argv, flag, value)
        try:
            code = run(case)
        except Exception as exc:  # a traceback, had the command run as a process
            failures.append((case, repr(exc)))
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2):
            failures.append((case, f"exit {code}"))
        if err.startswith(("error:", "usage")) and out:
            failures.append((case, f"refused with stdout {out!r}"))
    assert not failures
