"""Start-up cost of the ``lotus`` commands.

Every ``lotus`` command is a fresh interpreter, so what it imports is part
of its run time.  Only the commands that build arrays (export, design,
Monte Carlo fractions, the GDSII read-back) may load numpy; the scalar
commands must start and run without it, and without the mask codec.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lotuskit

_SRC = str(Path(lotuskit.__file__).resolve().parent.parent)

# Each command runs in the same child after ``import lotuskit.cli``; the
# child prints, as JSON, the exit code of each and which of numpy and the
# mask codec modules were loaded once it had finished.
_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import lotuskit.cli
    def loaded():
        watched = ("numpy", "lotuskit.gdsii", "lotuskit.maskio")
        return [name for name in watched if name in sys.modules]
    seen = [["import lotuskit.cli", 0, loaded()]]
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = lotuskit.cli.run(argv)
        seen.append([" ".join(argv), code, loaded()])
    print(json.dumps(seen))
    """
)


def _probe(commands: list[list[str]], out_dir: Path) -> list[list]:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC, "LOTUS_OUT_DIR": str(out_dir)},
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout)


def test_scalar_commands_run_without_numpy(tmp_path):
    csv = str(tmp_path / "trace.csv")
    commands = [
        ["angle", "--f", "0.19"],
        ["fraction", "--wall", "400"],
        ["fraction", "--pillar-width", "1000", "--pillar-spacing", "3000"],
        ["check", "--reference"],
        ["report", "--json"],
        [
            "simulate", "--length-nm", "10000000", "--f-start", "0.19",
            "--f-end", "0.4375", "--width-nm", "200000", "--csv", csv,
        ],
    ]
    seen = _probe(commands, tmp_path)
    assert [(name, code) for name, code, _ in seen] == [("import lotuskit.cli", 0)] + [
        (" ".join(argv), 0) for argv in commands
    ]
    assert [(name, loaded) for name, _, loaded in seen if loaded] == []
    assert Path(csv).read_text(encoding="utf-8").startswith("position_m,")


def test_array_commands_still_load_numpy(tmp_path):
    # Each in its own child, so that none inherits numpy from another.
    # design and arrayed export are in neither test: they build no array,
    # and load numpy only through maskio's top-level import.
    for argv in (
        ["fraction", "--wall", "400", "--mc-samples", "1000"],
        ["export", "--reference", "--mode", "flat", "--crop-um", "20"],
        ["export", "--reference", "--format", "svg", "--crop-um", "20"],
    ):
        seen = _probe([argv], tmp_path)
        assert [(code, "numpy" in loaded) for _, code, loaded in seen] == [
            (0, False),
            (0, True),
        ], argv
