"""Start-up cost of the ``lotus`` commands.

Every ``lotus`` command is a fresh interpreter, so what it imports is part
of its run time.  Only the commands that build arrays (flat and SVG export,
Monte Carlo fractions) may load numpy, and only Monte Carlo may load the
thread pool (``concurrent.futures``).  The scalar commands start and run
without either, and without the mask codec; ``design`` and arrayed export
load the mask codec but not numpy.  ``import lotuskit`` itself loads no
submodule until one of its names is used.
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
# child prints, as JSON, the exit code of each and which of numpy, the mask
# codec modules and the thread pool were loaded once it had finished.
_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import lotuskit.cli
    def loaded():
        watched = ("numpy", "lotuskit.gdsii", "lotuskit.maskio", "concurrent.futures")
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


def test_mask_commands_without_arrays_run_without_numpy(tmp_path):
    # design and arrayed export read each lattice array by its origin, pitch
    # and counts: they load the mask codec, but neither numpy nor the pool.
    ramp = [
        "--length-nm", "10000000", "--f-start", "0.19", "--f-end", "0.4375",
        "--width-nm", "200000",
    ]
    commands = [
        ["design", "two-zone", "--reference"],
        ["design", "gradient", *ramp],
        ["export", "--reference", "--out", str(tmp_path / "reference.gds")],
        [
            "export", "--gradient", *ramp, "--polarity", "walls",
            "--out", str(tmp_path / "gradient.gds"),
        ],
    ]
    seen = _probe(commands, tmp_path)
    assert [(name, code) for name, code, _ in seen] == [("import lotuskit.cli", 0)] + [
        (" ".join(argv), 0) for argv in commands
    ]
    assert [loaded for _, _, loaded in seen] == [[]] + [
        ["lotuskit.gdsii", "lotuskit.maskio"]
    ] * len(commands)


def test_array_commands_still_load_numpy(tmp_path):
    # Each in its own child, so that none inherits numpy from another.
    # Only Monte Carlo loads the thread pool.
    for argv, pool in (
        (["fraction", "--wall", "400", "--mc-samples", "1000"], True),
        (["export", "--reference", "--mode", "flat", "--crop-um", "20"], False),
        (["export", "--reference", "--format", "svg", "--crop-um", "20"], False),
    ):
        seen = _probe([argv], tmp_path)
        assert [
            (code, "numpy" in loaded, "concurrent.futures" in loaded)
            for _, code, loaded in seen
        ] == [(0, False, False), (0, True, pool)], argv


def test_package_import_loads_no_submodule():
    probe = textwrap.dedent(
        """
        import json, sys
        import lotuskit
        def loaded():
            return sorted(m for m in sys.modules if m == "numpy" or m.startswith("lotuskit."))
        seen = [loaded()]
        lotuskit.cassie_apparent_angle(0.19, 81.0)
        seen.append(loaded())
        seen.append(sorted(set(lotuskit.__all__) - set(dir(lotuskit))))
        print(json.dumps(seen))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
        check=True,
    )
    assert json.loads(result.stdout) == [[], ["lotuskit.wetting"], []]
