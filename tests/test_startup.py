"""Start-up cost of the ``lotus`` commands.

Every ``lotus`` command is a fresh interpreter, so what it imports is part
of its run time.  Of the commands, only Monte Carlo fractions load numpy
and the thread pool (``concurrent.futures``).  The scalar commands start
and run without either, and without the mask codec; ``design`` and every
``export`` (arrayed, flat and SVG) load the mask codec but not numpy.  Only
``report`` and the ``--reference`` targets load the reference dataset.
``import lotuskit`` itself loads no submodule until one of its names is
used, and the mask read-back loads the codec and numpy, but neither the
lattice nor the gradient module.  Whatever a module imports, at any depth
of its code, is the standard library, numpy or lotuskit itself.
"""

import ast
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
# codec modules, the thread pool and the reference dataset were loaded once
# it had finished.
_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import lotuskit.cli
    def loaded():
        watched = (
            "numpy", "lotuskit.gdsii", "lotuskit.maskio", "concurrent.futures",
            "lotuskit.reference",
        )
        return [name for name in watched if name in sys.modules]
    seen = [["import lotuskit.cli", 0, loaded()]]
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = lotuskit.cli.run(argv)
        seen.append([" ".join(argv), code, loaded()])
    print(json.dumps(seen))
    """
)


def _child(probe: str, *args: str, **env: str):
    """What ``probe`` prints as JSON, run in a fresh interpreter on ``src``."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(probe), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC, **env},
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout)


def _probe(commands: list[list[str]], out_dir: Path) -> list[list]:
    return _child(_PROBE, json.dumps(commands), LOTUS_OUT_DIR=str(out_dir))


def test_scalar_commands_run_without_numpy(tmp_path):
    # Only report and the --reference targets load the reference dataset,
    # so the commands without it run first.
    csv = str(tmp_path / "trace.csv")
    commands = [
        ["angle", "--f", "0.19"],
        ["fraction", "--wall", "400"],
        ["fraction", "--pillar-width", "1000", "--pillar-spacing", "3000"],
        [
            "simulate", "--length-nm", "10000000", "--f-start", "0.19",
            "--f-end", "0.4375", "--width-nm", "200000", "--csv", csv,
        ],
        ["check", "--reference"],
        ["report", "--json"],
    ]
    seen = _probe(commands, tmp_path)
    assert [(name, code) for name, code, _ in seen] == [("import lotuskit.cli", 0)] + [
        (" ".join(argv), 0) for argv in commands
    ]
    assert [loaded for _, _, loaded in seen] == [[]] * 5 + [["lotuskit.reference"]] * 2
    assert Path(csv).read_text(encoding="utf-8").startswith("position_m,")


def test_mask_commands_without_arrays_run_without_numpy(tmp_path):
    # design and arrayed export read each lattice array by its origin, pitch
    # and counts, and flat and SVG export enumerate its centers in plain
    # Python: they load the mask codec, but neither numpy nor the pool.
    ramp = [
        "--length-nm", "10000000", "--f-start", "0.19", "--f-end", "0.4375",
        "--width-nm", "200000",
    ]
    commands = [
        ["design", "gradient", *ramp],
        [
            "export", "--gradient", *ramp, "--polarity", "walls",
            "--out", str(tmp_path / "gradient.gds"),
        ],
        ["design", "two-zone", "--reference"],
        ["export", "--reference", "--out", str(tmp_path / "reference.gds")],
        ["export", "--reference", "--mode", "flat", "--crop-um", "20"],
        ["export", "--reference", "--format", "svg", "--crop-um", "20"],
    ]
    seen = _probe(commands, tmp_path)
    assert [(name, code) for name, code, _ in seen] == [("import lotuskit.cli", 0)] + [
        (" ".join(argv), 0) for argv in commands
    ]
    codec = ["lotuskit.gdsii", "lotuskit.maskio"]
    assert [loaded for _, _, loaded in seen] == [[]] + [codec] * 2 + [
        [*codec, "lotuskit.reference"]
    ] * 4


def test_array_commands_still_load_numpy(tmp_path):
    # Only Monte Carlo builds numpy arrays, and only it loads the thread pool.
    seen = _probe([["fraction", "--wall", "400", "--mc-samples", "1000"]], tmp_path)
    assert [
        (code, "numpy" in loaded, "concurrent.futures" in loaded)
        for _, code, loaded in seen
    ] == [(0, False, False), (0, True, True)]


def test_read_back_loads_only_the_codec(tmp_path):
    # read_gdsii and expand of an arrayed gradient, as lotusbench/readback.py
    # runs them: numpy builds the vertex blocks, and nothing loads the
    # lattice or gradient module that wrote the stream.
    mask = tmp_path / "gradient.gds"
    design = lotuskit.design_linear_gradient(
        lotuskit.GradientSpec(
            length=400_000, lateral_width=50_000, pitch=4000, f_start=0.19, f_end=0.4375
        )
    )
    mask.write_bytes(lotuskit.write_gdsii(design, polarity="walls"))
    probe = """
        import json, sys
        from lotuskit import maskio
        def loaded():
            return sorted(m for m in sys.modules if m == "numpy" or m.startswith("lotuskit."))
        seen = [loaded()]
        with open(sys.argv[1], "rb") as handle:
            geometry = maskio.read_gdsii(handle.read())
        seen.append(loaded())
        seen.append(len(geometry.expand()))
        seen.append(loaded())
        print(json.dumps(seen))
    """
    codec = ["lotuskit.gdsii", "lotuskit.maskio", "lotuskit.wetting"]
    cells = lotuskit.layout_stats(design)["total_cells"]
    assert _child(probe, str(mask)) == [codec, [*codec, "numpy"], cells + 1, [*codec, "numpy"]]


def test_package_import_loads_no_submodule():
    probe = """
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
    assert _child(probe) == [[], ["lotuskit.wetting"], []]


def test_numpy_is_the_only_runtime_dependency():
    imported = set()
    for path in sorted(Path(lotuskit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert {"numpy", "lotuskit"} <= imported
    assert imported - {*sys.stdlib_module_names, "numpy", "lotuskit"} == set()
