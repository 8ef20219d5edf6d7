"""Start-up cost of the ``lotus`` commands.

Every ``lotus`` command is a fresh interpreter, so what it imports is part
of its run time.  ``import lotuskit.cli`` loads the command line, the
config, the lattice and the wetting modules, and each command adds only
what it runs.  Only Monte Carlo fractions load numpy and the thread pool
(``concurrent.futures``).  Only ``design two-zone`` and ``export`` load the
mask codec, only ``report`` and the ``--reference`` targets the reference
dataset, and only ``design gradient``, ``simulate`` and ``export
--gradient`` the gradient module.  ``import lotuskit`` itself loads no
submodule until one of its names is used, and the mask read-back loads the
codec and numpy, but neither the lattice nor the gradient module.
Whatever a module imports, at any depth of its code, is the standard
library, numpy or lotuskit itself.
"""

import ast
import builtins
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lotuskit

_SRC = str(Path(lotuskit.__file__).resolve().parent.parent)

# A fresh child runs ``import lotuskit.cli``, then the command if there is
# one, and prints as JSON its exit code and the sorted lotuskit modules,
# numpy and the thread pool that were loaded once it had finished.
_PROBE = """
    import contextlib, io, json, sys
    import lotuskit.cli
    argv = json.loads(sys.argv[1])
    code = 0
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = lotuskit.cli.run(argv)
    watched = ("numpy", "concurrent.futures")
    loaded = sorted(m for m in sys.modules if m in watched or m.startswith("lotuskit."))
    print(json.dumps([code, loaded]))
"""


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


_CLI = ["lotuskit.cli", "lotuskit.config", "lotuskit.lattice", "lotuskit.wetting"]
_REFERENCE = sorted([*_CLI, "lotuskit.reference"])
_ZONE_MASK = sorted([*_REFERENCE, "lotuskit.gdsii", "lotuskit.maskio"])
_SIMULATE = sorted([*_CLI, "lotuskit.gradient"])
_GRADIENT_MASK = sorted([*_SIMULATE, "lotuskit.gdsii", "lotuskit.maskio"])
_RAMP = ["--length-nm", "10000000", "--f-start", "0.19", "--f-end", "0.4375", "--width-nm", "200000"]

# (argv, the modules loaded once it has run); no argv is the bare import.
# design and arrayed export read each lattice array by its origin, pitch
# and counts, and flat and SVG export enumerate its centers in plain
# Python, so no mask command loads numpy.
COMMANDS = [
    ([], _CLI),
    (["angle", "--f", "0.19"], _CLI),
    (["fraction", "--wall", "400"], _CLI),
    (["fraction", "--pillar-width", "1000", "--pillar-spacing", "3000"], _CLI),
    (
        ["fraction", "--wall", "400", "--mc-samples", "1000"],
        sorted(["concurrent.futures", *_CLI, "numpy"]),
    ),
    (["check", "--wall", "400"], _CLI),
    (["check", "--reference"], _REFERENCE),
    (["report"], _REFERENCE),
    (["design", "two-zone", "--reference"], _ZONE_MASK),
    (["export", "--reference"], _ZONE_MASK),
    (["export", "--reference", "--mode", "flat", "--crop-um", "20"], _ZONE_MASK),
    (["export", "--reference", "--format", "svg", "--crop-um", "20"], _ZONE_MASK),
    (["design", "gradient", *_RAMP], _SIMULATE),
    (["simulate", *_RAMP, "--csv", "trace.csv"], _SIMULATE),
    (["export", "--gradient", *_RAMP, "--polarity", "walls"], _GRADIENT_MASK),
    (
        ["export", "--gradient", "--length-nm", "200000", "--f-start", "0.19",
         "--f-end", "0.4375", "--width-nm", "50000", "--format", "svg"],
        _GRADIENT_MASK,
    ),
]


@pytest.mark.parametrize(
    "argv, modules",
    COMMANDS,
    ids=[" ".join(argv) or "import lotuskit.cli" for argv, _ in COMMANDS],
)
def test_each_command_loads_only_what_it_runs(argv, modules, tmp_path):
    assert _child(_PROBE, json.dumps(argv), LOTUS_OUT_DIR=str(tmp_path)) == [0, modules]


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


def _bound_at_module_level(tree: ast.Module) -> set[str]:
    """Every name that a module's top-level code binds, in any branch: an
    import (under ``if TYPE_CHECKING:`` too), a def, a class or a target."""
    bound, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)  # its body binds the names of another scope
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        else:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            pending.extend(ast.iter_child_nodes(node))
    return bound


def _annotation_names(annotation: ast.expr):
    """The names that an annotation reads, within string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval").body)


@pytest.mark.parametrize(
    "path", sorted(Path(lotuskit.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_every_annotation_name_is_bound(path):
    # Annotations are not evaluated at run time, so an unbound name in one
    # fails only where something resolves it, as typing.get_type_hints does.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    known = _bound_at_module_level(tree) | set(dir(builtins))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    unbound = {
        (name, annotation.lineno)
        for annotation in annotations
        for name in _annotation_names(annotation)
        if name not in known
    }
    assert sorted(unbound) == []
