"""The benchmark tracer's contract with lotuskit's public names.

``lotusbench/tracer.py`` wraps lotuskit's public functions by name, and
``lotusbench/run.py`` reads its per-layer metrics from what was wrapped.  A
renamed function, or one dropped from its module's ``__all__``, makes a
metric quietly absent.  So a child process loads the tracer by path,
installs it, and runs a small arrayed gradient export, its read-back and
expand, and a short droplet simulation through the wrapped names.  The
test only reads ``lotusbench/``.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lotuskit

_SRC = Path(lotuskit.__file__).resolve().parent.parent
_BENCH = _SRC.parent / "lotusbench"

# Prints, as JSON, the tracer's own names, what install() wrapped and the
# counters that the hooks filled, with the sizes they should have counted.
_PROBE = textwrap.dedent(
    """
    import importlib.util, json, sys
    spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    probe = tracer.Tracer("probe")
    wrapped = probe.install()

    from lotuskit import gradient, maskio, wetting
    spec = gradient.GradientSpec(
        length=400_000, lateral_width=40_000, pitch=4000, f_start=0.19, f_end=0.4375
    )
    design = gradient.design_linear_gradient(spec)
    polygons = maskio.read_gdsii(maskio.write_gdsii(design)).expand()
    droplet = wetting.Droplet(volume=1e-12, position=100e-6)
    trace = gradient.simulate_droplet(design, droplet, wetting.WATER_ON_PMMA, max_steps=20)
    print(json.dumps({
        "traced": sorted({*tracer.SPANS, *tracer.HOOKS, *tracer.GENERATORS}),
        "wrapped": wrapped,
        "counters": probe.counters,
        "expected": {
            "gradient.design_columns": len(design.columns),
            "gradient.steps": len(trace.steps),
            "maskio.polygons_expanded": len(polygons),
        },
    }))
    """
)


def _functions_read_by_layer_metrics() -> set[str]:
    """The function names that run.py's layer_metrics reads from a profile."""
    tree = ast.parse((_BENCH / "run.py").read_text(encoding="utf-8"))
    (layer_metrics,) = (
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    position = {"calls": 0, "dur": 0, "self_s": 0, "counter": 2}  # where the name is
    names = set()
    for node in ast.walk(layer_metrics):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in position
        ):
            names.add(ast.literal_eval(node.args[position[node.func.id]]))
    return names


def test_tracer_wraps_every_name_it_and_run_py_read():
    result = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE, str(_BENCH / "tracer.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        timeout=120,
        check=True,
    )
    probe = json.loads(result.stdout)
    read = _functions_read_by_layer_metrics()
    assert read, "no function names found in run.py's layer_metrics"
    unwrapped = sorted((set(probe["traced"]) | read) - set(probe["wrapped"]))
    assert unwrapped == []
    for counter, size in probe["expected"].items():
        assert size > 0
        assert probe["counters"].get(counter) == size, counter
