"""Tracer: run one benchmark operation in-process and record spans.

    python3 lotusbench/tracer.py SPANS.json OP_NAME cli ARG...
    python3 lotusbench/tracer.py SPANS.json OP_NAME readback FILE.gds
    python3 lotusbench/tracer.py SPANS.json OP_NAME rngfloor SAMPLES SEED

The tracer times ``import numpy`` and ``import lotuskit.cli``, then wraps
the public functions of every lotuskit module in each namespace that binds
them (``lotuskit.cli.write_gdsii``, ``lotuskit.gradient.cassie_apparent_angle``,
``lotuskit.maskio.pack_record`` ...) and runs the operation: ``lotuskit.cli.run``
on the arguments, or the read-back script.  Nothing in ``src/`` changes.

Layer entry points (``SPANS``) are recorded as spans: name, start, end,
parent span, operation id and self time.  Every other wrapped function is
a hot leaf; its calls are aggregated per parent span as a count, a total
and a self time, because one span per call would double the run time of a
simulation.  Self time is a call's duration minus the time its wrapped
children cover.  All times include the wrappers' own cost.  Spans stay in
memory and are written to SPANS.json when the operation ends.

``rngfloor`` draws the Monte Carlo random stream alone, chunk by chunk with
the same ``SeedSequence`` derivation as ``monte_carlo_fraction``: the time
the kernel's classification can never beat.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

#: The modules of ``src/lotuskit`` whose public functions are wrapped.
LAYERS = ("cli", "config", "reference", "wetting", "lattice", "gradient", "gdsii", "maskio")

#: Layer entry points recorded as one span per call.
SPANS = frozenset({
    "cli.run",
    "config.load_config",
    "config.default_config",
    "config.resolve_out_dir",
    "reference.build_validation_report",
    "reference.reference_two_zone_layout",
    "lattice.build_two_zone_layout",
    "lattice.check_design_rules",
    "lattice.monte_carlo_fraction",
    "gradient.design_linear_gradient",
    "gradient.simulate_droplet",
    "gradient.trace_to_csv",
    "maskio.write_gdsii",
    "maskio.read_gdsii",
    "maskio.write_svg",
    "maskio.layout_stats",
    "maskio.MaskGeometry.expand",
})

#: Counters filled from a call's arguments and result: name -> (counter, amount).
HOOKS = {
    "gradient.simulate_droplet": ("gradient.steps", lambda args, result: len(result.steps)),
    "gradient.design_linear_gradient": (
        "gradient.design_columns", lambda args, result: len(result.columns)),
    "maskio.write_gdsii": ("maskio.bytes_written", lambda args, result: len(result)),
    "maskio.read_gdsii": ("maskio.bytes_read", lambda args, result: len(args[0])),
    "maskio.MaskGeometry.expand": (
        "maskio.polygons_expanded", lambda args, result: len(result)),
}

#: Generator functions whose yielded items are counted (not timed).
GENERATORS = {"gdsii.iter_records": "gdsii.records_walked"}

#: Methods wrapped on their class: (module, class, method).
METHODS = (("maskio", "MaskGeometry", "expand"),)


class Tracer:
    """Holds the spans, leaf aggregates and counters of one operation."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list = []
        self.leaves: dict[str, dict[int, list]] = {}
        self.busy: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.stack: list[list] = []  # frames: [child_time, module, span_index]
        self.thread = threading.get_ident()

    def wrap(self, fn, name: str):
        if name in SPANS:
            return self._span(fn, name)
        return self._leaf(fn, name)

    def _span(self, fn, name: str):
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        stack, spans, counters, busy = self.stack, self.spans, self.counters, self.busy
        op, thread, perf, get_ident = self.op, self.thread, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != thread:  # worker threads run unrecorded
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [0.0, module, index]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                if parent is None or parent[1] != module:
                    busy[module] = busy.get(module, 0.0) + end - start
                parent_span = parent[2] if parent is not None else -1
                spans[index] = [name, start, end, parent_span, op, end - start - frame[0]]
            if hook is not None:
                counter, amount = hook
                counters[counter] = counters.get(counter, 0) + amount(args, result)
            return result

        return wrapper

    def _leaf(self, fn, name: str):
        module = name.split(".", 1)[0]
        aggregates: dict[int, list] = {}  # parent span -> [count, total, self]
        self.leaves[name] = aggregates
        stack, busy = self.stack, self.busy
        thread, perf, get_ident = self.thread, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != thread or not stack:  # only inside a recorded span
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, module, parent[2]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                parent[0] += duration
                if parent[1] != module:
                    busy[module] = busy.get(module, 0.0) + duration
                agg = aggregates.get(parent[2])
                if agg is None:
                    aggregates[parent[2]] = [1, duration, duration - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]

        return wrapper

    def count_items(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] = counters.get(counter, 0) + 1
                yield item

        return wrapper

    def install(self) -> list[str]:
        """Wrap every public function in each lotuskit namespace binding it."""
        replacements: dict[int, object] = {}
        wrapped = []
        for layer in LAYERS:
            module = importlib.import_module(f"lotuskit.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in GENERATORS:
                    replacements[id(fn)] = self.count_items(fn, GENERATORS[name])
                else:
                    replacements[id(fn)] = self.wrap(fn, name)
                wrapped.append(name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "lotuskit" and not module_name.startswith("lotuskit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        for layer, class_name, method in METHODS:
            cls = getattr(importlib.import_module(f"lotuskit.{layer}"), class_name, None)
            fn = getattr(cls, method, None)
            if inspect.isfunction(fn):
                name = f"{layer}.{class_name}.{method}"
                setattr(cls, method, self.wrap(fn, name))
                wrapped.append(name)
        return wrapped

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [
                [parent, name, *agg]
                for name, aggregates in self.leaves.items()
                for parent, agg in aggregates.items()
            ],
            "busy": self.busy,
            "counters": self.counters,
        }


def _rng_floor(samples: int, seed: int, extra: dict, missing: list[str]) -> None:
    import numpy as np
    from lotuskit import lattice

    chunk = getattr(lattice, "_MC_CHUNK", None)
    if not isinstance(chunk, int):
        missing.append("lattice._MC_CHUNK")
        return
    start = time.perf_counter()
    for index, offset in enumerate(range(0, samples, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        rng.random((min(chunk, samples - offset), 2))
    extra["lattice.mc_rng_floor_s"] = time.perf_counter() - start


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] not in ("cli", "readback", "rngfloor"):
        print("usage: tracer.py SPANS.json OP_NAME {cli|readback|rngfloor} ARG...",
              file=sys.stderr)
        return 2
    out_path, op, kind, rest = argv[0], argv[1], argv[2], argv[3:]
    sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
    imports = {}
    start = time.perf_counter()
    import numpy  # noqa: F401

    imports["numpy_s"] = time.perf_counter() - start
    import lotuskit.cli

    imports["cli_s"] = time.perf_counter() - start
    tracer = Tracer(op)
    wrapped: list[str] = []
    missing: list[str] = []
    extra: dict[str, float] = {}
    code = 1
    try:
        if kind == "rngfloor":
            _rng_floor(int(rest[0]), int(rest[1]), extra, missing)
            code = 0
        else:
            wrapped = tracer.install()
            missing = [
                name for name in (*SPANS, *HOOKS, *GENERATORS) if name not in wrapped
            ]
            if kind == "cli":
                code = lotuskit.cli.run(rest)
            else:
                import readback

                code = readback.main(rest)
    finally:
        sys.stdout.flush()
        record = {
            "op": op,
            "imports": imports,
            "wrapped": wrapped,
            "missing": sorted(set(missing)),
            "extra": extra,
            **tracer.dump(),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
