"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces the public functions of gossiplab's layer
modules with timing wrappers.  It rebinds every module attribute that
holds one of those functions, so names imported by name (`cli.build_scheme`,
`sim.build_scheme`, `analysis.assemble_Wk`, ...) and module globals reached
from inside the package (`sim.run_trial`, `analysis.expected_matrix`,
`spectra.eigenvalues`) are traced as well.  Nothing in the package itself
changes.

A span records its name, start, end, parent span and run id.  Spans stay
in memory until `write` dumps them.  A span's self time is its duration
minus the time its child spans cover.  `layer_metrics` turns the spans of
one run into the per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "gossiplab"
LAYERS = ("graph", "protocol", "analysis", "spectra", "sim", "svgplot")

# Public names the per-layer metrics read.  A name missing from the
# package (for example a function folded into another) is reported as a
# missing span; its metrics then read 0.
NAMED = (
    "graph.random_geometric_graph", "graph.directify", "graph.load_graph",
    "protocol.build_scheme", "protocol.assemble_Wk",
    "analysis.expected_matrix", "analysis.classify_expectation",
    "analysis.epsilon_report", "analysis.stationary_vector",
    "analysis.second_moment_matrix",
    "spectra.eigenvalues", "spectra.spectral_radius",
    "spectra.left_eigenvector",
    "sim.epsilon_sweep", "sim.monte_carlo", "sim.run_trial",
    "sim.sweep_csv", "sim.trial_csv", "sim.aggregate_csv",
    "sim.aggregate_series", "sim.write_text",
    "svgplot.save_chart",
)

# sim functions that format or write artifacts; every other sim span is
# trial-engine work
SIM_EMIT = ("sim.sweep_csv", "sim.trial_csv", "sim.aggregate_csv",
            "sim.aggregate_series")
SIM_WRITE = ("sim.write_text",)

CLI_SPAN = "cli.main"


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "child",
                 "counts")

    def __init__(self, sid, name, parent, run):
        self.id = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.child = 0.0      # time covered by direct child spans
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span recorder.  `run` is the id stamped on new spans."""

    def __init__(self):
        self.spans = []
        self.run = "setup"
        self.missing = []
        self._stack = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name,
                    None if parent is None else parent.id, self.run)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.duration

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                span.counts = hook(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap the public functions of every layer module and rebind each
        package attribute that refers to one.  Returns the traced names."""
        wrappers = {}
        traced = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{attr}"
                wrappers[obj] = self.wrap(qual, obj, HOOKS.get(qual))
                traced.append(qual)
        prefix = PACKAGE + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        self.missing = [name for name in NAMED if name not in traced]
        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "run": s.run, "start": s.start, "end": s.end,
                    "self": s.self_time,
                }) + "\n")


# ---- hooks: counts taken from arguments and results at the boundary ----

def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _monte_carlo_counts(fn, args, kwargs, result):
    max_iters = _arg(fn, args, kwargs, "max_iters")
    converged = [r.converged_at for r in result.records]
    return {
        "trials": len(result.records) + len(result.failures),
        "failed": len(result.failures),
        "censored": sum(c is None for c in converged),
        "broadcasts": sum(max_iters if c is None else c for c in converged),
    }


def _run_trial_counts(fn, args, kwargs, result):
    return {"series_points": int(result.t_series.size)}


def _lift_counts(fn, args, kwargs, result):
    n = _arg(fn, args, kwargs, "scheme").n
    return {"lift_bytes": 8 * (4 * n * n) ** 2}


def _write_counts(fn, args, kwargs, result):
    return {"bytes_written": os.path.getsize(_arg(fn, args, kwargs, "path"))}


HOOKS = {
    "sim.monte_carlo": _monte_carlo_counts,
    "sim.run_trial": _run_trial_counts,
    "analysis.second_moment_matrix": _lift_counts,
    "sim.write_text": _write_counts,
}


# ---- per-layer metrics ----

def layer_metrics(spans) -> dict:
    """Per-layer metrics of one run of a workload's CLI call sequence.

    `*_s` named after a function is the inclusive time of its calls;
    `<layer>.self_s` is the self time of all the layer's spans, so the
    layer self times and cli.self_s add up to the traced wall time.
    """
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    counts = Counter()
    trial_ms = []
    for s in spans:
        incl[s.name] += s.duration
        own[s.name] += s.self_time
        calls[s.name] += 1
        if s.counts:
            counts.update(s.counts)
        if s.name == "sim.run_trial":
            trial_ms.append(s.duration * 1e3)

    def layer_self(layer):
        return sum((v for k, v in own.items() if k.split(".", 1)[0] == layer), 0.0)

    emit = set(SIM_EMIT) | set(SIM_WRITE)
    engine_s = sum((v for k, v in own.items()
                    if k.startswith("sim.") and k not in emit), 0.0)
    broadcasts = counts["broadcasts"]
    p50 = p90 = 0.0
    if len(trial_ms) >= 2:
        deciles = statistics.quantiles(trial_ms, n=10)
        p50, p90 = deciles[4], deciles[8]
    elif trial_ms:
        p50 = p90 = trial_ms[0]

    m = {
        "graph.generate_s": incl["graph.random_geometric_graph"],
        "graph.directify_s": incl["graph.directify"],
        "graph.load_s": incl["graph.load_graph"],
        "protocol.build_scheme_s": incl["protocol.build_scheme"],
        "protocol.build_scheme_calls": calls["protocol.build_scheme"],
        "protocol.assemble_wk_s": incl["protocol.assemble_Wk"],
        "protocol.assemble_wk_calls": calls["protocol.assemble_Wk"],
        "analysis.expected_matrix_s": incl["analysis.expected_matrix"],
        "analysis.classify_s": incl["analysis.classify_expectation"],
        "analysis.classify_calls": calls["analysis.classify_expectation"],
        "analysis.epsilon_report_s": incl["analysis.epsilon_report"],
        "analysis.stationary_s": incl["analysis.stationary_vector"],
        "analysis.lift_build_s": incl["analysis.second_moment_matrix"],
        "analysis.lift_bytes": counts["lift_bytes"],
        "spectra.eigenvalues_s": incl["spectra.eigenvalues"],
        "spectra.radius_s": incl["spectra.spectral_radius"],
        "spectra.left_eigenvector_s": incl["spectra.left_eigenvector"],
        "sim.engine_s": engine_s,
        "sim.us_per_broadcast": engine_s / broadcasts * 1e6 if broadcasts else 0.0,
        "sim.trial_p50_ms": p50,
        "sim.trial_p90_ms": p90,
        "sim.broadcasts": broadcasts,
        "sim.trials": counts["trials"],
        "sim.censored": counts["censored"],
        "sim.failed": counts["failed"],
        "sim.series_points": counts["series_points"],
        "sim.emit_s": sum((own[k] for k in SIM_EMIT), 0.0),
        "sim.write_s": sum((own[k] for k in SIM_WRITE), 0.0),
        "sim.bytes_written": counts["bytes_written"],
        "svgplot.save_chart_s": incl["svgplot.save_chart"],
        "cli.self_s": own[CLI_SPAN],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    m["trace.spans"] = len(spans)
    return m
