"""Span tracing of the marginflow package, installed from outside it.

`install` wraps every public module-level function of every marginflow
module, a few hot methods, the loss callables of each `LossSpec` that
`get_loss` returns, and the scenario table. Modules import functions by
name (`from .gradflow import evaluate_point`), so the wrapper replaces
every binding of a function in every module namespace and module-level
dict, not just the defining one. Nothing under `src/` changes and an
untraced run installs nothing.

A span records its name, start, end and parent in `array` columns kept
in memory and dumped once at the end of a run. Self time is the span's
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap and the self times of all
spans add up to the duration of the root spans. No traced function
re-enters itself, so a name's total time is the plain sum of its span
durations.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("autodiff", "cli", "datasets", "gdtrain", "gradflow", "kkt",
           "losses", "margin", "models", "rates", "runner")
# methods traced by name; class attributes are shared by every caller
METHODS = {
    ("models", "HomogeneousModel", "forward"): "models.forward",
    ("gradflow", "LossUpperBound", "update"): "gradflow.LossUpperBound.update",
    ("gdtrain", "PhiCurve", "correction"): "gdtrain.PhiCurve.correction",
}
LOSS_FIELDS = ("f", "f_prime", "g", "g_prime")
SINKS = ("runner.write_jsonl", "runner.write_csv", "runner.emit_plot_data")


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_flow_step(counts, fn, args, kwargs, out):
    info = out[1]
    counts["gradflow.flow_step.halvings"] += info.halvings
    counts["gradflow.flow_step.accepted"] += info.dt_scaled != 0.0


def _count_lr_epoch(counts, fn, args, kwargs, out):
    counts["gdtrain.loss_based_lr_epoch.retries"] += out[2].retries


def _count_b_constants(counts, fn, args, kwargs, out):
    counts["gdtrain.estimate_b_constants.draws"] += (out.n_sphere
                                                     + out.n_curvature)


def _count_sink(key):
    def hook(counts, fn, args, kwargs, out):
        counts["runner.sinks.records"] += len(_arg(fn, args, kwargs, key))
        counts["runner.sinks.bytes"] += os.path.getsize(
            _arg(fn, args, kwargs, "path"))
    return hook


HOOKS = {
    "gradflow.flow_step": _count_flow_step,
    "gdtrain.loss_based_lr_epoch": _count_lr_epoch,
    "gdtrain.estimate_b_constants": _count_b_constants,
    "runner.write_jsonl": _count_sink("records"),
    "runner.write_csv": _count_sink("rows"),
}


class Tracer:
    """In-memory span store; `wrap` returns a recording wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, fn, args, kwargs, out)
            return out

        return traced

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name[:], dtype=np.int32),
                 parent=np.frombuffer(self.parent[:], dtype=np.int32),
                 start=np.frombuffer(self.start[:], dtype=np.float64),
                 end=np.frombuffer(self.end[:], dtype=np.float64))


def install(tracer: Tracer):
    """Wrap the package's functions; returns a callable that undoes it."""
    mods = {m: importlib.import_module(f"marginflow.{m}") for m in MODULES}
    undo = []
    wrapped = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                span = f"{short}.{name}"
                wrapped[obj] = tracer.wrap(span, obj, HOOKS.get(span))

    get_loss = wrapped[mods["losses"].get_loss]

    def traced_spec(name):
        spec = get_loss(name)
        return dataclasses.replace(spec, **{
            f: tracer.wrap(f"losses.{f}", getattr(spec, f))
            for f in LOSS_FIELDS})

    wrapped[mods["losses"].get_loss] = functools.wraps(get_loss)(traced_spec)

    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append(functools.partial(setattr, mod, name, obj))
                setattr(mod, name, wrapped[obj])
            elif type(obj) is dict:
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        undo.append(functools.partial(obj.__setitem__, key,
                                                      val))
                        obj[key] = wrapped[val]
    scenarios = mods["runner"].SCENARIOS
    for key, fn in list(scenarios.items()):
        undo.append(functools.partial(scenarios.__setitem__, key, fn))
        scenarios[key] = tracer.wrap("runner.scenario", fn)
    for (short, cls_name, meth), span in METHODS.items():
        cls = getattr(mods[short], cls_name)
        fn = vars(cls)[meth]
        undo.append(functools.partial(setattr, cls, meth, fn))
        setattr(cls, meth, tracer.wrap(span, fn, HOOKS.get(span)))

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall


def _pct(sorted_vals: np.ndarray, q: float) -> float | None:
    """Percentile q, reported only with at least ten samples beyond it."""
    n = sorted_vals.size
    if n == 0 or n * (1.0 - q / 100.0) < 10.0:
        return None
    return float(np.percentile(sorted_vals, q))


def span_table(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-span-name and per-layer statistics for spans [lo, hi).

    Spans in the range must be closed and their parents must lie in the
    same range or be roots, which holds for one whole job loop.
    """
    # slicing an array copies it, so no buffer export blocks later appends
    name = np.frombuffer(tracer.name[lo:hi], dtype=np.int32)
    parent = np.frombuffer(tracer.parent[lo:hi], dtype=np.int32)
    dur = (np.frombuffer(tracer.end[lo:hi], dtype=np.float64)
           - np.frombuffer(tracer.start[lo:hi], dtype=np.float64))
    child = np.zeros(hi - lo)
    nested = parent >= 0
    np.add.at(child, parent[nested] - lo, dur[nested])
    self_t = dur - child
    spans = {}
    for nid in np.unique(name):
        sel = name == nid
        d = np.sort(dur[sel]) * 1e6
        spans[tracer.names[nid]] = {
            "calls": int(sel.sum()),
            "self_s": float(self_t[sel].sum()),
            "total_s": float(dur[sel].sum()),
            "p50_us": _pct(d, 50), "p99_us": _pct(d, 99),
        }
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, row in spans.items():
        layer = layers[span.split(".", 1)[0]]
        layer["calls"] += row["calls"]
        layer["self_s"] += row["self_s"]
    return {"spans": spans, "layers": dict(layers),
            "root_s": float(dur[~nested].sum()),
            "self_sum_s": float(self_t.sum()),
            "min_self_s": float(self_t.min()) if self_t.size else 0.0,
            "n_spans": int(hi - lo)}

