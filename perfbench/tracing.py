"""Spans and counters for traced benchmark runs, recorded from outside okamoto.

`Recorder.install` swaps the library's public functions for timing wrappers.
It looks each original up by identity in every loaded ``okamoto`` module, so
the names imported into ``okamoto.cli``, ``okamoto.geometry`` and the package
itself are wrapped as well; `Recorder.restore` puts the originals back.
An untraced run installs nothing.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (None at top level) and ``request`` the id the benchmark
assigned to the operation that caused it.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _mode(args, kwargs):
    """Arithmetic mode of the Parameter passed first or as ``a``."""
    return (args[0] if args else kwargs["a"]).mode


def _to_ternary(rec, args, kwargs, res):
    rec.counts["ternary.to_ternary.digits"] += len(res.digits)
    rec.counts["ternary.to_ternary.terminated"] += not res.is_truncation


def _eval(rec, args, kwargs, res):
    rec.counts["function.eval_digit_series.digits_used"] += res.digits_used
    rec.counts["function.eval_digit_series.returned"] += 1


def _refine(rec, args, kwargs, res):
    n = len(res.vertices)
    rec.counts["function.vertices"] += n
    rec.counts["function.array_bytes"] += getattr(res.vertices, "nbytes", 0)
    if rec.geometry_depth:
        rec.counts["geometry.vertices"] += n


def _levels(rec, args, kwargs, res):
    rec.counts["geometry.levels"] += len(res) if isinstance(res, list) else len(res.levels)


def _chaos(rec, args, kwargs, res):
    rec.counts["geometry.chaos_game.points"] += len(res.points)


def _trace_digits(rec, args, kwargs, res):
    rec.counts["differentiability.derivative_trace.digits"] += len(res.values)


# module -> {function name: (span name, or a function of the call giving it; counter hook)}
WRAPPED = {
    "okamoto.ternary": {
        "to_ternary": ("ternary.to_ternary", _to_ternary),
        "ternary_rational": ("ternary.ternary_rational", None),
        "digit_stats": ("ternary.digit_stats", None),
    },
    "okamoto.function": {
        "eval_digit_series": (
            lambda args, kwargs: "function.eval_digit_series." + _mode(args, kwargs), _eval),
        "construct_iteration": ("function.construct_iteration", None),
        "refine": (lambda args, kwargs: "function.refine." + _mode(args[1:], kwargs), _refine),
        "sample_graph": ("function.sample_graph", None),
    },
    "okamoto.geometry": {
        "arc_length_profile": ("geometry.arc_length_profile", _levels),
        "cover_profile": ("geometry.cover_profile", _levels),
        "square_grid_counts": ("geometry.square_grid_counts", _levels),
        "dimension_estimate": ("geometry.dimension_estimate", None),
        "chaos_game": ("geometry.chaos_game", _chaos),
        "mass_bound_check": ("geometry.mass_bound_check", None),
    },
    "okamoto.cli": {
        # one span per command, named after the subcommand: main's self time is
        # argument parsing, formatting and writing
        "main": (lambda args, kwargs: "cli." + (args[0] if args else kwargs["argv"])[0], None),
    },
    "okamoto.differentiability": {
        "derivative_trace": ("differentiability.derivative_trace", _trace_digits),
        "digit_frequency_experiment": ("differentiability.digit_frequency_experiment", None),
        "region_classify": ("differentiability.region_classify", None),
    },
}


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request = None
        self.geometry_depth = 0
        self._patched: list[tuple] = []

    def wrap(self, name, fn, hook=None):
        rec = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            geometry = span_name.startswith("geometry.")
            span = [span_name, 0.0, 0.0, rec.stack[-1] if rec.stack else None, rec.request]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            rec.geometry_depth += geometry
            try:
                span[1] = perf()
                result = fn(*args, **kwargs)
                span[2] = perf()
            except Exception as exc:
                span[2] = perf()
                rec.counts[f"{span_name}.exc.{type(exc).__name__}"] += 1
                raise
            finally:
                rec.stack.pop()
                rec.geometry_depth -= geometry
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        originals = {}
        for modname, table in WRAPPED.items():
            mod = importlib.import_module(modname)
            for fname, (name, hook) in table.items():
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self.wrap(name, fn, hook))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "okamoto" or modname.startswith("okamoto.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans, start: int = 0) -> tuple[dict, dict, float]:
    """Per-name (self seconds, calls) of spans[start:], and their top-level total.

    A span's self time is its duration minus the durations of its direct
    children; the process is single-threaded, so children never overlap.
    Parents are indices into the whole list."""
    child = defaultdict(float)
    top = 0.0
    for name, begin, end, parent, _ in spans[start:]:
        if parent is None:
            top += end - begin
        else:
            child[parent] += end - begin
    self_s, calls = defaultdict(float), defaultdict(int)
    for i, (name, begin, end, parent, _) in enumerate(spans[start:], start):
        self_s[name] += end - begin - child.get(i, 0.0)
        calls[name] += 1
    return self_s, calls, top
