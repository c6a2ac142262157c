"""The in-process workloads as lists of jobs calling okamoto's public API.

A job is a named list of operations.  Every call goes through an attribute
of the ``okamoto`` package at call time, so a traced run sees it through the
installed wrappers.  `digest` turns one result into plain JSON data that the
checker compares with its references; it runs outside the timed region.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import okamoto as ok
import okamoto.cli

import workloads as W


@dataclass
class Job:
    name: str
    mode: str  # "exact" or "float": which arithmetic the library runs in
    items: list
    op: Callable[[Any], Any]
    digest: Callable[[Any], Any]


def num(v) -> str:
    """A Fraction as 'p/q', anything else as the repr of its float."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def _eval_digest(r):
    return [num(r.value), num(r.error_bound), r.digits_used]


def _chunks(name, mode, items, size, op):
    return [Job(f"{name}.{i // size}", mode, items[i:i + size], op, _eval_digest)
            for i in range(0, len(items), size)]


def eval_jobs(inp, workdir) -> list[Job]:
    """Point evaluations; chunks of about 0.15 s keep per-job timings short."""
    tol = W.TOL
    a = ok.Parameter(Fraction(*W.EXACT_GRID["a"]))
    level = W.EXACT_GRID["level"]
    jobs = _chunks("exact_grid", "exact", list(range(3**level + 1)), 800,
                   lambda k: ok.eval_digit_series(a, ok.ternary_rational(k, level), tol))
    a7 = ok.Parameter(Fraction(*W.EXACT_RANDOM["a"]))
    den, nd = W.EXACT_RANDOM["den"], W.EXACT_RANDOM["digits"]
    jobs += _chunks("exact_random", "exact", inp["exact_random_m"], 100,
                    lambda m: ok.eval_digit_series(a7, ok.to_ternary(Fraction(m, den), nd), tol))
    nd = W.FLOAT_RANDOM["digits"]
    for av, xs in zip(W.FLOAT_RANDOM["a"], inp["float_random_x"]):
        pa = ok.Parameter(av)
        jobs += _chunks(W.float_random_name(av), "float", xs, 300,
                        lambda x, pa=pa: ok.eval_digit_series(pa, ok.to_ternary(x, nd), tol))
    pa = ok.Parameter(W.FLOAT_GRID["a"])
    n, nd = 3 ** W.FLOAT_GRID["level"], W.FLOAT_GRID["digits"]
    jobs += _chunks("float_grid", "float", [k / n for k in range(n + 1)], 1600,
                    lambda x: ok.eval_digit_series(pa, ok.to_ternary(x, nd), tol))
    return jobs


def _single(name, mode, op, digest) -> Job:
    return Job(name, mode, [None], lambda _: op(), digest)


def analysis_jobs(inp, workdir) -> list[Job]:
    """Construction, geometry and differentiability calls, one result each."""
    P = ok.Parameter
    c = W.CONSTRUCT
    jobs = [_single(
        "construct_exact", "exact",
        lambda: ok.construct_iteration(P(Fraction(*c["a"])), c["level"]),
        lambda g: {"level": g.level, "n": len(g.vertices),
                   "sample": [num(g.vertices[k]) for k in inp["construct_k"]]})]

    def profile(p):
        return {k: list(getattr(p, k)) for k in vars(p) if k != "a"}

    for case in W.ARC:
        jobs.append(_single(f"arc_length_{case['a']}", "float",
                            lambda case=case: ok.arc_length_profile(P(case["a"]), case["level"]),
                            profile))
    jobs.append(_single("cover", "float",
                        lambda: ok.cover_profile(P(W.COVER["a"]), W.COVER["level"]), profile))

    def dim_digest(e):
        return {"slope": e.slope, "reference": e.reference, "method": e.method}

    for key, case, method in (("dim_square", W.DIM_SQUARE, "square"),
                              ("dim_column", W.DIM_COLUMN, "column")):
        jobs.append(_single(key, "float", lambda case=case, method=method: ok.dimension_estimate(
            P(case["a"]), case["lo"], case["hi"], method), dim_digest))

    ch = W.CHAOS

    def chaos():
        sample = ok.chaos_game(P(ch["a"]), ch["n"], seed=inp["chaos_seed"])
        return sample, ok.mass_bound_check(sample, ch["grid_level"])

    def chaos_digest(res):
        sample, report = res
        pts = sample.points
        return {"n": len(pts), "rows": [[repr(float(pts[t, 0])), repr(float(pts[t, 1]))]
                                        for t in inp["chaos_rows"]],
                "min": float(pts.min()), "max": float(pts.max()),
                "grid_level": report.grid_level, "bound": report.bound,
                "max_ratio": report.max_ratio, "flagged": len(report.flagged),
                "mass": float(report.ratios.sum() * report.bound)}

    jobs.append(_single("chaos", "float", chaos, chaos_digest))

    streams = [ok.TernaryExpansion(tuple(s)) for s in inp["streams"]]
    n = W.TRACE["digits"]
    for av in W.TRACE["a"]:
        pa = P(av)
        jobs.append(_single(
            f"derivative_trace_{av}", "float",
            lambda pa=pa: [ok.derivative_trace(pa, s, n) for s in streams],
            lambda traces: [{"ones": t.stats.ones_count, "diverged": t.diverged,
                             "values": [repr(float(t.values[m - 1])) for m in inp["trace_m"]]}
                            for t in traces]))
    jobs.append(_single(
        "digit_frequency", "float",
        lambda: ok.digit_frequency_experiment(W.FREQ["samples"], W.FREQ["digits"],
                                              inp["freq_seed"]),
        lambda s: {k: getattr(s, k) for k in ("samples", "n", "seed", "mean", "min", "max",
                                              "fraction_within")}))
    return jobs


def cli_jobs(inp, workdir) -> list[Job]:
    """Each command through ``okamoto.cli.main``, as the console script runs it
    once the interpreter is up, with standard output sent to a file."""
    jobs = []
    for name, mode, argv, stdout, out in W.cli_argv(inp, workdir):
        def op(_, argv=argv, stdout=stdout):
            with open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
                return okamoto.cli.main(argv)

        jobs.append(Job(name, mode, [None], op, lambda rc, stdout=stdout, out=out: {
            "rc": rc, "sha256": W.output_digest(stdout, out)}))
    return jobs


JOBS = {"eval": eval_jobs, "analysis": analysis_jobs, "cli": cli_jobs}
