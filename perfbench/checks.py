"""Independent references for every output the workloads produce.

Nothing here imports okamoto.  Exact grid values come from
``tests/oracles.okamoto_recursive`` (direct interval subdivision); other
values of F_a come from `series_reference`, a fixed-point digit series with
an explicit error bound; the rest are closed forms from the paper:
``TV_i = (2a+|1-2a|)^i``, ``A_i = ((4a-1)/3)^i``, ``N_i = (12a-3)^i``,
``dim = log3(12a-3)`` and ``D_m = (3-6a)^ones (3a)^(m-ones)``.

Every check returns a list of failure messages, one per failed operation.
Float outputs are compared in the library's own float parameter, i.e. with
``Fraction(a_float)`` as the exact reference parameter.
"""
from __future__ import annotations

import importlib.util
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)
okamoto_recursive = oracles.okamoto_recursive

# Float evaluation rounds; the library's float error_bound covers only series
# truncation, so float values may also miss by the a-priori rounding error of
# an n-term evaluation, (3n+3) u C with u = 2^-53 and C = max(a,1-a)/(1-r).
U = Fraction(1, 2**53)
FIXED_BITS = 200
# Rows of a float polyline built by 11 levels of refinement
POLYLINE_TOL = 1e-12
SQUARE_DIM_TOL = 0.05  # criterion 6 of tests/test_acceptance.py
COLUMN_DIM_TOL = 1e-6
# a point (x, y) is on the graph when y lies in the range of F over a level-20
# column within X_TOL of x, widened by Y_TOL: both cover float rounding
COLUMN_DEPTH, X_TOL, Y_TOL = 20, Fraction(1, 10**14), Fraction(1, 10**12)


def frac(text: str) -> Fraction:
    """'p/q' or a float repr, exactly."""
    return Fraction(text) if "/" in text else Fraction(float(text))


def _tail_factor(a: Fraction) -> Fraction:
    """C with |F_a(x) - (sum of the first n terms)| <= |prod_n| * C."""
    return max(a, 1 - a) / (1 - max(a, abs(1 - 2 * a)))


def series_reference(a: Fraction, x: Fraction):
    """F_a(x) from the exact ternary digits of x: (value, error bound).

    The sum runs in fixed point with FIXED_BITS fraction bits: each product
    and term is truncated by at most one unit, and |m(d)| <= 1 keeps earlier
    truncations from growing, so n digits add at most n^2 units.  It stops
    when the running product drops below 2^-150, or when x's expansion ends;
    the tail after n digits is at most |prod_n| * C."""
    if x == 1:
        return Fraction(1), Fraction(0)
    p, q = a.numerator, a.denominator
    off, mul = (0, p, q - p), (p, q - 2 * p, p)
    num, den = x.numerator, x.denominator
    one = 1 << FIXED_BITS
    value, prod, n = 0, one, 0
    while abs(prod) >= one >> 150:
        num *= 3
        d = num // den
        num -= d * den
        value += prod * off[d] // q
        prod = prod * mul[d] // q
        n += 1
        if num == 0:
            return Fraction(value, one), Fraction(n * n, one)
    tail = (abs(prod) + n) * _tail_factor(a)
    return Fraction(value, one), (tail + n * n) / one


def _eval_failure(a: Fraction, x: Fraction, out, exact: bool, stats=None):
    if isinstance(out, dict):
        return f"F({float(a)}, {float(x)!r}) raised {out['error']}"
    value, bound, used = frac(out[0]), frac(out[1]), int(out[2])
    ref, tail = series_reference(a, x)
    err = abs(value - ref)
    if err > bound + tail and stats is not None:
        stats["bound_exceeded"] += 1
    allowance = 0 if exact else (3 * max(used, 1) + 3) * U * _tail_factor(a)
    if err > bound + tail + allowance:
        return f"F({float(a)}, {float(x)!r}): error {float(err):.3g} > bound {float(bound):.3g}"
    return None


def _grouped(outputs: dict, group: str) -> list:
    """The outputs of every chunk 'group.<i>' in order, concatenated."""
    return [out for name, outs in outputs.items() if name.rsplit(".", 1)[0] == group
            for out in outs]


def check_eval(inp, outputs, stats):
    """Every point of the warm-up pass against its reference."""
    fails = []
    a, level = Fraction(*W.EXACT_GRID["a"]), W.EXACT_GRID["level"]
    got = _grouped(outputs, "exact_grid")
    for k, out in enumerate(got):
        ref = okamoto_recursive(a, Fraction(k, 3**level), level)
        if frac(out[0]) != ref or frac(out[1]) != 0:
            fails.append(f"exact grid k={k}: {out[0]} != {ref}")
    cases = [(len(got), 3**level + 1)]
    a = Fraction(*W.EXACT_RANDOM["a"])
    got = _grouped(outputs, "exact_random")
    for m, out in zip(inp["exact_random_m"], got):
        fails.append(_eval_failure(a, Fraction(m, W.EXACT_RANDOM["den"]), out, True))
    cases.append((len(got), W.EXACT_RANDOM["count"]))
    for av, xs in zip(W.FLOAT_RANDOM["a"], inp["float_random_x"]):
        got = _grouped(outputs, W.float_random_name(av))
        for x, out in zip(xs, got):
            fails.append(_eval_failure(Fraction(av), Fraction(x), out, False, stats=stats))
        cases.append((len(got), W.FLOAT_RANDOM["count"]))
    a, level = Fraction(W.FLOAT_GRID["a"]), W.FLOAT_GRID["level"]
    got = _grouped(outputs, "float_grid")
    for k, out in enumerate(got):
        # the float k/3^8 stands for the ternary rational it is closest to
        x = Fraction(k, 3**level)
        fails.append(_eval_failure(a, x, out, False, stats=stats))
    cases.append((len(got), 3**level + 1))
    fails += [f"{n} outputs where {want} were expected" for n, want in cases if n != want]
    return [f for f in fails if f]


def _close(got, want, rel=0.0, abs_=0.0):
    return abs(got - want) <= max(rel * abs(want), abs_)


def _arc_failures(av, levels, euclid, manhattan, tv):
    fails = []
    rate = 2 * av + abs(1 - 2 * av)
    prev = 0.0
    for i, le, ma, t in zip(levels, euclid, manhattan, tv):
        ok = (_close(t, rate**i, rel=1e-9) and _close(ma, 1 + t, abs_=1e-9)
              and max(1.0, t, math.sqrt(2)) - 1e-9 <= le <= 1 + t + 1e-9 and le >= prev - 1e-12)
        if not ok:
            fails.append(f"arc length a={av} level {i}: L={le} TV={t}")
        prev = le
    return fails


def _on_graph(a: Fraction, x: float, y: float) -> bool:
    """Whether (x, y) lies on the graph of F_a, up to float rounding.

    Over a level-m column F ranges exactly between its two endpoint values,
    because the column's piece of the graph is an affine image of the whole
    graph and F([0,1]) = [0,1]."""
    m = COLUMN_DEPTH
    n = 3**m
    X, Y = Fraction(x), Fraction(y)
    k = math.floor(X * n)
    for c in (k - 1, k, k + 1):
        if not 0 <= c < n or X < Fraction(c, n) - X_TOL or X > Fraction(c + 1, n) + X_TOL:
            continue
        lo = okamoto_recursive(a, Fraction(c, n), m)
        hi = okamoto_recursive(a, Fraction(c + 1, n), m)
        if min(lo, hi) - Y_TOL <= Y <= max(lo, hi) + Y_TOL:
            return True
    return False


def _dtrace_reference(av: float, digits, m: int):
    with mpmath.workprec(256):
        a = mpmath.mpf(av)
        ones = sum(1 for d in digits[:m] if d == 1)
        return (3 - 6 * a) ** ones * (3 * a) ** (m - ones)


def _frequency_reference(samples, n, seed):
    ratios = np.array([np.count_nonzero(np.random.default_rng([seed, i]).integers(0, 3, size=n)
                                        == 1) / n for i in range(samples)])
    return {"mean": float(ratios.mean()), "min": float(ratios.min()),
            "max": float(ratios.max()),
            "fraction_within": float(np.mean(np.abs(ratios - 1 / 3) <= 0.02))}


def check_analysis(inp, outputs, stats):
    fails = []
    out = {name: outs[0] for name, outs in outputs.items()}
    for name, d in out.items():
        if "error" in d:
            fails.append(f"{name}: raised {d['error']}")
    out = {k: v for k, v in out.items() if "error" not in v}
    c = W.CONSTRUCT
    if "construct_exact" in out:
        d = out["construct_exact"]
        a, n = Fraction(*c["a"]), 3 ** c["level"]
        bad = [k for k, s in zip(inp["construct_k"], d["sample"])
               if frac(s) != okamoto_recursive(a, Fraction(k, n), c["level"])]
        if d["level"] != c["level"] or d["n"] != n + 1 or bad:
            fails.append(f"construct_iteration(3/5, 9): n={d['n']}, wrong vertices {bad[:5]}")
    for case in W.ARC:
        d = out.get(f"arc_length_{case['a']}")
        if d is not None:
            if d["levels"] != list(range(case["level"] + 1)):
                fails.append(f"arc length a={case['a']}: levels {d['levels']}")
            fails += _arc_failures(case["a"], d["levels"], d["euclidean"], d["manhattan"],
                                   d["total_variation"])[:1]
    if "cover" in out:
        d, av = out["cover"], W.COVER["a"]
        bad = [i for i in d["levels"]
               if not (_close(d["delta"][i], 3.0**-i, rel=1e-12)
                       and _close(d["area"][i], ((4 * av - 1) / 3) ** i, abs_=1e-12)
                       and _close(d["boxes"][i], (12 * av - 3) ** i, rel=1e-9))]
        if bad or len(d["levels"]) != W.COVER["level"] + 1:
            fails.append(f"cover profile a={av}: levels {bad[:5]} off the closed form")
    for name, case, tol in (("dim_square", W.DIM_SQUARE, SQUARE_DIM_TOL),
                            ("dim_column", W.DIM_COLUMN, COLUMN_DIM_TOL)):
        if name in out:
            ref = math.log(12 * case["a"] - 3) / math.log(3)
            d = out[name]
            if abs(d["slope"] - ref) >= tol or not _close(d["reference"], ref, rel=1e-12):
                fails.append(f"{name}: slope {d['slope']} vs log3(12a-3) = {ref}")
    if "chaos" in out:
        d, ch = out["chaos"], W.CHAOS
        a = Fraction(ch["a"])
        off = [t for t, (x, y) in zip(inp["chaos_rows"], d["rows"])
               if not _on_graph(a, float(x), float(y))]
        s = math.log(12 * ch["a"] - 3) / math.log(3)
        bound = (12 * ch["a"] - 3) * (math.sqrt(2) * 3.0 ** -ch["grid_level"]) ** s
        if d["n"] != ch["n"] or d["min"] < 0 or d["max"] > 1 or off:
            fails.append(f"chaos game: n={d['n']}, rows off the graph {off[:5]}")
        # the bound is a theorem; flagged cells would need 20% excess mass
        if not (_close(d["bound"], bound, rel=1e-12) and _close(d["mass"], 1.0, abs_=1e-9)
                and d["flagged"] == 0 and d["grid_level"] == ch["grid_level"]):
            fails.append(f"mass bound check: {d}")
    for av in W.TRACE["a"]:
        traces = out.get(f"derivative_trace_{av}")
        if traces is None:
            continue
        bad = 0
        for digits, t in zip(inp["streams"], traces):
            ok = t["ones"] == digits.count(1) and not t["diverged"]
            for m, v in zip(inp["trace_m"], t["values"]):
                ref = _dtrace_reference(av, digits, m)
                ok = ok and abs(mpmath.mpf(v) - ref) <= 1e-12 * abs(ref)
            bad += not ok
        if bad or len(traces) != len(inp["streams"]):
            fails.append(f"derivative_trace a={av}: {bad} traces off (3-6a)^ones (3a)^(m-ones)")
    if "digit_frequency" in out:
        d = out["digit_frequency"]
        ref = _frequency_reference(W.FREQ["samples"], W.FREQ["digits"], inp["freq_seed"])
        if (d["samples"], d["n"], d["seed"]) != (W.FREQ["samples"], W.FREQ["digits"],
                                                  inp["freq_seed"]) or any(
                not _close(d[k], v, abs_=1e-12) for k, v in ref.items()):
            fails.append(f"digit_frequency_experiment: {d} vs {ref}")
    return fails


# ---- CLI outputs ------------------------------------------------------------

def _fields(text: str) -> dict:
    """'key = value' lines of a text report."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _rows(text: str, header: str):
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# ") or lines[1] != header:
        raise ValueError(f"expected a '# ...' line, then {header!r}")
    return [line.split(",") for line in lines[2:] if not line.startswith("#")]


def _sample(rng, n, k):
    return sorted({0, n - 1, *rng.sample(range(n), min(k, n))})


def check_cli(inp: dict, outputs: dict, workdir: Path) -> list[str]:
    """Each command's exit code and the output files it left in workdir."""
    fails = []
    for name, _, _, stdout, out in W.cli_argv(inp, workdir):
        rc = outputs[name][0].get("rc")
        if rc != 0:
            fails.append(f"{name}: exit code {rc} {outputs[name][0].get('error', '')}")
            continue
        rng = random.Random(f"rows/{inp['seed']}/{name}")
        try:
            fails += _CLI_CHECKS[name](inp, stdout.read_text(),
                                       out.read_text() if out else None, rng)
        except (ValueError, KeyError, IndexError, ZeroDivisionError, AttributeError) as exc:
            fails.append(f"{name}: unreadable output ({exc!r})")
    return fails


def _cli_chaos(inp, stdout, text, rng):
    rows = _rows(text, "x,y,step")
    n = W.CLI_CHAOS_N
    xy = np.array([(float(r[0]), float(r[1])) for r in rows])
    steps_ok = len(rows) == n and all(int(r[2]) == t for t, r in enumerate(rows))
    a = Fraction(2 / 3)
    off = [t for t in _sample(rng, n, W.CLI_SAMPLE)
           if t >= len(rows) or not _on_graph(a, xy[t, 0], xy[t, 1])]
    if not steps_ok or off or xy.min() < 0 or xy.max() > 1 or f"seed={inp['seed']}" not in text:
        return [f"chaos: {len(rows)} rows, steps ok {steps_ok}, rows off the graph {off[:5]}"]
    return []


def _polyline_failures(name, a, level, xs, ys, rng, tol_x, tol_y):
    """Row k must be (k/3^level, F_a(k/3^level)); y is checked on a sample."""
    n = 3**level
    if len(xs) != n + 1:
        return [f"{name}: {len(xs)} rows, expected {n + 1}"]
    grid = (lambda k: Fraction(k, n)) if tol_x == 0 else (lambda k: k / n)
    bad_x = [k for k in range(n + 1) if abs(xs[k] - grid(k)) > tol_x]
    bad_y = [k for k in _sample(rng, n + 1, W.CLI_SAMPLE)
             if abs(frac(ys[k]) - okamoto_recursive(a, Fraction(k, n), level)) > tol_y]
    if bad_x or bad_y:
        return [f"{name}: x off the grid at {bad_x[:5]}, y off F_a at {bad_y[:5]}"]
    return []


def _cli_iterate(inp, stdout, text, rng):
    rows = _rows(text, "x,y")
    return _polyline_failures("iterate --a 0.7 --level 11", Fraction(0.7), 11,
                              [float(r[0]) for r in rows], [r[1] for r in rows], rng,
                              1e-16, POLYLINE_TOL)


def _cli_iterate_exact(inp, stdout, text, rng):
    rows = _rows(stdout, "x,y")
    return _polyline_failures("iterate --a 3/5 --level 9", Fraction(3, 5), 9,
                              [Fraction(r[0]) for r in rows], [r[1] for r in rows], rng, 0, 0)


def _cli_iterate_svg(inp, stdout, text, rng):
    pts = [p.split(",") for p in re.search(r'points="([^"]*)"', text).group(1).split()]
    # coordinates carry 8 significant digits; y is flipped to 1 - y
    return _polyline_failures("iterate --format svg", Fraction(0.7), 9,
                              [float(p[0]) for p in pts], [repr(1 - float(p[1])) for p in pts],
                              rng, 1e-8, 1e-8)


def _cli_dim(inp, stdout, text, rng):
    rows = _rows(stdout, "level,delta,area,boxes,log_inv_delta,log_boxes")
    av = 0.9
    slope = float(re.search(r"slope=(\S+)", stdout).group(1))
    ref = math.log(12 * av - 3) / math.log(3)
    bad = [r[0] for r in rows if not _close(float(r[3]), (12 * av - 3) ** int(r[0]), rel=1e-9)]
    if [int(r[0]) for r in rows] != list(range(1, 13)) or bad or abs(slope - ref) >= SQUARE_DIM_TOL:
        return [f"dim: levels off the box-count law {bad}, slope {slope} vs {ref}"]
    return []


def _cli_arclength(inp, stdout, text, rng):
    rows = _rows(stdout, "level,euclidean_length,manhattan_length,total_variation")
    cols = list(zip(*[[float(v) for v in r] for r in rows]))
    levels = [int(v) for v in cols[0]]
    fails = _arc_failures(0.35, levels, *cols[1:])
    if levels != list(range(13)):
        fails.append(f"arclength: levels {levels}")
    return fails[:1]


def _cli_eval(inp, stdout, text, rng):
    f = _fields(stdout)
    msg = _eval_failure(Fraction(7, 10), Fraction(inp["m"], 10**9),
                        (f["value"], f["error_bound"], f["digits_used"]), True)
    return [msg] if msg else []


def _a0_reference():
    with mpmath.workdps(40):
        return float(mpmath.findroot(lambda a: 54 * a**3 - 27 * a**2 - 1, (0.5, 2 / 3),
                                     solver="bisect"))


def _cli_classify(inp, stdout, text, rng):
    f = _fields(stdout)
    # a = 0.7 >= 2/3: F_a is nowhere differentiable
    if f["label"] != "nowhere-differentiable" or abs(float(f["a0"]) - _a0_reference()) > 1e-12:
        return [f"classify --a 0.7: {f}"]
    return []


def _cli_derivative(inp, stdout, text, rng):
    rows = _rows(stdout, "m,digit,D_m")
    x, n, av = Fraction(float(inp["x"])), 1000, 0.4
    digits = []
    num, den = x.numerator, x.denominator
    for _ in range(n):
        num *= 3
        digits.append(num // den)
        num -= digits[-1] * den
    bad = []
    for m, r in enumerate(rows, start=1):
        ref = _dtrace_reference(av, digits, m)
        # a product of m <= 1000 float factors: relative rounding below 1000 u
        if int(r[1]) != digits[m - 1] or abs(mpmath.mpf(r[2]) - ref) > 1e-11 * abs(ref):
            bad.append(m)
    ones = int(re.search(r"ones_count=(\d+)", stdout).group(1))
    if len(rows) != n or bad or ones != digits.count(1):
        return [f"derivative: {len(rows)} rows, rows off D_m at {bad[:5]}"]
    return []


def _cli_experiment(inp, stdout, text, rng):
    f = _fields(stdout)
    ref = _frequency_reference(200, 3000, inp["seed"])
    got = {"mean": f["mean_ratio"], "min": f["min_ratio"], "max": f["max_ratio"],
           "fraction_within": f["fraction_within_0.02"]}
    if any(not _close(float(got[k]), v, abs_=1e-12) for k, v in ref.items()):
        return [f"experiment: {got} vs {ref}"]
    return []


_CLI_CHECKS = {"chaos": _cli_chaos, "iterate": _cli_iterate, "dim": _cli_dim,
               "iterate_exact": _cli_iterate_exact, "iterate_svg": _cli_iterate_svg,
               "arclength": _cli_arclength, "eval": _cli_eval, "classify": _cli_classify,
               "derivative": _cli_derivative, "experiment": _cli_experiment}
