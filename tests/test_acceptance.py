"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np

from okamoto import (
    Parameter,
    arc_length_profile,
    chaos_game,
    construct_iteration,
    cover_profile,
    critical_a0,
    derivative_trace,
    digit_frequency_experiment,
    dimension_estimate,
    eval_digit_series,
    find_a0,
    mass_bound_check,
    ternary_rational,
    to_ternary,
)
from okamoto.differentiability import random_digit_stream
from okamoto.ternary import TernaryExpansion

from oracles import cantor_value

SQRT2 = math.sqrt(2)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_construction_series_consistency():
    t0 = time.time()
    worst_float = 0.0
    for num, den in ((1, 4), (1, 3), (1, 2), (3, 5), (2, 3), (4, 5)):
        a_exact = Parameter(Fraction(num, den))
        a_float = Parameter(num / den)
        for i in range(0, 9):
            g = construct_iteration(a_exact, i)
            gf = np.asarray(construct_iteration(a_float, i).vertices)
            for k in range(3**i + 1):
                e = ternary_rational(k, i)
                assert eval_digit_series(a_exact, e, Fraction(1, 10**30)).value == g.vertices[k]
                rf = eval_digit_series(a_float, e, 1e-30)
                worst_float = max(worst_float, abs(rf.value - gf[k]))
    elapsed = time.time() - t0
    ok = worst_float < 1e-12 and elapsed < 10
    assert report(1, ok, f"series matches construction; float dev {worst_float:.2e}, {elapsed:.1f}s")


def test_criterion_2_identity_case():
    a = Parameter(1 / 3)
    rng = random.Random(2)
    worst = 0.0
    for _ in range(10**4):
        x = rng.random()
        r = eval_digit_series(a, to_ternary(x, 40), 1e-13)
        worst = max(worst, abs(r.value - x))
    assert report(2, worst < 1e-12, f"max |F_1/3(x) - x| = {worst:.2e} over 1e4 points")


def test_criterion_3_cantor_oracle():
    a = Parameter(0.5)
    rng = random.Random(3)
    worst = 0.0
    for _ in range(10**4):
        e = to_ternary(rng.random(), 60)
        r = eval_digit_series(a, e, 1e-16)
        worst = max(worst, abs(r.value - float(cantor_value(e.digits))))
    assert report(3, worst < 1e-14, f"max deviation from Cantor digit oracle = {worst:.2e}")


def test_criterion_4_arc_length():
    ok = True
    for av in (0.2, 0.35, 0.5):
        prof = arc_length_profile(Parameter(av), 12)
        ok &= all(b >= x - 1e-12 for x, b in zip(prof.euclidean, prof.euclidean[1:]))
        ok &= all(SQRT2 - 1e-12 <= L <= 2 + 1e-12 for L in prof.euclidean)
        ok &= all(abs(m - 2) < 1e-12 for m in prof.manhattan[1:])
    L10 = arc_length_profile(Parameter(0.6), 10).euclidean[10]
    ok &= L10 > 10
    assert report(4, ok, f"monotone lengths in [sqrt2, 2] below a=1/2; L_10(0.6) = {L10:.2f}")


def test_criterion_5_exact_area_box_law():
    worst_a = 0.0
    worst_n = 0.0
    for av in (0.6, 2 / 3, 0.9):
        prof = cover_profile(Parameter(av), 10)
        for i in range(11):
            worst_a = max(worst_a, abs(prof.area[i] - ((4 * av - 1) / 3) ** i))
            worst_n = max(worst_n, abs(prof.boxes[i] / (12 * av - 3) ** i - 1))
    ok = worst_a < 1e-12 and worst_n < 1e-9
    assert report(5, ok, f"area law dev {worst_a:.2e}; box count rel dev {worst_n:.2e}")


def test_criterion_6_dimension_regression():
    refs = {0.6: math.log(4.2) / math.log(3), 2 / 3: math.log(5) / math.log(3),
            0.9: math.log(7.8) / math.log(3), 0.2: 1.0, 0.5: 1.0}
    ok = True
    worst_col = worst_sq = 0.0
    for av, ref in refs.items():
        col = dimension_estimate(Parameter(av), 1, 10, method="column")
        sq = dimension_estimate(Parameter(av), 1, 10, method="square")
        worst_col = max(worst_col, abs(col.slope - ref))
        worst_sq = max(worst_sq, abs(sq.slope - ref))
    ok = worst_col < 1e-6 and worst_sq < 0.05
    assert report(6, ok, f"column slope dev {worst_col:.2e}; square-grid dev {worst_sq:.3f}")


def test_criterion_7_critical_value():
    a0 = find_a0(1e-14)
    residual = abs(54 * a0**3 - 27 * a0**2 - 1)
    ok = residual < 1e-12 and 0.5592 < a0 < 0.5593
    assert report(7, ok, f"a0 = {a0:.15f}, residual {residual:.2e}")


def test_criterion_8_oscillation_at_a0():
    a = Parameter(critical_a0())
    tr = derivative_trace(a, TernaryExpansion((0, 1, 2) * 50), 150)
    worst = max(abs(tr.values[3 * m - 1] - (-1.0) ** m) for m in range(1, 51))
    assert report(8, worst < 1e-9, f"max |D_3m - (-1)^m| = {worst:.2e} for m <= 50")


def test_criterion_9_derivative_behaviour_ae():
    # a = 0.7: |D_m| must blow past 1e6 by m = 100 in >= 95/100 streams
    diverge = 0
    for idx in range(100):
        tr = derivative_trace(Parameter(0.7), random_digit_stream(1, idx, 100), 100)
        diverge += tr.max_abs > 1e6
    ok_div = diverge >= 95
    # a = 0.4: |D_200| = 0.6^ones * 1.2^(200-ones) < 1e-2 exactly when
    # ones >= 60, so for uniform digits each stream is small with probability
    # p = P(Bin(200, 1/3) >= 60) = 0.859, and the count over 100 streams is
    # Bin(100, p).  The count must fall in the central acceptance region of
    # that law at a two-sided false-failure rate of 1e-4 ([71, 97]).  The
    # paper promises no rate at m = 200: the former demand of >= 95/100 is
    # met by a correct program with probability 0.0032.  The upper end
    # rejects swapped slope factors, which make all 100 streams small.
    small = 0
    for idx in range(100):
        tr = derivative_trace(Parameter(0.4), random_digit_stream(1, idx, 200), 200)
        small += abs(tr.values[-1]) < 1e-2
    min_ones = min(k for k in range(201) if 0.6**k * 1.2 ** (200 - k) < 1e-2)
    p = sum(math.comb(200, k) * 2 ** (200 - k) for k in range(min_ones, 201)) / 3**200
    pmf = [math.comb(100, k) * p**k * (1 - p) ** (100 - k) for k in range(101)]
    tail = 1e-4 / 2
    lo = next(k for k in range(101) if sum(pmf[: k + 1]) > tail)
    hi = next(k for k in range(100, -1, -1) if sum(pmf[k:]) > tail)
    ok_small = lo <= small <= hi
    assert report(
        9,
        ok_div and ok_small,
        f"divergent streams (a=0.7): {diverge}/100; small |D_200| streams (a=0.4): {small}/100",
    )


def test_criterion_10_digit_frequency():
    s1 = digit_frequency_experiment(200, 3000, 1)
    s2 = digit_frequency_experiment(200, 3000, 1)
    ok = abs(s1.mean - 1 / 3) < 0.01 and s1 == s2
    assert report(10, ok, f"mean ones-ratio {s1.mean:.5f} (target 1/3 +- 0.01), reproducible")


def test_criterion_11_mass_bound():
    sample = chaos_game(Parameter(2 / 3), 10**6, burn_in=30, seed=7)
    rep = mass_bound_check(sample, 4)
    left = float(np.mean(sample.points[:, 0] < 1 / 3))
    ok = len(rep.flagged) == 0 and abs(left - 0.4) < 0.01
    assert report(
        11,
        ok,
        f"level-4 cells over bound: {len(rep.flagged)} (max ratio {rep.max_ratio:.3f}); "
        f"left-branch mass {left:.4f}",
    )


def test_criterion_12_chaos_game_fidelity():
    a = Parameter(2 / 3)
    sample = chaos_game(a, 10**4, burn_in=30, seed=7)
    hits = 0
    for x, y in sample.points:
        r = eval_digit_series(a, to_ternary(float(x), 40), 1e-6)
        hits += abs(y - r.value) < 1e-5
    frac = hits / len(sample.points)
    assert report(12, frac >= 0.99, f"{100 * frac:.2f}% of points within 1e-5 of F_a(x)")
