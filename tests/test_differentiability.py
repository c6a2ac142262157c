import contextlib
import functools
import math
import random
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okamoto import (
    DigitStats,
    DomainError,
    IterationGraph,
    LimitClass,
    MassSample,
    Parameter,
    PrecisionError,
    RegionLabel,
    ResourceError,
    UnsupportedRegionError,
    classify_limit,
    construct_iteration,
    critical_a0,
    derivative_trace,
    digit_frequency_experiment,
    find_a0,
    mass_bound_check,
    nondiff_points,
    refine,
    region_classify,
    to_ternary,
)
from okamoto.differentiability import _float_abs, generic_rate, lowest_terms, random_digit_stream
from okamoto.ternary import TernaryExpansion
from oracles import derivative_trace_reference


def test_trace_identity_parameter_is_constant_one():
    tr = derivative_trace(Parameter(Fraction(1, 3)), TernaryExpansion((0, 1, 2, 1, 0, 2, 1, 1, 0, 2)), 10)
    assert all(v == 1 for v in tr.values)


def test_trace_cantor_zero_digits():
    tr = derivative_trace(Parameter(0.5), TernaryExpansion((0,) * 5), 5)
    assert tr.values[-1] == pytest.approx(7.59375, abs=1e-12)


def test_trace_recursion_exact():
    rng = random.Random(21)
    for _ in range(20):
        a = Parameter(rng.uniform(0.05, 0.95))
        digits = tuple(rng.randrange(3) for _ in range(40))
        tr = derivative_trace(a, TernaryExpansion(digits), 40)
        av = a.value
        prev = 1.0
        for d, v in zip(digits, tr.values):
            assert v == prev * ((3 - 6 * av) if d == 1 else 3 * av)
            prev = v


def test_trace_sign_structure():
    digits = (1, 0, 1, 2, 1)
    hi = derivative_trace(Parameter(0.8), TernaryExpansion(digits), 5)
    ones = 0
    for d, v in zip(digits, hi.values):
        ones += d == 1
        assert math.copysign(1, v) == (-1) ** ones
    lo = derivative_trace(Parameter(0.3), TernaryExpansion(digits), 5)
    assert all(v > 0 for v in lo.values)


def test_trace_overflow_saturates_with_flag():
    tr = derivative_trace(Parameter(0.99), TernaryExpansion((0,) * 4000), 4000)
    assert tr.diverged
    assert math.isinf(tr.values[-1])


def _slope_products(tr):
    """D_1..D_n of a trace: its floats, or its integers N_m as Fractions N_m / base^m."""
    if tr.values and type(tr.values[0]) is float:
        return tr.values
    assert all(type(v) is int for v in tr.values)
    return [Fraction(v, tr.base**m) for m, v in enumerate(tr.values, start=1)]


_CTX = Context(prec=MAX_PREC, Emax=MAX_EMAX)
_two_to = functools.cache(lambda w: _CTX.power(2, w))


def _decimal(n):
    """n as a Decimal, by halves of its bits: 3.11's int -> str is quadratic in the digits."""
    if n.bit_length() <= 2048:
        return Decimal(n)
    w = 1 << (n.bit_length() - 1).bit_length() - 1  # a power of 2, so few powers are made
    return _CTX.add(_CTX.multiply(_decimal(n >> w), _two_to(w)), _decimal(n & (1 << w) - 1))


def _rows(values):
    """Each Fraction as the text p/q that "%d/%d" prints with no int string limit."""
    return [f"{_decimal(v.numerator)}/{_decimal(v.denominator)}" for v in values]


@contextlib.contextmanager
def _ints_in_full():
    """Ints print in full, however many digits they have, as in cli.main."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _assert_trace_matches_reference(av, digits, n):
    tr = derivative_trace(Parameter(av), TernaryExpansion(tuple(digits)), n)
    values, diverged, max_abs = derivative_trace_reference(av, digits, n)
    # repr tells NaN and the signed zeros apart, bit for bit; a Fraction, whose repr
    # can pass the int string limit, is held by its type and value
    def key(v):
        return (Fraction, v) if type(v) is Fraction else repr(v)

    assert list(map(key, _slope_products(tr))) == list(map(key, values))
    if type(av) is Fraction:  # the text of the rows `derivative` prints
        rows = lowest_terms(Parameter(av), tuple(digits)[:n])
        assert list(rows) == _rows(values)
    assert (tr.diverged, repr(tr.max_abs)) == (diverged, repr(max_abs))
    return tr


@pytest.mark.parametrize("av, digits", [
    # overflow to inf, then a 1-digit: inf * (3 - 6a) = inf * 0 is NaN from
    # there on in float, and 0 in exact arithmetic
    (0.5, (0,) * 1760 + (1,) + (0, 2) * 5),
    (Fraction(1, 2), (0,) * 1760 + (1,) + (0, 2) * 5),
    # all-zero overflow: every value past the range is inf
    (0.99, (0,) * 4000),
    # alternating signs: both infinities
    (0.9, (1, 0) * 500),
    # exact values pass the float range (2.4 a step from m = 811) and come
    # back under it (0.3 a step), where 2.4^820 * 0.3^7 is the largest below
    (Fraction(1, 10), (1,) * 820 + (0,) * 20),
], ids=("nan-float", "zero-exact", "inf-float", "inf-signed", "back-exact"))
def test_trace_matches_reference_loop_past_overflow(av, digits):
    assert _assert_trace_matches_reference(av, digits, len(digits)).diverged


@settings(max_examples=200, deadline=None)
@given(exact=st.booleans(), p=st.integers(1, 999), q=st.integers(2, 1000),
       block=st.lists(st.integers(0, 2), min_size=1, max_size=12), reps=st.integers(1, 400),
       data=st.data())
def test_trace_matches_reference_loop(exact, p, q, block, reps, data):
    # up to 400 repeats of a block of up to 12 digits: long enough to pass
    # the float range near a = 0.99, so drawn float streams overflow too
    av = Fraction(p % q or 1, q)
    digits = block * (reps if not exact else 1 + reps // 10)
    if not exact:
        av = data.draw(st.sampled_from((float(av), 0.5, 0.99)))
    _assert_trace_matches_reference(av, digits, data.draw(st.integers(1, len(digits))))


@pytest.mark.parametrize("av", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 6),
                                Fraction(5, 12), Fraction(1.1125369292536007e-308)])
def test_exact_trace_matches_reference_where_q_shares_a_factor_with_the_slopes(av):
    # q even or a multiple of 3: the slopes' 3 and 2s meet q's; 1/2 has the slope 0,
    # 1/3 and 2/3 the base 1, and 2^-1023 a 1024-bit base
    rng = random.Random(7)
    digits = [rng.randrange(3) for _ in range(300)]
    _assert_trace_matches_reference(av, digits, 300)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 10**6), q=st.integers(2, 10**6),
       digits=st.lists(st.integers(0, 2), min_size=1, max_size=120))
@example(p=1, q=2, digits=[0, 1, 2, 1, 0])  # the slope 0: 0/1 from the first 1 on
@example(p=1, q=3, digits=[0, 1, 2] * 5)  # b = 1
@example(p=2, q=3, digits=[1, 1, 0, 2] * 5)  # b = 1, slopes 6 and -3
@example(p=5, q=12, digits=[0, 1, 2] * 20)  # b = 4: 2s on both sides of the row
@example(p=7, q=18, digits=[1, 0] * 30)  # 3 | q and q even
@example(p=999, q=1000, digits=[1] * 30 + [0] * 30)  # a negative slope, 2^3 in b
@example(p=1, q=2**1074, digits=[0, 1, 2] * 20)  # Fraction(5e-324)
def test_lowest_terms_rows_are_the_printf_rows_of_the_reference(p, q, digits):
    av = Fraction(p % q or 1, q)
    values, _, _ = derivative_trace_reference(av, digits, len(digits))
    rows = list(lowest_terms(Parameter(av), digits))
    with _ints_in_full():
        assert rows == ["%d/%d" % (v.numerator, v.denominator) for v in values] == _rows(values)


def test_exact_trace_sizes_values_that_round_to_the_largest_float():
    fmax = int(sys.float_info.max)
    half_ulp = 2**970  # fmax + half_ulp is a tie, rounded to even: 2^1024
    den = 5**40  # as D_m = N_m / b^m, over a base that is not a power of 2

    def size(v):
        return _float_abs(v * den, den)

    assert size(fmax) == size(-fmax) == sys.float_info.max
    assert size(fmax + half_ulp // 2) == math.inf  # rounds to fmax, lies above it
    assert size(-fmax - half_ulp) == math.inf  # int / int overflows
    assert size(fmax - half_ulp // 2) == sys.float_info.max


def test_trace_domain_errors():
    e = TernaryExpansion((0, 1))
    with pytest.raises(DomainError):
        derivative_trace(Parameter(0.4), e, 0)
    with pytest.raises(DomainError):
        derivative_trace(Parameter(0.4), e, 3)


def test_block_product_at_a0():
    # one 1-digit per 3-block: multiplier (3a)^2 (3-6a) = 27a^2 - 54a^3 = -1
    a0 = critical_a0()
    block = (3 * a0) ** 2 * (3 - 6 * a0)
    assert abs(block + 1) < 1e-10


def test_oscillation_at_a0():
    a = Parameter(critical_a0())
    tr = derivative_trace(a, TernaryExpansion((0, 1, 2) * 50), 150)
    for m in range(1, 51):
        assert tr.values[3 * m - 1] == pytest.approx((-1.0) ** m, abs=1e-9)


def test_classify_limit_examples():
    assert classify_limit(Parameter(0.4), 1 / 3) is LimitClass.ZERO
    assert classify_limit(Parameter(0.7), 1 / 3) is LimitClass.DIVERGES
    for g in (0.0, 0.25, 1 / 3, 1.0):
        assert classify_limit(Parameter(1 / 3), g) is LimitClass.CONSTANT_ONE
    assert classify_limit(Parameter(critical_a0()), 1 / 3) is LimitClass.OSCILLATES


def test_classify_limit_cubic_values():
    for av, cubic in ((0.4, 0.864), (0.7, 5.292)):
        assert abs(27 * av**2 - 54 * av**3) == pytest.approx(abs(cubic), abs=1e-12)
        assert generic_rate(Parameter(av), 1 / 3) ** 3 == pytest.approx(abs(cubic), rel=1e-12)


def test_classify_limit_zero_power_convention():
    # at a = 1/2, |1-2a|^gamma is 0 for gamma > 0 and 1 for gamma = 0
    assert classify_limit(Parameter(0.5), 0.0) is LimitClass.DIVERGES  # r = 3a = 1.5
    assert classify_limit(Parameter(0.5), 0.5) is LimitClass.ZERO


def test_classify_limit_agrees_with_cubic_sign_on_grid():
    for j in range(1, 1000):
        av = j / 1000
        cubic = abs(27 * av**2 - 54 * av**3)
        got = classify_limit(Parameter(av), 1 / 3)
        if cubic < 1 - 1e-9:
            assert got is LimitClass.ZERO
        elif cubic > 1 + 1e-9:
            assert got is LimitClass.DIVERGES


def test_classify_limit_rejects_bad_gamma():
    with pytest.raises(DomainError):
        classify_limit(Parameter(0.4), 1.5)


def test_find_a0_bracket_and_residual():
    a0 = find_a0(1e-14)
    assert 0.5592 < a0 < 0.5593
    assert abs(54 * a0**3 - 27 * a0**2 - 1) < 1e-12
    # sign checks at the bracket ends
    assert 54 * 0.5**3 - 27 * 0.5**2 - 1 == -1
    assert 54 * (2 / 3) ** 3 - 27 * (2 / 3) ** 2 - 1 == pytest.approx(3, abs=1e-12)


def test_find_a0_precision_limit():
    with pytest.raises(PrecisionError):
        find_a0(1e-20)
    with pytest.raises(DomainError):
        find_a0(0)


def test_region_classify_examples():
    rc = region_classify(Parameter(0.2))
    assert rc.label is RegionLabel.AE_DIFFERENTIABLE
    assert "F' = 0 a.e." in rc.first_derivative
    assert "nowhere" in rc.second_derivative
    assert region_classify(Parameter(0.7)).label is RegionLabel.NOWHERE_DIFFERENTIABLE
    assert region_classify(Parameter(critical_a0())).label is RegionLabel.AE_NONDIFFERENTIABLE
    assert region_classify(Parameter(Fraction(1, 3))).label is RegionLabel.IDENTITY
    assert region_classify(Parameter(1 / 3)).label is RegionLabel.IDENTITY
    assert region_classify(Parameter(0.5)).label is RegionLabel.CANTOR


def test_region_classify_constant_on_open_regions():
    a0 = critical_a0()
    samples = {
        RegionLabel.AE_DIFFERENTIABLE: [0.01, 0.2, 1 / 3 - 1e-6, 1 / 3 + 1e-6, 0.5 - 1e-6, 0.5 + 1e-6, a0 - 1e-6],
        RegionLabel.AE_NONDIFFERENTIABLE: [a0 + 1e-9, 0.6, 2 / 3 - 1e-9],
        RegionLabel.NOWHERE_DIFFERENTIABLE: [2 / 3, 0.7, 0.99],
    }
    for label, values in samples.items():
        for av in values:
            assert region_classify(Parameter(av)).label is label, av


def _family(a, i):
    """The points of nondiff_points(a, i), each a.frac(k, denominator)."""
    nums, den = nondiff_points(a, i)
    return [a.frac(k, den) for k in nums]


def test_nondiff_points_low_region():
    a = Parameter(0.2)
    assert nondiff_points(a, 1) == (range(1, 6, 2), 6)
    assert _family(a, 0) == [0.5]
    assert _family(a, 1) == [1 / 6, 0.5, 5 / 6]
    exact = _family(Parameter(Fraction(1, 5)), 1)
    assert exact == [Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)]


def test_nondiff_points_mid_region():
    assert nondiff_points(Parameter(0.45), 1) == (range(4), 3)
    assert _family(Parameter(0.45), 1) == [0, 1 / 3, 2 / 3, 1]


def test_nondiff_points_unsupported_regions():
    for av in (0.5, 1 / 3, 0.57, 0.8):
        with pytest.raises(UnsupportedRegionError):
            nondiff_points(Parameter(av), 2)


def test_nondiff_points_sorted_inside_unit_interval():
    for av in (0.1, 0.4):
        pts = _family(Parameter(av), 3)
        assert pts == sorted(pts)
        assert 0 <= pts[0] and pts[-1] <= 1


@pytest.mark.parametrize("av", [Fraction(1, 5), Fraction(1, 4), Fraction(3, 10),
                                Fraction(2, 5), Fraction(9, 20), Fraction(11, 20),
                                Fraction(111, 200)])
def test_family_points_have_diverging_slope_products(av):
    # every family point's digits end in one repeated digit: 1s forever at
    # (2k+1)/(2*3^i), so each step multiplies D_m by rho = 3-6a, and 0s (2s
    # at x = 1) at k/3^i, so by rho = 3a; |rho| > 1 makes D_m diverge, the
    # digit view's verdict that classify_limit gives at the tail's ratio gamma
    a = Parameter(av)
    half_grid = av < Fraction(1, 3)
    rho, gamma = (3 - 6 * av, 1) if half_grid else (3 * av, 0)
    assert abs(rho) > 1
    assert classify_limit(a, gamma) is LimitClass.DIVERGES
    for i in range(4):
        nums, den = nondiff_points(a, i)
        assert den == (2 if half_grid else 1) * 3**i
        for k in nums:
            n = i + 60
            tr = derivative_trace(a, to_ternary(Fraction(k, den), n), n)
            d = (1, *_slope_products(tr))
            assert all(d[m] / d[m - 1] == rho for m in range(i + 1, n + 1)), (i, k)


@pytest.mark.parametrize("seed", (0, 3, 12))
def test_experiment_counts_ones_of_random_digit_stream(seed):
    ratios = [random_digit_stream(seed, idx, 300).digits.count(1) / 300 for idx in range(7)]
    s = digit_frequency_experiment(7, 300, seed)
    assert (s.mean, s.min, s.max) == (sum(ratios) / 7, min(ratios), max(ratios))


def test_experiment_deterministic_and_concentrated():
    s1 = digit_frequency_experiment(200, 3000, 1)
    s2 = digit_frequency_experiment(200, 3000, 1)
    assert s1 == s2
    assert abs(s1.mean - 1 / 3) < 0.01
    assert s1.fraction_within > 0.9


def test_experiment_per_sample_seeds_are_stable():
    # sample index alone decides the stream, independent of batching
    a = random_digit_stream(5, 17, 50)
    b = random_digit_stream(5, 17, 50)
    assert a.digits == b.digits


def test_large_sample_mean_ratio_near_one_third():
    # 1e4 uniform streams of 3000 digits: sample mean of ones(n)/n in 1/3 +- 0.01
    s = digit_frequency_experiment(10**4, 3000, 4)
    assert abs(s.mean - 1 / 3) < 0.01


def test_experiment_rejects_bad_args():
    with pytest.raises(DomainError):
        digit_frequency_experiment(0, 10, 1)
    with pytest.raises(DomainError):
        digit_frequency_experiment(10, 0, 1)


def _a0_mpmath():
    """a0 to 300 bits, from mpmath's solver rather than the library's bisection."""
    with mpmath.workprec(300):
        return mpmath.findroot(lambda w: 54 * w**3 - 27 * w**2 - 1, mpmath.mpf("0.5592"))


def test_critical_a0_is_the_float_nearest_the_root():
    root = _a0_mpmath()
    a0 = critical_a0()
    assert a0 == float(root) == 0.5592168996013533
    with mpmath.workprec(300):
        for other in (math.nextafter(a0, 0), math.nextafter(a0, 1)):
            assert abs(mpmath.mpf(other) - root) > abs(mpmath.mpf(a0) - root)


def test_find_a0_is_within_half_a_tolerance_of_the_root():
    root = _a0_mpmath()
    with mpmath.workprec(300):
        for e in range(1, 16):
            tol = 10.0**-e
            assert abs(mpmath.mpf(find_a0(tol)) - root) <= mpmath.mpf(tol) / 2
    with pytest.raises(PrecisionError) as info:
        find_a0(1e-20)
    assert info.value.achievable == 2**-53


_E30, _E25 = Fraction(1, 10**30), Fraction(1, 10**25)
_A0 = Fraction(mpmath.nstr(_a0_mpmath(), 60))  # within 1e-59 of a0


@pytest.mark.parametrize("av, label, family", [
    (Fraction(1, 3) - _E30, RegionLabel.AE_DIFFERENTIABLE, "half-grid"),
    (Fraction(1, 3) + _E30, RegionLabel.AE_DIFFERENTIABLE, "grid"),
    (Fraction(1, 2) - _E30, RegionLabel.AE_DIFFERENTIABLE, "grid"),
    (Fraction(1, 2) + _E30, RegionLabel.AE_DIFFERENTIABLE, "grid"),
    (_A0 - _E25, RegionLabel.AE_DIFFERENTIABLE, "grid"),
    (_A0 + _E25, RegionLabel.AE_NONDIFFERENTIABLE, None),
    (Fraction(2, 3) - _E30, RegionLabel.AE_NONDIFFERENTIABLE, None),
    (Fraction(2, 3) + _E30, RegionLabel.NOWHERE_DIFFERENTIABLE, None),
], ids=("1/3-", "1/3+", "1/2-", "1/2+", "a0-", "a0+", "2/3-", "2/3+"))
def test_exact_parameter_next_to_a_boundary(av, label, family):
    # each a rounds to the boundary's float, so only exact comparisons place it
    a = Parameter(av)
    assert region_classify(a).label is label
    if family is None:
        with pytest.raises(UnsupportedRegionError):
            nondiff_points(a, 1)
    else:
        expected = ([Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)] if family == "half-grid"
                    else [Fraction(k, 3) for k in range(4)])
        assert _family(a, 1) == expected


def test_float_labels_against_mpmath_a0():
    # 1/3, 1/2 and 2/3 are compared in float; a0 at 300 bits, so the floats
    # 0.5592168996013533 and ...535, above a0, are ae-nondifferentiable
    a0 = _a0_mpmath()
    rng = random.Random(8)
    values = [rng.random() for _ in range(3000)]
    for centre in (1 / 3, 0.5, critical_a0(), 2 / 3):
        v = centre
        for _ in range(40):
            v = math.nextafter(v, 0)
        for _ in range(81):
            values.append(v)
            v = math.nextafter(v, 1)
    assert {0.5592168996013533, 0.5592168996013535} < set(values)
    for av in values:
        if av == 1 / 3:
            label = RegionLabel.IDENTITY
        elif av == 0.5:
            label = RegionLabel.CANTOR
        elif av >= 2 / 3:
            label = RegionLabel.NOWHERE_DIFFERENTIABLE
        elif mpmath.mpf(av) > a0:
            label = RegionLabel.AE_NONDIFFERENTIABLE
        else:
            label = RegionLabel.AE_DIFFERENTIABLE
        a = Parameter(av)
        assert region_classify(a).label is label, av
        if label is RegionLabel.AE_DIFFERENTIABLE:
            assert len(nondiff_points(a, 1)[0]) == (3 if av < 1 / 3 else 4), av
        else:
            with pytest.raises(UnsupportedRegionError):
                nondiff_points(a, 1)


@pytest.mark.parametrize("av", (Fraction(3, 5), 0.6), ids=("exact", "float"))
def test_trace_divergence_in_both_modes(av):
    # D_m = (9/5)^m passes the float range at m = 1208
    tr = derivative_trace(Parameter(av), TernaryExpansion((0,) * 1300), 1300)
    d = _slope_products(tr)
    assert tr.diverged
    assert abs(d[1206]) <= sys.float_info.max < abs(d[1207])
    assert tr.max_abs == pytest.approx(1.8**1207, rel=1e-12)


def test_size_checks_refuse_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        digit_frequency_experiment(10**12, 10, 0)
    with pytest.raises(ResourceError):
        digit_frequency_experiment(10, 10**12, 0)
    # an exact trace grows quadratically: 10^5 numerators at q = 5 need about 2.9 GB
    with pytest.raises(ResourceError):
        derivative_trace(Parameter(Fraction(3, 5)), TernaryExpansion((0,) * 10**5), 10**5)
    # 3^30 points are a range over one denominator, returned at once
    nums, den = nondiff_points(Parameter(0.2), 30)
    assert (len(nums), nums[-1], den) == (3**30, 2 * 3**30 - 1, 2 * 3**30)
    # 10^12 digits, refused before any list or array is made
    with pytest.raises(ResourceError):
        random_digit_stream(0, 0, 10**12)
    assert time.perf_counter() - start < 1


_A = Parameter(Fraction(3, 5))


@pytest.mark.parametrize("call, message", [
    (lambda: nondiff_points(Parameter(0.2), -1), "level must be >= 0"),
    (lambda: random_digit_stream(-1, 0, 5), "seed must be >= 0"),
    (lambda: random_digit_stream(0, -1, 5), "index must be >= 0"),
    (lambda: IterationGraph(1, [0, 1], _A), "level 1 graph needs 4 vertices, got 2"),
    (lambda: refine(construct_iteration(_A, 1), Parameter(0.6)), "a different parameter"),
    (lambda: construct_iteration(_A, -1), "level must be >= 0"),
    (lambda: mass_bound_check(MassSample(Parameter(0.8), np.empty((0, 2))), 3), "sample is empty"),
    (lambda: TernaryExpansion((0,), source=(5, 1)), "source (5, 1) is not a point of [0,1]"),
    (lambda: DigitStats(n=2, ones_count=3, ratio=Fraction(3, 2), gamma_estimate=Fraction(0)),
     "ones_count out of range"),
], ids=("nondiff_points level", "stream seed", "stream index", "graph vertices",
        "refine parameter", "construct level", "empty mass sample", "expansion source",
        "digit stats ones"))
def test_library_refusals_name_their_cause(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert type(exc.value) is DomainError and message in str(exc.value)
