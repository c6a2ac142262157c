import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import DomainError, ResourceError, digit_stats, ternary_rational, to_ternary
from okamoto.ternary import TernaryExpansion
from oracles import ternary_digits_reference, to_ternary_reference


def test_to_ternary_zero():
    assert to_ternary(0, 5).digits == (0, 0, 0, 0, 0)


def test_to_ternary_one_is_all_twos():
    e = to_ternary(1, 4)
    assert e.digits == (2, 2, 2, 2)
    assert e.is_one


def test_to_ternary_third_terminates():
    e = to_ternary(1 / 3, 4)
    assert e.digits == (1, 0, 0, 0)
    assert not e.is_truncation


def test_to_ternary_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        to_ternary(-0.1, 3)
    with pytest.raises(DomainError):
        to_ternary(1.5, 3)
    with pytest.raises(DomainError):
        to_ternary(0.5, 0)


@pytest.mark.xfail(strict=True, reason="1.0 in (0, 1, 2), so float digits pass (ROADMAP item 4)")
def test_ternary_expansion_rejects_float_digits():
    # eval_digit_series and derivative_trace index by digit, and raise a foreign TypeError
    with pytest.raises(DomainError):
        TernaryExpansion((1.0, 2.0))


def test_to_ternary_prefix_error_bound():
    # |x - sum d_p 3^-p| <= 3^-n for assorted x and n
    rng = random.Random(42)
    for _ in range(200):
        x = rng.random()
        n = rng.randint(1, 40)
        e = to_ternary(x, n)
        prefix = sum(Fraction(d, 3**p) for p, d in enumerate(e.digits, start=1))
        err = abs(Fraction(x) - prefix)
        assert err <= Fraction(1, 3**n)


def test_ternary_rational_examples():
    assert ternary_rational(0, 3).digits == (0, 0, 0)
    assert ternary_rational(5, 2).digits == (1, 2)
    e = ternary_rational(9, 2)
    assert e.digits == (2, 2) and e.is_one


def test_ternary_rational_range_check():
    with pytest.raises(DomainError):
        ternary_rational(10, 2)
    with pytest.raises(DomainError):
        ternary_rational(-1, 2)


def test_round_trip_float_matches_exact_digits():
    rng = random.Random(7)
    for _ in range(500):
        i = rng.randint(1, 12)
        k = rng.randint(0, 3**i)
        assert to_ternary(k / 3**i, i).digits == ternary_rational(k, i).digits


def test_round_trip_exact_fraction_input():
    rng = random.Random(8)
    for _ in range(200):
        i = rng.randint(1, 12)
        k = rng.randint(0, 3**i - 1)
        e = to_ternary(Fraction(k, 3**i), i)
        assert e.digits == ternary_rational(k, i).digits
        assert not e.is_truncation


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, 12), data=st.data())
def test_source_of_ternary_rationals(i, data):
    k = data.draw(st.integers(0, 3**i - 1), label="k")
    n = data.draw(st.integers(max(i, 1), i + 20), label="n")
    digits = ternary_digits_reference(k, i)
    e = ternary_rational(k, i)
    assert (e.digits, e.is_truncation, e.source) == (digits, False, (k, i))
    f = Fraction(k, 3**i)  # k / 3^i in lowest terms
    source = (f.numerator, round(math.log(f.denominator, 3)))
    for x in (f, k / 3**i):
        e = to_ternary(x, n)
        assert (e.digits, e.is_truncation, e.source) == (digits + (0,) * (n - i), False, source)
    for x in (0, 5e-324):
        assert to_ternary(x, n).source == (0, 0)


def test_digit_stats_direct_count():
    e = TernaryExpansion((1, 0, 0, 1, 0, 0))
    s = digit_stats(e, 6)
    assert s.ones_count == 2
    assert s.ratio == Fraction(1, 3)


def test_digit_stats_all_zero():
    s = digit_stats(TernaryExpansion((0,) * 10), 10)
    assert s.ones_count == 0 and s.ratio == 0


def test_digit_stats_periodic_pattern():
    e = TernaryExpansion((0, 1, 2) * 100)
    s = digit_stats(e, 300)
    assert s.ones_count == 100
    assert s.ratio == Fraction(1, 3)
    assert s.gamma_estimate <= Fraction(1, 3)


def test_digit_stats_gamma_is_min_over_last_half():
    # ones at the very start only: i(m)/m decreases, minimum at m = n
    e = TernaryExpansion((1, 1, 1, 0, 0, 0, 0, 0))
    s = digit_stats(e, 8)
    assert s.gamma_estimate == Fraction(3, 8)


@settings(max_examples=300, deadline=None)
@given(digits=st.lists(st.integers(0, 2), min_size=1, max_size=60), data=st.data())
def test_digit_stats_gamma_matches_fraction_minimum(digits, data):
    n = data.draw(st.integers(1, len(digits)))
    ones = [sum(d == 1 for d in digits[:m]) for m in range(n + 1)]
    s = digit_stats(TernaryExpansion(tuple(digits)), n)
    assert s.ones_count == ones[n] and s.ratio == Fraction(ones[n], n)
    assert s.gamma_estimate == min(Fraction(ones[m], m) for m in range(math.ceil(n / 2), n + 1))


@pytest.mark.parametrize("digits, gamma", [
    ((0,) * 50, lambda n: 0), ((1,) * 50, lambda n: 1),
    ((1, 0) * 25, lambda n: Fraction(1, 2) if n > 1 else 1),  # ones(m)/m is 1/2 at even m
], ids=("zeros", "ones", "one-zero"))
def test_digit_stats_gamma_on_constant_and_alternating_streams(digits, gamma):
    # every prefix, where a run of 1-digits leaves the least ratio where it was
    e = TernaryExpansion(digits)
    for n in range(1, len(digits) + 1):
        s = digit_stats(e, n)
        assert s.ones_count == digits[:n].count(1) and s.gamma_estimate == gamma(n)


def test_digit_stats_rejects_bad_prefix():
    e = TernaryExpansion((0, 1))
    for n in (0, -1, -25, 3):
        with pytest.raises(DomainError, match="prefix length"):
            digit_stats(e, n)


def test_invalid_digits_rejected():
    with pytest.raises(DomainError):
        TernaryExpansion((0, 3))


def test_to_ternary_refuses_a_digit_count_over_budget():
    start = time.perf_counter()
    for x in (0.3, Fraction(1, 7), 1):
        with pytest.raises(ResourceError):
            to_ternary(x, 10**12)
    assert time.perf_counter() - start < 1


@st.composite
def _near_ternary_rational(draw):
    """A float within 3 ulps of k / 3^i, i <= 33, inside [0, 1]."""
    i = draw(st.integers(0, 33))
    x = draw(st.integers(0, 3**i)) / 3**i
    toward = draw(st.sampled_from((0.0, 1.0)))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, toward)
    return x


@settings(max_examples=500, deadline=None)
@given(x=st.one_of(st.floats(0, 1), _near_ternary_rational(),
                   st.sampled_from((0.0, 1.0, 5e-324, 1 - 2**-53))),
       n=st.integers(1, 120))
def test_to_ternary_matches_reference_loop(x, n):
    assert to_ternary(x, n) == to_ternary_reference(x, n)


def test_float_digits_take_linear_time():
    start = time.perf_counter()
    to_ternary(1 / 7, 20000)
    assert time.perf_counter() - start < 0.5
