import math
import random
from fractions import Fraction

import pytest

from okamoto import (
    DomainError,
    LimitClass,
    Parameter,
    PrecisionError,
    RegionLabel,
    UnsupportedRegionError,
    classify_limit,
    critical_a0,
    derivative_trace,
    digit_frequency_experiment,
    find_a0,
    nondiff_points,
    region_classify,
)
from okamoto.differentiability import generic_rate, random_digit_stream
from okamoto.ternary import TernaryExpansion


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


def test_nondiff_points_low_region():
    a = Parameter(0.2)
    assert nondiff_points(a, 0) == [0.5]
    assert nondiff_points(a, 1) == [1 / 6, 0.5, 5 / 6]
    exact = nondiff_points(Parameter(Fraction(1, 5)), 1)
    assert exact == [Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)]


def test_nondiff_points_mid_region():
    assert nondiff_points(Parameter(0.45), 1) == [0, 1 / 3, 2 / 3, 1]


def test_nondiff_points_unsupported_regions():
    for av in (0.5, 1 / 3, 0.57, 0.8):
        with pytest.raises(UnsupportedRegionError):
            nondiff_points(Parameter(av), 2)


def test_nondiff_points_sorted_inside_unit_interval():
    for av in (0.1, 0.4):
        pts = nondiff_points(Parameter(av), 3)
        assert pts == sorted(pts)
        assert 0 <= pts[0] and pts[-1] <= 1


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
