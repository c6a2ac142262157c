import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okamoto import (
    DomainError,
    Parameter,
    PrecisionError,
    ResourceError,
    construct_iteration,
    eval_digit_series,
    ifs_maps,
    refine,
    sample_graph,
    ternary_rational,
    to_ternary,
)
from okamoto.differentiability import nondiff_points
from okamoto.errors import CONSTRUCTION_BUDGET
from okamoto.function import _level_blocks, series_digits, vertex_bytes
from okamoto.ternary import TernaryExpansion

from oracles import cantor_value, okamoto_recursive, refine_reference, series_reference


def exact(p, q):
    return Parameter(Fraction(p, q))


def test_parameter_rejects_endpoints():
    for bad in (0, 1, -0.5, 1.5, Fraction(0), Fraction(1)):
        with pytest.raises(DomainError):
            Parameter(bad)


def test_parameter_parse_modes():
    assert Parameter.parse("2/3").mode == "exact"
    assert Parameter.parse("0.6").mode == "float"
    assert Parameter.parse("0.6", exact=True).value == Fraction(3, 5)


def test_refine_level_zero():
    a = exact(2, 5)
    g = refine(construct_iteration(a, 0), a)
    assert g.vertices == [0, Fraction(2, 5), Fraction(3, 5), 1]


def test_refine_identity_parameter():
    a = exact(1, 3)
    g = construct_iteration(a, 4)
    assert all(v == Fraction(k, 81) for k, v in enumerate(g.vertices))


def test_refine_bourbaki_level_one():
    a = exact(2, 3)
    g = construct_iteration(a, 1)
    assert g.vertices == [0, Fraction(2, 3), Fraction(1, 3), 1]


@pytest.mark.parametrize("exact_mode", (True, False), ids=("exact", "float"))
def test_arithmetic_mode_of_results(exact_mode):
    # exact mode yields Fractions; float mode Python floats or float64 arrays
    def param(p, q):
        return Parameter(Fraction(p, q) if exact_mode else p / q)

    number = Fraction if exact_mode else float
    a = param(2, 5)
    for level in (0, 2):
        v = construct_iteration(a, level).vertices
        if exact_mode:
            assert isinstance(v, list) and all(type(y) is Fraction for y in v)
        else:
            assert isinstance(v, np.ndarray) and v.dtype == np.float64
    assert type(construct_iteration(a, 0).vertices) is type(construct_iteration(a, 2).vertices)
    values = [c for point in sample_graph(a, 2) for c in point]
    values += [getattr(w, f) for w in ifs_maps(a)
               for f in ("x_scale", "x_offset", "y_scale", "y_offset")]
    for b in (a, param(1, 4)):
        nums, den = nondiff_points(b, 2)
        values += [b.frac(k, den) for k in nums]
    assert all(type(c) is number for c in values)


def test_construct_level_zero_and_cantor_level_one():
    assert list(construct_iteration(Parameter(0.4), 0).vertices) == [0.0, 1.0]
    g = construct_iteration(exact(1, 2), 1)
    assert g.vertices == [0, Fraction(1, 2), Fraction(1, 2), 1]


def test_construct_two_refines_by_hand():
    g = construct_iteration(exact(2, 3), 2)
    assert g.vertices[1] == Fraction(4, 9)


def test_construct_level_cap():
    with pytest.raises(ResourceError):
        construct_iteration(Parameter(0.4), 17)
    with pytest.raises(ResourceError):
        construct_iteration(exact(3, 5), 14)
    # refused before any power of 3 this large is formed
    for a in (Parameter(0.4), exact(3, 5)):
        start = time.perf_counter()
        with pytest.raises(ResourceError):
            construct_iteration(a, 10**9)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("a, top", [
    (Parameter(0.4), 16),
    (exact(3, 5), 13),
    (Parameter(Fraction(1, 10**300)), 10),
], ids=("float", "3/5", "1/10^300"))
def test_construction_budget_estimate(a, top):
    # the last level whose estimated vertices fit the budget; nothing is built
    assert (3**top + 1) * vertex_bytes(a, top) <= CONSTRUCTION_BUDGET
    assert (3 ** (top + 1) + 1) * vertex_bytes(a, top + 1) > CONSTRUCTION_BUDGET


@pytest.mark.parametrize("av, level, dtype", [
    (Fraction(3, 5), 13, np.int64),
    (Fraction(7, 94906265), 2, np.int64),  # q^2 < 2^53
    (Fraction(7, 94906267), 2, object),  # q^2 > 2^53
    (Fraction(10**30 - 1, 10**30), 5, object),
    (0.7, 13, np.float64),
], ids=("3/5", "q^2<2^53", "q^2>2^53", "1-10^-30", "0.7"))
def test_level_blocks_number_type(av, level, dtype):
    # one rule for every block of a level and for construction: int64 numerators
    # while q^i < 2^53, and the blocks equal construction's numerators
    a = Parameter(av)
    blocks = list(_level_blocks(a, level)[1])
    assert {v.dtype for _, v in blocks} == {np.dtype(dtype)}
    whole = construct_iteration(a, level).numerators
    assert whole.dtype == dtype
    if level < 13:
        # a later block starts at the previous block's last vertex
        assert [y for k, v in blocks for y in v.tolist()[k > 0:]] == whole.tolist()


def test_grid_persistence_under_refine():
    rng = random.Random(3)
    for _ in range(10):
        a = exact(rng.randint(1, 9), 10)
        g = construct_iteration(a, 3)
        h = refine(g, a)
        assert all(h.vertices[3 * k] == g.vertices[k] for k in range(len(g.vertices)))


def test_vertices_stay_in_unit_interval():
    for av in (0.15, 0.5, 0.8, 0.95):
        v = np.asarray(construct_iteration(Parameter(av), 7).vertices)
        assert v.min() >= 0 and v.max() <= 1


def test_monotone_for_small_a():
    for av in (0.2, 1 / 3, 0.5):
        v = np.asarray(construct_iteration(Parameter(av), 6).vertices)
        assert np.all(np.diff(v) >= 0)


def test_symmetry_confirmed_by_construction():
    # F_a(1-x) = 1 - F_a(x): check vertices[k] + vertices[3^i - k] == 1
    for a in (exact(1, 4), exact(3, 5), exact(4, 5)):
        for i in range(0, 6):
            v = construct_iteration(a, i).vertices
            assert all(v[k] + v[len(v) - 1 - k] == 1 for k in range(len(v)))


def test_construction_matches_recursive_oracle():
    rng = random.Random(11)
    for a in (exact(1, 4), exact(3, 5), exact(2, 3)):
        g = construct_iteration(a, 5)
        for _ in range(25):
            k = rng.randint(0, 3**5)
            assert g.vertices[k] == okamoto_recursive(a.value, Fraction(k, 3**5), 5)


def test_eval_at_one_third_gives_a():
    for a in (exact(1, 4), exact(2, 3), Parameter(0.77)):
        r = eval_digit_series(a, ternary_rational(1, 1), 1e-12)
        assert r.value == a.value
        assert r.error_bound == 0


def test_eval_at_zero_and_one():
    a = exact(3, 5)
    assert eval_digit_series(a, ternary_rational(0, 4), 1e-12).value == 0
    assert eval_digit_series(a, ternary_rational(81, 4), 1e-12).value == 1


def test_eval_cantor_half_truncates_series():
    # m(1) = 0 at a = 1/2: the series ends after the first 1-digit
    a = exact(1, 2)
    r = eval_digit_series(a, TernaryExpansion((1,) * 30), 1e-30)
    assert r.value == Fraction(1, 2)
    assert r.error_bound == 0
    assert r.digits_used == 1


def test_eval_consistency_with_construction():
    for a in (exact(1, 4), exact(1, 3), exact(1, 2), exact(3, 5)):
        for i in (1, 3, 5):
            g = construct_iteration(a, i)
            for k in range(0, 3**i + 1, max(1, 3 ** (i - 2))):
                r = eval_digit_series(a, ternary_rational(k, i), Fraction(1, 10**30))
                assert r.value == g.vertices[k]


def test_eval_certified_bound_against_deep_truth():
    # float-mode value with tol certificate vs exact deep evaluation
    rng = random.Random(5)
    a_exact, a_float = exact(3, 5), Parameter(0.6)
    for _ in range(20):
        digits = tuple(rng.randrange(3) for _ in range(60))
        truth = eval_digit_series(
            a_exact, TernaryExpansion(digits, is_truncation=False), Fraction(1, 10**40)
        ).value
        r = eval_digit_series(a_float, TernaryExpansion(digits), 1e-9)
        assert abs(float(truth) - r.value) <= 1e-9 + 1e-12


def test_eval_insufficient_digits_raises_precision_error():
    a = Parameter(0.6)
    with pytest.raises(PrecisionError) as exc:
        eval_digit_series(a, TernaryExpansion((0, 2, 1)), 1e-12)
    assert exc.value.achievable is not None and exc.value.achievable > 1e-12


@pytest.mark.parametrize("av", (0.7, Fraction(7, 10)), ids=str)
@pytest.mark.parametrize("tol", (10, math.inf), ids=str)
def test_eval_certifies_before_the_first_digit(av, tol):
    # the tail bound of the whole series, max(a, 1-a) / (1 - max(a, |1-2a|)) = 7/3,
    # already meets tol, so an empty truncation certifies with no digit
    r = eval_digit_series(Parameter(av), TernaryExpansion(()), tol)
    assert (r.value, r.digits_used) == (0, 0)
    if isinstance(av, Fraction):
        assert r.error_bound == Fraction(7, 3)
    else:
        assert r.error_bound == pytest.approx(7 / 3, rel=1e-15)
    _same_as_reference(av, TernaryExpansion(()), tol)


def test_eval_repeating_form_matches_terminating_form():
    # 1/3 = 0.1000... = 0.0222...: continuity demands the same value
    a = Parameter(0.45)
    term = eval_digit_series(a, ternary_rational(1, 1), 1e-13)
    rep = eval_digit_series(a, TernaryExpansion((0,) + (2,) * 80), 1e-13)
    assert abs(term.value - rep.value) < 1e-12


def test_eval_cantor_matches_digit_oracle():
    rng = random.Random(9)
    a = Parameter(0.5)
    for _ in range(300):
        x = rng.random()
        e = to_ternary(x, 60)
        r = eval_digit_series(a, e, 1e-16)
        assert abs(r.value - float(cantor_value(e.digits))) < 1e-14


def _outcome(fn):
    """('ok', value, bound, digits) or ('precision', message, achievable), with

    each number keyed by its type and, for floats, its exact bits."""
    def key(v):
        return (type(v).__name__, v.hex() if isinstance(v, float) else v)

    try:
        r = fn()
    except PrecisionError as exc:
        return ("precision", str(exc), exc.achievable)
    except ValueError as exc:  # the reference's form of PrecisionError
        return ("precision", *exc.args)
    if isinstance(r, tuple):
        return ("ok", key(r[0]), key(r[1]), r[2])
    return ("ok", key(r.value), key(r.error_bound), r.digits_used)


def _same_as_reference(av, x, tol):
    got = _outcome(lambda: eval_digit_series(Parameter(av), x, tol))
    assert got == _outcome(lambda: series_reference(av, x, tol))


_a_fraction = st.integers(2, 10**4).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))
_x = st.one_of(
    st.builds(TernaryExpansion, st.lists(st.integers(0, 2), max_size=80).map(tuple), st.booleans()),
    st.integers(0, 40).flatmap(
        lambda i: st.builds(ternary_rational, st.integers(0, 3**i), st.just(i))),
    st.just(ternary_rational(1, 0)),  # x = 1
)
_tol = st.one_of(
    st.floats(1e-60, 10.0),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**60)),
    st.just(math.inf),
)


@settings(max_examples=300, deadline=None)
@given(a=_a_fraction, exact_mode=st.booleans(), x=_x, tol=_tol)
@example(a=Fraction(1, 2), exact_mode=True, x=TernaryExpansion((0, 1, 2)), tol=1e-30)
@example(a=Fraction(1, 2), exact_mode=False, x=TernaryExpansion((2, 1, 0)), tol=Fraction(1, 10**30))
@example(a=Fraction(1, 3), exact_mode=True, x=TernaryExpansion((0, 0, 0)), tol=Fraction(1, 3))
@example(a=Fraction(1, 2), exact_mode=False, x=TernaryExpansion((0, 0, 0)), tol=0.5)
def test_eval_matches_series_reference(a, exact_mode, x, tol):
    # a = 1/2 has m(1) = 0, which ends the series at the first 1-digit; at
    # a = 1/3 (exact) and a = 0.5 (float) the first 0-digit leaves a bound
    # equal to tol, which does not certify
    _same_as_reference(a if exact_mode else a.numerator / a.denominator, x, tol)


def test_eval_float_mode_bit_identical_to_reference():
    rng = random.Random(2024)
    for _ in range(2000):
        av = rng.uniform(1e-4, 1 - 1e-4)
        n = rng.randrange(120)
        x = TernaryExpansion(tuple(rng.randrange(3) for _ in range(n)), rng.random() < 0.5)
        _same_as_reference(av, x, 10.0 ** rng.uniform(-40, 0))


def _exact_digit_sum(a: Fraction, digits):
    """(sum, tail) of the digit series over digits at an exact a: the partial sum,

    and the bound |prod m(d)| * max(a, 1-a) / (1 - max(a, |1-2a|)) on all after it."""
    offsets, mults = (0, a, 1 - a), (a, 1 - 2 * a, a)
    total, prod = Fraction(0), Fraction(1)
    for d in digits:
        total += prod * offsets[d]
        prod *= mults[d]
    return total, abs(prod) * max(a, 1 - a) / (1 - max(a, abs(1 - 2 * a)))


@pytest.mark.xfail(strict=True, reason="the float error_bound ignores rounding (ROADMAP item 1)")
@pytest.mark.parametrize("av, x, tol", [
    *(pytest.param(av, to_ternary(4 / 9, 40), 1e-12, id=f"snapped-4/9-a={av}")
      for av in (0.6, 0.7, 0.9)),
    pytest.param(0.6, to_ternary(0.3, 200), 1e-30, id="x=0.3-tol=1e-30"),
])
def test_float_certificate_bounds_the_error_at_the_float_a(av, x, tol):
    # a float a is the dyadic rational Fraction(av), which exact arithmetic
    # evaluates exactly on the same digits.  A snapped x is bounded against
    # its source k/3^i.  A truncation's digits fix F_a only to within their
    # exact tail, so that tail is added to the claimed bound.  A refusal
    # claims no bound, so it passes if it names one above tol.
    try:
        r = eval_digit_series(Parameter(av), x, tol)
    except PrecisionError as exc:
        assert exc.achievable > tol
        return
    digits = ternary_rational(*x.source).digits if x.source else x.digits[:r.digits_used]
    exact, tail = _exact_digit_sum(Fraction(av), digits)
    if not x.is_truncation:
        tail = 0
    assert abs(Fraction(r.value) - exact) <= Fraction(r.error_bound) + tail


@settings(max_examples=40, deadline=None)
@given(a=_a_fraction, exact_mode=st.booleans())
@example(a=Fraction(1, 2), exact_mode=True)
@example(a=Fraction(1, 2), exact_mode=False)
@example(a=Fraction(1, 10**300), exact_mode=False)  # the float a = 1e-300
@example(a=Fraction(1, 10**300), exact_mode=True)
@example(a=Fraction(10**30 - 1, 10**30), exact_mode=True)
@example(a=Fraction(7, 94906267), exact_mode=True)  # q^2 > 2^53 and q^3 > 2^63
def test_refine_matches_segment_loop(a, exact_mode):
    # exact levels 0..6 equal as Fractions, float levels 0..10 equal bit for bit, and
    # construct_iteration(a, level) equals the refine chain, in the same number type
    a = Parameter(a if exact_mode else float(a))
    g = construct_iteration(a, 0)
    ref = list(g.vertices)
    for level in range(7 if exact_mode else 11):
        if level:
            g = refine(g, a)
            ref = refine_reference(ref, a.value)
        whole = construct_iteration(a, level)
        assert whole.numerators.dtype == g.numerators.dtype
        if exact_mode:
            assert isinstance(g.vertices, list) and g.vertices == ref
            assert whole.vertices == g.vertices
        else:
            assert g.vertices.dtype == np.float64
            assert g.vertices.tobytes() == np.array(ref).tobytes()
            assert whole.vertices.tobytes() == g.vertices.tobytes()


@settings(max_examples=100, deadline=None)
@given(a=_a_fraction, x=st.integers(0, 8).flatmap(
    lambda i: st.tuples(st.integers(0, 3**i), st.just(i))))
@example(a=Fraction(1, 2), x=(1, 1))  # 2a - 1 = 0
@example(a=Fraction(2, 3), x=(1, 0))  # x = 1
def test_ifs_functional_equations_exact(a, x):
    # F(x/3) = aF(x), F((2+x)/3) = (1-a) + aF(x) and F((2-x)/3) = (1-a) + (2a-1)F(x)
    # at x = k/3^i; tol = 10^-200 is below any bound that 9 digits leave at
    # q <= 10^4, so every value is the exact sum
    def F(k, i):
        r = eval_digit_series(Parameter(a), ternary_rational(k, i), Fraction(1, 10**200))
        assert r.error_bound == 0
        return r.value

    k, i = x
    fx = F(k, i)
    assert F(k, i + 1) == a * fx
    assert F(2 * 3**i + k, i + 1) == (1 - a) + a * fx
    assert F(2 * 3**i - k, i + 1) == (1 - a) + (2 * a - 1) * fx


def test_eval_rejects_nan_tol():
    for a in (exact(3, 5), Parameter(0.6)):
        with pytest.raises(DomainError):
            eval_digit_series(a, ternary_rational(4, 3), math.nan)


def test_eval_infinite_tol_stops_after_one_digit():
    for av in (Fraction(3, 5), 0.6):
        for x in (TernaryExpansion((0, 2, 1)), ternary_rational(5, 3)):
            _same_as_reference(av, x, math.inf)
            assert eval_digit_series(Parameter(av), x, math.inf).digits_used == 1
    # with no digits, the bound of the whole series, 3/2 at a = 3/5, meets an infinite tol
    r = eval_digit_series(exact(3, 5), TernaryExpansion(()), math.inf)
    assert (r.value, r.error_bound, r.digits_used) == (0, Fraction(3, 2), 0)


def test_eval_tiny_float_parameter_raises_precision_error():
    # 1 - 2a rounds to 1: the float tail coefficient has no margin
    with pytest.raises(PrecisionError, match="p/q"):
        eval_digit_series(Parameter(1e-300), to_ternary(0.3, 40), 1e-12)
    r = eval_digit_series(Parameter(Fraction(1, 10**300)), to_ternary(0.3, 40), 1e-12)
    assert r.error_bound < Fraction(1, 10**12)


@pytest.mark.parametrize("av", (Fraction(3, 5), Fraction(1, 7), Fraction(99, 100), 0.6, 0.3, 0.99))
@pytest.mark.parametrize("tol", (0.5, 1e-12, 1e-30))
def test_series_digits_is_the_least_count_that_certifies(av, tol):
    # rho^n C <= tol/2 at a's exact value, and n - 1 digits would not do
    n, f = series_digits(Parameter(av), tol), Fraction(av)
    rho = max(f, abs(1 - 2 * f))
    c = max(f, 1 - f) / (1 - rho)
    assert rho**n * c <= Fraction(tol) / 2 and (n == 1 or rho ** (n - 1) * c > Fraction(tol) / 2)


def test_series_digits_edges():
    assert series_digits(Parameter(0.6), math.inf) == 1
    assert series_digits(Parameter(Fraction(1, 10**20)), 1e300) == 1
    # no margin in float: eval_digit_series refuses a, whatever the count
    assert series_digits(Parameter(1e-300), 1e-12) == 1
    # rho rounds to 1: the count is past 2^53, and refused here
    with pytest.raises(ResourceError, match=r"^tol 1e-12 needs more than 2\^53 digits of x"):
        series_digits(Parameter(Fraction(1, 10**400)), 1e-12)
    # past the budget, the count the tolerance needs, for to_ternary to refuse
    assert series_digits(Parameter(0.999999999999), 1e-12) == 55956449387266
    assert series_digits(Parameter(1e-10), 1e-12) == 253284338833
    for bad in (0, -1e-12, math.nan):
        with pytest.raises(DomainError):
            series_digits(Parameter(0.6), bad)


def test_ifs_maps_values():
    a = exact(2, 3)
    w1, w2, w3 = ifs_maps(a)
    assert w3(1, 1) == (1, 1)
    assert w1(1, 1) == (Fraction(1, 3), Fraction(2, 3))
    assert w2(0, 0) == (Fraction(2, 3), Fraction(1, 3))
    assert (w1.y_scale, w2.y_scale, w3.y_scale) == (a.value, 2 * a.value - 1, a.value)
    assert abs(w2.x_scale) == Fraction(1, 3)


def test_ifs_invariance_of_graph_point_sets():
    # union of the three map images of level i equals the level i+1 point set
    a = exact(3, 5)
    for i in (0, 1, 2, 3):
        pts = sample_graph(a, i)
        image = set()
        for w in ifs_maps(a):
            image.update(w(x, y) for x, y in pts)
        assert image == set(sample_graph(a, i + 1))


def test_sample_graph_examples():
    assert sample_graph(Parameter(0.9), 0) == [(0.0, 0.0), (1.0, 1.0)]
    for x, y in sample_graph(exact(1, 3), 2):
        assert x == y
    assert sample_graph(exact(2, 3), 1) == [
        (0, 0),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
        (1, 1),
    ]
