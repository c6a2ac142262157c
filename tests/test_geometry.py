import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okamoto import (
    DomainError,
    MassSample,
    Parameter,
    ResourceError,
    UnsupportedRegionError,
    arc_length_profile,
    chaos_game,
    chaos_weights,
    cover_profile,
    dimension_estimate,
    eval_digit_series,
    ifs_maps,
    mass_bound_check,
    square_grid_counts,
    to_ternary,
)

from okamoto import function, geometry
from okamoto.function import vertex_bytes
from okamoto.geometry import _MIN_LANES, _lane_length, _map_indices, _orbit
from oracles import (chaos_reference, least_squares_reference, square_grid_reference,
                     square_grid_reference_exact, vertex_geometry)

SQRT2 = math.sqrt(2)


def test_arc_length_level_zero_is_sqrt2():
    for av in (0.2, 0.5, 0.9):
        assert arc_length_profile(Parameter(av), 0).euclidean[0] == pytest.approx(SQRT2)


def test_arc_length_identity_parameter_stays_sqrt2():
    prof = arc_length_profile(Parameter(1 / 3), 8)
    assert all(L == pytest.approx(SQRT2, abs=1e-12) for L in prof.euclidean)


def test_arc_length_level_one_by_hand():
    # a = 0.6: vertices [0, 0.6, 0.4, 1]
    expect = 2 * math.sqrt(1 / 9 + 0.36) + math.sqrt(1 / 9 + 0.04)
    prof = arc_length_profile(Parameter(0.6), 1)
    assert prof.euclidean[1] == pytest.approx(expect, abs=1e-12)


def test_arc_length_nondecreasing_and_bounded_below_half():
    for av in (0.2, 0.35, 0.5):
        prof = arc_length_profile(Parameter(av), 10)
        assert all(b >= a - 1e-12 for a, b in zip(prof.euclidean, prof.euclidean[1:]))
        assert all(SQRT2 - 1e-12 <= L <= 2 + 1e-12 for L in prof.euclidean)
        # triangle-inequality bound: manhattan length is exactly 1 + TV = 2
        assert all(m == pytest.approx(2, abs=1e-12) for m in prof.manhattan)


def test_arc_length_unbounded_above_half():
    prof = arc_length_profile(Parameter(0.6), 10)
    assert prof.euclidean[10] > 10
    assert prof.total_variation[10] == pytest.approx(1.4**10, rel=1e-10)


def test_cover_profile_level_zero_and_bourbaki():
    prof = cover_profile(Parameter(2 / 3), 1)
    assert prof.area[0] == 1 and prof.boxes[0] == 1
    assert prof.area[1] == pytest.approx(5 / 9, abs=1e-15)
    assert prof.boxes[1] == pytest.approx(5, abs=1e-12)


def test_cover_profile_cantor():
    prof = cover_profile(Parameter(0.5), 2)
    assert prof.area[2] == pytest.approx(1 / 9, abs=1e-14)
    assert prof.boxes[2] == pytest.approx(9, abs=1e-10)


def test_cover_area_law_above_half():
    for av in (0.6, 2 / 3, 0.9):
        prof = cover_profile(Parameter(av), 10)
        for i in range(11):
            assert abs(prof.area[i] - ((4 * av - 1) / 3) ** i) < 1e-12
        for lo, hi in zip(prof.area, prof.area[1:]):
            assert hi / lo == pytest.approx((4 * av - 1) / 3, rel=1e-10)


def test_cover_ratio_below_half_is_one_third():
    prof = cover_profile(Parameter(0.35), 8)
    for lo, hi in zip(prof.area, prof.area[1:]):
        assert hi / lo == pytest.approx(1 / 3, rel=1e-10)
    assert all(n == pytest.approx(3**i, rel=1e-12) for i, n in enumerate(prof.boxes))


def test_box_counts_increase_above_half():
    prof = cover_profile(Parameter(0.8), 8)
    assert all(b > a for a, b in zip(prof.boxes, prof.boxes[1:]))


def test_dimension_estimate_closed_forms():
    est = dimension_estimate(Parameter(2 / 3), 1, 10)
    assert est.slope == pytest.approx(math.log(5) / math.log(3), abs=1e-10)
    assert est.max_residual < 1e-10
    assert dimension_estimate(Parameter(0.3), 1, 10).slope == pytest.approx(1, abs=1e-10)
    assert dimension_estimate(Parameter(0.9), 1, 10).slope == pytest.approx(
        math.log(7.8) / math.log(3), abs=1e-10
    )


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0, 1, exclude_min=True, exclude_max=True)
    | st.fractions(0, 1, max_denominator=10**6).filter(lambda f: 0 < f < 1),
    levels=st.lists(st.integers(1, 300), min_size=2, max_size=2, unique=True).map(sorted),
    method=st.just("column"),
)
@example(a=Fraction(16, 125), levels=[25, 27], method="column")  # 2.44 ulps of the slope
@example(a=0.19991798339514966, levels=[183, 253], method="column")  # 2.04 ulps
@example(a=Fraction(353, 1000), levels=[78, 100], method="column")  # 3.48 ulps of max |y|
@example(a=0.9, levels=[1, 12], method="square")
@example(a=Fraction(2, 3), levels=[1, 12], method="square")
@example(a=Fraction(5, 9), levels=[1, 12], method="square")
@example(a=0.51, levels=[1, 12], method="square")
def test_dimension_fit_matches_exact_least_squares(a, levels, method):
    # The fit rounds each centred difference, each product, each fsum and the
    # quotient once, so to first order the slope's relative error is at most
    # (3k + 6)u, k = sum |dx dy| / |sum dx dy| (1 when all products share a
    # sign); the intercept adds the slope's error times |x mean| and the
    # roundings of the means, of slope * x mean and of the difference.  Each
    # bound below keeps a spare u for second-order terms.  The first three
    # examples reached 2.44 and 2.04 ulps of the slope and 3.48 ulps of
    # max |y|, so fixed bounds of 2 and 4 ulps would not hold.
    lo, hi = levels
    p = Parameter(a)
    if method == "column":
        boxes = cover_profile(p, hi).boxes
        pairs = [(i, boxes[i]) for i in range(lo, hi + 1)]
    else:
        pairs = square_grid_counts(p, lo, hi)
    points = [(i * math.log(3), math.log(n)) for i, n in pairs]
    slope, intercept = least_squares_reference(points)
    est = dimension_estimate(p, lo, hi, method)
    u = Fraction(2.0**-53)
    xm = sum(Fraction(x) for x, _ in points) / len(points)
    ym = sum(Fraction(y) for _, y in points) / len(points)
    cross = [(Fraction(x) - xm) * (Fraction(y) - ym) for x, y in points]
    k = sum(map(abs, cross)) / abs(sum(cross))
    slope_err = abs(Fraction(est.slope) - slope)
    assert slope_err <= (3 * k + 7) * u * abs(slope)
    rounding = 2 * abs(ym) + 4 * abs(slope * xm) + 2 * abs(intercept)
    assert abs(Fraction(est.intercept) - intercept) <= slope_err * abs(xm) + u * rounding


def test_dimension_reference_continuity_at_half():
    lo = dimension_estimate(Parameter(0.5), 1, 8)
    hi = dimension_estimate(Parameter(0.5 + 1e-9), 1, 8)
    assert abs(lo.slope - hi.slope) < 1e-6


def test_dimension_estimate_rejects_degenerate_fit():
    with pytest.raises(DomainError):
        dimension_estimate(Parameter(0.6), 3, 3)
    with pytest.raises(DomainError):
        dimension_estimate(Parameter(0.6), 0, 4)
    with pytest.raises(DomainError):
        dimension_estimate(Parameter(0.6), 1, 8, method="hexagon")


def test_square_grid_cross_check():
    for av in (0.2, 0.5, 0.6, 2 / 3, 0.9):
        est = dimension_estimate(Parameter(av), 1, 9, method="square")
        assert abs(est.slope - est.reference) < 0.05


def test_square_grid_counts_monotone():
    counts = dict(square_grid_counts(Parameter(0.7), 1, 6))
    assert all(counts[i + 1] > counts[i] for i in range(1, 6))


@pytest.mark.parametrize("av", (0.2, 1 / 3, 0.35, 0.5, 0.6, 2 / 3, 0.9))
def test_closed_forms_match_vertex_sums(av):
    arc = arc_length_profile(Parameter(av), 10)
    cov = cover_profile(Parameter(av), 10)
    for i, (euclid, tv, boxes) in enumerate(vertex_geometry(av, 10)):
        assert abs(arc.euclidean[i] - euclid) <= 1e-12 * euclid
        assert abs(arc.total_variation[i] - tv) <= 1e-12 * tv
        assert abs(cov.boxes[i] - boxes) <= 1e-12 * boxes


@pytest.mark.parametrize("av, top, arc_top", [
    (0.35, 646, 646), (0.5, 646, 200), (0.6, 494, 494), (0.9, 345, 345),
])
def test_profiles_match_mpmath_up_to_last_float_level(av, top, arc_top):
    # 200-bit sums of the same closed forms at the float a's exact value; for
    # these a, 2a and |1-2a| are exact in float, so TV_1 carries no rounding
    cov = cover_profile(Parameter(av), top)
    arc = arc_length_profile(Parameter(av), arc_top)

    def close(got, ref):
        return abs(mpmath.mpf(got) - ref) <= 1e-15 * abs(ref)

    with mpmath.workprec(200):
        s = mpmath.mpf(av)
        r = abs(1 - 2 * s)
        for i in range(top + 1):
            tv = (2 * s + r) ** i
            assert close(cov.area[i], tv / mpmath.mpf(3) ** i), i
            assert close(cov.boxes[i], tv * mpmath.mpf(3) ** i), i
        for i in sorted({*range(0, arc_top, 23), arc_top}):
            delta = mpmath.mpf(3) ** -i
            euclid = mpmath.fsum(math.comb(i, k) * 2**k * mpmath.hypot(delta, s**k * r ** (i - k))
                                 for k in range(i + 1))
            assert close(arc.euclidean[i], euclid), i
            assert close(arc.total_variation[i], (2 * s + r) ** i), i


@pytest.mark.parametrize("av", (0.001, 0.01, 0.2, 1 / 3, 0.35, 0.5, 0.6, 2 / 3, 0.9))
def test_square_grid_counts_match_refined_reference(av):
    assert square_grid_counts(Parameter(av), 1, 10) == square_grid_reference(av, 1, 10)


@pytest.mark.parametrize("a, i", [
    (Fraction(2, 3), 5), (Fraction(2, 3), 7), (Fraction(2, 3), 8), (Fraction(5, 9), 8),
    (Fraction(7, 9), 7),
    # q^i < 2^53, so int64 numerators, but v 3^i can pass 2^63
    (Fraction(1, 181), 7), (Fraction(180, 181), 7), (Fraction(1, 97), 8),
    # q^2 just below and just above 2^53
    (Fraction(7, 94906265), 2), (Fraction(7, 94906267), 2),
], ids=("2/3-5", "2/3-7", "2/3-8", "5/9-8", "7/9-7", "1/181-7", "180/181-7", "1/97-8",
        "7/94906265-2", "7/94906267-2"))
def test_square_grid_counts_exact_match_fraction_reference(a, i):
    # an exact a is counted on its integer numerators, not on a float copy of a
    # (which gave 80 233 squares at 2/3, level 7)
    got = square_grid_counts(Parameter(a), 1, i)
    assert got == square_grid_reference_exact(a, 1, i)
    if (a, i) == (Fraction(2, 3), 7):
        assert got[-1] == (7, 80311)


@settings(max_examples=40, deadline=None)
@given(st.fractions(Fraction(1, 200), Fraction(199, 200), max_denominator=200),
       st.integers(1, 6))
@example(Fraction(1, 171), 7)
@example(Fraction(189, 190), 7)
@example(Fraction(97, 98), 8)
def test_square_grid_counts_exact_match_fraction_reference_at_random_a(a, i):
    # the examples have q^i < 2^53 <= 2^63 <= (3q)^i: int64 numerators whose rows
    # _cells must floor on Python ints
    assert square_grid_counts(Parameter(a), 1, i) == square_grid_reference_exact(a, 1, i)


@settings(max_examples=40, deadline=None)
@given(st.fractions(Fraction(1, 60), Fraction(59, 60), max_denominator=60))
@example(Fraction(1, 3))
@example(Fraction(1, 2))
@example(Fraction(2, 3))
@example(Fraction(7, 9))
@example(Fraction(1, 1000))
def test_square_grid_counts_lie_in_the_total_variation_bracket(a):
    # a column covers |w[k+1] - w[k]| + 1 squares, and floor moves each step
    # |w[k+1] - w[k]| by at most 1 from 3^i |v[k+1] - v[k]|, whose sum is 3^i TV_i
    tv = 2 * a + abs(1 - 2 * a)
    for i, n in square_grid_counts(Parameter(a), 0, 8):
        assert 3**i * tv**i <= n <= 3**i * tv**i + 2 * 3**i, (i, n)


def test_square_grid_counts_top_row_columns():
    # at a = 0.01 four level-10 columns next to x = 1 have both endpoint
    # values rounded to 1.0; each still occupies one square of the top row
    assert square_grid_counts(Parameter(0.01), 10, 10) == [(10, 118097)]


@pytest.mark.parametrize("run", (1, 7, 1000))
def test_square_grid_counts_span_blocks(monkeypatch, run):
    # f_i is read in blocks of `run` segments of f_(i - depth), each refined
    # depth times; with depth 0 and run 1 every level splits into one block a
    # column, so the step between two blocks must be counted once
    a = Fraction(5, 9)
    float_ref, exact_ref = square_grid_reference(0.9, 1, 8), square_grid_reference_exact(a, 1, 6)
    for depth in (0, 2):
        monkeypatch.setattr(function, "_BLOCK", (run, depth))
        assert square_grid_counts(Parameter(0.9), 1, 8) == float_ref
        assert square_grid_counts(Parameter(a), 1, 6) == exact_ref


def test_square_grid_peaks_near_construction():
    # f_i is read a block at a time, so levels 1..14 peak no higher than 1..10
    # plus one block's worth (they read 527 and 475 KB); f_14 built whole
    # peaks at 10.7 B a vertex, 51 MB
    a = Parameter(0.9)
    square_grid_counts(a, 1, 2)  # numpy loads untraced
    peaks = []
    for i_max in (10, 14):
        tracemalloc.start()
        try:
            square_grid_counts(a, 1, i_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    run, depth = function._BLOCK
    assert peaks[1] <= peaks[0] + (run * 3**depth + 1) * vertex_bytes(a, 14)


def test_geometry_level_bounds():
    # profiles answer up to the last level whose box count (3(2a+|1-2a|))^i
    # is a finite float: 420 at a = 0.7, 646 for every a <= 1/2
    a = Parameter(0.7)
    arc, cov = arc_length_profile(a, 420), cover_profile(a, 420)
    assert len(arc.levels) == len(cov.levels) == 421
    top = (arc.euclidean[-1], arc.manhattan[-1], arc.total_variation[-1], cov.area[-1],
           cov.boxes[-1])
    assert all(map(math.isfinite, top))
    for fn in (arc_length_profile, cover_profile):
        with pytest.raises(ResourceError):
            fn(a, 421)
        with pytest.raises(DomainError):
            fn(a, -1)
    prof = cover_profile(Parameter(0.35), 646)
    assert math.isfinite(prof.boxes[646]) and prof.area[646] > 0
    with pytest.raises(ResourceError):
        cover_profile(Parameter(0.35), 647)
    with pytest.raises(ResourceError):
        square_grid_counts(a, 1, 17)
    with pytest.raises(DomainError):
        square_grid_counts(a, -1, 5)


def test_chaos_weights():
    assert chaos_weights(Parameter(2 / 3)) == pytest.approx((2 / 5, 1 / 5, 2 / 5))
    with pytest.raises(UnsupportedRegionError):
        chaos_weights(Parameter(0.5))


def test_chaos_game_rejects_low_a_and_bad_n():
    with pytest.raises(UnsupportedRegionError):
        chaos_game(Parameter(0.4), 10)
    with pytest.raises(DomainError):
        chaos_game(Parameter(0.6), 0)


def test_chaos_game_refuses_a_point_count_over_budget():
    start = time.perf_counter()
    for n, burn_in in ((10**12, 30), (1, 10**12)):
        with pytest.raises(ResourceError):
            chaos_game(Parameter(0.7), n, burn_in=burn_in)
    assert time.perf_counter() - start < 1


def test_chaos_game_deterministic():
    s1 = chaos_game(Parameter(2 / 3), 500, seed=7)
    s2 = chaos_game(Parameter(2 / 3), 500, seed=7)
    assert np.array_equal(s1.points, s2.points)
    s3 = chaos_game(Parameter(2 / 3), 500, seed=8)
    assert not np.array_equal(s1.points, s3.points)


_CHAOS_A = (Parameter(0.51), Parameter(Fraction(2, 3)), Parameter(0.9), Parameter(0.99),
            Parameter(0.999))


def _chaos_maps(a):
    return tuple((m.x_scale, m.x_offset, m.y_scale, m.y_offset)
                 for m in ifs_maps(Parameter(a.as_float())))


def _choice_indices(a, steps, seed):
    return np.random.default_rng(seed).choice(3, size=steps, p=chaos_weights(a)).astype(np.int8)


_DRAW_STEPS = (1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5)


@pytest.mark.parametrize("a", _CHAOS_A, ids=str)
def test_map_indices_match_generator_choice(a):
    # the threshold rule draws the same doubles and picks the same maps as
    # choice, across the 2^14-step blocks of the draw
    for steps in _DRAW_STEPS:
        for seed in (0, 5):
            got = _map_indices(chaos_weights(a), steps, seed)
            assert got.dtype == np.int8
            assert np.array_equal(got, _choice_indices(a, steps, seed)), (steps, seed)


@settings(max_examples=60, deadline=None)
@given(av=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       steps=st.sampled_from(_DRAW_STEPS), seed=st.integers(0, 2**32 - 1))
def test_map_indices_match_generator_choice_at_any_a(av, steps, seed):
    a = Parameter(av)
    assert np.array_equal(_map_indices(chaos_weights(a), steps, seed), _choice_indices(a, steps, seed))


@pytest.mark.parametrize("a", _CHAOS_A, ids=str)
@pytest.mark.parametrize("seed", (0, 11))
def test_chaos_game_matches_reference_loop(a, seed):
    # The shortest orbit that runs in lanes, one step past its last lane.  At
    # a = 0.99 and 0.999 that is 350 000 and 3.5 million steps, too many for
    # the reference loop here; test_orbit_recomputes_lanes_that_start_wrong
    # runs lanes at those a.
    lanes = _MIN_LANES * _lane_length(chaos_weights(a), [m[2] for m in _chaos_maps(a)], 0) + 1
    cases = [(n, burn_in) for burn_in in (0, 25, 5000) for n in (1, 2000)]
    if lanes <= 40_000:
        cases += [(lanes - burn_in, burn_in) for burn_in in (0, 25, 5000)]
    for n, burn_in in cases:
        s = chaos_game(a, n, burn_in=burn_in, seed=seed)
        ref = np.array(chaos_reference(a.as_float(), n, burn_in, seed))
        assert s.points.tobytes() == ref.tobytes(), (n, burn_in)


@pytest.mark.parametrize("a", _CHAOS_A, ids=str)
@pytest.mark.parametrize("lane", (1, 8, 50, 2000))
def test_orbit_recomputes_lanes_that_start_wrong(a, lane):
    # Lanes shorter than the orbits take to meet (all of them at a = 0.999):
    # lanes after the first start wrong in both passes, so the whole orbit
    # falls back to the scalar loop, over more than one of its blocks at lane
    # 2000.
    steps, seed = _MIN_LANES * lane + 1, 4
    idx = _choice_indices(a, steps, seed)
    ref = np.array(chaos_reference(a.as_float(), steps, 0, seed))
    assert _orbit(idx, _chaos_maps(a), lane).tobytes() == ref.tobytes()


@pytest.mark.parametrize("av", (2 / 3, 0.9))
def test_realistic_orbits_take_the_lane_path(monkeypatch, av):
    # every lane meets the true orbit within its lane, so the scalar loop
    # runs once, only over the steps past the last whole lane
    calls, scalar_steps = [], geometry._scalar_steps

    def record(pts, idx, maps, lo, xy):
        calls.append((lo, len(idx)))
        scalar_steps(pts, idx, maps, lo, xy)

    monkeypatch.setattr(geometry, "_scalar_steps", record)
    a = Parameter(av)
    steps = 30 + 300_000
    lane = _lane_length(chaos_weights(a), [m[2] for m in _chaos_maps(a)], steps)
    for seed in range(3):
        calls.clear()
        chaos_game(a, 300_000, seed=seed)
        assert calls == [(steps // lane * lane, steps)], seed


def test_chaos_game_points_inside_unit_square():
    s = chaos_game(Parameter(0.9), 2000, seed=3)
    assert s.points.min() >= 0 and s.points.max() <= 1


def test_third_map_fixed_point():
    w1, w2, w3 = ifs_maps(Parameter(0.71))
    assert w3(1.0, 1.0) == (1.0, 1.0)


def test_chaos_game_lands_on_graph():
    a = Parameter(2 / 3)
    s = chaos_game(a, 500, burn_in=30, seed=7)
    ok = 0
    for x, y in s.points:
        r = eval_digit_series(a, to_ternary(float(x), 40), 1e-6)
        ok += abs(y - r.value) < 1e-5
    assert ok >= 495


def test_mass_bound_zero_cells_and_bound_formula():
    a = Parameter(2 / 3)
    s = chaos_game(a, 20000, seed=11)
    rep = mass_bound_check(s, 2)
    # empty cells trivially satisfy the bound
    assert rep.ratios.min() == 0
    d = SQRT2 / 9
    assert rep.bound == pytest.approx(5 * d ** (math.log(5) / math.log(3)))
    assert rep.flagged == ()


def test_mass_left_branch_weight():
    s = chaos_game(Parameter(2 / 3), 100000, seed=5)
    left = np.mean(s.points[:, 0] < 1 / 3)
    assert abs(left - 0.4) < 0.01


def test_mass_bound_check_refuses_a_grid_over_budget():
    s = chaos_game(Parameter(2 / 3), 10, seed=1)
    start = time.perf_counter()
    for level in (8, 12):  # 8 is the first level over 512 MiB at 25 bytes a cell
        with pytest.raises(ResourceError):
            mass_bound_check(s, level)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("av", (0.6, 2 / 3, 0.8, 0.95))
def test_mass_grid_matches_histogram2d(monkeypatch, av):
    # the ratios of the counts np.histogram2d gave over np.linspace edges, which
    # the cell rule floor(v 3^i) replaced, bit for bit; with blocks of 4096
    # points, 20 000 points fill four blocks and part of a fifth
    monkeypatch.setattr(geometry, "_POINT_BLOCK", 4096)
    for seed in range(5):
        s = chaos_game(Parameter(av), 20000, seed=seed)
        for level in range(1, 8):
            rep = mass_bound_check(s, level)  # first, as it must leave the points as they are
            edges = np.linspace(0.0, 1.0, 3**level + 1)
            hist, _, _ = np.histogram2d(s.points[:, 0], s.points[:, 1], bins=(edges, edges))
            ref = hist / len(s.points) / rep.bound
            assert np.array_equal(rep.ratios.view(np.int64), ref.view(np.int64)), (seed, level)


def test_mass_grid_edges():
    a = Parameter(2 / 3)

    def sample(points):
        return MassSample(a, np.array(points, dtype=float))

    # a coordinate of exactly 1.0 counts in the top cell
    rep = mass_bound_check(sample([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]), 2)
    assert {(int(i), int(j)) for i, j in np.argwhere(rep.ratios)} == {(8, 8), (0, 8), (8, 0),
                                                                       (0, 0)}
    for bad in ([1 + 2**-52, 0.5], [-1e-300, 0.5], [0.5, math.nan], [math.inf, 0.5]):
        with pytest.raises(DomainError):
            mass_bound_check(sample([[0.5, 0.5], bad]), 2)


def test_mass_bound_check_rejects_bad_args():
    s = chaos_game(Parameter(2 / 3), 10, seed=1)
    with pytest.raises(DomainError):
        mass_bound_check(s, 0)
