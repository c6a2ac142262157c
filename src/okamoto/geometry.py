"""Geometry of the graph of F_a: arc length, cover areas and box counts,

dimension regression, and the weighted chaos game with its mass-bound check.

Everything except the square grid and the chaos game comes from
self-affinity, in O(i) work per level.  Each of the 3^i pieces of the
level-i polyline is an affine copy of the whole graph over a column of width
3^-i, and its slope magnitude is a^k |1-2a|^(i-k) with multiplicity
C(i,k) 2^k.  So the total variation is TV_i = (2a+|1-2a|)^i, which decides
the arc-length bounds (finite iff a <= 1/2), and the column-cover area is
A_i = TV_i * 3^-i, whose box count N_i = A_i / delta^2 is (12a-3)^i for
a > 1/2.  Since F_a([0,1]) = [0,1], F_a ranges over each column exactly
between the column's two endpoint values, which is all the square grid reads.
Only the functions that need numpy import it, so the profiles run without it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any

from .errors import DomainError, ResourceError, UnsupportedRegionError, check_budget
from .function import Parameter, _level_blocks, ifs_maps

SQRT2 = math.sqrt(2.0)
_POINT_BLOCK = 2**16  # glibc serves blocks this large by mmap: no heap left
MASS_SLACK = 0.2  # share by which a cell's mass may pass its bound: sampling noise


@dataclass(frozen=True)
class LengthProfile:
    """Per-level polyline lengths of the iterations f_0..f_imax."""

    levels: tuple[int, ...]
    euclidean: tuple[float, ...]
    manhattan: tuple[float, ...]  # sum of |dx| + |dy| = 1 + total variation
    total_variation: tuple[float, ...]


@dataclass(frozen=True)
class CoverProfile:
    """Column-cover areas and box counts per level, delta = 3^-i."""

    levels: tuple[int, ...]
    delta: tuple[float, ...]
    area: tuple[float, ...]
    boxes: tuple[float, ...]


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares slope of log N against log(1/delta)."""

    slope: float
    intercept: float
    max_residual: float
    reference: float  # log3(12a-3) for a > 1/2, else 1
    method: str


@dataclass(frozen=True)
class MassSample:
    """Chaos-game points on the graph, distributed per the natural measure (chaos_weights(a))."""

    a: Parameter
    points: Any  # numpy.ndarray, shape (n, 2)


@dataclass(frozen=True)
class MassBoundReport:
    """Empirical cell masses versus the (12a-3)|U|^s bound, s = log3(12a-3)."""

    grid_level: int
    bound: float
    ratios: Any  # numpy.ndarray, shape (3^i, 3^i): mu(cell) / bound
    flagged: tuple[tuple[int, int], ...]
    max_ratio: float


def _total_variation(a: Parameter, i_max: int):
    """Levels 0..i_max, slope magnitudes s = a and r = |1-2a|, and TV_i = (2s+r)^i.

    Refuses i_max above the largest level whose box count (3(2s+r))^i is a
    finite float; every other profile value is smaller.  Python's float
    overflow cannot be left to say so, as for a > 1/2 it returns inf."""
    if i_max < 0:
        raise DomainError("i_max must be >= 0")
    s = a.as_float()
    r = abs(1 - 2 * s)
    top = math.floor(math.log(sys.float_info.max) / math.log(3 * (2 * s + r)))
    if i_max > top:
        raise ResourceError(
            f"level {i_max} exceeds {top}, the last level whose box count "
            f"(3(2a+|1-2a|))^i is a finite float at a = {a}"
        )
    levels = tuple(range(i_max + 1))
    return levels, s, r, tuple((2 * s + r) ** i for i in levels)


def arc_length_profile(a: Parameter, i_max: int) -> LengthProfile:
    """Euclidean and Manhattan polyline lengths of f_i for i = 0..i_max.

    Level i has C(i,k) 2^k pieces of width 3^-i and height a^k |1-2a|^(i-k),
    so the Euclidean length is a sum of i+1 terms and the Manhattan length
    is 1 + TV_i."""
    levels, s, r, tv = _total_variation(a, i_max)
    two_k, s_k, r_k = ([b**k for k in levels] for b in (2.0, s, r))
    euclid = []
    for i in levels:
        c, width, terms = 1, 3.0**-i, []  # c = C(i, k), exactly
        for k in range(i + 1):
            terms.append(c * two_k[k] * math.hypot(width, s_k[k] * r_k[i - k]))
            c = c * (i - k) // (k + 1)
        euclid.append(math.fsum(terms))
    return LengthProfile(levels, tuple(euclid), tuple(1.0 + t for t in tv), tv)


def cover_profile(a: Parameter, i_max: int) -> CoverProfile:
    """Column-cover area A_i = TV_i * 3^-i and box count N_i = A_i / 9^-i.

    Each level-i column holds one affine piece whose range is its height, so
    the minimal width-delta rectangle cover of f_i has area TV_i * delta."""
    levels, _, _, tv = _total_variation(a, i_max)
    return CoverProfile(
        levels,
        tuple(3.0**-i for i in levels),
        tuple(t * 3.0**-i for i, t in zip(levels, tv)),
        tuple(t * 3.0**i for i, t in zip(levels, tv)),
    )


def square_grid_counts(a: Parameter, i_min: int, i_max: int) -> list[tuple[int, int]]:
    """Conventional box counting: occupied delta-squares per level.

    F_a ranges over a level-i column exactly between its endpoint values, and
    floor is monotone, so column k covers |w[k+1] - w[k]| + 1 squares, w the
    rows of f_i's vertices (_cells on _level_blocks' numerators).  Blocks of f_i share
    their end vertices, and the top level goes first: an over-budget level is
    refused before any work."""
    import numpy as np

    if i_min < 0:
        raise DomainError("i_min must be >= 0")
    out = []
    for i in range(i_max, i_min - 1, -1):
        den, blocks = _level_blocks(a, i)
        steps = (int(np.abs(np.diff(_cells(v, den, i))).sum()) for _, v in blocks)
        out.append((i, 3**i + sum(steps)))
    return out[::-1]


def _cells(v, den, i: int):
    """Row floor(v 3^i / den) of each value v/den on the 3^-i grid, 1 in the top row.

    Floor division of numerators over q^n, on Python ints where v 3^i could pass 2^63,
    np.floor of floats (den = 1).  A value outside [0, 1], or a NaN, raises DomainError."""
    import numpy as np

    if not (v.min() >= 0 and v.max() <= den):
        raise DomainError("grid values must lie in [0, 1]")
    v = v.astype(object) if v.dtype == np.int64 and den * 3**i >= 2**63 else v
    w = np.multiply(v, 3**i)
    np.floor(w, out=w) if w.dtype == float else np.floor_divide(w, den, out=w)
    return np.minimum(w, 3**i - 1, out=w)


def dimension_reference(a: Parameter) -> float:
    """Closed-form box dimension: log3(12a-3) for a > 1/2, else 1."""
    af = a.as_float()
    if af > 0.5:
        return math.log(12 * af - 3) / math.log(3)
    return 1.0


def dimension_estimate(
    a: Parameter, i_min: int, i_max: int, method: str = "column"
) -> DimensionEstimate:
    """Slope of log N versus log(1/delta) over levels i_min..i_max.

    Least squares from centred sums, each rounded once by math.fsum, so the
    bits depend neither on numpy's LAPACK nor on the Python version.
    """
    if not i_max > i_min >= 1:
        raise DomainError("need i_max > i_min >= 1 for a two-point fit")
    if method == "column":
        prof = cover_profile(a, i_max)
        pairs = [(i, prof.boxes[i]) for i in range(i_min, i_max + 1)]
    elif method == "square":
        pairs = square_grid_counts(a, i_min, i_max)
    else:
        raise DomainError(f"unknown box-counting method {method!r}")
    x = [i * math.log(3) for i, _ in pairs]
    y = [math.log(n) for _, n in pairs]
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxy = math.fsum((u - xm) * (v - ym) for u, v in zip(x, y))
    sxx = math.fsum((u - xm) * (u - xm) for u in x)
    slope = sxy / sxx
    intercept = ym - slope * xm
    return DimensionEstimate(
        slope=slope,
        intercept=intercept,
        max_residual=max(abs(v - (slope * u + intercept)) for u, v in zip(x, y)),
        reference=dimension_reference(a),
        method=method,
    )


def chaos_weights(a: Parameter) -> tuple[float, float, float]:
    """Map probabilities proportional to the area factors (a, 2a-1, a)."""
    af = a.as_float()
    if af <= 0.5:
        raise UnsupportedRegionError(
            f"chaos-game weights need a > 1/2 (got a = {a}): weight 2a-1 must be positive"
        )
    total = 4 * af - 1
    return (af / total, (2 * af - 1) / total, af / total)


def chaos_game(a: Parameter, n: int, burn_in: int = 30, seed: int = 0) -> MassSample:
    """Random IFS iteration from (0,0), keeping points after burn_in steps.

    Maps are drawn with the natural-measure weights, from the seeded
    generator's uniform doubles by a threshold rule that gives
    Generator.choice's indices (see _map_indices).  (0, 0) lies on the graph,
    which each map sends into itself, so every point does too, up to rounding;
    burn_in drops the first points, clustered at images of (0, 0), so the
    sample's distribution has forgotten its start.

    The orbit is the sequential one to the last bit, computed in lanes (see
    _orbit), so a seed gives the same points as a plain loop over the steps.
    A step takes 18 bytes at the peak: its map index as int8, and a point of
    two float64, burn-in included (17.4 B measured at n = 2e6)."""
    if n < 1:
        raise DomainError("need n >= 1 points")
    if burn_in < 0 or seed < 0:
        raise DomainError("burn_in must be >= 0" if burn_in < 0 else "seed must be >= 0")
    check_budget(18 * (burn_in + n), f"a chaos game of {burn_in} + {n} steps", "18 bytes each")
    w = chaos_weights(a)
    maps = tuple((m.x_scale, m.x_offset, m.y_scale, m.y_offset)
                 for m in ifs_maps(Parameter(a.as_float())))
    idx = _map_indices(w, burn_in + n, seed)
    pts = _orbit(idx, maps, _lane_length(w, [m[2] for m in maps], burn_in + n))
    return MassSample(a=a, points=pts[burn_in:])


def _map_indices(w, steps: int, seed: int):
    """The map index of each step, as int8: default_rng(seed).choice(3, steps, p=w).

    choice draws one uniform double u a step and returns the number of
    entries of cdf = cumsum(w) / cdf[-1] that are <= u.  cdf[2] is exactly
    1 > u, so that number is (u >= cdf[0]) + (u >= cdf[1]), which is
    written straight into the int8 indices.  Drawing 2^14 steps at a time
    gives the same doubles as one draw; the only temporaries are a block of
    doubles and a block of bools."""
    import numpy as np

    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    rng, idx = np.random.default_rng(seed), np.empty(steps, np.int8)
    for b in range(0, steps, 2**14):
        s = idx[b:b + 2**14]
        u = rng.random(len(s))
        np.greater_equal(u, cdf[0], out=s, casting="unsafe")
        s += u >= cdf[1]
    return idx


#: Fewest lanes worth running in numpy.  A lane step costs a few numpy calls
#: (about 6 us over both passes) where a scalar step costs about 0.3 us, so
#: the lanes must share each call among dozens of steps to win.
_MIN_LANES = 32
#: Most lanes: _lane_steps buffers 2^13 lane-steps a block, so with at most
#: 1024 lanes a block holds at least 8 steps of each, a 128-byte run of rows.
_MAX_LANES = 1024


def _lane_length(w, y_scales, steps: int) -> int:
    """Steps after which a lane started from a guess has all but surely met the true orbit.

    Two orbits driven by the same maps draw together by each step's scale:
    1/3 in x, the map's y-scale in y.  So their y distance falls by e^-c a
    step on average, c = -sum w_j log(y_scale_j), and the 53 bits of a
    float64 take 53 log 2 / c steps; x, at log 3 a step, is never slower.
    A lane is four times that, at least 64 steps: 271 at a = 2/3, 1038 at
    0.9, and over 110 000 at 0.999, where a few lanes leave it all to the
    scalar loop.  Long orbits get longer lanes, at most _MAX_LANES of them."""
    c = -math.fsum(p * math.log(s) for p, s in zip(w, y_scales))
    return max(64, math.ceil(4 * 53 * math.log(2) / c), -(-steps // _MAX_LANES))


def _orbit(idx, maps, lane: int):
    """Row t of the result is the orbit of (0, 0) after steps 0..t, step t applying maps[idx[t]].

    Each step rounds twice per coordinate, s*v then + o, exactly as a
    scalar loop does, so rows equal that loop's bit for bit.  With at least
    _MIN_LANES lanes of `lane` steps, the steps are split into contiguous
    lanes, all advanced one step per numpy call:

    1. every lane runs from (0, 0), a guess that is right for lane 0 only;
    2. every lane reruns from its predecessor's end, which is the true
       start once that predecessor met the true orbit within its lane;
    3. if every lane's start has the same bits as its predecessor's end,
       every lane is the sequential orbit, by induction from lane 0, and
       only the steps past the last whole lane run in Python floats.
       Otherwise the whole orbit does, as it does with fewer lanes."""
    import numpy as np

    pts = np.empty((len(idx), 2))
    lanes, lo, xy = len(idx) // lane, 0, (0.0, 0.0)
    if lanes >= _MIN_LANES:
        end = lanes * lane
        rows, steps = pts[:end].reshape(lanes, lane, 2), idx[:end].reshape(lanes, lane)
        table = np.array([[m[0::2] for m in maps], [m[1::2] for m in maps]])  # scale, offset
        _lane_steps(rows, steps, table, np.zeros((lanes, 2)), False)
        starts = np.zeros((lanes, 2))
        starts[1:] = rows[:-1, -1]
        _lane_steps(rows, steps, table, starts, True)
        if np.array_equal(starts[1:].view(np.int64), rows[:-1, -1].view(np.int64)):
            lo, xy = end, rows[-1, -1].tolist()
    _scalar_steps(pts, idx, maps, lo, xy)
    return pts


def _lane_steps(rows, steps, table, xy, merge: bool) -> None:
    """Advances every lane from its start xy[k] through steps[k], writing rows[k].

    Work goes a block of steps at a time into a step-major buffer, so each
    numpy call reads and writes contiguous memory.  With merge, stops after
    the first block at whose end every lane already holds, to the bit, the
    state it just computed: from there on the rows hold what this pass
    would write."""
    import numpy as np

    lanes, lane = steps.shape
    block = max(1, 2**13 // lanes)
    out = rows.view(np.complex128)[..., 0]  # one 16-byte item a point, for the transposed copy
    for b in range(0, lane, block):
        e = min(b + block, lane)
        scale, offset = table.take(steps[:, b:e].T, axis=1)
        work = np.empty_like(scale)
        for t in range(e - b):
            np.multiply(xy, scale[t], out=work[t])
            np.add(work[t], offset[t], out=work[t])
            xy = work[t]
        met = merge and np.array_equal(rows[:, e - 1].view(np.int64), xy.view(np.int64))
        out[:, b:e] = work.view(np.complex128)[..., 0].T
        if met:
            return


def _scalar_steps(pts, idx, maps, lo: int, xy) -> None:
    """Runs steps lo..len(idx)-1 from the point xy in Python floats, writing pts[lo:]."""
    x, y = xy
    for b in range(lo, len(idx), 1024):
        xs, ys = [], []
        for j in idx[b:b + 1024].tolist():
            sx, ox, sy, oy = maps[j]
            x = sx * x + ox
            y = sy * y + oy
            xs.append(x)
            ys.append(y)
        pts[b:b + 1024, 0] = xs
        pts[b:b + 1024, 1] = ys


def mass_bound_check(sample: MassSample, grid_level: int) -> MassBoundReport:
    """Empirical mass per 3^-i grid cell against (12a-3)|U|^s, s = log3(12a-3).

    |U| is the cell diameter sqrt(2) * 3^-i.  Cells whose empirical mass
    exceeds (1 + MASS_SLACK) times the bound are flagged.

    A cell takes at most 25 bytes: its count, mass and ratio, 8 bytes each,
    and its flag (17.1 B measured at level 7), plus one block of points."""
    import numpy as np

    if grid_level < 1:
        raise DomainError("grid_level must be >= 1")
    if len(sample.points) == 0:
        raise DomainError("sample is empty")
    # 9^16 cells are far over the budget already; no need to build a huger int
    check_budget(25 * 9 ** min(grid_level, 16), f"a mass grid of level {grid_level}",
                 "25 bytes a cell")
    af = sample.a.as_float()
    pts, m = sample.points, 3**grid_level
    counts = np.zeros(m * m, dtype=np.intp)
    for b in range(0, len(pts), _POINT_BLOCK):
        cell = _cells(pts[b:b + _POINT_BLOCK], 1, grid_level) @ (m, 1)  # row x * m + row y
        np.add.at(counts, cell.astype(np.intp), 1)
    s = dimension_reference(sample.a)
    bound = (12 * af - 3) * (SQRT2 * 3.0**-grid_level) ** s
    ratios = counts.reshape(m, m) / len(pts) / bound
    flagged = tuple(
        (int(ix), int(iy)) for ix, iy in np.argwhere(ratios > 1 + MASS_SLACK)
    )
    return MassBoundReport(
        grid_level=grid_level,
        bound=bound,
        ratios=ratios,
        flagged=flagged,
        max_ratio=float(ratios.max()),
    )
