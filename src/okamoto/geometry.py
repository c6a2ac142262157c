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

from .errors import DomainError, ResourceError, UnsupportedRegionError, check_budget
from .function import Parameter, construct_iteration, ifs_maps

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LengthProfile:
    """Per-level polyline lengths of the iterations f_0..f_imax."""

    a: Parameter
    levels: tuple[int, ...]
    euclidean: tuple[float, ...]
    manhattan: tuple[float, ...]  # sum of |dx| + |dy| = 1 + total variation
    total_variation: tuple[float, ...]


@dataclass(frozen=True)
class CoverProfile:
    """Column-cover areas and box counts per level, delta = 3^-i."""

    a: Parameter
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
    """Chaos-game point cloud distributed per the natural measure on the graph."""

    a: Parameter
    points: np.ndarray  # shape (n, 2)
    weights: tuple[float, float, float]
    seed: int
    burn_in: int


@dataclass(frozen=True)
class MassBoundReport:
    """Empirical cell masses versus the (12a-3)|U|^s bound, s = log3(12a-3)."""

    grid_level: int
    bound: float
    slack: float
    ratios: np.ndarray  # shape (3^i, 3^i): mu(cell) / bound
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
    return LengthProfile(a, levels, tuple(euclid), tuple(1.0 + t for t in tv), tv)


def cover_profile(a: Parameter, i_max: int) -> CoverProfile:
    """Column-cover area A_i = TV_i * 3^-i and box count N_i = A_i / 9^-i.

    Each level-i column holds one affine piece whose range is its height, so
    the minimal width-delta rectangle cover of f_i has area TV_i * delta."""
    levels, _, _, tv = _total_variation(a, i_max)
    return CoverProfile(
        a,
        levels,
        tuple(3.0**-i for i in levels),
        tuple(t * 3.0**-i for i, t in zip(levels, tv)),
        tuple(t * 3.0**i for i, t in zip(levels, tv)),
    )


def square_grid_counts(a: Parameter, i_min: int, i_max: int) -> list[tuple[int, int]]:
    """Conventional box counting: occupied delta-squares per level.

    F_a ranges over a level-i column exactly between its endpoint values,
    so level i reads every 3^(i_max-i)-th vertex of f_(i_max); each column
    of width delta contributes the grid cells between floor(min/delta) and
    floor(max/delta)."""
    import numpy as np

    if i_min < 0:
        raise DomainError("i_min must be >= 0")
    v = np.asarray(construct_iteration(Parameter(a.as_float()), i_max).vertices)
    out = []
    for i in range(i_min, i_max + 1):
        # floor commutes with min and max; in place, as one level-16 array is 344 MB
        w = v[:: 3 ** (i_max - i)] * 3.0**i
        np.floor(w, out=w)
        # a value of 1.0 (F_a(1), or one rounded up to it) belongs to the top row
        np.minimum(w, 3.0**i - 1, out=w)
        lo = np.minimum(w[:-1], w[1:])
        hi = np.maximum(w[:-1], w[1:])
        hi -= lo
        out.append((i, int(np.sum(hi)) + len(hi)))
    return out


def dimension_reference(a: Parameter) -> float:
    """Closed-form box dimension: log3(12a-3) for a > 1/2, else 1."""
    af = a.as_float()
    if af > 0.5:
        return math.log(12 * af - 3) / math.log(3)
    return 1.0


def dimension_estimate(
    a: Parameter, i_min: int, i_max: int, method: str = "column"
) -> DimensionEstimate:
    """Slope of log N versus log(1/delta) over levels i_min..i_max."""
    import numpy as np

    if not i_max > i_min >= 1:
        raise DomainError("need i_max > i_min >= 1 for a two-point fit")
    if method == "column":
        prof = cover_profile(a, i_max)
        pairs = [(i, prof.boxes[i]) for i in range(i_min, i_max + 1)]
    elif method == "square":
        pairs = square_grid_counts(a, i_min, i_max)
    else:
        raise DomainError(f"unknown box-counting method {method!r}")
    x = np.array([i * math.log(3) for i, _ in pairs])
    y = np.array([math.log(n) for _, n in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DimensionEstimate(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=resid,
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

    Maps are drawn with the natural-measure weights; the orbit is within
    3^-burn_in (horizontally) of the attractor when recording starts.

    A step takes 28 bytes at the peak: its map index, and a point of two
    float64 once recorded (27.4 B measured at n = 2e6)."""
    import numpy as np

    if n < 1:
        raise DomainError("need n >= 1 points")
    if burn_in < 0:
        raise DomainError("burn_in must be >= 0")
    check_budget(28 * (burn_in + n), f"a chaos game of {burn_in} + {n} steps", "28 bytes each")
    w = chaos_weights(a)
    xs, xo, ys, yo = zip(*((m.x_scale, m.x_offset, m.y_scale, m.y_offset)
                           for m in ifs_maps(Parameter(a.as_float()))))
    rng = np.random.default_rng(seed)
    idx = rng.choice(3, size=burn_in + n, p=w)
    pts = np.empty((n, 2))
    x = y = 0.0
    for t, j in enumerate(idx):
        x = xs[j] * x + xo[j]
        y = ys[j] * y + yo[j]
        if t >= burn_in:
            pts[t - burn_in, 0] = x
            pts[t - burn_in, 1] = y
    return MassSample(a=a, points=pts, weights=w, seed=seed, burn_in=burn_in)


def mass_bound_check(sample: MassSample, grid_level: int, slack: float = 0.2) -> MassBoundReport:
    """Empirical mass per 3^-i grid cell against (12a-3)|U|^s, s = log3(12a-3).

    |U| is the cell diameter sqrt(2) * 3^-i.  Cells whose empirical mass
    exceeds (1 + slack) times the bound are flagged; the check is
    statistical, so a small slack absorbs sampling noise."""
    import numpy as np

    if grid_level < 1:
        raise DomainError("grid_level must be >= 1")
    if len(sample.points) == 0:
        raise DomainError("sample is empty")
    af = sample.a.as_float()
    m = 3**grid_level
    edges = np.linspace(0.0, 1.0, m + 1)
    hist, _, _ = np.histogram2d(sample.points[:, 0], sample.points[:, 1], bins=(edges, edges))
    mu = hist / len(sample.points)
    s = dimension_reference(sample.a)
    bound = (12 * af - 3) * (SQRT2 * 3.0**-grid_level) ** s
    ratios = mu / bound
    flagged = tuple(
        (int(ix), int(iy)) for ix, iy in np.argwhere(ratios > 1 + slack)
    )
    return MassBoundReport(
        grid_level=grid_level,
        bound=bound,
        slack=slack,
        ratios=ratios,
        flagged=flagged,
        max_ratio=float(ratios.max()),
    )
