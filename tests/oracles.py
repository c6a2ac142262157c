"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the Cantor value comes
straight from the classic digit rule, the recursive evaluator walks the
three-piece subdivision directly instead of using the digit series, and the
geometry references sum over the materialised vertices of f_i instead of
using self-affinity.  The construction and chaos-game references are plain
per-element loops over the paper's formulas instead of array code.
"""
import math
import sys
from fractions import Fraction

import numpy as np


def cantor_value(digits):
    """Devil's staircase from ternary digits: halve 0/2 digits until the

    first 1, which contributes the final 2^-p term."""
    v = Fraction(0)
    for p, d in enumerate(digits, start=1):
        if d == 1:
            return v + Fraction(1, 2**p)
        v += Fraction(d, 2 ** (p + 1))
    return v


def ternary_digits_reference(k: int, i: int) -> tuple:
    """The i ternary digits of k / 3^i, for 0 <= k < 3^i: the base-3 numeral
    of k, read off by repeated divmod."""
    ds = []
    for _ in range(i):
        k, r = divmod(k, 3)
        ds.append(r)
    return tuple(reversed(ds))


def to_ternary_reference(x, n: int):
    """to_ternary as one plain loop whose snap test forms 3^p at every depth p.

    A float's remainder num/den snaps to the nearest integer when it lies
    within min(3^p * 2^-48, 1e-9) of it; the library stops growing the first
    term at depth 12, where the 1e-9 cap already decides."""
    from okamoto.ternary import TernaryExpansion

    if x == 1:
        return TernaryExpansion((2,) * n, is_truncation=True, source=(3**n, n))
    if isinstance(x, (Fraction, int)):
        num, den, snap = x.numerator, x.denominator, False
    else:
        (num, den), snap = float(x).as_integer_ratio(), True
    digits, end = [], None
    for p in range(1, n + 1):
        num *= 3
        if snap and num % den:
            m = (2 * num + den) // (2 * den)
            diff = abs(num - m * den)
            if (diff << 48) < den * 3**p and diff * 10**9 < den:
                num = m * den
        d = min(num // den, 2)
        digits.append(d)
        num -= d * den
        if num == 0:
            digits.extend([0] * (n - p))
            end = p
            break
    source = None
    if end is not None:
        k = 0
        for d in digits[:end]:
            k = 3 * k + d
        while end and k % 3 == 0:
            k, end = k // 3, end - 1
        source = (k, end)
    return TernaryExpansion(tuple(digits), is_truncation=end is None, source=source)


def okamoto_recursive(a: Fraction, x: Fraction, depth: int) -> Fraction:
    """Evaluate F_a at a ternary rational by direct interval subdivision.

    Exact whenever x is a multiple of 3^-depth."""
    lo, hi = Fraction(0), Fraction(1)
    ylo, yhi = Fraction(0), Fraction(1)
    for _ in range(depth):
        if x == lo:
            return ylo
        if x == hi:
            return yhi
        third = (hi - lo) / 3
        d = yhi - ylo
        ya, yb = ylo + a * d, ylo + (1 - a) * d
        if x < lo + third:
            hi, ylo, yhi = lo + third, ylo, ya
        elif x < lo + 2 * third:
            lo, hi, ylo, yhi = lo + third, lo + 2 * third, ya, yb
        else:
            lo, ylo, yhi = lo + 2 * third, yb, yhi
    if x == lo:
        return ylo
    if x == hi:
        return yhi
    raise ValueError(f"x = {x} is not resolved at depth {depth}")


def series_reference(a, x, tol):
    """The digit series with generic arithmetic, one Fraction or float per step.

    ``a`` is the parameter value (Fraction or float) and ``x`` a
    TernaryExpansion.  Returns (value, error_bound, digits_used), or raises
    ValueError(message, achievable) where the library raises PrecisionError.
    This is the evaluator the integer-scaled core replaced; it stays as the
    reference that core is compared against, results and messages alike.
    """
    zero = a * 0
    one = zero + 1
    if x.is_one:
        return one, zero, 0
    offsets = (zero, a, 1 - a)
    mults = (a, 1 - 2 * a, a)
    tail_coeff = max(a, 1 - a) / (1 - max(a, abs(1 - 2 * a)))
    digits = x.digits
    if not x.is_truncation:
        last = 0
        for p, d in enumerate(digits, start=1):
            if d:
                last = p
        digits = digits[:last]
    value = zero
    prod = one
    bound = abs(prod) * tail_coeff
    used = 0
    for d in digits:
        value += prod * offsets[d]
        prod *= mults[d]
        used += 1
        bound = abs(prod) * tail_coeff
        if prod == 0:
            return value, zero, used
        if bound < tol:
            return value, bound, used
    if not x.is_truncation:
        return value, zero, used
    if bound < tol:  # no digit consumed
        return value, bound, used
    raise ValueError(
        f"{used} digits certify only {float(bound):.3g}, above tol {float(tol):.3g}",
        float(bound),
    )


def refine_reference(vertices, a):
    """One refinement step, segment by segment, in generic arithmetic.

    ``vertices`` is a sequence of Fractions or floats and ``a`` the parameter
    value in the same arithmetic.  Each segment (yL, yR) becomes the three
    vertices yL, yL + a*(yR-yL), yL + (1-a)*(yR-yL); the last vertex is kept.
    This is the per-segment loop the library's exact mode ran before both
    modes shared one array path.
    """
    out = []
    for yl, yr in zip(vertices[:-1], vertices[1:]):
        delta = yr - yl
        out.extend((yl, yl + a * delta, yl + (1 - a) * delta))
    out.append(vertices[-1])
    return out


def derivative_trace_reference(av, digits, n: int):
    """(values, diverged, max_abs) of derivative_trace as its first plain loop.

    D_m = D_(m-1) * (3-6a if d_m == 1 else 3a) from D_0 = 1, in av's own
    arithmetic (Fraction or float); every value is tested against the float
    range before it can raise max_abs.
    """
    m_one = 3 - 6 * av
    m_other = 3 * av
    d = Fraction(1) if isinstance(av, Fraction) else 1.0
    values = []
    max_abs = 0.0
    diverged = False
    for dig in digits[:n]:
        d = d * (m_one if dig == 1 else m_other)
        values.append(d)
        if abs(d) > sys.float_info.max:
            diverged = True
        elif abs(d) > max_abs:
            max_abs = abs(d)
    return tuple(values), diverged, float(max_abs)


def chaos_reference(a: float, n: int, burn_in: int, seed: int):
    """The weighted chaos game as a plain loop over the paper's three maps.

    w1(x,y) = (x/3, a y), w2(x,y) = ((2-x)/3, (2a-1) y + (1-a)) and
    w3(x,y) = ((2+x)/3, a y + (1-a)), drawn with probabilities proportional
    to (a, 2a-1, a) from numpy's seeded generator, starting at (0, 0).
    Returns the n points after burn_in steps as a list of (x, y) tuples.
    """
    maps = ((1 / 3, 0.0, a, 0.0), (-1 / 3, 2 / 3, 2 * a - 1, 1 - a), (1 / 3, 2 / 3, a, 1 - a))
    total = 4 * a - 1
    idx = np.random.default_rng(seed).choice(
        3, size=burn_in + n, p=(a / total, (2 * a - 1) / total, a / total))
    x = y = 0.0
    points = []
    for t, j in enumerate(idx):
        sx, tx, sy, ty = maps[j]
        x, y = sx * x + tx, sy * y + ty
        if t >= burn_in:
            points.append((x, y))
    return points


def vertex_geometry(a: float, i_max: int):
    """Per-level (euclidean, total_variation, boxes) summed over the vertices of f_i.

    Each level is refined from the last and its 3^i segments are summed
    directly: the Euclidean length of the polyline, TV_i = sum |dy| and the
    column-cover box count TV_i * 3^i.  This is the vertex-based geometry the
    closed forms replaced."""
    # imported here: the benchmark's checker loads this module without okamoto
    from okamoto.function import Parameter, construct_iteration, refine

    pa = Parameter(a)
    g = construct_iteration(pa, 0)
    out = []
    for i in range(i_max + 1):
        if i:
            g = refine(g, pa)
        dy = np.diff(g.vertices)
        dx = 3.0**-i
        tv = float(np.sum(np.abs(dy)))
        out.append((float(np.sum(np.sqrt(dx * dx + dy * dy))), tv, tv * 3.0**i))
    return out


def square_grid_reference(a: float, i_min: int, i_max: int):
    """Occupied delta-squares per level, with column extrema read off f_(i_max+3).

    The vertex-based counter the endpoint-span one replaced: every column's
    minimum and maximum run over all the finer vertices inside it."""
    from okamoto.function import Parameter, construct_iteration

    fine = i_max + 3
    v = np.asarray(construct_iteration(Parameter(a), fine).vertices)
    out = []
    for i in range(i_min, i_max + 1):
        cols = 3**i
        seg = 3 ** (fine - i)
        left = v[:-1].reshape(cols, seg)
        right = v[seg::seg]
        cmin = np.minimum(left.min(axis=1), right)
        cmax = np.maximum(left.max(axis=1), right)
        scale = 3.0**i
        # values at (or rounded to) 1.0 belong to the top row of cells
        lo = np.minimum(np.floor(cmin * scale), scale - 1)
        hi = np.minimum(np.floor(cmax * scale), scale - 1)
        out.append((i, int(np.sum(hi - lo + 1))))
    return out


def square_grid_reference_exact(a: Fraction, i_min: int, i_max: int):
    """Occupied delta-squares per level for an exact a, with no float anywhere.

    The vertices of f_(i_max+1) come from refine_reference on Fractions, and
    every column's minimum and maximum over all the finer vertices inside it
    are floored as Fractions."""
    fine = i_max + 1
    v = [Fraction(0), Fraction(1)]
    for _ in range(fine):
        v = refine_reference(v, a)
    out = []
    for i in range(i_min, i_max + 1):
        seg, scale = 3 ** (fine - i), 3**i
        count = 0
        for c in range(scale):
            col = v[c * seg:(c + 1) * seg + 1]
            # values equal to 1 belong to the top row of cells
            lo, hi = (min(math.floor(y * scale), scale - 1) for y in (min(col), max(col)))
            count += hi - lo + 1
        out.append((i, count))
    return out


def least_squares_reference(points):
    """Exact least-squares line (slope, intercept) through float points (x, y).

    Every point is read as the Fraction of its float, and the normal
    equations are solved in Fractions, so nothing is rounded."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return slope, (sy - slope * sx) / n


def printf_rows(row: str, cols):
    """The rows of cols in the printf template row, one % a row, newline-joined.

    numpy columns go through .tolist(), so each field formats a Python int or
    float, as CPython's own % does."""
    cols = [c.tolist() if hasattr(c, "tolist") else c for c in cols]
    return "\n".join(row % values for values in zip(*cols))
