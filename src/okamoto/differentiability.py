"""Derivative behaviour of F_a: slope products, the critical value a0,

region classification, dense non-differentiability families, and the
digit-frequency experiment backing the almost-everywhere statements.

The central object is the product sequence D_m = (3-6a)^{ones(m)} (3a)^{m-ones(m)}
over the first m ternary digits of x; F_a'(x) exists iff that sequence
converges, and its generic behaviour is decided by
r(a, gamma) = 3 |1-2a|^gamma a^(1-gamma) with gamma the liminf digit ratio.
"""
from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat

from .errors import DomainError, PrecisionError, UnsupportedRegionError, check_budget
from .function import Parameter
from .ternary import DigitStats, TernaryExpansion, digit_stats

_R_TOL = 1e-12  # tolerance for deciding r(a, gamma) == 1


class LimitClass(enum.Enum):
    ZERO = "zero"
    DIVERGES = "diverges-in-magnitude"
    CONSTANT_ONE = "constant-one"
    OSCILLATES = "oscillates-on-unit-magnitude"


class RegionLabel(enum.Enum):
    IDENTITY = "identity"
    CANTOR = "cantor"
    AE_DIFFERENTIABLE = "ae-differentiable"
    AE_NONDIFFERENTIABLE = "ae-nondifferentiable"
    NOWHERE_DIFFERENTIABLE = "nowhere-differentiable"


@dataclass(frozen=True)
class DerivativeTrace:
    """Slope products D_m = values[m-1] / base^m along a digit stream, with digit statistics."""

    values: tuple
    base: int
    stats: DigitStats
    diverged: bool
    max_abs: float


@dataclass(frozen=True)
class RegionClass:
    """How F_a' and F_a'' behave for a given a, per the classification table."""

    label: RegionLabel
    first_derivative: str
    second_derivative: str
    a0: float


@dataclass(frozen=True)
class FrequencySummary:
    """Digit-ratio statistics over seeded random ternary streams."""

    samples: int
    n: int
    seed: int
    mean: float
    min: float
    max: float
    fraction_within: float  # fraction of samples with ratio in 1/3 +- 0.02


def derivative_trace(a: Parameter, x: TernaryExpansion, n: int) -> DerivativeTrace:
    """D_m = D_(m-1) * s(d_m) over x's digits, with slopes s(1) = 3-6a and s(0) = s(2) = 3a.

    For a = p/q and g = gcd(3, q) the slopes are the integers 3*M[d]/g (Parameter._series)
    over b = q/g, and values holds the N_m of D_m = N_m / b^m; a float a keeps its float
    slopes, over b = 1.  A value beyond the float range raises the diverged flag (float
    overflow saturates to signed infinity), and max_abs is taken over the other values;
    divergence is a reportable outcome, not an error.

    A float value takes 48 bytes at the peak (44.6 B measured at n = 2e6).  N_m has at
    most m*k bits, k the bit length of the largest slope: 64 + (n+1)*k/14 bytes a value
    overshoots the tracemalloc peak by 31-34 % at q = 5, n = 3000-10000, 11-12 % at
    q = 10^4 and 7 % at q = 10^30, n = 2000-6000 (x86-64, CPython 3.11).
    """
    stats = digit_stats(x, n)  # refuses an n outside 1..len(x.digits)
    if a.mode == "float":
        b, slopes, each = 1, (3 * a.value, 3 - 6 * a.value, 3 * a.value), 48
    else:
        q, _, mults, *_ = a._series
        b, slopes = q // math.gcd(3, q), tuple(3 // math.gcd(3, q) * m for m in mults)
        each = 64 + (n + 1) * max(map(abs, slopes)).bit_length() // 14  # mean over m
    check_budget(n * each, f"a trace of {n} values", f"about {each} bytes each")
    d, values = 1, []  # 1 * a float slope is that slope, bit for bit
    for dig in x.digits[:n]:
        d *= slopes[dig]
        values.append(d)
    # a NaN (inf * 0 after an overflow) follows an inf, so it is no max, and passes no test
    if a.mode == "float":
        sizes, max_abs = map(abs, values), max(abs(min(values)), abs(max(values)))
    else:  # |N_m| / b^m, with the powers of b made one at a time
        sizes = list(map(_float_abs, values, accumulate(repeat(b, n), operator.mul)))
        max_abs = max(sizes)
    diverged = max_abs > sys.float_info.max
    if diverged:
        max_abs = max((s for s in sizes if s <= sys.float_info.max), default=0.0)
    return DerivativeTrace(values=tuple(values), base=b, stats=stats, diverged=diverged,
                           max_abs=max_abs)


def _float_abs(num: int, den: int) -> float:
    """|num|/den correctly rounded, inf past the float range: rounding is monotone, so the
    largest is the float of the largest |num|/den, and only the largest float needs an exact test."""
    try:
        f = abs(num / den)  # int / int, which raises past the range
    except OverflowError:
        return math.inf
    return math.inf if f == sys.float_info.max and abs(num) > int(f) * den else f


def lowest_terms(tr: DerivativeTrace) -> tuple[list, list]:
    """The numerators and denominators of an exact trace's D_m = N_m / b^m in lowest terms.

    A slope (3/g)*p or (3/g)*(q-2p) shares no odd prime with b = q/g, as gcd(p, q) = 1, so
    one shift by the 2s N_m and b^m share reduces a row (0/1 at a = 1/2, where b = 2)."""
    b = tr.base
    e = (b & -b).bit_length() - 1  # b = 2^e * odd, and dens starts as the odd^m
    nums, dens = list(tr.values), list(accumulate(repeat(b >> e, len(tr.values)), operator.mul))
    for m, v in enumerate(nums if e else (), start=1):
        s = min((v & -v).bit_length() - 1, e * m) if v else e * m  # the 2s they share
        nums[m - 1], dens[m - 1] = v >> s, dens[m - 1] << e * m - s
    return nums, dens


def generic_rate(a: Parameter, gamma: float) -> float:
    """r(a, gamma) = 3 |1-2a|^gamma a^(1-gamma), the per-digit growth rate.

    0^0 is taken as 1, so gamma = 0 at a = 1/2 gives r = 3a."""
    af = a.as_float()
    base = abs(1 - 2 * af)
    return 3.0 * base**gamma * af ** (1 - gamma)


def classify_limit(a: Parameter, gamma: float) -> LimitClass:
    """Limit behaviour of D_n for a digit stream with liminf ratio gamma."""
    if not 0 <= gamma <= 1:
        raise DomainError("gamma must lie in [0, 1]")
    r = generic_rate(a, gamma)
    if r < 1 - _R_TOL:
        return LimitClass.ZERO
    if r > 1 + _R_TOL:
        return LimitClass.DIVERGES
    if _region(a) is RegionLabel.IDENTITY:
        return LimitClass.CONSTANT_ONE
    return LimitClass.OSCILLATES


def _cubic(w: Fraction) -> Fraction:
    """54w^3 - 27w^2 - 1, exactly: on (0, 1) it is negative below a0 and positive above."""
    return 54 * w**3 - 27 * w**2 - 1


def _a0_bracket(tol: float) -> tuple[float, float]:
    """Floats lo < hi around a0, by bisection on the cubic's exact sign from
    (1/2, 2/3), where it goes from -1 to 3, down to width <= tol or adjacent floats."""
    lo, hi = 0.5, 2 / 3
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _cubic(Fraction(mid)) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_a0(tol: float) -> float:
    """The unique root of 54a^3 - 27a^2 - 1 = 0 in (1/2, 2/3): the midpoint of
    a bracket of width <= tol."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    lo, hi = _a0_bracket(tol)
    if hi - lo > tol:
        raise PrecisionError(f"tol {tol:.3g} is below float resolution near the root",
                             achievable=hi - lo)
    return 0.5 * (lo + hi)


@cache
def critical_a0() -> float:
    """The float nearest a0, computed once: the cubic's sign at the exact
    midpoint of the two adjacent floats around a0 picks the nearer."""
    lo, hi = _a0_bracket(0.0)
    return lo if _cubic((Fraction(lo) + Fraction(hi)) / 2) > 0 else hi


def _region(a: Parameter) -> RegionLabel:
    """Where a lies among 1/3, 1/2, a0 and 2/3.

    1/3, 1/2 and 2/3 are compared in a's own arithmetic, so the float nearest
    1/3 is the identity.  a >= a0 is decided by the sign of the cubic at a's
    exact value, a rational in both modes, as a float is a dyadic rational."""
    v, frac = a.value, a.frac
    if v == frac(1, 3):
        return RegionLabel.IDENTITY
    if v == frac(1, 2):
        return RegionLabel.CANTOR
    if v >= frac(2, 3):
        return RegionLabel.NOWHERE_DIFFERENTIABLE
    if _cubic(Fraction(v)) >= 0:
        return RegionLabel.AE_NONDIFFERENTIABLE
    return RegionLabel.AE_DIFFERENTIABLE


# the first and second derivative of F_a in each region
_DERIVATIVES = {
    RegionLabel.IDENTITY: ("F' = 1 everywhere (F is the identity)", "F'' = 0 everywhere"),
    RegionLabel.CANTOR: ("F' = 0 a.e. (all x outside the Cantor set)", "F'' = 0 a.e."),
    RegionLabel.AE_DIFFERENTIABLE: ("F' = 0 a.e.", "F'' exists nowhere"),
    RegionLabel.AE_NONDIFFERENTIABLE: ("F' diverges a.e.", "F'' exists nowhere"),
    RegionLabel.NOWHERE_DIFFERENTIABLE: ("F' exists nowhere", "F'' exists nowhere"),
}


def region_classify(a: Parameter) -> RegionClass:
    """Where a falls in the differentiability landscape.

    Boundaries: 1/3 (identity), 1/2 (Cantor), a0 (derivative a.e. zero vs
    a.e. divergent), 2/3 (divergence a.e. becomes divergence everywhere).
    The second derivative is zero a.e. only for a in {1/3, 1/2}; for every
    other a it exists nowhere.
    """
    label = _region(a)
    return RegionClass(label, *_DERIVATIVES[label], critical_a0())


def nondiff_points(a: Parameter, i: int) -> tuple[range, int]:
    """The known dense family of non-differentiability points at level i as
    (numerators, den): the points a.frac(k, den) for k in numerators, increasing.

    For a in (0, 1/3): the half-grid points (2k+1) / (2 * 3**i), digits ending in 1s.
    For a in (1/3, 1/2) or (1/2, a0): the grid points k / 3**i, ending in 0s (2s at 1).
    Elsewhere no finite family is available (for a >= a0 almost every point
    already qualifies), which is reported as an unsupported region.
    """
    if i < 0:
        raise DomainError("level must be >= 0")
    if _region(a) is not RegionLabel.AE_DIFFERENTIABLE:
        raise UnsupportedRegionError(
            f"no finite non-differentiability family is known for a = {a}; "
            "supported ranges are (0, 1/3) and (1/3, 1/2) u (1/2, a0)"
        )
    n = 3**i
    if a.value < a.frac(1, 3):
        return range(1, 2 * n, 2), 2 * n
    return range(n + 1), n


def _stream_digits(seed: int, index: int, n: int) -> "numpy.ndarray":
    """n uniform ternary digits for sample `index` of experiment `seed`.

    The generator is derived from (seed, index), so a stream is reproducible
    and independent of how samples are distributed across workers."""
    import numpy as np

    return np.random.default_rng([seed, index]).integers(0, 3, size=n)


def random_digit_stream(seed: int, index: int, n: int) -> TernaryExpansion:
    """n uniform ternary digits for sample `index` of experiment `seed`.

    A digit takes 16 bytes at the peak (16.0 B measured at n = 1e6 and 1e7):
    the drawn int64 array, then the list and the tuple of the digits."""
    if seed < 0 or index < 0:
        raise DomainError("seed must be >= 0" if seed < 0 else "index must be >= 0")
    check_budget(16 * n, f"a stream of {n} digits", "16 bytes per digit")
    return TernaryExpansion(tuple(_stream_digits(seed, index, n).tolist()))


def digit_frequency_experiment(samples: int, n: int, seed: int) -> FrequencySummary:
    """Distribution of ones(n)/n over the streams random_digit_stream(seed, idx, n).

    A sample takes 25 bytes (its ratio and the temporaries of the summary;
    23.8 B measured per sample from 1e5 to 3e5 samples), and the one stream
    alive at a time 10 bytes per digit (9.6 B measured at n = 1e7).
    """
    if samples < 1 or n < 1:
        raise DomainError("samples and n must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    check_budget(25 * samples + 10 * n, f"an experiment of {samples} samples of {n} digits",
                 "25 bytes per sample and 10 per digit")
    import numpy as np

    ratios = np.empty(samples)
    for idx in range(samples):
        ratios[idx] = np.count_nonzero(_stream_digits(seed, idx, n) == 1) / n
    within = float(np.mean(np.abs(ratios - 1 / 3) <= 0.02))
    return FrequencySummary(samples, n, seed, float(ratios.mean()), float(ratios.min()),
                            float(ratios.max()), within)
