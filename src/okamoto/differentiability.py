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
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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
    """Slope products D_1..D_n along a digit stream, with digit statistics."""

    values: tuple
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
    """D_m built by the recursion D_m = D_{m-1} * (3-6a if d_m == 1 else 3a).

    A value beyond the float range raises the diverged flag, in both modes
    (float overflow saturates to signed infinity), and max_abs is taken over
    the other values; divergence is a reportable outcome, not an error.

    A float value takes 48 bytes at the peak (47.7 B measured at n = 2e6).
    For a = p/q, D_m is an integer over q^m, about 100 + m*k/7 bytes with
    k = bit_length(q) + bit_length(3q), so the trace grows quadratically in n;
    that overshoots peak RSS by 74 % at q = 5, n = 3000, by 20-24 % at
    q = 10^4, n = 3000-6000 and by 10 % at q = 10^30, n = 2000 (x86-64,
    CPython 3.11).
    """
    if n < 1:
        raise DomainError("trace length must be >= 1")
    if n > len(x.digits):
        raise DomainError(f"trace length {n} exceeds {len(x.digits)} available digits")
    av = a.value
    if a.mode == "float":
        each = 48
    else:
        q = av.denominator
        each = 100 + (n + 1) * (q.bit_length() + (3 * q).bit_length()) // 14  # mean over m
    check_budget(n * each, f"a trace of {n} values", f"about {each} bytes each")
    m_one = 3 - 6 * av
    m_other = 3 * av
    d = a.frac(1, 1)
    size = abs if a.mode == "float" else _float_abs
    values = []
    max_abs = 0.0
    diverged = False
    fmax = sys.float_info.max
    # max_abs never exceeds fmax, so a value beyond fmax is always beyond
    # max_abs first; a NaN (inf * 0 after an overflow) passes neither test.
    for dig in x.digits[:n]:
        d = d * (m_one if dig == 1 else m_other)
        values.append(d)
        ad = size(d)
        if ad > max_abs:
            if ad > fmax:
                diverged = True
            else:
                max_abs = ad
    return DerivativeTrace(values=tuple(values), stats=digit_stats(x, n),
                           diverged=diverged, max_abs=max_abs)


def _float_abs(d: Fraction) -> float:
    """|d| correctly rounded, inf past the float range: rounding is monotone, so the
    largest is the float of the largest |d|, and only the largest float needs an exact test."""
    try:
        f = float(abs(d))  # int / int, which raises past the range
    except OverflowError:
        return math.inf
    return math.inf if f == sys.float_info.max and abs(d) > f else f


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
    return FrequencySummary(
        samples=samples,
        n=n,
        seed=seed,
        mean=float(ratios.mean()),
        min=float(ratios.min()),
        max=float(ratios.max()),
        fraction_within=within,
    )
