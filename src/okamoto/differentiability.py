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
from dataclasses import dataclass
from functools import cache

from .errors import DomainError, PrecisionError, UnsupportedRegionError
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

    a: Parameter
    digits: TernaryExpansion
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

    Float overflow saturates to signed infinity and raises the diverged
    flag; divergence is a reportable outcome, not an error.
    """
    if n < 1:
        raise DomainError("trace length must be >= 1")
    if n > len(x.digits):
        raise DomainError(f"trace length {n} exceeds {len(x.digits)} available digits")
    av = a.value
    m_one = 3 - 6 * av
    m_other = 3 * av
    d = a.frac(1, 1)
    values = []
    max_abs = 0.0
    diverged = False
    for dig in x.digits[:n]:
        d = d * (m_one if dig == 1 else m_other)
        values.append(d)
        df = abs(float(d))
        if math.isinf(df):
            diverged = True
        elif df > max_abs:
            max_abs = df
    return DerivativeTrace(
        a=a,
        digits=x,
        values=tuple(values),
        stats=digit_stats(x, n),
        diverged=diverged,
        max_abs=max_abs,
    )


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
    if a.is_exactly(1, 3):
        return LimitClass.CONSTANT_ONE
    return LimitClass.OSCILLATES


def find_a0(tol: float) -> float:
    """The unique root of 54a^3 - 27a^2 - 1 = 0 in (1/2, 2/3), by bisection.

    The bracket is shrunk until its width is <= tol; g(1/2) = -1 < 0 and
    g(2/3) = 3 > 0 guarantee the root is inside throughout."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    lo, hi = 0.5, 2 / 3
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise PrecisionError(
                f"tol {tol:.3g} is below float resolution near the root",
                achievable=hi - lo,
            )
        if 54 * mid**3 - 27 * mid**2 - 1 < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@cache
def critical_a0() -> float:
    """a0 to full float precision, computed once."""
    return find_a0(1e-15)


def region_classify(a: Parameter) -> RegionClass:
    """Where a falls in the differentiability landscape.

    Boundaries: 1/3 (identity), 1/2 (Cantor), a0 (derivative a.e. zero vs
    a.e. divergent), 2/3 (divergence a.e. becomes divergence everywhere).
    The second derivative is zero a.e. only for a in {1/3, 1/2}; for every
    other a it exists nowhere.
    """
    a0 = critical_a0()
    if a.is_exactly(1, 3):
        return RegionClass(
            RegionLabel.IDENTITY,
            "F' = 1 everywhere (F is the identity)",
            "F'' = 0 everywhere",
            a0,
        )
    if a.is_exactly(1, 2):
        return RegionClass(
            RegionLabel.CANTOR,
            "F' = 0 a.e. (all x outside the Cantor set)",
            "F'' = 0 a.e.",
            a0,
        )
    af = a.as_float()
    if af >= 2 / 3:
        return RegionClass(
            RegionLabel.NOWHERE_DIFFERENTIABLE,
            "F' exists nowhere",
            "F'' exists nowhere",
            a0,
        )
    if af >= a0:
        return RegionClass(
            RegionLabel.AE_NONDIFFERENTIABLE,
            "F' diverges a.e.",
            "F'' exists nowhere",
            a0,
        )
    return RegionClass(
        RegionLabel.AE_DIFFERENTIABLE,
        "F' = 0 a.e.",
        "F'' exists nowhere",
        a0,
    )


def nondiff_points(a: Parameter, i: int) -> list:
    """The known dense family of non-differentiability points at level i.

    For a in (0, 1/3): the half-grid points (2k+1) / (2 * 3**i).
    For a in (1/3, 1/2) or (1/2, a0): the grid points k / 3**i.
    Elsewhere no finite family is available (for a >= a0 almost every point
    already qualifies), which is reported as an unsupported region.
    """
    if i < 0:
        raise DomainError("level must be >= 0")
    af = a.as_float()
    frac, n = a.frac, 3**i
    if 0 < af < 1 / 3 and not a.is_exactly(1, 3):
        return [frac(2 * k + 1, 2 * n) for k in range(n)]
    in_second = (1 / 3 < af < critical_a0()) and not (
        a.is_exactly(1, 3) or a.is_exactly(1, 2)
    )
    if in_second:
        return [frac(k, n) for k in range(n + 1)]
    raise UnsupportedRegionError(
        f"no finite non-differentiability family is known for a = {a}; "
        "supported ranges are (0, 1/3) and (1/3, 1/2) u (1/2, a0)"
    )


def _stream_digits(seed: int, index: int, n: int) -> "numpy.ndarray":
    """n uniform ternary digits for sample `index` of experiment `seed`.

    The generator is derived from (seed, index), so a stream is reproducible
    and independent of how samples are distributed across workers."""
    import numpy as np

    return np.random.default_rng([seed, index]).integers(0, 3, size=n)


def random_digit_stream(seed: int, index: int, n: int) -> TernaryExpansion:
    """n uniform ternary digits for sample `index` of experiment `seed`."""
    return TernaryExpansion(tuple(_stream_digits(seed, index, n).tolist()))


def digit_frequency_experiment(samples: int, n: int, seed: int) -> FrequencySummary:
    """Distribution of ones(n)/n over the streams random_digit_stream(seed, idx, n)."""
    if samples < 1 or n < 1:
        raise DomainError("samples and n must be >= 1")
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
