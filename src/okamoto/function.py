"""Construction and evaluation of the Okamoto function family F_a.

Three equivalent views of the same object:
  * the inductive piecewise-affine iterations f_i on the grids k/3^i,
  * a digit series over the ternary expansion of x, evaluated with a
    certified tail bound,
  * the iterated function system of three plane contractions whose unique
    invariant set is the graph of F_a.

Everything runs in one of two arithmetic modes, exact rationals or floats,
and the mode is decided in one place: `Parameter.frac` builds the constants
and grid points of either mode, so every view has one code path for both.
For a = p/q the digit series and construction run on integers over powers
of q (q = 1 for a float a); construction refines numpy arrays of them, typed
by one rule (_typed), and numpy is imported only there.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Sequence

from .errors import DomainError, PrecisionError, ResourceError, check_budget
from .ternary import TernaryExpansion


def parse_real(text: str, exact: bool, name: str) -> Fraction | float:
    """'p/q' (always exact) or a decimal (exact only on request) as a Fraction or float."""
    text = text.strip()
    if "/" in text or exact:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise DomainError(f"{name} = {text} has a zero denominator") from None
    return float(text)


@dataclass(frozen=True)
class Parameter:
    """The family parameter a in (0,1), carrying its arithmetic mode."""

    value: Fraction | float

    def __post_init__(self):
        if not 0 < self.value < 1:
            raise DomainError(f"parameter a = {self.value} must lie strictly inside (0, 1)")

    @property
    def mode(self) -> str:
        return "exact" if isinstance(self.value, Fraction) else "float"

    @property
    def frac(self) -> Callable[[int, int], Fraction | float]:
        """(p, q) -> p/q in this parameter's arithmetic: Fraction or float division."""
        return Fraction if self.mode == "exact" else operator.truediv

    def as_float(self) -> float:
        return float(self.value)

    @cached_property
    def _series(self) -> tuple:
        """Digit-series coefficients (q, O, M, tail_num, tail_den) of this a.

        For a = p/q the digit maps are o(d) = O[d]/q and m(d) = M[d]/q with
        O = (0, p, q-p) and M = (p, q-2p, p), so after n digits every partial
        sum and product is an integer over q^n.  The tail coefficient
        max(a, 1-a) / (1 - max(a, |1-2a|)) is tail_num / tail_den.  A float
        a uses q = tail_den = 1, and tail_num = inf where that margin rounds to 0.
        """
        if self.mode == "exact":
            p, q = self.value.numerator, self.value.denominator
            return q, (0, p, q - p), (p, q - 2 * p, p), max(p, q - p), q - max(p, abs(q - 2 * p))
        av = self.value
        margin = 1 - max(av, abs(1 - 2 * av))
        tail = max(av, 1 - av) / margin if margin else math.inf
        return 1, (0.0, av, 1 - av), (av, 1 - 2 * av, av), tail, 1

    @classmethod
    def parse(cls, text: str, exact: bool = False) -> "Parameter":
        """Parse 'p/q' (always exact) or a decimal (exact only on request)."""
        return cls(parse_real(text, exact, "parameter a"))

    def __str__(self) -> str:
        if self.mode == "exact":
            return f"{self.value.numerator}/{self.value.denominator}"
        return f"{self.value:.17g}"


@dataclass(frozen=True)
class IterationGraph:
    """Level-i approximant: f_i(k / 3**i) = numerators[k] / denominator, 3**i + 1 vertices."""

    level: int
    numerators: Any  # numpy.ndarray of int64 or Python ints for a = p/q, float64: see _typed
    a: Parameter

    def __post_init__(self):
        if len(self.numerators) != 3**self.level + 1:
            raise DomainError(
                f"level {self.level} graph needs {3**self.level + 1} vertices, "
                f"got {len(self.numerators)}"
            )

    @property
    def denominator(self) -> int:
        """q^level for a = p/q, 1 for a float a."""
        return self.a._series[0] ** self.level

    @cached_property
    def vertices(self) -> Sequence:
        """f_i(k / 3**i) in a's arithmetic: a list of Fractions, or the float64 numerators."""
        if self.a.mode == "float":
            return self.numerators
        den = self.denominator
        return [Fraction(y, den) for y in self.numerators.tolist()]


@dataclass(frozen=True)
class AffineMap2D:
    """One plane contraction w(x, y) = (sx*x + tx, sy*y + ty)."""

    x_scale: Fraction | float
    x_offset: Fraction | float
    y_scale: Fraction | float
    y_offset: Fraction | float

    def __call__(self, x, y):
        return (self.x_scale * x + self.x_offset, self.y_scale * y + self.y_offset)


@dataclass(frozen=True)
class EvalResult:
    """A function value together with its certified error bound."""

    value: Fraction | float
    error_bound: Fraction | float
    digits_used: int


def _typed(v, a: Parameter, i: int):
    """v as level i's numerators: float64 for a float a; for a = p/q int64 while
    q^i < 2^53, where every value _refined forms lies in [-q^i, q^i] and is an exact
    float64, else Python ints.  The one number rule of construction; v is copied
    only where its type changes."""
    import numpy as np

    exact = "int64" if a._series[0] ** i < 2**53 else object
    return np.asarray(v).astype(float if a.mode == "float" else exact, copy=False)


def refine(g: IterationGraph, a: Parameter) -> IterationGraph:
    """One inductive step: each affine segment (yL, yR) is replaced by three,

    with new interior vertices yL + a*(yR-yL) and yL + (1-a)*(yR-yL); all
    existing grid values are preserved exactly.  On numerators over q^i with
    offsets O = (0, p, q-p), vertex j of a segment is q*vL + O[j]*(vR-vL); a
    float a runs the same code with q = 1 and O = (0, a, 1-a), so no product
    by q rounds.  g's numerators are first cast to level i+1's type (_typed)."""
    if a != g.a:
        raise DomainError("refine called with a different parameter than the graph's")
    return IterationGraph(g.level + 1, _refined(_typed(g.numerators, a, g.level + 1), a, 1), a)


def _refined(v, a: Parameter, times: int):
    """The numerators v refined `times` times: the one body of construction."""
    import numpy as np

    q, (_, p, r), *_ = a._series
    for _ in range(times):
        out = np.empty(3 * (len(v) - 1) + 1, dtype=v.dtype)
        qv = np.multiply(v, q, out=out[0::3])
        # in place, so the only other array alive is v: d = vR - vL goes into the
        # third slice, p*d into the second, then (q-p)*d, and q*vL is added to both
        d = np.subtract(v[1:], v[:-1], out=out[2::3])
        np.multiply(d, p, out=out[1::3])
        d *= r
        out[1::3] += qv[:-1]
        d += qv[:-1]
        v = out
    return v


def vertex_bytes(a: Parameter, i: int) -> int:
    """Upper estimate of the memory one level-i vertex takes during construction.

    11 for float64: _refined's output array and its input, a third its size,
    peak at 10.7 B per vertex (tracemalloc, levels 12-14), as do the int64 of
    a = p/q while q^i < 2^53.  A level-i numerator has at most i*bit_length(q)
    bits; building it and reading .vertices once, a Fraction over q^i each, peaks
    (x86-64, CPython 3.11, tracemalloc) at 168-169 B per vertex at q = 5 (levels
    9-13), 204-206 B at q = 10^4 (levels 10-11) and 3.0-3.4 KB at q = 10^300
    (levels 8-9); 200 + i*bit_length(q)/2 covers each, by 26-39 %.
    _level_blocks refuses the same levels, though it holds f_(i-6) and a block.
    """
    if a.mode == "float":
        return 11
    return 200 + i * a.value.denominator.bit_length() // 2


def _check_level(a: Parameter, i: int) -> None:
    """Refuse level i of a, as construct_iteration's docstring says."""
    if i < 0:
        raise DomainError("level must be >= 0")
    each = vertex_bytes(a, i)
    # 3^17 float64 vertices are already over budget, so no larger power of 3 is formed
    check_budget((3 ** min(i, 17) + 1) * each, f"level {i}",
                 f"3^{i} + 1 vertices of about {each} bytes each")


def construct_iteration(a: Parameter, i: int) -> IterationGraph:
    """i-fold refinement of the identity graph f_0, numerators [0, 1] over q^0 = 1.

    Refuses a level whose 3^i + 1 vertices, at vertex_bytes(a, i) each, exceed
    CONSTRUCTION_BUDGET: float levels above 16, and above 13 for a = 3/5."""
    _check_level(a, i)
    return IterationGraph(i, _refined(_typed([0, 1], a, i), a, i), a)


#: A block of f_i is 27 segments of f_(i-6) refined 6 times: 19 684 vertices,
#: 157 KB of float64.  Smaller blocks saved 0.6 MB of the peak of a process
#: running several commands but made the square grid at level 16 up to 4.4
#: times slower (CHANGES.md).
_BLOCK = (27, 6)


def _level_blocks(a: Parameter, i: int):
    """(q^i, blocks): the numerators of f_i over q^i in x order, in blocks of _BLOCK.

    A block (k, v) holds vertices k, k + 1, ... and starts at the previous block's last
    one; a segment's children depend on its two end vertices alone, so a run refined on
    its own gets the level's own bits.  Level i is refused as construct_iteration refuses
    it, before any block is made.  The coarse level f_(i-6), and so every block, has
    level i's type (_typed), as construct_iteration(a, i).numerators has."""
    _check_level(a, i)
    run, depth = _BLOCK[0], min(_BLOCK[1], i)
    den, coarse = a._series[0] ** i, _refined(_typed([0, 1], a, i), a, i - depth)
    return den, ((s * 3**depth, _refined(coarse[s:s + run + 1], a, depth))
                 for s in range(0, len(coarse) - 1, run))


def sample_graph(a: Parameter, i: int) -> list[tuple]:
    """Polyline of f_i: the 3**i + 1 points (k/3**i, vertex[k]) in x order."""
    g, frac, n = construct_iteration(a, i), a.frac, 3**i
    den = g.denominator
    return [(frac(k, n), frac(y, den)) for k, y in enumerate(g.numerators.tolist())]


def series_digits(a: Parameter, tol) -> int:
    """Least n >= 1 with rho^n C <= tol/2, rho = max(a, |1-2a|) and C the tail coefficient.

    So n digits certify tol at every x, the 2 covering rounding; where rho
    rounds to 1 for an exact a, n > need 2^54, past 2^53 for tol below 2^52."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    q, _, mults, tail_num, tail_den = a._series
    need = math.log(tail_num) - math.log(tail_den) + math.log(2) - math.log(tol)
    rate = -math.log(max(map(abs, mults)) / q)  # -log(rho)
    if not rate and a.mode == "exact" and need > 0:  # rho rounds to 1
        raise ResourceError(f"tol {float(tol):.3g} needs more than 2^53 digits of x at a = {a}")
    # where rho rounds to 1, a float a has no margin, and eval_digit_series refuses it
    return math.ceil(max(1, need / rate)) if rate else 1


def eval_digit_series(a: Parameter, x: TernaryExpansion, tol) -> EvalResult:
    """Evaluate F_a at x from its ternary digits, with a certified bound.

    F_a(0.d1 d2 ...) = sum over p of o(d_p) * prod_{q<p} m(d_q), where
    o(0)=0, o(1)=a, o(2)=1-a and m(0)=m(2)=a, m(1)=1-2a.  The tail after p
    digits is bounded by |prod| * max(a,1-a) / (1 - max(a,|1-2a|)); the sum
    stops as soon as that certificate drops below tol.  Terminating
    expansions (and the all-2s expansion of 1) are evaluated exactly.

    Exact mode keeps the sum V and product P as integers over S = q^n (see
    Parameter._series) and builds Fractions only for the result; float mode
    runs the same loop with q = S = 1.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    exact, frac = a.mode == "exact", a.frac
    if x.is_one:
        return EvalResult(frac(1, 1), frac(0, 1), 0)
    q, offsets, mults, tail_num, tail_den = a._series
    if tail_num == math.inf:
        raise PrecisionError(f"float a = {a} leaves 1 - max(a, |1-2a|) = 0, so no digit series "
                             "can be certified; give a as an exact fraction p/q")
    # the certificate |P|/S * tail_num/tail_den < tol, as |P| * c1 < c2 * S
    if not exact:
        c1, c2 = tail_num, tol
    elif tol == math.inf:
        c1, c2 = 0, 1
    else:
        t = Fraction(tol)
        c1, c2 = tail_num * t.denominator, t.numerator * tail_den
    digits = x.digits
    if not x.is_truncation:
        # trailing zeros contribute nothing; stop at the last nonzero digit
        last = 0
        for p, d in enumerate(digits, start=1):
            if d:
                last = p
        digits = digits[:last]
    V, P, S = 0, 1, 1
    used = 0
    for d in digits:
        V = V * q + P * offsets[d]
        P *= mults[d]
        S *= q
        used += 1
        if abs(P) * c1 < c2 * S:  # holds once P is 0, since c2 * S > 0
            break
    else:
        if not x.is_truncation:
            P = 0  # trailing zeros contribute nothing: the value is exact
        elif not abs(P) * c1 < c2 * S:  # the only test when no digit was consumed
            bound = float(frac(abs(P) * tail_num, tail_den * S))
            raise PrecisionError(
                f"{used} digits certify only {bound:.3g}, above tol {float(tol):.3g}",
                achievable=bound,
            )
    return EvalResult(frac(V, S), frac(abs(P) * tail_num, tail_den * S), used)


def ifs_maps(a: Parameter) -> tuple[AffineMap2D, AffineMap2D, AffineMap2D]:
    """The three contractions whose invariant set is the graph of F_a.

    w1(x,y) = (x/3, a y)
    w2(x,y) = ((2-x)/3, (2a-1) y + (1-a))
    w3(x,y) = ((2+x)/3, a y + (1-a))
    """
    av, frac = a.value, a.frac
    third, two_thirds, zero = frac(1, 3), frac(2, 3), frac(0, 1)
    return (
        AffineMap2D(third, zero, av, zero),
        AffineMap2D(-third, two_thirds, 2 * av - 1, 1 - av),
        AffineMap2D(third, two_thirds, av, 1 - av),
    )
