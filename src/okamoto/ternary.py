"""Base-3 digit machinery: expansions, canonical conventions, digit statistics.

Points of [0,1] are addressed by their ternary expansion x = 0.d1 d2 d3...
Two conventions are fixed once and for all: expansions of ternary rationals
terminate (trailing zeros), and x = 1 is written with every digit equal to 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, check_budget

# Snap thresholds for float digit extraction.  The remainder is scaled by 3
# at every step, so the guard that recognises "this float really encodes a
# ternary rational" must grow with the depth p: we snap when the remainder is
# within min(3^p * 2^-48, 1e-9) of an integer.  The first term tracks the
# worst-case amplification of the half-ulp representation error, the cap
# keeps false snaps at genuinely irrational points negligible.  From depth
# 12 on the cap decides alone (2^48 * 1e-9 < 3^12), so the first term stops
# growing there and each digit costs the same.
_SNAP_SHIFT = 48
_SNAP_CAP_DEN = 10**9
_SNAP_DEPTH = 12


@dataclass(frozen=True)
class TernaryExpansion:
    """A finite run of base-3 digits, with flags describing what it stands for.

    ``is_truncation`` is True when the digits are merely a prefix of a longer
    expansion; when False, the trailing digits are all zero by convention and
    the expansion pins down its value exactly.  ``source`` optionally records
    an exact rational origin (k, i) meaning k / 3**i.
    """

    digits: tuple[int, ...]
    is_truncation: bool = True
    source: tuple[int, int] | None = None

    def __post_init__(self):
        if any(d not in (0, 1, 2) for d in self.digits):
            raise DomainError("ternary digits must be 0, 1 or 2")
        if self.source is not None:
            k, i = self.source
            if i < 0 or not 0 <= k <= 3**i:
                raise DomainError(f"source ({k}, {i}) is not a point of [0,1]")

    @property
    def is_one(self) -> bool:
        """True when the expansion is known to represent x = 1."""
        return self.source is not None and self.source[0] == 3 ** self.source[1]


@dataclass(frozen=True)
class DigitStats:
    """Running count of 1-digits over a prefix of an expansion."""

    n: int
    ones_count: int
    ratio: Fraction
    gamma_estimate: Fraction

    def __post_init__(self):
        if not 0 <= self.ones_count <= self.n:
            raise DomainError("ones_count out of range")


def _extract_digits(num: int, den: int, n: int, snap: bool):
    """Digits of num/den by repeated multiply-by-3, optionally snapping.

    Returns the n digits and the position of the last one that a terminating
    expansion needs (after which all are zero), or None if it does not end."""
    digits = []
    for p in range(1, n + 1):
        num *= 3
        if snap and num % den:
            m = (2 * num + den) // (2 * den)  # round(num/den)
            diff = abs(num - m * den)
            if (diff << _SNAP_SHIFT) < den * 3 ** min(p, _SNAP_DEPTH) and diff * _SNAP_CAP_DEN < den:
                num = m * den
        d = num // den
        if d > 2:  # float input snapped up to 1.0 mid-stream
            d = 2
        digits.append(d)
        num -= d * den
        if num == 0:
            digits.extend([0] * (n - p))
            return digits, p
    return digits, None


def to_ternary(x, n: int) -> TernaryExpansion:
    """First n ternary digits of x in [0,1].

    Exact inputs (Fraction/int) are expanded exactly; floats go through the
    snap guard so that binary representations of ternary rationals come out
    terminating.  x = 1 yields all 2s.

    Each digit takes 16 bytes at the peak, a pointer in the working list and
    one in the returned tuple (16.0 B measured at n = 4e6, x = 1/7).
    """
    if n < 1:
        raise DomainError("digit count must be >= 1")
    check_budget(16 * n, f"{n} digits of x", "16 bytes each")
    if not 0 <= x <= 1:
        raise DomainError(f"x = {x} outside [0, 1]")
    if x == 1:
        return TernaryExpansion((2,) * n, is_truncation=True, source=(3**n, n))
    if isinstance(x, (Fraction, int)):
        num, den, snap = x.numerator, x.denominator, False
    else:
        num, den = float(x).as_integer_ratio()
        snap = True
    digits, end = _extract_digits(num, den, n, snap)
    source = None
    if end is not None:
        k = 0
        for d in digits[:end]:
            k = 3 * k + d
        while end and k % 3 == 0:  # x = 0 and a snap to 0 end on a 0 digit
            k, end = k // 3, end - 1
        source = (k, end)
    return TernaryExpansion(tuple(digits), is_truncation=end is None, source=source)


def ternary_rational(k: int, i: int) -> TernaryExpansion:
    """Canonical expansion of k / 3**i with i digits.

    k = 3**i stands for x = 1 and comes out as all 2s (a truncation of the
    infinite all-2s expansion, tagged with its exact source).
    """
    if i < 0 or not 0 <= k <= 3**i:
        raise DomainError(f"k = {k} out of range for level i = {i}")
    if k == 3**i:
        return TernaryExpansion((2,) * i, is_truncation=True, source=(k, i))
    digits, _ = _extract_digits(k, 3**i, i, False)
    return TernaryExpansion(tuple(digits), is_truncation=False, source=(k, i))


def digit_stats(e: TernaryExpansion, n: int) -> DigitStats:
    """Count of 1-digits among the first n digits, with a liminf proxy.

    gamma_estimate is min over m in [ceil(n/2), n] of ones(m)/m: a finite
    stand-in for liminf ones(n)/n that ignores early-digit noise.
    """
    if n < 1:
        raise DomainError("prefix length must be >= 1")
    if n > len(e.digits):
        raise DomainError(f"prefix length {n} exceeds expansion length {len(e.digits)}")
    lo = math.ceil(n / 2)
    ones = e.digits[:lo].count(1)
    # ones(m), m of the least ratio so far, compared by cross-multiplying
    best_ones, best_m = ones, lo
    for m, d in enumerate(e.digits[lo:n], start=lo + 1):
        ones += d == 1
        if ones * best_m < best_ones * m:
            best_ones, best_m = ones, m
    return DigitStats(n=n, ones_count=ones, ratio=Fraction(ones, n),
                      gamma_estimate=Fraction(best_ones, best_m))
