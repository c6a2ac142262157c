"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the Cantor value comes
straight from the classic digit rule, and the recursive evaluator walks the
three-piece subdivision directly instead of using the digit series.
"""
from fractions import Fraction


def cantor_value(digits):
    """Devil's staircase from ternary digits: halve 0/2 digits until the

    first 1, which contributes the final 2^-p term."""
    v = Fraction(0)
    for p, d in enumerate(digits, start=1):
        if d == 1:
            return v + Fraction(1, 2**p)
        v += Fraction(d, 2 ** (p + 1))
    return v


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
    raise ValueError(
        f"{used} digits certify only {float(bound):.3g}, above tol {float(tol):.3g}",
        float(bound),
    )
