"""q-numbers, symmetric q-numbers, and the two derivative operators.

The deformation parameter q lives in (0, 1]; q = 1 means the classical
limit, taken analytically (every quantity below has a finite, simple
q -> 1 value, so no epsilon tricks are needed for classical sanity
checks).

The q-number of a complex lambda is

    [lambda]_q = (1 - q**lambda) / (1 - q),        [lambda]_1 = lambda,

and the symmetric q-number of a positive integer n is

    [n]~_q = (q**n - q**-n) / (q - 1/q),           [n]~_1 = n.

[n]~_q is computed as the equivalent power sum

    [n]~_q = q**(1-n) + q**(3-n) + ... + q**(n-1),

a sum of positive terms.  The textbook ratio cancels catastrophically as
q -> 1 (both numerator and denominator vanish), which would drown the
O((1-q)^2) distance from n in rounding noise; the power sum keeps full
relative accuracy all the way into the limit and is manifestly symmetric
under q <-> 1/q.

Both derivative operators act on truncated series coefficientwise:
D_q multiplies the coefficient of z^n by [n]_q and shifts down one
power, the symmetric operator uses [n]~_q instead.  Inputs must vanish
at the origin (c0 = 0); series with a nonzero constant term are outside
the supported domain.  Outputs carry an explicit constant term
([1]_q * a1, equal to 1 for normalized input) and are therefore not
normalized series themselves — class-membership code rejects them
automatically.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache

from .series import NormalizationError, TruncatedSeries

# The power sum takes n terms in a Python loop, and near q = 1 nothing
# overflows to end it, so larger n are refused before summing; the cap
# itself sums in about 0.2 s.  phi_table needs n up to 1025.
MAX_SYMMETRIC_N = 2**20


def validate_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return q


def q_number(lam, q: float):
    """[lambda]_q = (1 - q**lambda)/(1 - q); returns lambda itself at q = 1.

    lambda may be complex; integer lambda >= 0 uses the exact geometric
    sum 1 + q + ... + q**(lambda-1).  A result that is not finite raises
    OverflowError.
    """
    q = validate_q(q)
    if q == 1.0:
        return lam
    if isinstance(lam, int) or (isinstance(lam, float) and lam.is_integer() and lam >= 0):
        n = int(lam)
        if 0 <= n <= 4096:
            total, power = 0.0, 1.0
            for _ in range(n):
                total += power
                power *= q
            return total
    try:
        value = (1.0 - q**lam) / (1.0 - q)
    except OverflowError:  # ** raises on overflow, where / returns inf or NaN
        value = math.inf
    if not cmath.isfinite(value):
        raise OverflowError(f"[{lam}]_q overflows a double at q={q}")
    return value


def _symmetric_q_number_any(n: int, q: float) -> float:
    """Power-sum form of [n]~_q, valid for any q > 0 (no range check).

    Exposed separately so the q <-> 1/q symmetry can be exercised outside
    the operating range (0, 1].  At q = 1 it is n, exactly, for any n >= 1;
    otherwise n may not exceed MAX_SYMMETRIC_N.
    """
    if n < 1:
        raise ValueError(f"symmetric q-number needs n >= 1, got {n}")
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1.0:
        return float(n)
    if n > MAX_SYMMETRIC_N:
        raise ValueError(f"symmetric q-number needs n <= {MAX_SYMMETRIC_N} at q != 1, got {n}")
    total = 0.0
    try:
        for j in range(n):
            total += q ** (2 * j - n + 1)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"[{n}]~_q overflows a double at q={q}")
    return total


def symmetric_q_number(n: int, q: float) -> float:
    """[n]~_q for integer n >= 1; equals n at q = 1."""
    return _symmetric_q_number_any(int(n), validate_q(q))


@lru_cache(maxsize=256)
def bracket_table(q: float, count: int, symmetric: bool) -> tuple[float, ...]:
    """([1], [2], ..., [count]) of symmetric_q_number, or of q_number; the one bracket table."""
    if symmetric:
        return tuple(symmetric_q_number(n, q) for n in range(1, count + 1))
    return tuple(float(q_number(n, q)) for n in range(1, count + 1))


def _apply_bracket_derivative(f: TruncatedSeries, q: float, symmetric: bool) -> TruncatedSeries:
    if f.coeffs[0] != 0:
        raise NormalizationError(
            "derivative operators support only series vanishing at 0 (constant term must be 0)"
        )
    if f.order < 1:
        raise ValueError("cannot differentiate a constant series")
    q = validate_q(q)
    factors = bracket_table(q, f.order, symmetric)
    try:
        return TruncatedSeries(tuple(map(operator.mul, factors, f.coeffs[1:])))
    except ValueError:  # f and the factors are finite, so a product overflowed
        name = "D~_q" if symmetric else "D_q"
        raise OverflowError(f"{name} f overflows a double at q={q}") from None


def q_derivative(f: TruncatedSeries, q: float) -> TruncatedSeries:
    """D_q f: the coefficient of z^n becomes [n]_q * a_n on z^(n-1).

    For normalized f the result is 1 + [2]_q a2 z + ...; at q = 1 it is
    the classical derivative f'.
    """
    return _apply_bracket_derivative(f, q, symmetric=False)


def symmetric_q_derivative(f: TruncatedSeries, q: float) -> TruncatedSeries:
    """D~_q f: the coefficient of z^n becomes [n]~_q * a_n on z^(n-1)."""
    return _apply_bracket_derivative(f, q, symmetric=True)
