"""Coefficient functionals from Caratheodory data and their closed-form bounds.

A member f of the class with conic coefficients (P1, P2, P3) and
deformation q arises from a function with positive real part
p0 = 1 + B1 z + B2 z^2 + ... through subordination to the conic map.
Writing

    q_j = [j]~_q - 1        (j = 2, 3, 4; positive on (0, 1]),

the first coefficients of f are

    a2 = P1 B1 / (2 q2)
    a3 = (P1^2 B1^2 - P1 B1^2 q2 + P2 B1^2 q2 + 2 P1 B2 q2) / (4 q2 q3)
    a4 = [ B1^3 (P1^3 + (P3 - 2 P2 + P1) q2 q3 + P1 (P2 - P1)(q2 + q3))
           + 2 B1 B2 (P1^2 (q2 + q3) + 2 q2 q3 (P2 - P1))
           + 4 B3 P1 q2 q3 ] / (8 q2 q3 q4).

B2 and B3 are not free: with B1 fixed they are parametrized by two points
x, zeta of the closed unit disk (the classical refinement of |B_n| <= 2),

    2 B2 = B1^2 + x (4 - B1^2)
    4 B3 = B1^3 + 2 (4 - B1^2) B1 x - B1 (4 - B1^2) x^2
           + 2 (4 - B1^2)(1 - |x|^2) zeta.

The second-Hankel bound is computed as the exact maximum over t = B1^2 in
[0, 4] of the quadratic (cP t^2 + cQ t + cR) / (16 q2^2 q3^2 q4) built
from the quantities S, M, N, U, V below.  This quadratic maximum is what
the underlying estimate actually establishes; the printed piecewise case
predicates that accompany it are inconsistent with the quadratic's own
regions (at q = 1, P = (2,2,2) none of the printed cases applies while
the quadratic gives 7 unambiguously), so the cases are realized as the
vertex/endpoint candidates rather than transcribed.

The core formulas accept numpy arrays as well as scalars; SchwarzTriple
validates the scalar (B1, x, zeta) in which the oracles report a maximizer.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .conic import ConicCoefficients
from .qcalc import bracket_table, validate_q

COEFF_BOUND_TOL = 1e-12


def _all_finite(value) -> bool:
    """value is finite: a float, each top-level float field of a record, or each tuple item.

    A record is a named tuple.  Its fields are read shallowly: a nested
    record, such as an oracle's argmax, is not a result and is not checked.
    """
    if isinstance(value, tuple) and not hasattr(value, "_fields"):
        return all(map(_all_finite, value))
    fields = value if isinstance(value, tuple) else (value,)
    return all(math.isfinite(v) for v in fields if isinstance(v, float))


def refuse_overflow(what: str):
    """Decorator for a function of (..., P, q): a result that overflows raises one OverflowError.

    Python's float ** raises a bare "(34, 'Numerical result out of range')",
    while + and * return inf or NaN; either way the caller gets an error
    naming the quantity and its inputs instead.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def checked(*args):
            *_, P, q = args
            try:
                result = fn(*args)
                finite = _all_finite(result)
            except OverflowError:
                finite = False
            if not finite:
                raise OverflowError(
                    f"{what} overflows a double at q={q}, P1={P.P1}, P2={P.P2}, P3={P.P3}"
                )
            return result
        return checked
    return wrap


class SchwarzTriple(namedtuple("SchwarzTriple", "B1 x zeta")):
    """(B1, x, zeta) with B1 in [0, 2] real and |x|, |zeta| <= 1."""

    __slots__ = ()

    def __new__(cls, B1, x, zeta):
        if not 0.0 <= B1 <= 2.0:
            raise ValueError(f"B1 must lie in [0, 2], got {B1}")
        if abs(x) > 1.0 + COEFF_BOUND_TOL:
            raise ValueError(f"|x| must be <= 1, got {abs(x)}")
        if abs(zeta) > 1.0 + COEFF_BOUND_TOL:
            raise ValueError(f"|zeta| must be <= 1, got {abs(zeta)}")
        return super().__new__(cls, float(B1), complex(x), complex(zeta))


def caratheodory_b2_b3(b1, x, zeta):
    """Elementwise (B2, B3) from the unit-disk parametrization; b1 real."""
    gap = 4.0 - b1 * b1
    b2 = (b1 * b1 + x * gap) / 2.0
    b3 = (b1**3 + 2.0 * gap * b1 * x - b1 * gap * x * x
          + 2.0 * gap * (1.0 - abs(x) ** 2) * zeta) / 4.0
    return b2, b3


@functools.lru_cache(maxsize=256)
def symmetric_gaps(q: float) -> tuple[float, float, float]:
    """(q2, q3, q4) with q_j = [j]~_q - 1; at least (1, 2, 3) on (0, 1].  Cached per q."""
    return tuple(b - 1.0 for b in bracket_table(validate_q(q), 4, True)[1:])


def schwarz_to_coefficients(P1, P2, P3, q2, q3, q4, b1, b2, b3):
    """Elementwise (a2, a3, a4); see the module docstring for the formulas."""
    a2 = P1 * b1 / (2.0 * q2)
    a3 = (P1 * P1 * b1 * b1 - P1 * b1 * b1 * q2 + P2 * b1 * b1 * q2
          + 2.0 * P1 * b2 * q2) / (4.0 * q2 * q3)
    a4 = (b1**3 * (P1**3 + (P3 - 2.0 * P2 + P1) * q2 * q3
                   + P1 * (P2 - P1) * (q2 + q3))
          + 2.0 * b1 * b2 * (P1 * P1 * (q2 + q3) + 2.0 * q2 * q3 * (P2 - P1))
          + 4.0 * b3 * P1 * q2 * q3) / (8.0 * q2 * q3 * q4)
    return a2, a3, a4


class HankelQuantities(namedtuple("HankelQuantities", "q2 q3 q4 S M N U V cP cQ cR")):
    """Intermediate quantities of the second-Hankel bound.

    (cP, cQ, cR) are the quadratic's coefficients in t = B1^2; they are
    named with a c prefix to keep them apart from the conic P_n.
    """

    __slots__ = ()


@refuse_overflow("a second-Hankel quantity")
def hankel_quantities(P: ConicCoefficients, q: float) -> HankelQuantities:
    q2, q3, q4 = symmetric_gaps(q)
    P1, P2, P3 = P.P1, P.P2, P.P3
    S = P1 * P1 + q2 * (P2 - P1)
    M = P1 * q3 * (2.0 * q2 * q3 * (P2 - P1) + P1 * P1 * (q2 + q3))
    N = P1 * q3 * (P1**3 + (P3 - 2.0 * P2) * q2 * q3
                   + P1 * (P2 - P1) * (q2 + q3) + P1 * q2 * q3)
    U = abs(M + 2.0 * P1 * P1 * q2 + 2.0 * P1 * q2 * q4 * S)
    V = abs(M + N + P1 * P1 * q2 - q4 * S * S + 2.0 * P1 * q2 * q4 * S)
    cP = V - U - P1 * P1 * q2
    cQ = 4.0 * U + 4.0 * P1 * P1 * q2 * (1.0 - q2 * q4)
    cR = 16.0 * P1 * P1 * q2 * q2 * q4
    return HankelQuantities(q2, q3, q4, S, M, N, U, V, cP, cQ, cR)


def quadratic_max_on_interval(a: float, b: float, c: float, lo: float, hi: float) -> float:
    """Exact max of a t^2 + b t + c over [lo, hi] via vertex and endpoints."""
    if hi < lo:
        raise ValueError("empty interval")
    best = max(a * lo * lo + b * lo + c, a * hi * hi + b * hi + c)
    if a < 0.0:
        t = -b / (2.0 * a)
        if lo <= t <= hi:
            best = max(best, c - b * b / (4.0 * a))
    return best


def h2_bound_from_quantities(hq: HankelQuantities) -> float:
    top = quadratic_max_on_interval(hq.cP, hq.cQ, hq.cR, 0.0, 4.0)
    return top / (16.0 * hq.q2**2 * hq.q3**2 * hq.q4)


@refuse_overflow("the second-Hankel bound")
def h2_bound(P: ConicCoefficients, q: float) -> float:
    """Upper bound on |a2 a4 - a3^2| over the class.

    The vertex/endpoint candidates reproduce the three closed-form case
    values exactly: t=0 gives P1^2/q3^2, t=4 gives V/(q2^2 q3^2 q4), and
    an interior vertex gives (cR - cQ^2/(4 cP)) / (16 q2^2 q3^2 q4).
    """
    return h2_bound_from_quantities(hankel_quantities(P, q))


@refuse_overflow("the Fekete-Szego bound")
def fekete_szego_bound_complex(mu: complex, P: ConicCoefficients, q: float) -> float:
    """Upper bound on |a3 - mu a2^2| for complex weight mu."""
    q2, q3, _ = symmetric_gaps(q)
    return (P.P1**2 * abs(q2 - mu * q3) + P.P2 * q2 * q2) / (q2 * q2 * q3)


def fekete_szego_breakpoint(q: float) -> float:
    """mu* = q (q^2 - q + 1) / (q^4 + 1), where the real-mu branches meet."""
    q = validate_q(q)
    return q * (q * q - q + 1.0) / (q**4 + 1.0)


@refuse_overflow("the real-branch Fekete-Szego bound")
def fekete_szego_bound_real(mu: float, P: ConicCoefficients, q: float) -> float:
    """Two-branch real-mu form of the Fekete-Szego bound.

    Writing q2 = (q^2 - q + 1)/q and q3 = (q^4 + 1)/q^2, this is the
    complex bound rewritten without absolute values; the branches meet at
    mu* with common value P2 q^2 / (q^4 + 1).  Valid on (0, 1]; q = 1 is
    the analytic limit (mu* = 1/2).
    """
    q = validate_q(q)
    mu = float(mu)
    base = P.P2 * q * q / (q**4 + 1.0)
    spread = P.P1**2 * q * q / ((q**4 + 1.0) * (q * q - q + 1.0) ** 2)
    pivot_gap = q * (q * q - q + 1.0) - mu * (q**4 + 1.0)
    if mu <= fekete_szego_breakpoint(q):
        return base + spread * pivot_gap
    return base + spread * (-pivot_gap)


class PrintedCorollaryValues(
        namedtuple("PrintedCorollaryValues", "h21_printed a3_printed h2_limit_printed")):
    """Printed shortcut values retained for the discrepancy ledger.

    These are evaluated exactly as printed and are NOT used as bounds:
    h21_printed can go negative (hence cannot bound a modulus), and
    a3_printed differs from the mu = 0 Fekete-Szego bound by a factor
    (q^2 - q + 1) that only disappears at q = 1.  h2_limit_printed is the
    printed classical-limit constant 16/pi^2 for the parabolic regime.
    """

    __slots__ = ()


@refuse_overflow("a printed corollary value")
def printed_corollary_values(P: ConicCoefficients, q: float) -> PrintedCorollaryValues:
    q = validate_q(q)
    a3_printed = q * q * (P.P2 + P.P1**2 * q) / (q**4 + 1.0)
    h21_printed = a3_printed - P.P1**2 * q * q / (q * q - q + 1.0)
    return PrintedCorollaryValues(
        h21_printed=h21_printed,
        a3_printed=a3_printed,
        h2_limit_printed=16.0 / math.pi**2,
    )
