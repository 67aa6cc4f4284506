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

The core formulas accept numpy arrays as well as scalars; the dataclass
wrappers validate ranges and invariants for scalar use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conic import ConicCoefficients
from .qcalc import symmetric_q_number, validate_q

COEFF_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class SchwarzTriple:
    """(B1, x, zeta) with B1 in [0, 2] real and |x|, |zeta| <= 1."""

    B1: float
    x: complex
    zeta: complex

    def __post_init__(self):
        if not 0.0 <= self.B1 <= 2.0:
            raise ValueError(f"B1 must lie in [0, 2], got {self.B1}")
        if abs(self.x) > 1.0 + COEFF_BOUND_TOL:
            raise ValueError(f"|x| must be <= 1, got {abs(self.x)}")
        if abs(self.zeta) > 1.0 + COEFF_BOUND_TOL:
            raise ValueError(f"|zeta| must be <= 1, got {abs(self.zeta)}")
        object.__setattr__(self, "B1", float(self.B1))
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "zeta", complex(self.zeta))


@dataclass(frozen=True)
class CaratheodoryCoefficients:
    """(B1, B2, B3) of a positive-real-part function; all moduli <= 2."""

    B1: complex
    B2: complex
    B3: complex

    def __post_init__(self):
        for name in ("B1", "B2", "B3"):
            value = complex(getattr(self, name))
            if abs(value) > 2.0 + COEFF_BOUND_TOL:
                raise ValueError(f"|{name}| must be <= 2, got {abs(value)}")
            object.__setattr__(self, name, value)


def caratheodory_b2_b3(b1, x, zeta):
    """Elementwise (B2, B3) from the unit-disk parametrization; b1 real."""
    gap = 4.0 - b1 * b1
    b2 = (b1 * b1 + x * gap) / 2.0
    b3 = (b1**3 + 2.0 * gap * b1 * x - b1 * gap * x * x
          + 2.0 * gap * (1.0 - abs(x) ** 2) * zeta) / 4.0
    return b2, b3


def caratheodory_from_parameters(t: SchwarzTriple) -> CaratheodoryCoefficients:
    b2, b3 = caratheodory_b2_b3(t.B1, t.x, t.zeta)
    return CaratheodoryCoefficients(t.B1, b2, b3)


def symmetric_gaps(q: float) -> tuple[float, float, float]:
    """(q2, q3, q4) with q_j = [j]~_q - 1; all positive for q in (0, 1]."""
    q = validate_q(q)
    gaps = tuple(symmetric_q_number(j, q) - 1.0 for j in (2, 3, 4))
    if any(g <= 0.0 for g in gaps):
        raise ValueError(f"degenerate symmetric gaps {gaps} at q={q}")
    return gaps


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


def coefficients_from_schwarz(
    P: ConicCoefficients, B: CaratheodoryCoefficients, q: float
) -> tuple[complex, complex, complex]:
    """(a2, a3, a4) of the class member generated by Caratheodory data B."""
    q2, q3, q4 = symmetric_gaps(q)
    a2, a3, a4 = schwarz_to_coefficients(P.P1, P.P2, P.P3, q2, q3, q4, B.B1, B.B2, B.B3)
    return complex(a2), complex(a3), complex(a4)


def hankel_determinant(coeffs, s: int, n: int) -> complex:
    """Determinant of the s x s matrix with (i, j) entry a_{n+i+j-2}.

    coeffs lists (a1, a2, ...); its first entry is forced to 1.  Needs
    a1 .. a_{n+2s-2}, i.e. at least n + 2s - 2 entries.
    """
    if s < 1 or n < 1:
        raise ValueError("Hankel determinant needs s >= 1 and n >= 1")
    need = n + 2 * s - 2
    a = [complex(c) for c in coeffs]
    if len(a) < need:
        raise ValueError(f"need coefficients a1..a{need}, got only {len(a)}")
    a[0] = 1.0 + 0j
    matrix = [[a[n + i + j - 1] for j in range(s)] for i in range(s)]
    return _det(matrix)


def _det(m: list[list[complex]]) -> complex:
    size = len(m)
    if size == 1:
        return m[0][0]
    if size == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0j
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


@dataclass(frozen=True)
class HankelQuantities:
    """Intermediate quantities of the second-Hankel bound.

    (cP, cQ, cR) are the quadratic's coefficients in t = B1^2; they are
    named with a c prefix to keep them apart from the conic P_n.
    """

    q2: float
    q3: float
    q4: float
    S: float
    M: float
    N: float
    U: float
    V: float
    cP: float
    cQ: float
    cR: float


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


def h2_bound(P: ConicCoefficients, q: float) -> float:
    """Upper bound on |a2 a4 - a3^2| over the class.

    The vertex/endpoint candidates reproduce the three closed-form case
    values exactly: t=0 gives P1^2/q3^2, t=4 gives V/(q2^2 q3^2 q4), and
    an interior vertex gives (cR - cQ^2/(4 cP)) / (16 q2^2 q3^2 q4).
    """
    return h2_bound_from_quantities(hankel_quantities(P, q))


def fekete_szego_bound_complex(mu: complex, P: ConicCoefficients, q: float) -> float:
    """Upper bound on |a3 - mu a2^2| for complex weight mu."""
    q2, q3, _ = symmetric_gaps(q)
    return (P.P1**2 * abs(q2 - mu * q3) + P.P2 * q2 * q2) / (q2 * q2 * q3)


def fekete_szego_breakpoint(q: float) -> float:
    """mu* = q (q^2 - q + 1) / (q^4 + 1), where the real-mu branches meet."""
    q = validate_q(q)
    return q * (q * q - q + 1.0) / (q**4 + 1.0)


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


@dataclass(frozen=True)
class PrintedCorollaryValues:
    """Printed shortcut values retained for the discrepancy ledger.

    These are evaluated exactly as printed and are NOT used as bounds:
    h21_printed can go negative (hence cannot bound a modulus), and
    a3_printed differs from the mu = 0 Fekete-Szego bound by a factor
    (q^2 - q + 1) that only disappears at q = 1.  h2_limit_printed is the
    printed classical-limit constant 16/pi^2 for the parabolic regime.
    """

    h21_printed: float
    a3_printed: float
    h2_limit_printed: float


def printed_corollary_values(P: ConicCoefficients, q: float) -> PrintedCorollaryValues:
    q = validate_q(q)
    a3_printed = q * q * (P.P2 + P.P1**2 * q) / (q**4 + 1.0)
    h21_printed = a3_printed - P.P1**2 * q * q / (q * q - q + 1.0)
    return PrintedCorollaryValues(
        h21_printed=h21_printed,
        a3_printed=a3_printed,
        h2_limit_printed=16.0 / math.pi**2,
    )
