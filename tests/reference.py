"""Independent references the tests compare the program against.

Plain truncated-series algebra (sum, Cauchy product, argument scaling,
Horner evaluation) and the coefficients (a2, a3, a4) of the member that one
Schwarz triple generates.  The program needs none of these; the operator
identities, envelope checks and oracle cross-checks in the tests do.
"""

import math

from qstarlike.hankel import (
    COEFF_BOUND_TOL,
    caratheodory_b2_b3,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from qstarlike.series import TruncatedSeries


def _fsum_complex(values) -> complex:
    values = list(values)
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum of two series of equal order."""
    assert f.order == g.order
    return TruncatedSeries(tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product of two series of equal order, truncated at that order.

    Each coefficient is a correctly rounded sum of the cross products, so
    the product is exactly commutative.
    """
    assert f.order == g.order
    fc, gc = f.coeffs, g.coeffs
    return TruncatedSeries(tuple(
        _fsum_complex(fc[i] * gc[k - i] for i in range(k + 1)) for k in range(len(fc))
    ))


def scaled(f: TruncatedSeries, c: complex, order: int | None = None) -> TruncatedSeries:
    """f(cz), c_n -> c_n c^n, cut to `order` (default f.order); c^n is a repeated product."""
    c = complex(c)
    powers = [1 + 0j]
    for _ in range(f.order if order is None else order):
        powers.append(powers[-1] * c)
    return TruncatedSeries(tuple(a * p for a, p in zip(f.coeffs, powers)))


def evaluate(f: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial at z."""
    acc = 0j
    for c in reversed(f.coeffs):
        acc = acc * z + c
    return acc


def coefficients_at(P, triple, q: float) -> tuple[complex, complex, complex]:
    """(a2, a3, a4) of the class member generated by the Schwarz triple (B1, x, zeta)."""
    b2, b3 = caratheodory_b2_b3(triple.B1, triple.x, triple.zeta)
    assert abs(b2) <= 2.0 + COEFF_BOUND_TOL and abs(b3) <= 2.0 + COEFF_BOUND_TOL, (b2, b3)
    a2, a3, a4 = schwarz_to_coefficients(P.P1, P.P2, P.P3, *symmetric_gaps(q), triple.B1, b2, b3)
    return complex(a2), complex(a3), complex(a4)
