"""Independent references the tests compare the program against.

Plain truncated-series algebra (sum, Cauchy product, argument scaling,
Horner evaluation), the coefficients (a2, a3, a4) of the member that one
Schwarz triple generates, and the sampled membership scan over the whole
grid.  The program needs none of these; the operator identities, envelope
checks and oracle cross-checks in the tests do.
"""

import math

import numpy as np

from qstarlike.hankel import (
    COEFF_BOUND_TOL,
    caratheodory_b2_b3,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from qstarlike.qcalc import symmetric_q_derivative
from qstarlike.series import TruncatedSeries, evaluate_rows_on_grid, grid_point


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


def full_grid_scan(f: TruncatedSeries, p) -> tuple[str, float, complex | None]:
    """(certified, margin, witness) of the sampled check on every grid angle.

    The zero test |f| < 1e-12 always runs first; then the first point in
    (radius, angle) order with margin <= 0 is the witness, else the least
    margin is reported as inconclusive.
    """
    numerator = (0j, *symmetric_q_derivative(f, p.q).coeffs)
    f_vals, num_vals = evaluate_rows_on_grid([f.coeffs, numerator])
    zeros = np.argwhere(np.abs(f_vals) < 1e-12)
    if len(zeros):
        return "not-member-witness", -math.inf, grid_point(*map(int, zeros[0]))
    w = num_vals / f_vals
    margins = w.real - p.k * np.abs(w - 1.0) - p.alpha
    failing = np.argwhere(margins <= 0.0)
    if len(failing):
        i, j = map(int, failing[0])
        return "not-member-witness", float(margins[i, j]), grid_point(i, j)
    return "inconclusive", float(margins.min()), None
