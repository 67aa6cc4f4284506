"""Independent references the tests compare the program against.

Plain truncated-series algebra (sum, Cauchy product, argument scaling,
Horner evaluation), the coefficients (a2, a3, a4) of the member that one
Schwarz triple generates, the H2 functional's coefficients in x read off
at any B1, and the sampled membership scan over the whole grid.  The
program needs none of these; the operator identities, envelope checks and
oracle cross-checks in the tests do.

Last, the correctly rounded definitions of the weight check and of the two
seeded ledger oracles: convex_weight_rows, random_certified_rows,
_roundtrip_oracle and _sufficiency_oracle as they read before their sums
were first decided in floats.  The program must give their results bit for
bit; CI also builds the default ledger through them and compares bytes.
"""

import math

import numpy as np

from qstarlike.classes import budget_rows, compose_rows, decompose_rows, t_form_rows
from qstarlike.conic import conic_margin
from qstarlike.hankel import (
    COEFF_BOUND_TOL,
    caratheodory_b2_b3,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from qstarlike.qcalc import bracket_table, symmetric_q_derivative
from qstarlike.series import DEFAULT_ORDER, TruncatedSeries, evaluate_rows_on_grid, grid_point
from qstarlike.verify import ROUNDTRIP_WEIGHT_ROWS, SUFFICIENCY_MEMBERS


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


def h2_coefficients(consts, b):
    """(al, be, ga) with a2 a4 - a3^2 = al + be x + ga x^2 at zeta = 0, elementwise in real b.

    consts is (P1, P2, P3, q2, q3, q4); u is read off at x = 0, 1, -1, and all three are real.
    """
    b = np.asarray(b)[..., None]
    b2, b3 = caratheodory_b2_b3(b, np.array([0.0, 1.0, -1.0]), 0.0)
    a2, a3, a4 = schwarz_to_coefficients(*consts, b, b2, b3)
    u = (a2 * a4 - a3 * a3).real
    u0, u_pos, u_neg = u[..., 0], u[..., 1], u[..., 2]
    return u0, (u_pos - u_neg) / 2.0, (u_pos + u_neg) / 2.0 - u0


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


def convex_weight_rows(lams: np.ndarray) -> np.ndarray:
    """Validated copy of an (R, N) array whose rows are convex weight vectors.

    As DecompositionWeights (the one-row case) checks: each row must be
    nonempty, nonnegative up to 1e-12 and sum to 1 within 1e-12, the sum
    correctly rounded; weights slightly below 0 are clamped to 0.
    """
    if lams.shape[1] == 0:
        raise ValueError("weight vector is empty")
    if (lams < -1e-12).any():
        raise ValueError("weights must be nonnegative")
    # Written so that a NaN weight, which no comparison catches, fails here.
    off = [total for total in map(math.fsum, lams.tolist()) if not abs(total - 1.0) <= 1e-12]
    if off:
        raise ValueError(f"weights must sum to 1, got {off[0]!r}")
    return np.where(lams < 0.0, 0.0, lams)


def random_certified_rows(
    p, rng: np.random.Generator, count: int, order: int
) -> np.ndarray:
    """(count, order - 1) magnitudes (a2, ..., a_order) of random certified members.

    Each row draws order - 1 raw magnitudes and then a fraction of the
    budget 1 - alpha, and is rescaled so that sum(phi_n a_n), as
    budget_rows rounds it, equals that share.  One rng.random((count,
    order)) block gives the same doubles as count draws of random(order - 1)
    and random(), so each row is bitwise what it is when drawn alone.
    """
    draw = rng.random((count, order))
    raw = draw[:, :-1]
    budget = draw[:, -1] * (1.0 - p.alpha)
    return raw * (budget / np.array(budget_rows(raw.tolist(), p)))[:, None]


def _roundtrip_oracle(p, rng) -> float:
    """Largest weight error of compose -> decompose over random 12-term convex combinations.

    All ROUNDTRIP_WEIGHT_ROWS rows go through the row kernels behind
    extreme_point_compose and extreme_point_decompose in one pass, with
    every check of the public functions.
    """
    raw = rng.random((ROUNDTRIP_WEIGHT_ROWS, 12))
    lams = convex_weight_rows(raw / raw.sum(axis=1, keepdims=True))
    taylor = compose_rows(lams, p, DEFAULT_ORDER)
    back = convex_weight_rows(decompose_rows(t_form_rows(taylor[:, 1:]), p))
    back[:, : lams.shape[1]] -= lams
    return float(np.abs(back).max(initial=0.0))


def _sufficiency_oracle(p, rng) -> float:
    """Largest conic-domain violation over random certified members (0 if none).

    Each member f = z - sum(a_n z^n), a_n >= 0, has its least margin over
    the open disk in the limit z -> 1 (notes/decisions.md), where
    w(1) = D~_q f(1) / f(1) = (1 - sum [n]~_q a_n) / (1 - sum a_n) is read
    off the coefficient sums.  f(1) <= 0 would put a zero of f/z on the
    closed disk; that counts as an unbounded violation.  The members are
    one random_certified_rows block; each row's sums are the correctly
    rounded ones symmetric_q_derivative's coefficients would give.
    """
    a = random_certified_rows(p, rng, SUFFICIENCY_MEMBERS, DEFAULT_ORDER)
    brackets = np.array(bracket_table(p.q, a.shape[1] + 1, True)[1:])
    f_one = np.array([math.fsum([1.0, *row]) for row in (-a).tolist()])
    if not (f_one > 0.0).all():
        return math.inf
    dq_one = np.array([math.fsum([1.0, *row]) for row in (-(brackets * a)).tolist()])
    return max(0.0, float(-conic_margin(dq_one / f_one, p.k, p.alpha).min()))
