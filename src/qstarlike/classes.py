"""Membership machinery for the symmetric-q uniformly starlike classes.

A normalized f belongs to the class with parameters (q, k, alpha) when
w(z) = z * (D~_q f)(z) / f(z) stays inside the conic domain
Omega(k, alpha) on the whole open disk.  Everything here revolves around
the weight

    phi_n = [n]~_q * (k + 1) - (k + alpha),     n >= 2,

which is positive because [n]~_q > 1 > (k + alpha)/(k + 1):

* sum(phi_n * |a_n|) <= 1 - alpha is sufficient for membership;
* for the negative-coefficient form z - a2 z^2 - ...  (a_n >= 0) the same
  inequality is necessary and sufficient, with equality attained by the
  extremal functions f_n(z) = z - (1 - alpha)/phi_n * z^n;
* the f_n are exactly the extreme points: every member decomposes as a
  convex combination sum(lambda_n * f_n).

Grid sampling can only ever refute membership (a finite grid cannot
certify an open-disk inequality), so sampled checks return a witness or
"inconclusive", never "member".
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import series as ser
from .conic import ClassParams, conic_margin
from .qcalc import bracket_table, symmetric_q_derivative
from .series import DEFAULT_ORDER, GRID_ANGLES, TruncatedSeries, grid_point, require_normalized

CERTIFIED_MEMBER_SUFFICIENT = "member-sufficient"
CERTIFIED_MEMBER_IFF_NEGATIVE = "member-iff-negative"
CERTIFIED_NOT_MEMBER_WITNESS = "not-member-witness"
CERTIFIED_INCONCLUSIVE = "inconclusive"

# Rounding noise the negative-coefficient form validator forgives in a
# coefficient's sign and imaginary part.  It only decides acceptance: phi_n
# reaches 1e19 at q = 0.5, n = 64, so no |a_n| is ever rounded to zero.
T_FORM_ZERO_TOL = 1e-14

# Largest extremal index and order: phi_n grows like q^-(n-1) and overflows near
# n = 1024 at q = 0.5; larger requests are refused before any allocation.
MAX_EXTREMAL_ORDER = ser.MAX_ORDER


class TFormError(ValueError):
    """Input is not of the negative-coefficient form z - a2 z^2 - ..."""


class DecompositionError(ValueError):
    """Extreme-point decomposition infeasible (the function is no member)."""


@dataclass(frozen=True)
class MembershipVerdict:
    certified: str
    margin: float
    witness: complex | None = None

    def __post_init__(self):
        if self.certified == CERTIFIED_NOT_MEMBER_WITNESS and self.witness is None:
            raise ValueError("a not-member verdict must carry a witness point")

    def to_json_dict(self) -> dict:
        """JSON-safe form; a margin of -inf (a zero of f) is written as null."""
        w = self.witness
        return {
            "certified": self.certified,
            "margin": self.margin if math.isfinite(self.margin) else None,
            "witness": None if w is None else [w.real, w.imag],
        }


@dataclass(frozen=True)
class DecompositionWeights:
    """Convex weights (lambda_1, lambda_2, ...) over the extreme points.

    The one-row case of convex_weight_rows, checked in Python floats: for
    one row, numpy's set-up costs more than the checks themselves.
    """

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(map(float, self.lambdas))
        if not lams:
            raise ValueError("weight vector is empty")
        if any(x < -1e-12 for x in lams):
            raise ValueError("weights must be nonnegative")
        _refuse_off_sums([lams])
        object.__setattr__(self, "lambdas", tuple(0.0 if x < 0.0 else x for x in lams))


def _refuse_off_sums(rows) -> None:
    """Refuse the first row of Python floats whose correctly rounded sum is not 1 within 1e-12."""
    # Written so that a NaN weight, which no comparison catches, fails here.
    off = [total for total in map(math.fsum, rows) if not abs(total - 1.0) <= 1e-12]
    if off:
        raise ValueError(f"weights must sum to 1, got {off[0]!r}")


def convex_weight_rows(lams: np.ndarray) -> np.ndarray:
    """Validated copy of an (R, N) array whose rows are convex weight vectors.

    As DecompositionWeights (the one-row case) checks: each row must be
    nonempty, nonnegative up to 1e-12 and sum to 1 within 1e-12, the sum
    correctly rounded; weights slightly below 0 are clamped to 0.  A row
    whose float sum lies within 1e-12 - b of 1, b = n 2^-51 (1 + (2n + 1)
    1e-12) for n weights, passes without math.fsum: b bounds the float
    sum's error and the last rounding (notes/decisions.md, "Sums that only
    decide a sign").  Every other row, NaN and inf ones too, is summed by
    math.fsum, so each acceptance and refusal is the correctly rounded rule's.
    """
    n = lams.shape[1]
    if n == 0:
        raise ValueError("weight vector is empty")
    if (lams < -1e-12).any():
        raise ValueError("weights must be nonnegative")
    slack = 1e-12 - n * 2.0**-51 * (1.0 + (2 * n + 1) * 1e-12)
    with np.errstate(over="ignore"):
        undecided = ~(np.abs(lams.sum(axis=1) - 1.0) <= slack)
    _refuse_off_sums(lams[undecided].tolist())
    return np.where(lams < 0.0, 0.0, lams)


def threshold_denominator(n: int, p: ClassParams) -> float:
    """phi_n = [n]~_q (k+1) - (k + alpha), positive for every n >= 2: phi_table's entry."""
    if n < 2:
        raise ValueError(f"threshold weights start at n = 2, got {n}")
    return float(phi_table(p, n)[n - 2])


@lru_cache(maxsize=64)
def phi_table(p: ClassParams, order: int) -> np.ndarray:
    """Read-only (phi_2, ..., phi_order), phi_n = [n]~_q (k+1) - (k + alpha); the one table.

    A weight that overflows a double raises OverflowError naming its n; it
    would otherwise turn into inf, and inf * 0 into NaN in every weighted sum.
    """
    brackets = np.array(bracket_table(p.q, order, True)[1:])
    with np.errstate(over="ignore"):
        phi = brackets * (p.k + 1.0) - (p.k + p.alpha)
    overflowed = np.flatnonzero(np.isinf(phi))
    if overflowed.size:
        n = int(overflowed[0]) + 2
        raise OverflowError(
            f"phi_{n} = [{n}]~_q (k+1) - (k+alpha) overflows a double at q={p.q}, k={p.k}"
        )
    phi.flags.writeable = False
    return phi


def _budget_sums(rows, p: ClassParams) -> list[float]:
    """math.fsum of each row of weighted terms, refusing a sum that is not finite.

    Huge but finite coefficients would otherwise give inf, or fsum's bare
    "intermediate overflow".
    """
    try:
        totals = list(map(math.fsum, rows))
    except OverflowError:
        totals = [math.inf]
    if not all(map(math.isfinite, totals)):
        raise OverflowError(
            f"sum(phi_n |a_n|) overflows a double at q={p.q}, k={p.k}, alpha={p.alpha}"
        )
    return totals


def budget_rows(rows: list[list[float]], p: ClassParams) -> list[float]:
    """math.fsum of phi_n |a_n| for each row (|a2|, ..., |a_order|) of Python floats.

    Python float products overflow to inf without a numpy warning.  Callers
    take complex magnitudes with Python's abs: numpy's can differ in the last bit.
    """
    phi = phi_table(p, len(rows[0]) + 1).tolist() if rows else []
    return _budget_sums([map(operator.mul, phi, row) for row in rows], p)


def coefficient_threshold(n: int, p: ClassParams) -> float:
    """Largest |a_n| that the sufficient condition certifies on its own."""
    return (1.0 - p.alpha) / threshold_denominator(n, p)


def sufficient_condition_margin(f: TruncatedSeries, p: ClassParams) -> float:
    """(1 - alpha) - sum(phi_n |a_n|); nonnegative certifies membership."""
    require_normalized(f, "the sufficient coefficient condition")
    try:
        magnitudes = [list(map(abs, f.coeffs[2:]))]
    except OverflowError:  # |a_n| past the largest double, and phi_n > 1
        magnitudes = [[math.inf]]
    return (1.0 - p.alpha) - budget_rows(magnitudes, p)[0]


def sufficient_membership(f: TruncatedSeries, p: ClassParams) -> MembershipVerdict:
    margin = sufficient_condition_margin(f, p)
    if margin >= 0.0:
        return MembershipVerdict(CERTIFIED_MEMBER_SUFFICIENT, margin)
    return MembershipVerdict(CERTIFIED_INCONCLUSIVE, margin)


def t_form_magnitudes(f: TruncatedSeries) -> np.ndarray:
    """(|a2|, |a3|, ...) for f = z - a2 z^2 - ...; raises TFormError otherwise.

    The one-row case of t_form_rows.
    """
    require_normalized(f, "the negative-coefficient form")
    return t_form_rows(np.array([f.coeffs[2:]], dtype=complex))[0]


def t_form_rows(tails: np.ndarray) -> np.ndarray:
    """|tails| for an (R, order - 1) array of tails (a2, a3, ...); raises TFormError.

    Each coefficient must be finite, real and nonpositive up to
    T_FORM_ZERO_TOL; the magnitudes returned are exact, however small.
    The error names the first offending coefficient in row-major order.
    """
    bad = (np.abs(tails.imag) > T_FORM_ZERO_TOL) | (tails.real > T_FORM_ZERO_TOL)
    bad |= ~np.isfinite(tails)
    if bad.any():
        row, col = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise TFormError(
            f"coefficient of z^{col + 2} is {complex(tails[row, col])!r}; the "
            "negative-coefficient form needs finite, real, nonpositive values there"
        )
    return np.abs(tails)


def ts_membership(f: TruncatedSeries, p: ClassParams) -> MembershipVerdict:
    """Exact characterization on the negative-coefficient class.

    Membership holds iff sum(phi_n a_n) <= 1 - alpha.  A failing f gets
    witness z = 1: clearing denominators of the defining inequality along
    the real axis shows it is violated exactly in the limit z -> 1-.
    """
    total = budget_rows([t_form_magnitudes(f).tolist()], p)[0]
    margin = (1.0 - p.alpha) - total
    # Members sitting exactly on the threshold can land an ulp below zero;
    # the slop is a few machine epsilons of the sum, not a modeling tolerance.
    slop = 32.0 * math.ulp(max(1.0, total))
    if margin >= -slop:
        return MembershipVerdict(CERTIFIED_MEMBER_IFF_NEGATIVE, margin)
    return MembershipVerdict(CERTIFIED_NOT_MEMBER_WITNESS, margin, witness=1.0 + 0j)


def sampled_membership(f: TruncatedSeries, p: ClassParams) -> MembershipVerdict:
    """Scan w(z) = z (D~_q f)(z) / f(z) over the disk grid for conic-domain failures.

    Returns the first failing point in (radius, angle) order as a
    not-member witness, or an inconclusive verdict with the minimum
    margin seen.  A grid point where f vanishes is a pole of w and is
    reported first, as a witness with margin -inf: a member has no zero
    in the punctured disk.  A grid cannot certify membership;
    certification comes only from the coefficient theorems.  w is the
    ratio of two polynomials' values, exact at each point.

    A series with real coefficients takes conjugate values at conjugate
    grid points, so its margins at t and -t agree bit for bit and the
    angles 0 .. pi alone give the full grid's first witness and least
    margin.  The zero test is skipped when sum |a_n| <= 1 - 1e-9, since
    then |f(z)| >= |z| (1 - sum |a_n|) >= 4e-11 on the grid.  A scan whose
    values overflow a double raises OverflowError.
    """
    require_normalized(f, "membership sampling")
    # z D~_q f has order f.order, like f
    numerator = (0j, *symmetric_q_derivative(f, p.q).coeffs)
    angles = GRID_ANGLES if any(c.imag for c in f.coeffs) else GRID_ANGLES // 2 + 1
    # on the disk |f| and |z D~_q f| are at most sum |[n]~_q a_n|, as [n]~_q >= 1, and past
    # the zero test |w| <= 1e12 |z D~_q f|: below 1e295 no value can overflow
    try:
        risky = not sum(map(abs, numerator)) <= 1e295
    except OverflowError:  # an |[n]~_q a_n| past the largest double
        risky = True
    with np.errstate(all="ignore") if risky else contextlib.nullcontext():
        f_vals, num_vals = ser.evaluate_rows_on_grid([f.coeffs, numerator], angles)
        # the plain sum errs by order * eps, far inside the 1e-9 slack
        if risky or not sum(map(abs, f.coeffs[2:])) <= 1.0 - 1e-9:
            tiny = np.abs(f_vals) < 1e-12
            if tiny.any():
                i, j = map(int, np.argwhere(tiny)[0])
                return MembershipVerdict(CERTIFIED_NOT_MEMBER_WITNESS, -math.inf, grid_point(i, j))
        margins = conic_margin(num_vals / f_vals, p.k, p.alpha)
    if risky and not (np.isfinite(f_vals).all() and np.isfinite(margins).all()):
        raise OverflowError(
            f"the sampled membership scan overflows a double at q={p.q}, k={p.k}, alpha={p.alpha}"
        )
    least = margins.min()
    if not least > 0.0:  # a NaN margin takes this path too
        failing = margins <= 0.0
        if failing.any():
            i, j = map(int, np.argwhere(failing)[0])  # lexicographic (radius, angle)
            return MembershipVerdict(CERTIFIED_NOT_MEMBER_WITNESS, float(margins[i, j]),
                                     grid_point(i, j))
    return MembershipVerdict(CERTIFIED_INCONCLUSIVE, margin=float(least))


def extremal_function(n: int, p: ClassParams, order: int | None = None) -> TruncatedSeries:
    """f_1(z) = z and f_n(z) = z - (1-alpha)/phi_n * z^n, the extreme points.

    order defaults to max(DEFAULT_ORDER, n); an explicit order below
    max(n, 2) is refused, and so is one whose weights phi_table overflow.
    """
    if n < 1:
        raise ValueError(f"extremal functions are indexed from 1, got {n}")
    if order is None:
        order = max(DEFAULT_ORDER, n)
    if max(n, order) > MAX_EXTREMAL_ORDER:
        raise ValueError(f"n = {n} and order = {order} must not exceed {MAX_EXTREMAL_ORDER}")
    if order < max(n, 2):
        raise ValueError(f"order = {order} is below max(n, 2) = {max(n, 2)} for n = {n}")
    phi = phi_table(p, order)
    if n == 1:
        return TruncatedSeries.identity(order)
    taylor = [0j] * n
    taylor[0] = 1.0 + 0j
    taylor[n - 1] = -(1.0 - p.alpha) / phi[n - 2]
    return TruncatedSeries.from_taylor(taylor, order=order)


def distortion_coefficient(p: ClassParams) -> float:
    """c = q(1-alpha) / ((q^2+1)(k+1) - q(k+alpha)), always below 1."""
    q = p.q
    return q * (1.0 - p.alpha) / ((q * q + 1.0) * (p.k + 1.0) - q * (p.k + p.alpha))


def distortion_bounds(r: float, p: ClassParams) -> tuple[float, float]:
    """Envelope r -+ c r^2 <= |f(z)| <= r + c r^2 on |z| = r for members."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    c = distortion_coefficient(p)
    return r - c * r * r, r + c * r * r


def derivative_distortion_bounds(r: float, p: ClassParams) -> tuple[float, float]:
    """Envelope 1 -+ 2c r <= |f'(z)| <= 1 + 2c r for members."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    c = distortion_coefficient(p)
    return 1.0 - 2.0 * c * r, 1.0 + 2.0 * c * r


def extreme_point_decompose(f: TruncatedSeries, p: ClassParams) -> DecompositionWeights:
    """Weights lambda_n = phi_n |a_n| / (1-alpha), lambda_1 = 1 - sum(rest).

    The one-row case of decompose_rows.
    """
    return DecompositionWeights(tuple(decompose_rows(t_form_magnitudes(f)[None], p)[0].tolist()))


def decompose_rows(magnitudes: np.ndarray, p: ClassParams) -> np.ndarray:
    """(R, order) weight rows for an (R, order - 1) array of t-form magnitudes |a_n|.

    Raises DecompositionError for the first row whose weighted sum
    exceeds the budget 1 - alpha by more than 1e-12.  The rows are not
    yet validated as convex weights (convex_weight_rows does that).  A row
    whose weighted sum overflows a double raises OverflowError.
    """
    with np.errstate(over="ignore"):
        lams = phi_table(p, magnitudes.shape[1] + 1) * magnitudes / (1.0 - p.alpha)
    lam1 = 1.0 - np.array(_budget_sums(lams.tolist(), p))
    over = lam1 < -1e-12
    if over.any():
        raise DecompositionError(
            "not in the class (coefficient sum exceeds the budget by "
            f"{-lam1[over.argmax()]:.3e}); no convex decomposition over the extreme points exists"
        )
    return np.concatenate((np.maximum(0.0, lam1)[:, None], lams), axis=1)


def extreme_point_compose(
    w: DecompositionWeights, p: ClassParams, order: int | None = None
) -> TruncatedSeries:
    """The convex combination sum(lambda_n f_n); always a class member.

    The one-row case of compose_rows.
    """
    n_max = len(w.lambdas)
    if order is None:
        order = max(DEFAULT_ORDER, n_max)
    if order < n_max:
        raise ValueError(f"order {order} is below the number of weights {n_max}")
    taylor = compose_rows(np.array([w.lambdas]), p, order)[0]
    return TruncatedSeries.from_taylor(taylor.tolist(), order=order)


def compose_rows(lams: np.ndarray, p: ClassParams, order: int) -> np.ndarray:
    """(R, order) Taylor rows (a1, ..., a_order) of sum(lambda_n f_n), one per weight row.

    lams is an (R, N) array of convex weights, N <= order, already
    validated by convex_weight_rows; a_n = -lambda_n (1 - alpha) / phi_n.
    """
    n_max = lams.shape[1]
    taylor = np.zeros((lams.shape[0], order), dtype=complex)
    taylor[:, 0] = 1.0
    taylor[:, 1:n_max] = -lams[:, 1:] * ((1.0 - p.alpha) / phi_table(p, n_max))
    return taylor


def random_certified_member(
    p: ClassParams, rng: np.random.Generator, order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Random negative-coefficient member with margin >= 0.

    The one-row case of random_certified_rows.
    """
    magnitudes = random_certified_rows(p, rng, 1, order)[0]
    return TruncatedSeries.from_taylor([1.0, *(-magnitudes).tolist()], order=order)


def random_certified_rows(
    p: ClassParams, rng: np.random.Generator, count: int, order: int
) -> np.ndarray:
    """(count, order - 1) magnitudes (a2, ..., a_order) of random certified members.

    Each row draws order - 1 raw magnitudes and then a fraction of the
    budget 1 - alpha, and is rescaled so that sum(phi_n a_n), correctly
    rounded as budget_rows takes it, equals that share.  One rng.random((count,
    order)) block gives the same doubles as count draws of random(order - 1)
    and random(), so each row is bitwise what it is when drawn alone.
    """
    draw = rng.random((count, order))
    raw = draw[:, :-1]
    budget = draw[:, -1] * (1.0 - p.alpha)
    # raw < 1 and phi_table is finite, so no product overflows; numpy's are Python's
    totals = _budget_sums((phi_table(p, order) * raw).tolist(), p)
    return raw * (budget / np.array(totals))[:, None]
