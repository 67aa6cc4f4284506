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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import series as ser
from .conic import ClassParams, conic_margin
from .qcalc import _q_factor_table, symmetric_q_number, symmetric_q_derivative
from .series import (
    DEFAULT_ORDER,
    DiskGrid,
    TruncatedSeries,
    default_disk_grid,
    require_normalized,
)

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
MAX_EXTREMAL_ORDER = 1024


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
    """Convex weights (lambda_1, lambda_2, ...) over the extreme points."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(map(float, self.lambdas))
        if not lams:
            raise ValueError("weight vector is empty")
        lowest = min(lams)
        if lowest < -1e-12:
            raise ValueError("weights must be nonnegative")
        total = math.fsum(lams)
        # Written so that a NaN weight, which min() may pass over, fails here.
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if lowest < 0.0:
            lams = tuple(max(0.0, v) for v in lams)
        object.__setattr__(self, "lambdas", lams)


def threshold_denominator(n: int, p: ClassParams) -> float:
    """phi_n = [n]~_q (k+1) - (k + alpha), positive for every n >= 2."""
    if n < 2:
        raise ValueError(f"threshold weights start at n = 2, got {n}")
    return symmetric_q_number(n, p.q) * (p.k + 1.0) - (p.k + p.alpha)


@lru_cache(maxsize=64)
def phi_table(p: ClassParams, order: int) -> np.ndarray:
    """Read-only (phi_2, ..., phi_order), elementwise equal to threshold_denominator.

    A weight that overflows a double raises OverflowError naming its n; it
    would otherwise turn into inf, and inf * 0 into NaN in every weighted sum.
    """
    brackets = np.array(_q_factor_table(p.q, order, True)[1:])
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


def coefficient_threshold(n: int, p: ClassParams) -> float:
    """Largest |a_n| that the sufficient condition certifies on its own."""
    return (1.0 - p.alpha) / threshold_denominator(n, p)


def sufficient_condition_margin(f: TruncatedSeries, p: ClassParams) -> float:
    """(1 - alpha) - sum(phi_n |a_n|); nonnegative certifies membership."""
    require_normalized(f, "the sufficient coefficient condition")
    total = math.fsum(phi * abs(c) for phi, c in zip(phi_table(p, f.order), f.coeffs[2:]))
    return (1.0 - p.alpha) - total


def sufficient_membership(f: TruncatedSeries, p: ClassParams) -> MembershipVerdict:
    margin = sufficient_condition_margin(f, p)
    if margin >= 0.0:
        return MembershipVerdict(CERTIFIED_MEMBER_SUFFICIENT, margin)
    return MembershipVerdict(CERTIFIED_INCONCLUSIVE, margin)


def t_form_magnitudes(f: TruncatedSeries) -> np.ndarray:
    """(|a2|, |a3|, ...) for f = z - a2 z^2 - ...; raises TFormError otherwise.

    Each coefficient must be real and nonpositive up to T_FORM_ZERO_TOL;
    the magnitudes returned are exact, however small.
    """
    require_normalized(f, "the negative-coefficient form")
    tail = np.array(f.coeffs[2:], dtype=complex)
    bad = (np.abs(tail.imag) > T_FORM_ZERO_TOL) | (tail.real > T_FORM_ZERO_TOL)
    if bad.any():
        n = int(np.argmax(bad)) + 2
        raise TFormError(
            f"coefficient of z^{n} is {f.coeffs[n]!r}; the negative-coefficient form needs "
            "real, nonpositive values there"
        )
    return np.abs(tail)


def ts_membership(f: TruncatedSeries, p: ClassParams) -> MembershipVerdict:
    """Exact characterization on the negative-coefficient class.

    Membership holds iff sum(phi_n a_n) <= 1 - alpha.  A failing f gets
    witness z = 1: clearing denominators of the defining inequality along
    the real axis shows it is violated exactly in the limit z -> 1-.
    """
    total = math.fsum(phi_table(p, f.order) * t_form_magnitudes(f))
    margin = (1.0 - p.alpha) - total
    # Members sitting exactly on the threshold can land an ulp below zero;
    # the slop is a few machine epsilons of the sum, not a modeling tolerance.
    slop = 32.0 * math.ulp(max(1.0, total))
    if margin >= -slop:
        return MembershipVerdict(CERTIFIED_MEMBER_IFF_NEGATIVE, margin)
    return MembershipVerdict(CERTIFIED_NOT_MEMBER_WITNESS, margin, witness=1.0 + 0j)


def sampled_membership(
    f: TruncatedSeries, p: ClassParams, grid: DiskGrid | None = None
) -> MembershipVerdict:
    """Scan w(z) = z (D~_q f)(z) / f(z) over a disk grid for conic-domain failures.

    Returns the first failing point in (radius, angle) order as a
    not-member witness, or an inconclusive verdict with the minimum
    margin seen.  A grid point where f vanishes is a pole of w and is
    reported first, as a witness with margin -inf: a member has no zero
    in the punctured disk.  A grid cannot certify membership;
    certification comes only from the coefficient theorems.  w is the
    ratio of two polynomials' values, exact at each point.
    """
    require_normalized(f, "membership sampling")
    if grid is None:
        grid = default_disk_grid()
    f_vals = ser.evaluate_on_grid(f, grid)
    tiny = np.abs(f_vals) < 1e-12
    if tiny.any():
        i, j = map(int, np.argwhere(tiny)[0])
        return MembershipVerdict(
            CERTIFIED_NOT_MEMBER_WITNESS, margin=-math.inf, witness=complex(grid.mesh()[i, j])
        )
    numerator = ser.shift_up(symmetric_q_derivative(f, p.q))
    w_vals = ser.evaluate_on_grid(numerator, grid) / f_vals
    margins = w_vals.real - p.k * np.abs(w_vals - 1.0) - p.alpha
    failing = margins <= 0.0
    if failing.any():
        i, j = map(int, np.argwhere(failing)[0])  # lexicographic (radius, angle)
        return MembershipVerdict(
            CERTIFIED_NOT_MEMBER_WITNESS,
            margin=float(margins[i, j]),
            witness=complex(grid.mesh()[i, j]),
        )
    return MembershipVerdict(CERTIFIED_INCONCLUSIVE, margin=float(margins.min()))


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


def distortion_equality_function(p: ClassParams, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """z + c z^2, attaining the upper envelope at z = r.

    The sign convention follows the stated equality witness; the
    negative-coefficient member z - c z^2 has the same modulus envelope
    (attained at z = -r), so envelope checks compare |coefficients|.
    """
    return TruncatedSeries.from_taylor([1.0, distortion_coefficient(p)], order=max(order, 2))


def extreme_point_decompose(f: TruncatedSeries, p: ClassParams) -> DecompositionWeights:
    """Weights lambda_n = phi_n |a_n| / (1-alpha), lambda_1 = 1 - sum(rest)."""
    lams = phi_table(p, f.order) * t_form_magnitudes(f) / (1.0 - p.alpha)
    lam1 = 1.0 - math.fsum(lams)
    if lam1 < -1e-12:
        raise DecompositionError(
            f"not in the class (coefficient sum exceeds the budget by {-lam1:.3e}); "
            "no convex decomposition over the extreme points exists"
        )
    return DecompositionWeights((max(0.0, lam1), *lams.tolist()))


def extreme_point_compose(
    w: DecompositionWeights, p: ClassParams, order: int | None = None
) -> TruncatedSeries:
    """The convex combination sum(lambda_n f_n); always a class member."""
    n_max = len(w.lambdas)
    if order is None:
        order = max(DEFAULT_ORDER, n_max)
    if order < n_max:
        raise ValueError(f"order {order} is below the number of weights {n_max}")
    taylor = np.zeros(order, dtype=complex)
    taylor[0] = 1.0
    taylor[1:n_max] = -np.array(w.lambdas[1:]) * ((1.0 - p.alpha) / phi_table(p, n_max))
    return TruncatedSeries.from_taylor(taylor.tolist(), order=order)


def random_certified_member(
    p: ClassParams, rng: np.random.Generator, order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Random negative-coefficient member with margin >= 0.

    Draws raw magnitudes and rescales so that sum(phi_n a_n) equals a
    random fraction of the budget 1 - alpha.
    """
    raw = rng.random(order - 1)
    phi = phi_table(p, order)
    budget = rng.random() * (1.0 - p.alpha)
    scale = budget / float(raw @ phi)
    taylor = [1.0 + 0j] + [complex(-v) for v in raw * scale]
    return TruncatedSeries.from_taylor(taylor, order=order)
