"""Conic domains and the coefficients of their disk maps.

The domain with aperture k >= 0 and order alpha in [0, 1) is

    Omega(k, alpha) = { w : Re w > k*|w - 1| + alpha },

a conic-section-bounded region inside the right half plane, symmetric
about the real axis.  Membership tests use the strict inequality; the
signed margin Re w - k*|w-1| - alpha is exposed separately for
diagnostics, so a boundary point reports False together with margin 0.

The normalized disk map onto Omega(k, alpha) has real positive Taylor
coefficients 1 + P1 z + P2 z^2 + ....  Closed forms are built in for the
two classical regimes only:

    k = 0  (half plane (1 + (1-2a)z)/(1-z)):  Pn = 2(1 - alpha)
    k = 1  (parabola):  P1 = 8(1-alpha)/pi^2, P2 = 16(1-alpha)/(3 pi^2),
                        P3 = 184(1-alpha)/(45 pi^2)

The parabolic values come from expanding (2/pi^2) * log((1+sqrt z)/(1-sqrt z))**2,
scaled by (1 - alpha) for consistency with the half-plane pattern.  For
any other k the trigonometric / elliptic disk maps are deliberately not
constructed here; callers must inject coefficients, and the verification
ledger marks everything downstream of injected values as reconstructed
input.

A point (q, k, alpha) also fixes the class weights
phi_n = [n]~_q (k+1) - (k + alpha), and with them the extremal functions
and the distortion envelopes.  Those are closed forms, computed here in
Python floats, so the verbs that print them start without numpy; classes
builds its arrays from the same phi_weights table.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .qcalc import bracket_table, validate_q
from .series import DEFAULT_ORDER, MAX_ORDER, TruncatedSeries

PROVENANCE_BUILTIN_K0 = "builtin-k0"
PROVENANCE_BUILTIN_K1 = "builtin-k1"
PROVENANCE_USER = "user"

# Largest extremal index and order: phi_n grows like q^-(n-1) and overflows near
# n = 1024 at q = 0.5; larger requests are refused before any allocation.
MAX_EXTREMAL_ORDER = MAX_ORDER


class UnsupportedConicRegimeError(ValueError):
    """No built-in coefficients for this k."""


def _check_k(k) -> float:
    """k as a float; refused unless finite and nonnegative."""
    value = float(k)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"k must be a finite nonnegative real, got {k}")
    return value


def _check_alpha(alpha) -> float:
    """alpha as a float; refused unless it lies in [0, 1)."""
    value = float(alpha)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return value


class ClassParams(namedtuple("ClassParams", "q k alpha")):
    """The triple (q, k, alpha) selecting one function class."""

    __slots__ = ()

    def __new__(cls, q, k, alpha):
        return super().__new__(cls, validate_q(q), _check_k(k), _check_alpha(alpha))


class ConicCoefficients(namedtuple("ConicCoefficients", "P1 P2 P3 provenance")):
    """First three Taylor coefficients of the disk map onto Omega(k, alpha)."""

    __slots__ = ()

    def __new__(cls, P1, P2, P3, provenance=PROVENANCE_USER):
        for name, value in (("P1", P1), ("P2", P2), ("P3", P3)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not P1 > 0.0:
            raise ValueError(f"P1 must be positive, got {P1}")
        if P2 < 0.0 or P3 < 0.0:
            raise ValueError(f"P2 and P3 must be nonnegative, got {P2}, {P3}")
        if provenance not in (PROVENANCE_BUILTIN_K0, PROVENANCE_BUILTIN_K1, PROVENANCE_USER):
            raise ValueError(f"unknown provenance {provenance!r}")
        return super().__new__(cls, P1, P2, P3, provenance)

    @property
    def is_reconstructed(self) -> bool:
        """True unless derived from the forced half-plane map (k = 0)."""
        return self.provenance != PROVENANCE_BUILTIN_K0


@lru_cache(maxsize=64)
def phi_weights(p: ClassParams, order: int) -> tuple[float, ...]:
    """(phi_2, ..., phi_order), phi_n = [n]~_q (k+1) - (k + alpha); the one table of class weights.

    Each weight is the two IEEE operations of the formula on the bracket
    table.  One that overflows a double raises OverflowError naming its n;
    it would otherwise turn into inf, and inf * 0 into NaN in every weighted sum.
    """
    scale, shift = p.k + 1.0, p.k + p.alpha
    phi = tuple(bracket * scale - shift for bracket in bracket_table(p.q, order, True)[1:])
    if math.inf in phi:  # the weights are positive, so an overflow is +inf
        n = phi.index(math.inf) + 2
        raise OverflowError(
            f"phi_{n} = [{n}]~_q (k+1) - (k+alpha) overflows a double at q={p.q}, k={p.k}"
        )
    return phi


def extremal_function(n: int, p: ClassParams, order: int | None = None) -> TruncatedSeries:
    """f_1(z) = z and f_n(z) = z - (1-alpha)/phi_n * z^n, the extreme points.

    order defaults to max(DEFAULT_ORDER, n); an explicit order below
    max(n, 2) is refused, and so is one whose weights phi_weights overflow.
    """
    if n < 1:
        raise ValueError(f"extremal functions are indexed from 1, got {n}")
    if order is None:
        order = max(DEFAULT_ORDER, n)
    if max(n, order) > MAX_EXTREMAL_ORDER:
        raise ValueError(f"n = {n} and order = {order} must not exceed {MAX_EXTREMAL_ORDER}")
    if order < max(n, 2):
        raise ValueError(f"order = {order} is below max(n, 2) = {max(n, 2)} for n = {n}")
    phi = phi_weights(p, order)
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


def conic_margin(w, k: float, alpha: float):
    """Signed margin Re w - k*|w - 1| - alpha, elementwise for an array w; positive means inside."""
    return w.real - k * abs(w - 1.0) - alpha


def in_conic_domain(w: complex, k: float, alpha: float) -> bool:
    """Strict membership test Re w > k*|w - 1| + alpha."""
    return conic_margin(w, _check_k(k), _check_alpha(alpha)) > 0.0


def conic_coefficients(k: float, alpha: float) -> ConicCoefficients:
    """The built-in (P1, P2, P3) for the regime (k, alpha).

    Built-ins exist for k = 0 and k = 1; any other k raises
    UnsupportedConicRegimeError, and a caller with its own coefficients
    uses those instead.
    """
    k, alpha = _check_k(k), _check_alpha(alpha)
    if k == 0.0:
        c = 2.0 * (1.0 - alpha)
        return ConicCoefficients(c, c, c, provenance=PROVENANCE_BUILTIN_K0)
    if k == 1.0:
        s = (1.0 - alpha) / math.pi**2
        return ConicCoefficients(8.0 * s, 16.0 * s / 3.0, 184.0 * s / 45.0,
                                 provenance=PROVENANCE_BUILTIN_K1)
    raise UnsupportedConicRegimeError(
        f"no built-in disk-map coefficients for k={k}; supply P1, P2, P3 explicitly"
    )

