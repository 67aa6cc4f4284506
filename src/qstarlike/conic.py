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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qcalc import validate_q

PROVENANCE_BUILTIN_K0 = "builtin-k0"
PROVENANCE_BUILTIN_K1 = "builtin-k1"
PROVENANCE_USER = "user"


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


@dataclass(frozen=True)
class ClassParams:
    """The triple (q, k, alpha) selecting one function class."""

    q: float
    k: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "q", validate_q(self.q))
        object.__setattr__(self, "k", _check_k(self.k))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))


@dataclass(frozen=True)
class ConicCoefficients:
    """First three Taylor coefficients of the disk map onto Omega(k, alpha)."""

    P1: float
    P2: float
    P3: float
    provenance: str = PROVENANCE_USER

    def __post_init__(self):
        for name in ("P1", "P2", "P3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.P1 > 0.0:
            raise ValueError(f"P1 must be positive, got {self.P1}")
        if self.P2 < 0.0 or self.P3 < 0.0:
            raise ValueError(f"P2 and P3 must be nonnegative, got {self.P2}, {self.P3}")
        if self.provenance not in (PROVENANCE_BUILTIN_K0, PROVENANCE_BUILTIN_K1, PROVENANCE_USER):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def is_reconstructed(self) -> bool:
        """True unless derived from the forced half-plane map (k = 0)."""
        return self.provenance != PROVENANCE_BUILTIN_K0


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

