"""Truncated complex power series.

A series is stored densely as coefficients (c0, c1, ..., cN) of
z^0 .. z^N; N is the truncation order.  Normalized analytic functions
f(z) = z + a2 z^2 + ... are the special case c0 = 0, c1 = 1.  All values
are immutable and every operation is a pure function.

The operations the product uses are evaluation on the membership-scan
grid and the function-file format.  The quotient of two series, divide,
stays only because the benchmark's tracer (perfbench/tracer.py) names
it.  Nothing here attempts analytic continuation or arbitrary precision.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

# numpy is imported inside the grid functions below only: the rest of this
# module, and qcalc, conic and hankel above it, stay numpy-free at import, so
# the closed-form CLI verbs start without loading it.

DEFAULT_ORDER = 32
# Largest order a function file may declare, refused before any entry is read:
# the grid tables and the bracket table grow with the order.
MAX_ORDER = 1024


class OrderMismatchError(ValueError):
    """Binary series operation applied to series of different orders."""


class SingularDivisionError(ZeroDivisionError):
    """Division by a series whose leading coefficient vanishes."""


class NormalizationError(ValueError):
    """A normalized series (c0 = 0, c1 = 1) was required."""


class SeriesFormatError(ValueError):
    """Malformed function file, or a number in an input file that is not a finite real."""


class TruncatedSeries(namedtuple("TruncatedSeries", "coeffs")):
    """Finite complex coefficient sequence, constant term first."""

    __slots__ = ()

    def __new__(cls, coeffs):
        self = super().__new__(cls, tuple(map(complex, coeffs)))
        self.__post_init__()
        return self

    def __post_init__(self):
        # a hook of its own, so that perfbench/tracer.py can count the series built
        if len(self.coeffs) < 1:
            raise ValueError("series needs at least a constant term")
        if not all(map(cmath.isfinite, self.coeffs)):
            raise ValueError("series coefficients must be finite")

    @property
    def order(self) -> int:
        """Highest retained power of z."""
        return len(self.coeffs) - 1

    @property
    def is_normalized(self) -> bool:
        """True when the series has the class form z + a2 z^2 + ..."""
        return self.order >= 1 and self.coeffs[0] == 0 and self.coeffs[1] == 1

    @property
    def taylor(self) -> tuple[complex, ...]:
        """Coefficients (a1, a2, ..., aN), dropping the constant term."""
        return self.coeffs[1:]

    def a(self, n: int) -> complex:
        """Coefficient of z^n; zero beyond the truncation order."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.coeffs[n] if n <= self.order else 0j

    @classmethod
    def from_taylor(cls, taylor, order: int | None = None) -> "TruncatedSeries":
        """Build z * (a1 + a2 z + ...) from the (a1, a2, ...) sequence.

        The result is zero-padded (or rejected, never silently cut) to
        `order` when given.
        """
        coeffs = [0j, *taylor]  # __new__ converts every entry to complex
        if order is not None:
            if order + 1 < len(coeffs):
                raise ValueError(f"{len(coeffs) - 1} coefficients exceed order {order}")
            coeffs += [0j] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        """The function f(z) = z."""
        return cls.from_taylor([1.0], order=order)


def require_normalized(f: TruncatedSeries, what: str = "operation") -> None:
    if not f.is_normalized:
        raise NormalizationError(
            f"{what} requires a normalized series (constant term 0, leading coefficient 1); "
            f"got c0={f.coeffs[0]!r}, c1={f.a(1)!r}"
        )


def _require_same_order(f: TruncatedSeries, g: TruncatedSeries) -> None:
    if f.order != g.order:
        raise OrderMismatchError(f"series orders differ: {f.order} != {g.order}")


def _fsum_complex(values) -> complex:
    values = list(values)
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def valuation(f: TruncatedSeries) -> int | None:
    """Index of the first nonzero coefficient, or None for the zero series."""
    for j, c in enumerate(f.coeffs):
        if c != 0:
            return j
    return None


def divide(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Power-series quotient h with h * g = f through the retained order.

    Common valuation is cancelled first, so e.g. (z + z^2) / z = 1 + z.
    The quotient is found by forward substitution on coefficients; with
    v = valuation(g), it is determined (and returned) through order
    N - v.  Dividing by the zero series, or asking for a quotient with a
    pole at the origin (valuation(f) < valuation(g)), raises
    SingularDivisionError.
    """
    _require_same_order(f, g)
    vg = valuation(g)
    if vg is None:
        raise SingularDivisionError("division by the zero series")
    vf = valuation(f)
    if vf is not None and vf < vg:
        raise SingularDivisionError(
            f"quotient would have a pole at 0 (dividend valuation {vf} < divisor valuation {vg})"
        )
    m = f.order - vg  # retained order of the quotient
    fs = f.coeffs[vg:]
    gs = g.coeffs[vg:]
    out = _forward_substitute(fs, gs, m)
    # One pass of iterative refinement: recomputing the residual with
    # correctly rounded sums stops the recurrence's error propagation.
    residual = tuple(
        _fsum_complex([fs[j] if j < len(fs) else 0j]
                      + [-gs[i] * out[j - i] for i in range(min(j, len(gs) - 1) + 1)])
        for j in range(m + 1)
    )
    delta = _forward_substitute(residual, gs, m)
    return TruncatedSeries(tuple(h + d for h, d in zip(out, delta)))


def _forward_substitute(fs, gs, m: int) -> list[complex]:
    lead = gs[0]
    out = [0j] * (m + 1)
    for j in range(m + 1):
        terms = [fs[j] if j < len(fs) else 0j]
        terms.extend(-gs[i] * out[j - i] for i in range(1, min(j, len(gs) - 1) + 1))
        out[j] = _fsum_complex(terms) / lead
    return out


# The membership-scan grid: 24 radii 0.04 .. 0.96 plus a near-boundary ring
# at 0.995, times GRID_ANGLES equally spaced angles t_j = 2 pi j / GRID_ANGLES.
# The dense real-axis boundary approach matters: class membership failures
# concentrate at z -> 1 along the real axis.
GRID_RADII = tuple(round(0.04 * j, 10) for j in range(1, 25)) + (0.995,)
GRID_ANGLES = 96


@lru_cache(maxsize=None)
def _roots_of_unity():
    """Read-only e^(i t_j) at the grid angles, j = 0 .. GRID_ANGLES - 1.

    Entries up to j = GRID_ANGLES / 2 are each one exp (e^(i pi) is -1
    exactly) and entry GRID_ANGLES - j is the exact conjugate of entry j, so
    a series with real coefficients takes conjugate values at t and -t.
    """
    import numpy as np

    half = np.exp(1j * (2.0 * np.pi * np.arange(GRID_ANGLES // 2) / GRID_ANGLES))
    roots = np.concatenate((half, [-1.0], half[:0:-1].conj()))
    roots.flags.writeable = False
    return roots


def grid_point(i: int, j: int) -> complex:
    """The grid point r_i e^(i t_j), from the roots of unity the grid evaluation uses."""
    return complex(GRID_RADII[i] * _roots_of_unity()[j])


@lru_cache(maxsize=32)
def _phase_table(order: int):
    """Read-only (order + 1, GRID_ANGLES) table of e^(i n t_j).

    Entry (n, j) is the root of unity number (n * j) mod GRID_ANGLES, so every
    entry is one exp of an angle in [0, 2 pi), with no accumulated products.
    """
    import numpy as np

    table = _roots_of_unity()[np.outer(np.arange(order + 1), np.arange(GRID_ANGLES)) % GRID_ANGLES]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _radial_table(order: int):
    """Read-only (len(GRID_RADII), order + 1) table of r_i^n."""
    import numpy as np

    table = np.asarray(GRID_RADII)[:, None] ** np.arange(order + 1)
    table.flags.writeable = False
    return table


def evaluate_rows_on_grid(coeff_rows, angles: int = GRID_ANGLES):
    """Values of S series of one order on the grid; returns an (S, R, angles) complex array.

    coeff_rows is an (S, order + 1) array of coefficients c0 .. cN; only the
    first `angles` grid angles are evaluated.  On the polar grid
    f(r_i e^(i t_j)) = sum_n r_i^n (c_n e^(i n t_j)): the real table of r_i^n
    times the phase-weighted coefficients, read as (re, im) pairs of doubles,
    one real matrix product per series.
    """
    import numpy as np

    coeff_rows = np.asarray(coeff_rows, dtype=complex)
    order = coeff_rows.shape[1] - 1
    weighted = coeff_rows[:, :, None] * _phase_table(order)[:, :angles]
    return (_radial_table(order) @ weighted.view(float)).view(complex)


def evaluate_on_grid(f: TruncatedSeries):
    """Values of f on the grid; returns an (R, A) complex array.

    The one-series case of evaluate_rows_on_grid.
    """
    return evaluate_rows_on_grid([f.coeffs])[0]


# --- function files ---------------------------------------------------------
#
# {"order": N, "coeffs": [[re, im], ...]} with coeffs[0] = a1 (the constant
# term is implied zero).  Derivative series, which do carry a constant term,
# are written with "kind": "derivative" and coeffs[0] = c0; no verb reads
# them, since every reader needs a normalized series, so from_json_dict
# refuses them.


def to_json_dict(f: TruncatedSeries, kind: str = "function") -> dict:
    if kind == "function":
        if f.coeffs[0] != 0:
            raise SeriesFormatError("function files cannot hold a nonzero constant term")
        coeffs = f.taylor
    elif kind == "derivative":
        coeffs = f.coeffs
    else:
        raise SeriesFormatError(f"unknown series kind {kind!r}")
    return {
        "kind": kind,
        "order": f.order,
        "coeffs": [[c.real, c.imag] for c in coeffs],
    }


def json_real(value, what: str) -> float:
    """A JSON int or float (not a bool) as a finite float, else a SeriesFormatError naming what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SeriesFormatError(f"{what} must be a JSON number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise SeriesFormatError(f"{what} is an integer too large for a double") from None
    if not math.isfinite(real):
        raise SeriesFormatError(f"{what} must be finite, got {real}")
    return real


def from_json_dict(d: dict) -> TruncatedSeries:
    """The series of a function file; the entry count is checked before any entry is read."""
    try:
        order, raw = d["order"], d["coeffs"]
    except (KeyError, TypeError) as exc:
        raise SeriesFormatError(f"malformed function file: {exc}") from exc
    kind = d.get("kind", "function")
    if kind != "function":
        raise SeriesFormatError(f"only function files can be read, not kind {kind!r}")
    order = json_real(order, "function file order")
    if not order.is_integer():
        raise SeriesFormatError(f"function file order must be an integer, got {order!r}")
    order = int(order)
    if order > MAX_ORDER:
        raise SeriesFormatError(f"function file order {order} exceeds the maximum {MAX_ORDER}")
    if not isinstance(raw, list):
        raise SeriesFormatError("function file coeffs must be a list of [re, im] pairs")
    if order < 2:
        raise SeriesFormatError("function files need order >= 2")
    if len(raw) != order:
        raise SeriesFormatError(
            f"function file with order {order} must carry exactly {order} coefficients (a1..aN)"
        )
    coeffs = []
    for n, entry in enumerate(raw):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SeriesFormatError(f"malformed coefficient entry {entry!r}: need [re, im] numbers")
        re, im = (json_real(part, f"coefficient entry {n} {name}")
                  for part, name in zip(entry, ("re", "im")))
        coeffs.append(complex(re, im))
    return TruncatedSeries.from_taylor(coeffs)
