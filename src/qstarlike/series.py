"""Truncated complex power series.

A series is stored densely as coefficients (c0, c1, ..., cN) of
z^0 .. z^N; N is the truncation order.  Normalized analytic functions
f(z) = z + a2 z^2 + ... are the special case c0 = 0, c1 = 1.  All values
are immutable and every operation is a pure function.

Arithmetic is exact polynomial arithmetic truncated at the common order;
nothing here attempts analytic continuation or arbitrary precision.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

# numpy is imported inside the grid functions below only: the rest of this
# module, and qcalc, conic and hankel above it, stay numpy-free at import, so
# the closed-form CLI verbs start without loading it.

DEFAULT_ORDER = 32


class OrderMismatchError(ValueError):
    """Binary series operation applied to series of different orders."""


class SingularDivisionError(ZeroDivisionError):
    """Division by a series whose leading coefficient vanishes."""


class NormalizationError(ValueError):
    """A normalized series (c0 = 0, c1 = 1) was required."""


class SeriesFormatError(ValueError):
    """Malformed function file."""


class TruncationWarning(UserWarning):
    """Evaluation requested where the truncation error is unbounded."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite complex coefficient sequence, constant term first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("series needs at least a constant term")
        cleaned = tuple(map(complex, self.coeffs))
        if not all(map(cmath.isfinite, cleaned)):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", cleaned)

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
        coeffs = [0j, *taylor]  # __post_init__ converts every entry to complex
        if order is not None:
            if order + 1 < len(coeffs):
                raise ValueError(f"{len(coeffs) - 1} coefficients exceed order {order}")
            coeffs += [0j] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0j,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1 + 0j,) + (0j,) * order)

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        """The function f(z) = z."""
        return cls.from_taylor([1.0], order=order)

    def pad_to(self, order: int) -> "TruncatedSeries":
        if order < self.order:
            raise ValueError("pad_to cannot shrink a series; use truncate")
        return TruncatedSeries(self.coeffs + (0j,) * (order - self.order))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self.pad_to(order)
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return multiply(self, other)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return divide(self, other)

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)


def require_normalized(f: TruncatedSeries, what: str = "operation") -> None:
    if not f.is_normalized:
        raise NormalizationError(
            f"{what} requires a normalized series (constant term 0, leading coefficient 1); "
            f"got c0={f.coeffs[0]!r}, c1={f.a(1)!r}"
        )


def _require_same_order(f: TruncatedSeries, g: TruncatedSeries) -> None:
    if f.order != g.order:
        raise OrderMismatchError(f"series orders differ: {f.order} != {g.order}")


def add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum of two series of equal order."""
    _require_same_order(f, g)
    return TruncatedSeries(tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def scale(f: TruncatedSeries, c: complex) -> TruncatedSeries:
    """The series c * f(z)."""
    return TruncatedSeries(tuple(c * a for a in f.coeffs))


def _fsum_complex(values) -> complex:
    values = list(values)
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    Each output coefficient is a correctly rounded sum of the cross
    products, so the product is exactly commutative.
    """
    _require_same_order(f, g)
    fc, gc = f.coeffs, g.coeffs
    out = tuple(
        _fsum_complex(fc[i] * gc[k - i] for i in range(k + 1))
        for k in range(len(fc))
    )
    return TruncatedSeries(out)


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


def evaluate(f: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial at z.

    Outside |z| < 1 the truncation error is not controlled; a
    TruncationWarning is emitted and the polynomial value returned.
    """
    if abs(z) >= 1.0:
        warnings.warn(
            f"evaluating a truncated series at |z| = {abs(z):.6g} >= 1; "
            "the truncation error is unbounded there",
            TruncationWarning,
            stacklevel=2,
        )
    acc = 0j
    for c in reversed(f.coeffs):
        acc = acc * z + c
    return acc


def scale_argument(f: TruncatedSeries, c: complex, raw: bool = False) -> TruncatedSeries:
    """Substitute z -> c*z.

    raw=True returns g(z) = f(cz), i.e. c_n -> c_n * c^n.  The default
    divides once more by c, g(z) = f(cz)/c, which keeps a normalized
    series normalized; it needs c != 0.
    """
    c = complex(c)
    if not raw and c == 0:
        raise ZeroDivisionError("normalized argument scaling needs c != 0")
    powers = [1 + 0j]
    for _ in range(f.order):
        powers.append(powers[-1] * c)
    if raw:
        return TruncatedSeries(tuple(a * p for a, p in zip(f.coeffs, powers)))
    return TruncatedSeries(tuple(a * p / c for a, p in zip(f.coeffs, powers)))


def shift_up(f: TruncatedSeries) -> TruncatedSeries:
    """Multiply by z: (c0, c1, ...) -> (0, c0, c1, ...), order grows by one."""
    return TruncatedSeries((0j,) + f.coeffs)


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling of the open unit disk.

    radii must increase strictly inside (0, 1); angles are the n_angles
    equally spaced values 2*pi*j/n_angles, j = 0 .. n_angles-1.
    """

    radii: tuple[float, ...]
    n_angles: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("grid needs at least one radius")
        if any(not 0.0 < r < 1.0 for r in radii):
            raise ValueError("grid radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("grid radii must be strictly increasing")
        if self.n_angles < 8:
            raise ValueError("grid needs at least 8 angles")
        object.__setattr__(self, "radii", radii)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi * j / self.n_angles for j in range(self.n_angles))

    def points(self):
        """Yield (i, j, z) over radii then angles, in deterministic order."""
        for i, r in enumerate(self.radii):
            for j, t in enumerate(self.angles):
                yield i, j, r * cmath.exp(1j * t)

    def mesh(self):
        """Complex ndarray of shape (len(radii), n_angles)."""
        import numpy as np

        return np.asarray(self.radii)[:, None] * _roots_of_unity(self.n_angles)[None, :]


def _roots_of_unity(n: int):
    """e^(i t_j) at the grid angles t_j = 2 pi j / n, j = 0 .. n-1."""
    import numpy as np

    return np.exp(1j * (2.0 * np.pi * np.arange(n) / n))


def default_disk_grid() -> DiskGrid:
    """24 radii 0.04 .. 0.96 plus a near-boundary ring at 0.995, 96 angles.

    The dense real-axis boundary approach matters: class membership
    failures concentrate at z -> 1 along the real axis.
    """
    radii = tuple(round(0.04 * j, 10) for j in range(1, 25)) + (0.995,)
    return DiskGrid(radii=radii, n_angles=96)


@lru_cache(maxsize=32)
def _phase_table(n_angles: int, order: int):
    """Read-only (order + 1, n_angles) table of e^(i n t_j), t_j = 2 pi j / n_angles.

    Entry (n, j) is the root of unity number (n * j) mod n_angles, so every
    entry is one exp of an angle in [0, 2 pi), with no accumulated products.
    """
    import numpy as np

    table = _roots_of_unity(n_angles)[np.outer(np.arange(order + 1), np.arange(n_angles)) % n_angles]
    table.flags.writeable = False
    return table


def evaluate_on_grid(f: TruncatedSeries, grid: DiskGrid):
    """Vectorized evaluate() over a DiskGrid; returns (R, A) complex array.

    On the polar grid f(r_i e^(i t_j)) = sum_n (c_n r_i^n) e^(i n t_j): a
    (radii x order+1) radial matrix times the cached phase table.
    """
    import numpy as np

    powers = np.arange(f.order + 1)
    radial = np.array(f.coeffs) * np.asarray(grid.radii)[:, None] ** powers
    return radial @ _phase_table(grid.n_angles, f.order)


# --- function files ---------------------------------------------------------
#
# {"order": N, "coeffs": [[re, im], ...]} with coeffs[0] = a1 (the constant
# term is implied zero).  Derivative series, which do carry a constant term,
# are written with "kind": "derivative" and coeffs[0] = c0.


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


def from_json_dict(d: dict) -> TruncatedSeries:
    try:
        order = int(d["order"])
        raw = d["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SeriesFormatError(f"malformed function file: {exc}") from exc
    kind = d.get("kind", "function")
    coeffs = []
    for entry in raw:
        try:
            re, im = float(entry[0]), float(entry[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise SeriesFormatError(f"malformed coefficient entry {entry!r}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SeriesFormatError(f"non-finite coefficient entry {entry!r}")
        coeffs.append(complex(re, im))
    if kind == "function":
        if order < 2:
            raise SeriesFormatError("function files need order >= 2")
        if len(coeffs) != order:
            raise SeriesFormatError(
                f"function file with order {order} must carry exactly {order} coefficients (a1..aN)"
            )
        return TruncatedSeries.from_taylor(coeffs)
    if kind == "derivative":
        if len(coeffs) != order + 1:
            raise SeriesFormatError(
                f"derivative file with order {order} must carry {order + 1} coefficients (c0..cN)"
            )
        return TruncatedSeries(tuple(coeffs))
    raise SeriesFormatError(f"unknown series kind {kind!r}")


def load_function(path) -> TruncatedSeries:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def dump_function(f: TruncatedSeries, path, kind: str = "function") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(f, kind=kind), fh, indent=1)
        fh.write("\n")
