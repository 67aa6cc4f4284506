"""Brute-force oracles and the bound-verification ledger.

The oracles maximize coefficient functionals over the exact
parametrization that generates class members: B1 runs over [0, 2]
(real, following the usual normalization by rotation), x over the closed
unit disk, and zeta over the closed unit disk.  Each functional is affine
in its innermost variable, and the maximum of |c0 + c1 w| over |w| <= 1
is exactly |c0| + |c1|, attained at w = (c0/|c0|) / (c1/|c1|):

* a2 a4 - a3^2 = u + v zeta for fixed (B1, x), since a4 is affine in B3
  and B3 in zeta, with v = a2 P1 (4 - B1^2)(1 - |x|^2) / (4 q4);
* a3 - mu a2^2 = c0 + c1 x for fixed B1, with c1 = P1 (4 - B1^2) / (4 q3).

Neither oracle scans.  The H2 maximum over |x| <= 1 sits on |x| = 1,
where v = 0, and the maximum over arg x there is that of a
quadratic in cos(arg x) (see _h2_cells).  What is left is a maximum over
B1 of closed forms whose coefficients are polynomials in t = B1^2, so the
candidates are t in {0, 4} and the critical points of those forms
(notes/decisions.md has the proof and the algebra).  The Fekete-Szego
oracle: c0 = K B1^2 for a constant K, so max_x |c0 + c1 x| =
|K| t + P1 (4 - t) / (4 q3) is affine in t and its maximum over B1 in
[0, 2] is at B1 = 0 or B1 = 2, the members subordinated through
w(z) = z^2 and w(z) = z.  Every evaluated point is validated as a genuine
Caratheodory triple for the whole inner disk (|B2|, |B3| <= 2); a
violation aborts the oracle rather than producing a fictitious
functional value.

run_ledger() assembles one record per row of CLAIMS per parameter point,
comparing each closed-form bound against its oracle maximum.  A negative
slack beyond TOLERANCE is a first-class "violated" outcome — several
printed shortcut values are retained precisely because they fail, and the
ledger is how that gets documented.
"""

from __future__ import annotations

import csv
import io
import json
import math
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .classes import (
    budget_rows,
    coefficient_threshold,
    compose_rows,
    convex_weight_rows,
    decompose_rows,
    phi_table,
    random_certified_rows,
    t_form_rows,
)
from .conic import (
    PROVENANCE_USER,
    ClassParams,
    ConicCoefficients,
    UnsupportedConicRegimeError,
    conic_coefficients,
    conic_margin,
    derivative_distortion_bounds,
    distortion_bounds,
    extremal_function,
)
from .hankel import (
    SchwarzTriple,
    caratheodory_b2_b3,
    fekete_szego_bound_complex,
    fekete_szego_breakpoint,
    h2_bound,
    printed_corollary_values,
    refuse_overflow,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from .qcalc import bracket_table
from .series import DEFAULT_ORDER

STATUS_VERIFIED = "verified"
STATUS_VIOLATED = "violated"
STATUS_RECONSTRUCTED = "reconstructed-input"
STATUS_MISSING = "reconstructed-input-missing"

# A record is violated when its slack (bound - oracle) is below -TOLERANCE.
TOLERANCE = 1e-6

CARATHEODORY_TOL = 1e-9

# Draws per parameter point of the two seeded ledger oracles.
ROUNDTRIP_WEIGHT_ROWS = 64
SUFFICIENCY_MEMBERS = 20


class OracleSoundnessError(RuntimeError):
    """A sampled point produced Caratheodory coefficients with |B_n| > 2."""


class OracleGrid(NamedTuple):
    """Accepted and unused: the H2 oracle is exact and reads no grid.

    The fields stay only because the benchmark's ledger warm-up still
    builds one and passes it to run_ledger, which ignores it.
    """

    nB: int = 101
    nRho: int = 41
    nPhi: int = 64
    nZeta: int = 32
    refinement: int = 2


class OracleResult(NamedTuple):
    value: float
    argmax: SchwarzTriple

    def argmax_json(self) -> dict:
        t = self.argmax
        return {
            "B1": t.B1,
            "x": [t.x.real, t.x.imag],
            "zeta": [t.zeta.real, t.zeta.imag],
        }


# --- oracle machinery -------------------------------------------------------


def _check_caratheodory(b2, b3=None) -> None:
    if np.abs(b2).max() > 2.0 + CARATHEODORY_TOL:
        raise OracleSoundnessError(f"|B2| reached {np.abs(b2).max()}; parametrization bug")
    if b3 is not None and np.abs(b3).max() > 2.0 + CARATHEODORY_TOL:
        raise OracleSoundnessError(f"|B3| reached {np.abs(b3).max()}; parametrization bug")


def _unit_ratio(c0, c1) -> complex:
    """(c0/|c0|) / (c1/|c1|), the w maximizing |c0 + c1 w| on |w| <= 1; 1 if either is 0."""
    c0, c1 = complex(c0), complex(c1)
    if c0 == 0 or c1 == 0:
        return 1.0 + 0j
    return (c0 / abs(c0)) / (c1 / abs(c1))


def _checked_b2_b3(b, x):
    """(B2, B3 at zeta = 0, |d B3 / d zeta|), elementwise, once |B2|, |B3| <= 2 for every zeta."""
    gap = 4.0 - b * b
    b2, b3 = caratheodory_b2_b3(b, x, 0.0)
    zeta_term = gap * (1.0 - np.abs(x) ** 2) / 2.0
    _check_caratheodory(b2, np.abs(b3) + zeta_term)
    return b2, b3, zeta_term


def _h2_parts(consts, b, x):
    """(u, v) with a2 a4 - a3^2 = u + v zeta, elementwise in real b and complex x."""
    P1, P2, P3, q2, q3, q4 = consts
    b2, b3, zeta_term = _checked_b2_b3(b, x)
    a2, a3, a4 = schwarz_to_coefficients(P1, P2, P3, q2, q3, q4, b, b2, b3)
    return a2 * a4 - a3 * a3, a2 * P1 * zeta_term / (2.0 * q4)


def _fs_parts(consts, mu, b):
    """(c0, c1) with a3 - mu a2^2 = c0 + c1 x, elementwise in real b."""
    P1, P2, P3, q2, q3, q4 = consts
    gap = 4.0 - b * b
    b2, _ = caratheodory_b2_b3(b, 0.0, 0.0)
    _check_caratheodory(np.abs(b2) + gap / 2.0)
    a2, a3, _ = schwarz_to_coefficients(P1, P2, P3, q2, q3, q4, b, b2, 0.0)
    return a3 - mu * a2 * a2, P1 * gap / (4.0 * q3)


def _h2_fit(consts):
    """(a, b, l0, l1): al = a t^2, be = b t (4 - t) and ga = (4 - t)(l0 + l1 t) in t = B1^2.

    a2 a4 - a3^2 = al + be x + ga x^2 at zeta = 0 (notes/decisions.md); u is
    read off at x = 0, 1, -1 and B1 = 0, 1 in one broadcast _h2_parts call.
    """
    u = _h2_parts(consts, np.array([[0.0], [1.0]]), np.array([0.0, 1.0, -1.0]))[0].real
    be, ga = (u[:, 1] - u[:, 2]) / 2.0, (u[:, 1] + u[:, 2]) / 2.0 - u[:, 0]
    l0 = ga[0] / 4.0
    return u[1, 0], be[1] / 3.0, l0, ga[1] / 3.0 - l0


def _h2_cells(fit, b_vals):
    """Per B1: max over |x| = 1 of |a2 a4 - a3^2|, and its cos(arg x).

    On |x| = 1, where v = 0, with c = cos(arg x) and al, be, ga from fit,

        |u|^2 = A + B c + C c^2,    A = al^2 + be^2 + ga^2 - 2 al ga,
                                    B = 2 al be + 2 be ga,  C = 4 al ga,

    whose maximum over c in [-1, 1] is at c = +-1 or, when C < 0, at the
    vertex -B / (2C).  Returns two arrays of the shape of b_vals: the
    maxima and their c.
    """
    a, b, l0, l1 = fit
    t = b_vals * b_vals
    al, be, ga = a * t * t, b * t * (4.0 - t), (4.0 - t) * (l0 + l1 * t)
    B = 2.0 * be * (al + ga)
    C = 4.0 * al * ga
    vertex = np.ones_like(C)
    np.divide(-B, 2.0 * C, out=vertex, where=C < 0.0)
    cos = np.stack([np.ones_like(C), np.clip(vertex, -1.0, 1.0), -np.ones_like(C)])
    e = cos + 1j * np.sqrt(1.0 - cos * cos)  # e^{i arg x}, arg x in [0, pi]
    u_abs = np.abs(al + be * e + ga * e * e)
    _checked_b2_b3(b_vals, e)  # every candidate x must be a genuine Caratheodory point
    pick = np.argmax(u_abs, axis=0)[None]  # ties keep c = 1, then the vertex
    return u_abs.max(axis=0), np.take_along_axis(cos, pick, 0)[0]


def _h2_b1_candidates(fit) -> np.ndarray:
    """The B1 values, ascending, where the maximum of _h2_cells over B1 in [0, 2] can sit.

    In t = B1^2, with fit = (a, b, l0, l1) (_h2_fit), the candidates are
    t = 0, t = 4, the vertices of the quadratics u(1) and u(-1), and the
    critical points of the vertex branch in arg x, whose square is
    D^2 M / (4 a L) with D = al - ga, M = 4 a L - b^2 (4 - t) and
    L = l0 + l1 t: the roots of the cubic 2 D' M L + D (M' L - M L').
    Every root's real part is kept, clipped to [0, 4]; a spurious
    candidate costs one evaluation, a missed one the maximum.  The
    cubic's coefficients are expanded in scalars in the order np.polymul
    and np.polyadd would take: each is a sum of at most two products, so
    the bits are theirs.
    """
    a, b, l0, l1 = fit
    t = [0.0, 4.0]
    for s in (1.0, -1.0):  # u(s) = (a - s b - l1) t^2 + (4 s b + 4 l1 - l0) t + 4 l0
        c2, c1 = a - s * b - l1, 4.0 * (s * b + l1) - l0
        if c2 != 0.0:
            t.append(-c1 / (2.0 * c2))
    d2, d1, d0 = a + l1, l0 - 4.0 * l1, -4.0 * l0  # D = d2 t^2 + d1 t + d0
    m1, m0 = 4.0 * a * l1 + b * b, 4.0 * a * l0 - 4.0 * b * b  # M = m1 t + m0
    e2, e1, e0 = 2.0 * d2 * m1, 2.0 * d2 * m0 + d1 * m1, d1 * m0  # D' M
    s = m1 * l0 - m0 * l1  # M' L - M L'
    cubic = [2.0 * (e2 * l1), 2.0 * (e2 * l0 + e1 * l1) + s * d2,
             2.0 * (e1 * l0 + e0 * l1) + s * d1, 2.0 * (e0 * l0) + s * d0]
    if not all(map(math.isfinite, cubic)):
        raise OverflowError("the H2 candidate cubic overflows")
    t.extend(np.roots(cubic).real)
    return np.sqrt(np.unique(np.clip(t, 0.0, 4.0)))


def _resolve_constants(P: ConicCoefficients, q: float):
    q2, q3, q4 = symmetric_gaps(q)
    return (P.P1, P.P2, P.P3, q2, q3, q4)


@refuse_overflow("the H2 oracle maximum")
def oracle_h2_max(P: ConicCoefficients, q: float) -> OracleResult:
    """Exact maximum of |a2 a4 - a3^2| over the Caratheodory parametrization.

    The maximum sits on |x| = 1 (notes/decisions.md), so it is the largest
    _h2_cells value over _h2_b1_candidates; ties keep the smallest B1.
    The reported value is |u| + |v| recomputed at the reported argmax.
    Arithmetic that overflows raises OverflowError instead of warning.
    """
    consts = _resolve_constants(P, q)
    with np.errstate(all="ignore"):
        fit = _h2_fit(consts)
        b_vals = _h2_b1_candidates(fit)
        vals, cos = _h2_cells(fit, b_vals)
        i = int(np.argmax(vals))
        b0, cos0 = float(b_vals[i]), float(cos[i])
        x = complex(cos0, math.sqrt(1.0 - cos0 * cos0))
        u, v = _h2_parts(consts, b0, x)
    argmax = SchwarzTriple(B1=b0, x=x, zeta=_unit_ratio(u, v))
    return OracleResult(float(abs(u) + abs(v)), argmax)


def oracle_fs_max(mu: complex, P: ConicCoefficients, q: float) -> OracleResult:
    """Exact maximum of |a3 - mu a2^2|, taken at B1 = 0 or B1 = 2 (module docstring).

    The one-row case of oracle_fs_rows.
    """
    return oracle_fs_rows((mu,), P, q)[0]


@refuse_overflow("the Fekete-Szego oracle maximum")
def oracle_fs_rows(mus, P: ConicCoefficients, q: float) -> tuple[OracleResult, ...]:
    """oracle_fs_max for each mu of mus, from one (len(mus), 2) array of functional values.

    Ties keep B1 = 0.  The argmax carries x = c0/|c0| (1 where c0 = 0) and
    zeta = 1, since a2 and a3 do not involve zeta.  Arithmetic that
    overflows raises OverflowError instead of warning.
    """
    b = np.array([0.0, 2.0])
    with np.errstate(all="ignore"):
        c0, c1 = _fs_parts(_resolve_constants(P, q), np.asarray(mus)[:, None], b)
        vals = np.abs(c0) + np.abs(c1)
    return tuple(
        OracleResult(float(vals[r, i]),
                     SchwarzTriple(B1=float(b[i]), x=_unit_ratio(c0[r, i], 1.0), zeta=1.0))
        for r, i in enumerate(np.argmax(vals, axis=1).tolist())
    )


# --- ledger -----------------------------------------------------------------


class LedgerRecord(NamedTuple):
    """One ledger row; a named tuple builds in a third of a frozen dataclass's time."""

    claim: str
    anchor: str
    q: float
    k: float
    alpha: float
    P1: float | None
    P2: float | None
    P3: float | None
    provenance: str | None
    bound: float | None
    oracle: float | None
    slack: float | None
    status: str
    argmax: dict | None = None
    mu: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "anchor": self.anchor,
            "point": {"q": self.q, "k": self.k, "alpha": self.alpha,
                      "P1": self.P1, "P2": self.P2, "P3": self.P3,
                      "provenance": self.provenance},
            "mu": self.mu,
            "bound": self.bound,
            "oracle": self.oracle,
            "slack": self.slack,
            "status": self.status,
            "argmax": self.argmax,
        }


CSV_FIELDS = [
    "claim", "q", "k", "alpha", "P1", "P2", "P3", "provenance", "mu",
    "bound", "oracle", "slack", "status",
    "argmax_B1", "argmax_x_re", "argmax_x_im", "argmax_zeta_re", "argmax_zeta_im",
    "anchor",
]


class VerificationReport(NamedTuple):
    header: dict
    records: tuple[LedgerRecord, ...]

    @property
    def has_violations(self) -> bool:
        return any(r.status == STATUS_VIOLATED for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "header": self.header,
            "records": [r.to_json_dict() for r in self.records],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    def csv_rows(self) -> list[dict]:
        """Each record's to_json_dict(), with point and argmax flattened into CSV_FIELDS."""
        rows = []
        for r in self.records:
            row = r.to_json_dict()
            row.update(row.pop("point"))
            argmax = row.pop("argmax") or {}
            row["argmax_B1"] = argmax.get("B1")
            for name in ("x", "zeta"):
                row[f"argmax_{name}_re"], row[f"argmax_{name}_im"] = argmax.get(name, (None, None))
            rows.append(row)
        return rows

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(self.csv_rows())
        return buf.getvalue()


def default_parameter_points() -> tuple[ClassParams, ...]:
    """q in {0.5, 0.8, 1} crossed with (k, alpha) in the built-in regimes."""
    return tuple(
        ClassParams(q=q, k=k, alpha=a)
        for q in (0.5, 0.8, 1.0)
        for (k, a) in ((0.0, 0.0), (0.0, 0.25), (1.0, 0.0), (1.0, 0.5))
    )


def _distortion_oracles(p: ClassParams, radius: float):
    """Exact (max |f|, max |f'|) at |z| = radius over the order-DEFAULT_ORDER class.

    The class is the convex hull of the extreme points f_n = z - c_n z^n,
    c_n = (1 - alpha)/phi_n, and |f(z)|, |f'(z)| are convex in f, so both
    maxima are attained at some f_n: r + c_n r^n and 1 + n c_n r^(n-1).
    """
    n = np.arange(2, DEFAULT_ORDER + 1)
    c = (1.0 - p.alpha) / phi_table(p, DEFAULT_ORDER)
    return (radius + float((c * radius**n).max()),
            1.0 + float((n * c * radius ** (n - 1)).max()))


def _roundtrip_oracle(p: ClassParams, rng) -> float:
    """Largest weight error of compose -> decompose over random 12-term convex combinations.

    All ROUNDTRIP_WEIGHT_ROWS rows go through the row kernels behind
    extreme_point_compose and extreme_point_decompose in one pass, with
    every check of the public functions.  They are composed at order 12,
    their own: at DEFAULT_ORDER the 20 further columns are exact zeros,
    which change no sum, check or error, and the ledger has already built
    the order-DEFAULT_ORDER phi_table at each point (notes/decisions.md).
    """
    raw = rng.random((ROUNDTRIP_WEIGHT_ROWS, 12))
    lams = convex_weight_rows(raw / raw.sum(axis=1, keepdims=True))
    taylor = compose_rows(lams, p, lams.shape[1])
    back = convex_weight_rows(decompose_rows(t_form_rows(taylor[:, 1:]), p))
    return float(np.abs(back - lams).max(initial=0.0))


def _cleared_at_one(a: np.ndarray, brackets: np.ndarray, p: ClassParams) -> bool:
    """True when float sums prove that _sufficiency_oracle's exact sums give 0.

    a holds the members' magnitudes a_n >= 0 and brackets their [n]~_q >= 1,
    so sum a_n <= sum [n]~_q a_n.  With A and Q those sums in floats, over
    N = a.shape[1] terms, f(1) = 1 - A and D~_q f(1) = 1 - Q lie within
    e = N 2^-52 (1 + Q) of the exact ones, and w = (1 - Q)/(1 - A) within
    e_w of the exact ratio once f(1) > 2e.  A margin that clears (1 + k)(e_w + 24 u (|w| + e_w + 1))
    + 24 u alpha, u = 2^-53, outlasts the rounding of the exact code's ratio
    and of both margin evaluations (notes/decisions.md, "Sums that only
    decide a sign").  NaN and inf sums clear nothing.
    """
    u = 2.0**-53
    with np.errstate(all="ignore"):
        weighted = (brackets * a).sum(axis=1)
        f_one = 1.0 - a.sum(axis=1)
        e = a.shape[1] * 2.0**-52 * (1.0 + weighted)
        w = (1.0 - weighted) / f_one
        w_abs = np.abs(w)
        e_w = 2.0 * e * (1.0 + w_abs) / f_one + 2.0 * u * w_abs
        clearance = (1.0 + p.k) * (e_w + 24.0 * u * (w_abs + e_w + 1.0)) + 24.0 * u * p.alpha
        margin = conic_margin(w, p.k, p.alpha)
    return bool((f_one > 2.0 * e).all() and (margin >= clearance).all())


def _sufficiency_oracle(p: ClassParams, rng) -> float:
    """Largest conic-domain violation over random certified members (0 if none).

    Each member f = z - sum(a_n z^n), a_n >= 0, has its least margin over
    the open disk in the limit z -> 1 (notes/decisions.md), where
    w(1) = D~_q f(1) / f(1) = (1 - sum [n]~_q a_n) / (1 - sum a_n) is read
    off the coefficient sums.  The members are one random_certified_rows
    block, so sum a_n <= (1 - alpha)/(k + 2 - alpha) <= 1/2 and f(1) >= 1/2
    (notes/decisions.md, "Guards the mathematics proves are tests").  Each
    row's sums are the correctly rounded ones symmetric_q_derivative's
    coefficients would give.  Those only decide a sign when every margin is
    positive, so the oracle first tries to prove that from float sums
    (_cleared_at_one) and runs math.fsum only when it cannot.
    """
    a = random_certified_rows(p, rng, SUFFICIENCY_MEMBERS, DEFAULT_ORDER)
    brackets = np.array(bracket_table(p.q, a.shape[1] + 1, True)[1:])
    if _cleared_at_one(a, brackets, p):
        return 0.0
    f_one = np.array([math.fsum([1.0, *row]) for row in (-a).tolist()])
    dq_one = np.array([math.fsum([1.0, *row]) for row in (-(brackets * a)).tolist()])
    return max(0.0, float(-conic_margin(dq_one / f_one, p.k, p.alpha).min()))


def _at_classical_limit(p: ClassParams) -> bool:
    return (p.q, p.k, p.alpha) == (1.0, 1.0, 0.0)


class Claim(NamedTuple):
    """A ledger row: bound(c) against oracle(c) at each point p where applies(p) holds.

    c holds a point's shared values (see _point_records).  An OracleResult oracle gives the
    record its argmax; fs labels the Fekete-Szego oracle row whose mu the record carries.
    """

    name: str
    anchor: str
    bound: Callable
    oracle: Callable
    fs: str | None = None
    applies: Callable[[ClassParams], bool] = lambda p: True


_FS_LABELS = ("0", "0.5", "1", "star")
_RADIUS = 0.9  # of both distortion envelopes

CLAIMS = (
    Claim("second-hankel-bound",
          "closed-form bound on |a2 a4 - a3^2| via the quadratic maximum over t = B1^2",
          lambda c: h2_bound(c.P, c.p.q), lambda c: c.h2),
    *(Claim(f"fekete-szego-mu-{label}", "closed-form bound on |a3 - mu a2^2|",
            lambda c, label=label: fekete_szego_bound_complex(c.mu[label], c.P, c.p.q),
            lambda c, label=label: c.fs[label], fs=label)
      for label in _FS_LABELS),
    Claim("printed-first-hankel-shortcut",
          "printed shortcut for |a3 - a2^2|; can go negative, retained for documentation",
          lambda c: c.printed.h21_printed, lambda c: c.fs["1"], fs="1"),
    Claim("printed-third-coefficient-shortcut",
          "printed shortcut for |a3|; differs from the mu=0 bound by a factor (q^2 - q + 1)",
          lambda c: c.printed.a3_printed, lambda c: c.fs["0"], fs="0"),
    Claim("printed-quadratic-coefficient-example",
          "printed largest certified |a2| example vs the n=2 sufficient threshold",
          lambda c: (1.0 - c.p.alpha) * c.p.q
          / (c.p.q * c.p.q * (c.p.k + 1.0) + 1.0 - c.p.alpha),
          lambda c: coefficient_threshold(2, c.p)),
    Claim("printed-classical-h2-limit",
          "printed classical-limit constant 16/pi^2 for the parabolic regime",
          lambda c: c.printed.h2_limit_printed, lambda c: c.h2, applies=_at_classical_limit),
    Claim("endpoint-classical-h2-limit",
          "t=0 endpoint value P1^2/q3^2 of the quadratic in the same limit",
          lambda c: c.P.P1**2 / symmetric_gaps(c.p.q)[1] ** 2, lambda c: c.h2,
          applies=_at_classical_limit),
    Claim("t-class-budget-sharpness",
          "coefficient budget 1 - alpha is exactly attained by the n=2 extremal",
          lambda c: 1.0 - c.p.alpha,
          # at order 2, its own: the higher coefficients are zeros, which add nothing to the sum
          lambda c: budget_rows([list(map(abs, extremal_function(2, c.p, 2).coeffs[2:]))], c.p)[0]),
    Claim("growth-envelope-upper",
          f"growth envelope r + c r^2 at r = {_RADIUS} over the extreme points",
          lambda c: distortion_bounds(_RADIUS, c.p)[1], lambda c: c.distortion[0]),
    Claim("derivative-envelope-upper",
          f"derivative envelope 1 + 2 c r at r = {_RADIUS} over the extreme points",
          lambda c: derivative_distortion_bounds(_RADIUS, c.p)[1], lambda c: c.distortion[1]),
    Claim("extreme-point-roundtrip",
          "convex decomposition over the extremal functions round-trips (error vs 0)",
          lambda c: 0.0, lambda c: _roundtrip_oracle(c.p, np.random.default_rng(c.seeds[0]))),
    Claim("sufficient-condition-sampled",
          "certified members keep a nonnegative conic margin as z -> 1, where it is least "
          "(violation vs 0)",
          lambda c: 0.0, lambda c: _sufficiency_oracle(c.p, np.random.default_rng(c.seeds[1]))),
)


def run_ledger(
    points,
    grid: OracleGrid | None = None,
    user_conic: ConicCoefficients | None = None,
    distortion_members: int | None = None,
    rng_seed: int = 20260808,
) -> VerificationReport:
    """One record per claim per parameter point; see the module docstring.

    Points with k outside the built-in regimes and no user coefficients
    yield a single reconstructed-input-missing record instead of failing.
    grid and distortion_members are accepted and unused: the H2 oracle is
    exact and the distortion maxima are read off the extreme points.  They
    stay only because the benchmark's ledger warm-up still passes them.
    """
    header = {
        "tool": "qstarlike",
        "version": __version__,
        "tolerance": TOLERANCE,
        "restrictions": [
            "B1 restricted to the real segment [0, 2] (rotation normalization); "
            "|a2 a4 - a3^2| and |a3 - mu a2^2| are unchanged by a_n -> e^{i(n-1)theta} a_n, "
            "so no maximum is lost",
            "B1, x and zeta are maximized in closed form, not sampled",
            "parabolic-regime (k=1) coefficients are reconstructed from the cited "
            "parabolic disk map, not taken from the bound statements themselves",
        ],
        "rng_seed": rng_seed,
    }
    records = tuple(r for index, p in enumerate(points)
                    for r in _point_records(p, user_conic, rng_seed, index))
    return VerificationReport(header=header, records=records)


def _point_records(p, user_conic, rng_seed, index) -> Iterator[LedgerRecord]:
    try:
        # user coefficients apply only where no built-in map exists, always as provenance user
        if user_conic is not None and p.k not in (0.0, 1.0):
            P = user_conic._replace(provenance=PROVENANCE_USER)
        else:
            P = conic_coefficients(p.k, p.alpha)
    except UnsupportedConicRegimeError:
        yield LedgerRecord(
            claim="conic-coefficients",
            anchor="disk-map coefficients unavailable for this aperture",
            q=p.q, k=p.k, alpha=p.alpha, P1=None, P2=None, P3=None, provenance=None,
            bound=None, oracle=None, slack=None, status=STATUS_MISSING,
        )
        return

    mu = dict(zip(_FS_LABELS, (0.0, 0.5, 1.0, fekete_szego_breakpoint(p.q))))
    c = SimpleNamespace(
        p=p, P=P, mu=mu, h2=oracle_h2_max(P, p.q),
        fs=dict(zip(mu, oracle_fs_rows(tuple(mu.values()), P, p.q))),
        printed=printed_corollary_values(P, p.q),
        distortion=_distortion_oracles(p, _RADIUS),
        seeds=np.random.SeedSequence([rng_seed, index]).spawn(2),  # one per sampled oracle
    )
    for claim in CLAIMS:
        if not claim.applies(p):
            continue
        bound, oracle, argmax = claim.bound(c), claim.oracle(c), None
        if isinstance(oracle, OracleResult):
            oracle, argmax = oracle.value, oracle.argmax_json()
        slack = bound - oracle
        # the ledger's one status rule; P.is_reconstructed is False only for the k = 0 map
        status = (STATUS_VIOLATED if slack < -TOLERANCE else
                  STATUS_RECONSTRUCTED if P.is_reconstructed else STATUS_VERIFIED)
        yield LedgerRecord(
            claim=claim.name, anchor=claim.anchor, q=p.q, k=p.k, alpha=p.alpha,
            P1=P.P1, P2=P.P2, P3=P.P3, provenance=P.provenance, bound=bound, oracle=oracle,
            slack=slack, status=status, argmax=argmax, mu=mu.get(claim.fs),
        )
