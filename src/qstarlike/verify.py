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

run_ledger() assembles one record per claim per parameter point,
comparing each closed-form bound against its oracle maximum.  A negative
slack beyond tolerance is a first-class "violated" outcome — several
printed shortcut values are retained precisely because they fail, and the
ledger is how that gets documented.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classes import (
    coefficient_threshold,
    compose_rows,
    convex_weight_rows,
    decompose_rows,
    derivative_distortion_bounds,
    distortion_bounds,
    extremal_function,
    phi_table,
    random_certified_member,
    sampled_membership,
    t_form_rows,
    CERTIFIED_NOT_MEMBER_WITNESS,
)
from .conic import ClassParams, ConicCoefficients, UnsupportedConicRegimeError, conic_coefficients
from .hankel import (
    SchwarzTriple,
    caratheodory_b2_b3,
    fekete_szego_bound_complex,
    fekete_szego_breakpoint,
    h2_bound,
    hankel_quantities,
    printed_corollary_values,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from .series import DEFAULT_ORDER, default_disk_grid

STATUS_VERIFIED = "verified"
STATUS_VIOLATED = "violated"
STATUS_RECONSTRUCTED = "reconstructed-input"
STATUS_MISSING = "reconstructed-input-missing"

CARATHEODORY_TOL = 1e-9

class OracleSoundnessError(RuntimeError):
    """A sampled point produced Caratheodory coefficients with |B_n| > 2."""


@dataclass(frozen=True)
class OracleGrid:
    """Accepted and unused: the H2 oracle is exact and reads no grid.

    The fields stay only because the benchmark's ledger warm-up still
    builds one and passes it to run_ledger, which ignores it.
    """

    nB: int = 101
    nRho: int = 41
    nPhi: int = 64
    nZeta: int = 32
    refinement: int = 2


@dataclass(frozen=True)
class OracleResult:
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


def _h2_coefficients(consts, b):
    """(al, be, ga) with a2 a4 - a3^2 = al + be x + ga x^2 at zeta = 0, elementwise in real b.

    Read off u at x = 0, 1, -1; all three are real.
    """
    u0, u_pos, u_neg = (_h2_parts(consts, b, x)[0].real for x in (0.0, 1.0, -1.0))
    return u0, (u_pos - u_neg) / 2.0, (u_pos + u_neg) / 2.0 - u0


def _h2_cells(consts, b_vals):
    """Per B1: max over |x| = 1 of |a2 a4 - a3^2|, and its cos(arg x).

    On |x| = 1, where v = 0, with c = cos(arg x),

        |u|^2 = A + B c + C c^2,    A = al^2 + be^2 + ga^2 - 2 al ga,
                                    B = 2 al be + 2 be ga,  C = 4 al ga,

    whose maximum over c in [-1, 1] is at c = +-1 or, when C < 0, at the
    vertex -B / (2C).  Returns two arrays of the shape of b_vals: the
    maxima and their c.
    """
    al, be, ga = _h2_coefficients(consts, b_vals)
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


def _h2_b1_candidates(consts) -> np.ndarray:
    """The B1 values, ascending, where the maximum of _h2_cells over B1 in [0, 2] can sit.

    In t = B1^2, al = a t^2, be = b t (4 - t) and ga = (4 - t)(l0 + l1 t)
    (notes/decisions.md), read off at B1 = 0 and B1 = 1.  The candidates
    are t = 0, t = 4, the vertices of the quadratics u(1) and u(-1), and
    the critical points of the vertex branch in arg x, whose square is
    D^2 M / (4 a L) with D = al - ga, M = 4 a L - b^2 (4 - t) and
    L = l0 + l1 t: the roots of the cubic 2 D' M L + D (M' L - M L').
    Every root's real part is kept, clipped to [0, 4]; a spurious
    candidate costs one evaluation, a missed one the maximum.
    """
    al, be, ga = _h2_coefficients(consts, np.array([0.0, 1.0]))
    a, b, l0 = al[1], be[1] / 3.0, ga[0] / 4.0
    l1 = ga[1] / 3.0 - l0
    t = [0.0, 4.0]
    for s in (1.0, -1.0):  # u(s) = (a - s b - l1) t^2 + (4 s b + 4 l1 - l0) t + 4 l0
        c2, c1 = a - s * b - l1, 4.0 * (s * b + l1) - l0
        if c2 != 0.0:
            t.append(-c1 / (2.0 * c2))
    D = np.array([a + l1, l0 - 4.0 * l1, -4.0 * l0])
    M = np.array([4.0 * a * l1 + b * b, 4.0 * a * l0 - 4.0 * b * b])
    L = np.array([l1, l0])
    cubic = np.polyadd(2.0 * np.polymul(np.polymul(np.polyder(D), M), L),
                       (M[0] * L[1] - M[1] * L[0]) * D)
    t.extend(np.roots(cubic).real)
    return np.sqrt(np.unique(np.clip(t, 0.0, 4.0)))


def _resolve_constants(P: ConicCoefficients, q: float):
    q2, q3, q4 = symmetric_gaps(q)
    return (P.P1, P.P2, P.P3, q2, q3, q4)


def oracle_h2_max(P: ConicCoefficients, q: float) -> OracleResult:
    """Exact maximum of |a2 a4 - a3^2| over the Caratheodory parametrization.

    The maximum sits on |x| = 1 (notes/decisions.md), so it is the largest
    _h2_cells value over _h2_b1_candidates; ties keep the smallest B1.
    The reported value is |u| + |v| recomputed at the reported argmax.
    """
    consts = _resolve_constants(P, q)
    b_vals = _h2_b1_candidates(consts)
    vals, cos = _h2_cells(consts, b_vals)
    i = int(np.argmax(vals))
    b0, cos0 = float(b_vals[i]), float(cos[i])
    x = complex(cos0, math.sqrt(1.0 - cos0 * cos0))
    u, v = _h2_parts(consts, b0, x)
    argmax = SchwarzTriple(B1=b0, x=x, zeta=_unit_ratio(u, v))
    return OracleResult(float(abs(u) + abs(v)), argmax)


def oracle_fs_max(mu: complex, P: ConicCoefficients, q: float) -> OracleResult:
    """Exact maximum of |a3 - mu a2^2|, taken at B1 = 0 or B1 = 2 (module docstring).

    Ties keep B1 = 0.  The argmax carries x = c0/|c0| (1 where c0 = 0) and
    zeta = 1, since a2 and a3 do not involve zeta.
    """
    b = np.array([0.0, 2.0])
    c0, c1 = _fs_parts(_resolve_constants(P, q), mu, b)
    vals = np.abs(c0) + np.abs(c1)
    i = int(np.argmax(vals))
    argmax = SchwarzTriple(B1=float(b[i]), x=_unit_ratio(c0[i], 1.0), zeta=1.0)
    return OracleResult(float(vals[i]), argmax)


# --- ledger -----------------------------------------------------------------


@dataclass(frozen=True)
class LedgerRecord:
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


@dataclass(frozen=True)
class VerificationReport:
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

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.json_text())

    def csv_rows(self) -> list[dict]:
        rows = []
        for r in self.records:
            am = r.argmax or {}
            x = am.get("x") or [None, None]
            zeta = am.get("zeta") or [None, None]
            rows.append({
                "claim": r.claim, "q": r.q, "k": r.k, "alpha": r.alpha,
                "P1": r.P1, "P2": r.P2, "P3": r.P3, "provenance": r.provenance,
                "mu": r.mu, "bound": r.bound, "oracle": r.oracle,
                "slack": r.slack, "status": r.status,
                "argmax_B1": am.get("B1"),
                "argmax_x_re": x[0], "argmax_x_im": x[1],
                "argmax_zeta_re": zeta[0], "argmax_zeta_im": zeta[1],
                "anchor": r.anchor,
            })
        return rows

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(self.csv_rows())
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())


def default_parameter_points() -> tuple[ClassParams, ...]:
    """q in {0.5, 0.8, 1} crossed with (k, alpha) in the built-in regimes."""
    return tuple(
        ClassParams(q=q, k=k, alpha=a)
        for q in (0.5, 0.8, 1.0)
        for (k, a) in ((0.0, 0.0), (0.0, 0.25), (1.0, 0.0), (1.0, 0.5))
    )


def _status(slack: float, tolerance: float, reconstructed: bool) -> str:
    if slack < -tolerance:
        return STATUS_VIOLATED
    return STATUS_RECONSTRUCTED if reconstructed else STATUS_VERIFIED


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


def _roundtrip_oracle(p: ClassParams, rng, n_weights: int = 64) -> float:
    """Largest weight error of compose -> decompose over random 12-term convex combinations.

    All n_weights rows go through the row kernels behind
    extreme_point_compose and extreme_point_decompose in one pass, with
    every check of the public functions.
    """
    raw = rng.random((n_weights, 12))
    lams = convex_weight_rows(raw / raw.sum(axis=1, keepdims=True))
    taylor = compose_rows(lams, p, DEFAULT_ORDER)
    back = convex_weight_rows(decompose_rows(t_form_rows(taylor[:, 1:]), p))
    back[:, : lams.shape[1]] -= lams
    return float(np.abs(back).max(initial=0.0))


def _sufficiency_oracle(p: ClassParams, rng, n_members: int = 20) -> float:
    """Largest conic-domain violation over sampled certified members (0 if none)."""
    grid = default_disk_grid()
    worst = 0.0
    for _ in range(n_members):
        f = random_certified_member(p, rng, DEFAULT_ORDER)
        verdict = sampled_membership(f, p, grid)
        if verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS:
            worst = max(worst, -verdict.margin)
    return worst


def _printed_a2_example(p: ClassParams) -> float:
    """The printed quadratic-coefficient example, evaluated as printed."""
    q = p.q
    return (1.0 - p.alpha) * q / (q * q * (p.k + 1.0) + 1.0 - p.alpha)


def run_ledger(
    points,
    grid: OracleGrid | None = None,
    user_conic: ConicCoefficients | None = None,
    tolerance: float = 1e-6,
    distortion_members: int | None = None,
    rng_seed: int = 20260808,
) -> VerificationReport:
    """One record per claim per parameter point; see the module docstring.

    Points with k outside the built-in regimes and no user coefficients
    yield a single reconstructed-input-missing record instead of failing.
    grid and distortion_members are accepted and unused: the H2 oracle is
    exact and the distortion maxima are read off the extreme points.  They
    stay only because the benchmark's ledger warm-up still passes them.
    tolerance must be finite and nonnegative: NaN or inf would pass every
    slack, a negative value fail exact agreement.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    header = {
        "tool": "qstarlike",
        "version": __version__,
        "tolerance": tolerance,
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
    records: list[LedgerRecord] = []
    for index, p in enumerate(points):
        records.extend(_point_records(p, user_conic, tolerance, rng_seed, index))
    return VerificationReport(header=header, records=tuple(records))


def _point_records(p, user_conic, tolerance, rng_seed, index) -> list[LedgerRecord]:
    def record(claim, anchor, bound, oracle, conic=None, argmax=None, mu=None,
               status=None):
        slack = None if (bound is None or oracle is None) else bound - oracle
        if status is None:
            status = _status(slack, tolerance, conic.is_reconstructed if conic else False)
        return LedgerRecord(
            claim=claim, anchor=anchor, q=p.q, k=p.k, alpha=p.alpha,
            P1=conic.P1 if conic else None, P2=conic.P2 if conic else None,
            P3=conic.P3 if conic else None,
            provenance=conic.provenance if conic else None,
            bound=bound, oracle=oracle, slack=slack, status=status,
            argmax=argmax, mu=mu,
        )

    try:
        P = conic_coefficients(p.k, p.alpha, user=user_conic if p.k not in (0.0, 1.0) else None)
    except UnsupportedConicRegimeError:
        return [record(
            "conic-coefficients", "disk-map coefficients unavailable for this aperture",
            None, None, status=STATUS_MISSING,
        )]

    out: list[LedgerRecord] = []

    h2_oracle = oracle_h2_max(P, p.q)
    out.append(record(
        "second-hankel-bound",
        "closed-form bound on |a2 a4 - a3^2| via the quadratic maximum over t = B1^2",
        h2_bound(P, p.q), h2_oracle.value, conic=P, argmax=h2_oracle.argmax_json(),
    ))

    mu_star = fekete_szego_breakpoint(p.q)
    fs_results = {}
    for label, mu in (("0", 0.0), ("0.5", 0.5), ("1", 1.0), ("star", mu_star)):
        fs = oracle_fs_max(mu, P, p.q)
        fs_results[label] = fs
        out.append(record(
            f"fekete-szego-mu-{label}",
            "closed-form bound on |a3 - mu a2^2|",
            fekete_szego_bound_complex(mu, P, p.q), fs.value,
            conic=P, argmax=fs.argmax_json(), mu=mu,
        ))

    printed = printed_corollary_values(P, p.q)
    out.append(record(
        "printed-first-hankel-shortcut",
        "printed shortcut for |a3 - a2^2|; can go negative, retained for documentation",
        printed.h21_printed, fs_results["1"].value,
        conic=P, argmax=fs_results["1"].argmax_json(), mu=1.0,
    ))
    out.append(record(
        "printed-third-coefficient-shortcut",
        "printed shortcut for |a3|; differs from the mu=0 bound by a factor (q^2 - q + 1)",
        printed.a3_printed, fs_results["0"].value,
        conic=P, argmax=fs_results["0"].argmax_json(), mu=0.0,
    ))
    out.append(record(
        "printed-quadratic-coefficient-example",
        "printed largest certified |a2| example vs the n=2 sufficient threshold",
        _printed_a2_example(p), coefficient_threshold(2, p), conic=P,
    ))

    if p.q == 1.0 and p.k == 1.0 and p.alpha == 0.0:
        hq = hankel_quantities(P, p.q)
        out.append(record(
            "printed-classical-h2-limit",
            "printed classical-limit constant 16/pi^2 for the parabolic regime",
            printed.h2_limit_printed, h2_oracle.value,
            conic=P, argmax=h2_oracle.argmax_json(),
        ))
        out.append(record(
            "endpoint-classical-h2-limit",
            "t=0 endpoint value P1^2/q3^2 of the quadratic in the same limit",
            P.P1**2 / hq.q3**2, h2_oracle.value,
            conic=P, argmax=h2_oracle.argmax_json(),
        ))

    f2 = extremal_function(2, p)
    attained = math.fsum(
        phi * abs(c) for phi, c in zip(phi_table(p, f2.order), f2.coeffs[2:])
    )
    out.append(record(
        "t-class-budget-sharpness",
        "coefficient budget 1 - alpha is exactly attained by the n=2 extremal",
        1.0 - p.alpha, attained, conic=P,
    ))

    radius = 0.9
    f_max, df_max = _distortion_oracles(p, radius)
    out.append(record(
        "growth-envelope-upper",
        f"growth envelope r + c r^2 at r = {radius} over the extreme points",
        distortion_bounds(radius, p)[1], f_max, conic=P,
    ))
    out.append(record(
        "derivative-envelope-upper",
        f"derivative envelope 1 + 2 c r at r = {radius} over the extreme points",
        derivative_distortion_bounds(radius, p)[1], df_max, conic=P,
    ))

    # one seed stream per sampled oracle, so neither moves the other's draws
    roundtrip_seed, sufficiency_seed = np.random.SeedSequence([rng_seed, index]).spawn(2)
    out.append(record(
        "extreme-point-roundtrip",
        "convex decomposition over the extremal functions round-trips (error vs 0)",
        0.0, _roundtrip_oracle(p, np.random.default_rng(roundtrip_seed)), conic=P,
    ))
    out.append(record(
        "sufficient-condition-sampled",
        "certified members show no conic-domain failure on the disk grid (violation vs 0)",
        0.0, _sufficiency_oracle(p, np.random.default_rng(sufficiency_seed)), conic=P,
    ))
    return out
