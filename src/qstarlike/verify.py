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

The maximum of |u| over arg x is that of a quadratic in cos(arg x) (see
_h2_cells), so the H2 oracle scans (B1, |x|).  The Fekete-Szego oracle
needs no scan: c0 = K B1^2 for a constant K, so max_x |c0 + c1 x| =
|K| t + P1 (4 - t) / (4 q3) is affine in t = B1^2 and its maximum over
B1 in [0, 2] is at B1 = 0 or B1 = 2, the members subordinated through
w(z) = z^2 and w(z) = z.  Every evaluated point is validated as a genuine
Caratheodory triple for the whole inner disk (|B2|, |B3| <= 2); a
violation aborts the scan rather than producing a fictitious functional
value.

The H2 scan is grid search plus local refinement: after the coarse pass
the running argmax is re-sampled on a window of one coarse cell at 8x the
density, per refinement level, clipped to [0, 2] x [0, 1].  Each
refinement window contains the current argmax exactly, so the reported
maximum never decreases across levels.  Ties keep the lexicographically
smallest grid index.

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

# The H2 scan evaluates all nB * nRho (B1, |x|) cells at once: three arg x
# candidates a cell, about 500 bytes a cell at its peak with 64-bit numpy
# (130 MB at this cap, 63 times the default grid of 4,141 cells).
MAX_GRID_POINTS = 2**18

# Past about 17 levels even the coarsest B1 window (nB = 8) is spaced below
# float resolution and re-evaluates the same points; the cap bounds that work.
MAX_REFINEMENT = 20


class OracleSoundnessError(RuntimeError):
    """A sampled point produced Caratheodory coefficients with |B_n| > 2."""


@dataclass(frozen=True)
class OracleGrid:
    """Sample counts for the H2 oracle's (B1, |x|) scan.

    Both axes include their endpoints ({0, 2} and {0, 1}).  refinement
    counts the local 8x re-sampling passes around the argmax, at most
    MAX_REFINEMENT.  nB * nRho may not exceed MAX_GRID_POINTS.  The
    Fekete-Szego oracle takes no grid: it is exact in B1 and x.

    nPhi and nZeta are accepted and unused: the oracles maximize over
    arg x and zeta in closed form.  The fields stay only because the
    benchmark's ledger warm-up still passes them.
    """

    nB: int = 101
    nRho: int = 41
    nPhi: int = 64
    nZeta: int = 32
    refinement: int = 2

    def __post_init__(self):
        for name in ("nB", "nRho"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        if not 0 <= self.refinement <= MAX_REFINEMENT:
            raise ValueError(
                f"refinement must lie in [0, {MAX_REFINEMENT}], got {self.refinement}"
            )
        points = self.nB * self.nRho
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid nB * nRho = {points} exceeds the cap of {MAX_GRID_POINTS} points"
            )

    def to_json_dict(self) -> dict:
        return {"nB": self.nB, "nRho": self.nRho, "refinement": self.refinement}


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmax: SchwarzTriple
    level_values: tuple[float, ...]

    def argmax_json(self) -> dict:
        t = self.argmax
        return {
            "B1": t.B1,
            "x": [t.x.real, t.x.imag],
            "zeta": [t.zeta.real, t.zeta.imag],
        }


# --- scan machinery ---------------------------------------------------------


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


def _h2_cells(consts, b_vals, rho_vals):
    """Per (B1, |x|) cell: max over arg x and zeta of |a2 a4 - a3^2|, and its cos(arg x).

    For fixed B1, u = al + be x + ga x^2 with real al, be, ga, read off u
    at x = 0, 1, -1.  On |x| = rho, with c = cos(arg x),

        |u|^2 = A + B c + C c^2,    A = al^2 + be^2 rho^2 + ga^2 rho^4 - 2 al ga rho^2,
                                    B = 2 al be rho + 2 be ga rho^3,  C = 4 al ga rho^2,

    whose maximum over c in [-1, 1] is at c = +-1 or, when C < 0, at the
    vertex -B / (2C).  |v| depends on |x| alone.  Returns two arrays of
    shape (len(b_vals), len(rho_vals)): the cell maxima and their c.
    """
    u0, u_pos, u_neg = (_h2_parts(consts, b_vals, x)[0].real for x in (0.0, 1.0, -1.0))
    al = u0[:, None]
    lin = ((u_pos - u_neg) / 2.0)[:, None] * rho_vals  # be rho
    quad = ((u_pos + u_neg) / 2.0 - u0)[:, None] * rho_vals**2  # ga rho^2
    B = 2.0 * lin * (al + quad)
    C = 4.0 * al * quad
    vertex = np.ones_like(C)
    np.divide(-B, 2.0 * C, out=vertex, where=C < 0.0)
    cos = np.stack([np.ones_like(C), np.clip(vertex, -1.0, 1.0), -np.ones_like(C)])
    e = cos + 1j * np.sqrt(1.0 - cos * cos)  # e^{i arg x}, arg x in [0, pi]
    u_abs = np.abs(al + lin * e + quad * e * e)
    # every candidate x must be a genuine Caratheodory point
    _, _, zeta_term = _checked_b2_b3(b_vals[:, None], rho_vals * e)
    # v = a2 P1 zeta_term / (2 q4) needs a2 = P1 B1 / (2 q2) alone, and zeta_term
    # at the c = 1 candidate, where x = |x| exactly
    P1, q2, q4 = consts[0], consts[3], consts[5]
    v = (P1 * b_vals / (2.0 * q2))[:, None] * P1 * zeta_term[0] / (2.0 * q4)
    pick = np.argmax(u_abs, axis=0)[None]  # ties keep c = 1, then the vertex
    return u_abs.max(axis=0) + np.abs(v), np.take_along_axis(cos, pick, 0)[0]


def _refined_axis(center: float, spacing: float, lo: float, hi: float) -> np.ndarray:
    pts = center + spacing * np.arange(-8, 9) / 8.0
    return pts[(pts >= lo) & (pts <= hi)]


def _resolve_constants(P: ConicCoefficients, q: float):
    q2, q3, q4 = symmetric_gaps(q)
    return (P.P1, P.P2, P.P3, q2, q3, q4)


def oracle_h2_max(
    P: ConicCoefficients, q: float, grid: OracleGrid | None = None
) -> OracleResult:
    """Grid-plus-refinement maximum of |a2 a4 - a3^2| over (B1, |x|), exact in arg x and zeta.

    The reported value is |u| + |v| recomputed at the reported argmax.
    """
    grid = grid or OracleGrid()
    consts = _resolve_constants(P, q)
    b_axis, rho_axis = np.linspace(0.0, 2.0, grid.nB), np.linspace(0.0, 1.0, grid.nRho)
    b_step, rho_step = 2.0 / (grid.nB - 1), 1.0 / (grid.nRho - 1)
    levels: list[float] = []
    for level in range(grid.refinement + 1):
        if level:
            b_axis = _refined_axis(b0, b_step, 0.0, 2.0)
            rho_axis = _refined_axis(rho0, rho_step, 0.0, 1.0)
            b_step, rho_step = b_step / 8.0, rho_step / 8.0
        vals, cos = _h2_cells(consts, b_axis, rho_axis)
        ib, ir = np.unravel_index(int(np.argmax(vals)), vals.shape)
        val = float(vals[ib, ir])
        if levels and val <= levels[-1]:
            levels.append(levels[-1])
            continue
        b0, rho0, cos0 = float(b_axis[ib]), float(rho_axis[ir]), float(cos[ib, ir])
        levels.append(val)
    x = rho0 * complex(cos0, math.sqrt(1.0 - cos0 * cos0))
    u, v = _h2_parts(consts, b0, x)
    argmax = SchwarzTriple(B1=b0, x=x, zeta=_unit_ratio(u, v))
    return OracleResult(float(abs(u) + abs(v)), argmax, tuple(levels))


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
    return OracleResult(float(vals[i]), argmax, (float(vals[i]),))


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
    distortion_members is accepted and unused: the distortion maxima are
    read off the extreme points.  It stays only because the benchmark's
    ledger warm-up still passes it.  tolerance must be finite and
    nonnegative: NaN or inf would pass every slack, a negative value fail
    exact agreement.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    grid = grid or OracleGrid()
    header = {
        "tool": "qstarlike",
        "version": __version__,
        "grid": grid.to_json_dict(),
        "tolerance": tolerance,
        "restrictions": [
            "B1 restricted to the real segment [0, 2] (rotation normalization); "
            "|a2 a4 - a3^2| and |a3 - mu a2^2| are unchanged by a_n -> e^{i(n-1)theta} a_n, "
            "so no maximum is lost",
            "zeta and arg x (H2) and B1 and x (Fekete-Szego) are maximized in closed form, "
            "not sampled",
            "parabolic-regime (k=1) coefficients are reconstructed from the cited "
            "parabolic disk map, not taken from the bound statements themselves",
        ],
        "rng_seed": rng_seed,
    }
    records: list[LedgerRecord] = []
    for index, p in enumerate(points):
        records.extend(_point_records(p, grid, user_conic, tolerance, rng_seed, index))
    return VerificationReport(header=header, records=tuple(records))


def _point_records(p, grid, user_conic, tolerance, rng_seed, index) -> list[LedgerRecord]:
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

    h2_oracle = oracle_h2_max(P, p.q, grid)
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
