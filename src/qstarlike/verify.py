"""Brute-force oracles and the bound-verification ledger.

The oracles maximize coefficient functionals over the exact
parametrization that generates class members: B1 runs over [0, 2]
(real, following the usual normalization by rotation), x = rho e^{i phi}
over the closed unit disk, and zeta over the closed unit disk.  Each
functional is affine in its innermost variable, and the maximum of
|c0 + c1 w| over |w| <= 1 is exactly |c0| + |c1|, attained at
w = (c0/|c0|) / (c1/|c1|):

* a2 a4 - a3^2 = u + v zeta for fixed (B1, x), since a4 is affine in B3
  and B3 in zeta, with v = a2 P1 (4 - B1^2)(1 - |x|^2) / (4 q4);
* a3 - mu a2^2 = c0 + c1 x for fixed B1, with c1 = P1 (4 - B1^2) / (4 q3).

So the H2 oracle scans (B1, rho, phi) and the Fekete-Szego oracle scans
B1 alone, each taking the inner maximum in closed form.  Every sampled
point is validated as a genuine Caratheodory triple for the whole inner
disk (|B2|, |B3| <= 2); a violation aborts the scan rather than
producing a fictitious functional value.

Scans are grid search plus local refinement: after the coarse pass the
running argmax is re-sampled on a window of one coarse cell at 8x the
density, per refinement level.  Each refinement window contains the
current argmax exactly, so the reported maximum never decreases across
levels.  Ties keep the lexicographically smallest grid index.

run_ledger() assembles one record per claim per parameter point,
comparing each closed-form bound against its oracle maximum.  A negative
slack beyond tolerance is a first-class "violated" outcome — several
printed shortcut values are retained precisely because they fail, and the
ledger is how that gets documented.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classes import (
    coefficient_threshold,
    derivative_distortion_bounds,
    distortion_bounds,
    distortion_coefficient,
    extremal_function,
    extreme_point_compose,
    extreme_point_decompose,
    phi_table,
    random_certified_member,
    sampled_membership,
    DecompositionWeights,
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

# The H2 scan evaluates all nB * nRho * nPhi points at once and peaks at
# about 110 bytes per point (113 MB at this cap with 64-bit numpy), so the
# cap, four times the default grid of 265,024 points, bounds its memory.
MAX_GRID_POINTS = 2**20


class OracleSoundnessError(RuntimeError):
    """A sampled point produced Caratheodory coefficients with |B_n| > 2."""


@dataclass(frozen=True)
class OracleGrid:
    """Sample counts for the (B1, rho, phi) scan.

    B1 and rho axes include their endpoints ({0, 2} and {0, 1}); the
    angular axis covers [0, 2 pi) without the duplicate endpoint.
    refinement counts the local 8x re-sampling passes around the argmax.
    nB * nRho * nPhi may not exceed MAX_GRID_POINTS.

    nZeta is accepted and unused: the oracles maximize over zeta in
    closed form.  The field stays so that existing callers that pass it
    keep working.
    """

    nB: int = 101
    nRho: int = 41
    nPhi: int = 64
    nZeta: int = 32
    refinement: int = 2

    def __post_init__(self):
        for name in ("nB", "nRho", "nPhi"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        if self.refinement < 0:
            raise ValueError("refinement must be nonnegative")
        points = self.nB * self.nRho * self.nPhi
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid nB * nRho * nPhi = {points} exceeds the cap of {MAX_GRID_POINTS} points"
            )

    def to_json_dict(self) -> dict:
        return {
            "nB": self.nB, "nRho": self.nRho, "nPhi": self.nPhi,
            "refinement": self.refinement,
        }


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


def _angle_axis(count: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(count) / count


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


def _h2_parts(consts, b, x):
    """(u, v) with a2 a4 - a3^2 = u + v zeta, elementwise in real b and complex x."""
    P1, P2, P3, q2, q3, q4 = consts
    gap = 4.0 - b * b
    b2, b3 = caratheodory_b2_b3(b, x, 0.0)
    zeta_term = gap * (1.0 - np.abs(x) ** 2) / 2.0  # |d B3 / d zeta|
    _check_caratheodory(b2, np.abs(b3) + zeta_term)
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


def _h2_chunk(consts, b_vals, x_grid):
    """Max over b_vals x x_grid of max_zeta |a2 a4 - a3^2| = |u| + |v|.

    Returns (max, flat index, shape) with C-order axes (B, rho, phi).
    """
    u, v = _h2_parts(consts, b_vals[:, None, None], x_grid[None, :, :])
    vals = np.abs(u) + np.abs(v)
    flat = int(np.argmax(vals))
    return float(vals.flat[flat]), flat, vals.shape


def _fs_chunk(consts, mu, b_vals):
    """Max over b_vals of max_x |a3 - mu a2^2| = |c0| + |c1|.

    Returns (max, index, c0 at that index).
    """
    c0, c1 = _fs_parts(consts, mu, b_vals)
    vals = np.abs(c0) + np.abs(c1)
    i = int(np.argmax(vals))
    return float(vals[i]), i, complex(c0[i])


def _scan_h2(consts, b_axis, rho_axis, phi_axis):
    x_grid = rho_axis[:, None] * np.exp(1j * phi_axis)[None, :]
    val, flat, shape = _h2_chunk(consts, b_axis, x_grid)
    ib, ir, ip = np.unravel_index(flat, shape)
    return val, (float(b_axis[ib]), float(rho_axis[ir]), float(phi_axis[ip]))


def _refined_axis(center: float, spacing: float, lo=None, hi=None) -> np.ndarray:
    pts = [center + spacing * j / 8.0 for j in range(-8, 9)]
    if lo is not None:
        pts = [p for p in pts if p >= lo - 1e-15]
    if hi is not None:
        pts = [p for p in pts if p <= hi + 1e-15]
    return np.asarray(pts)


def _resolve_constants(P: ConicCoefficients, q: float):
    q2, q3, q4 = symmetric_gaps(q)
    return (P.P1, P.P2, P.P3, q2, q3, q4)


def oracle_h2_max(
    P: ConicCoefficients, q: float, grid: OracleGrid | None = None
) -> OracleResult:
    """Grid-plus-refinement maximum of |a2 a4 - a3^2| over (B1, x), exact in zeta."""
    grid = grid or OracleGrid()
    consts = _resolve_constants(P, q)

    b_axis = np.linspace(0.0, 2.0, grid.nB)
    rho_axis = np.linspace(0.0, 1.0, grid.nRho)
    phi_axis = _angle_axis(grid.nPhi)

    best_val, params = _scan_h2(consts, b_axis, rho_axis, phi_axis)
    levels = [best_val]

    h_b = 2.0 / (grid.nB - 1)
    h_rho = 1.0 / (grid.nRho - 1)
    h_phi = 2.0 * np.pi / grid.nPhi
    for _ in range(grid.refinement):
        b0, rho0, phi0 = params
        val, new_params = _scan_h2(
            consts,
            _refined_axis(b0, h_b, 0.0, 2.0),
            _refined_axis(rho0, h_rho, 0.0, 1.0),
            _refined_axis(phi0, h_phi),
        )
        if val > best_val:
            best_val, params = val, new_params
        levels.append(best_val)
        h_b, h_rho, h_phi = h_b / 8.0, h_rho / 8.0, h_phi / 8.0

    b0, rho0, phi0 = params
    x = min(rho0, 1.0) * np.exp(1j * phi0)
    u, v = _h2_parts(consts, b0, x)
    argmax = SchwarzTriple(B1=b0, x=x, zeta=_unit_ratio(u, v))
    return OracleResult(best_val, argmax, tuple(levels))


def oracle_fs_max(
    mu: complex, P: ConicCoefficients, q: float, grid: OracleGrid | None = None
) -> OracleResult:
    """Grid-plus-refinement maximum of |a3 - mu a2^2| over B1, exact in x.

    a2 and a3 do not involve zeta, so the argmax carries zeta = 1.  Only
    grid.nB and grid.refinement shape this scan.
    """
    grid = grid or OracleGrid()
    consts = _resolve_constants(P, q)

    b_axis = np.linspace(0.0, 2.0, grid.nB)
    best_val, i, best_c0 = _fs_chunk(consts, mu, b_axis)
    b_best = float(b_axis[i])
    levels = [best_val]

    h_b = 2.0 / (grid.nB - 1)
    for _ in range(grid.refinement):
        window = _refined_axis(b_best, h_b, 0.0, 2.0)
        val, i, c0 = _fs_chunk(consts, mu, window)
        if val > best_val:
            best_val, b_best, best_c0 = val, float(window[i]), c0
        levels.append(best_val)
        h_b /= 8.0

    # c1 > 0 below B1 = 2 and c1 = 0 at B1 = 2, so x = c0/|c0| attains the maximum
    argmax = SchwarzTriple(B1=b_best, x=_unit_ratio(best_c0, 1.0), zeta=1.0)
    return OracleResult(best_val, argmax, tuple(levels))


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

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

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

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(self.csv_rows())


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


def _distortion_oracles(p: ClassParams, rng, n_members: int, radius: float):
    """Brute-force (max |f|, max |f'|) at |z| = radius over random members.

    The modulus-envelope witness z + c z^2 is always included, so the
    sharp value is on the sample.
    """
    order = DEFAULT_ORDER
    coeff_rows = [np.zeros(order + 1, dtype=complex) for _ in range(2)]
    coeff_rows[0][1] = 1.0
    coeff_rows[0][2] = distortion_coefficient(p)
    coeff_rows[1][1] = 1.0  # f(z) = z, the other extreme point
    for _ in range(n_members):
        coeff_rows.append(np.asarray(random_certified_member(p, rng, order).coeffs))
    coeffs = np.vstack(coeff_rows)

    angles = _angle_axis(96)
    z = radius * np.exp(1j * angles)
    powers = z[None, :] ** np.arange(order + 1)[:, None]
    values = np.abs(coeffs @ powers)
    deriv_coeffs = coeffs[:, 1:] * np.arange(1, order + 1)[None, :]
    deriv_values = np.abs(deriv_coeffs @ powers[:-1])
    return float(values.max()), float(deriv_values.max())


def _roundtrip_oracle(p: ClassParams, rng, n_weights: int = 64) -> float:
    worst = 0.0
    for _ in range(n_weights):
        raw = rng.random(12)
        lams = raw / raw.sum()
        w = DecompositionWeights(tuple(lams))
        back = extreme_point_decompose(extreme_point_compose(w, p), p)
        padded = np.zeros(max(len(w.lambdas), len(back.lambdas)))
        padded[: len(back.lambdas)] = back.lambdas
        padded[: len(w.lambdas)] -= w.lambdas
        worst = max(worst, float(np.abs(padded).max()))
    return worst


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
    distortion_members: int = 2000,
    rng_seed: int = 20260808,
) -> VerificationReport:
    """One record per claim per parameter point; see the module docstring.

    Points with k outside the built-in regimes and no user coefficients
    yield a single reconstructed-input-missing record instead of failing.
    """
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
            "zeta (H2) and x (Fekete-Szego) are maximized in closed form, not sampled",
            "parabolic-regime (k=1) coefficients are reconstructed from the cited "
            "parabolic disk map, not taken from the bound statements themselves",
        ],
        "distortion_members": distortion_members,
        "rng_seed": rng_seed,
    }
    records: list[LedgerRecord] = []
    for index, p in enumerate(points):
        records.extend(
            _point_records(p, grid, user_conic, tolerance,
                           distortion_members, rng_seed, index)
        )
    return VerificationReport(header=header, records=tuple(records))


def _point_records(p, grid, user_conic, tolerance,
                   distortion_members, rng_seed, index) -> list[LedgerRecord]:
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

    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, index]))
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
        fs = oracle_fs_max(mu, P, p.q, grid)
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
    f_max, df_max = _distortion_oracles(p, rng, distortion_members, radius)
    out.append(record(
        "growth-envelope-upper",
        f"growth envelope r + c r^2 at r = {radius} over sampled members",
        distortion_bounds(radius, p)[1], f_max, conic=P,
    ))
    out.append(record(
        "derivative-envelope-upper",
        f"derivative envelope 1 + 2 c r at r = {radius} over sampled members",
        derivative_distortion_bounds(radius, p)[1], df_max, conic=P,
    ))

    out.append(record(
        "extreme-point-roundtrip",
        "convex decomposition over the extremal functions round-trips (error vs 0)",
        0.0, _roundtrip_oracle(p, rng), conic=P,
    ))
    out.append(record(
        "sufficient-condition-sampled",
        "certified members show no conic-domain failure on the disk grid (violation vs 0)",
        0.0, _sufficiency_oracle(p, rng), conic=P,
    ))
    return out
