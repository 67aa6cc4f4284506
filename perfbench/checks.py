"""Output checks computed apart from qstarlike.

Nothing here imports the program.  Every expected value is rebuilt from
the mathematics: symmetric q-numbers from (q^n - q^-n)/(q - 1/q), the
class weights phi_n, the disk-map coefficients of the two built-in conic
regimes, the Caratheodory parametrization of (B2, B3), and the
coefficients a2, a3, a4 from the recursion for z D~_q f / f = h(w(z)).

Each check returns a list of problems; an empty list means the output is
correct.  The ledger's `violated` statuses and a membership witness are
documented, correct outcomes, not problems.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
TIGHT_TOL = 1e-12


# --- the mathematics, rebuilt ------------------------------------------------


def sym_q(n, q: float) -> float:
    """[n]~_q = (q^n - q^-n) / (q - 1/q), and n at q = 1."""
    if q == 1.0:
        return float(n)
    return (q**n - q ** (-n)) / (q - 1.0 / q)


def q_number(lam: float, q: float) -> float:
    """[lambda]_q = (1 - q^lambda) / (1 - q), and lambda at q = 1."""
    if q == 1.0:
        return float(lam)
    return (1.0 - q**lam) / (1.0 - q)


def phi(n: int, q: float, k: float, alpha: float) -> float:
    """Class weight phi_n = [n]~_q (k + 1) - (k + alpha)."""
    return sym_q(n, q) * (k + 1.0) - (k + alpha)


def phi_vector(order: int, q: float, k: float, alpha: float) -> np.ndarray:
    """(phi_2, ..., phi_order)."""
    return np.array([phi(n, q, k, alpha) for n in range(2, order + 1)])


def disk_map(k: float, alpha: float) -> tuple[float, float, float]:
    """(P1, P2, P3) of the conic disk map in the built-in regimes.

    k = 0 is the half-plane map (1 + (1 - 2 alpha) z) / (1 - z); k = 1 is
    (1 - alpha) times the series of (2/pi^2) log^2((1 + sqrt z)/(1 - sqrt z)).
    """
    if k == 0.0:
        c = 2.0 * (1.0 - alpha)
        return c, c, c
    if k == 1.0:
        s = (1.0 - alpha) / math.pi**2
        return 8.0 * s, 16.0 * s / 3.0, 184.0 * s / 45.0
    raise ValueError(f"no built-in disk map for k={k}")


def distortion_c(q: float, k: float, alpha: float) -> float:
    """c = (1 - alpha) / phi_2, the growth-envelope coefficient."""
    return (1.0 - alpha) / phi(2, q, k, alpha)


def caratheodory(b1, x, zeta):
    """(B2, B3) from B1 in [0, 2] and |x|, |zeta| <= 1 (Libera-Zlotkiewicz)."""
    gap = 4.0 - b1 * b1
    b2 = (b1 * b1 + x * gap) / 2.0
    b3 = (b1**3 + 2.0 * gap * b1 * x - b1 * gap * x * x
          + 2.0 * gap * (1.0 - np.abs(x) ** 2) * zeta) / 4.0
    return b2, b3


def _mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _div(a, b):
    out = []
    for n in range(len(a)):
        out.append((a[n] - sum(b[i] * out[n - i] for i in range(1, n + 1))) / b[0])
    return out


def coefficients(P, q: float, b1, b2, b3):
    """(a2, a3, a4) of f with z D~_q f / f = h(w(z)), elementwise.

    p = 1 + B1 z + B2 z^2 + B3 z^3 has positive real part, w = (p-1)/(p+1)
    is the Schwarz function, h = 1 + P1 w + P2 w^2 + P3 w^3 is the conic
    map, and ([n]~_q - 1) a_n = sum_j c_j a_{n-j} matches coefficients of
    z D~_q f = f * h(w).
    """
    zero = 0.0 * (b1 + b2 + b3)
    w = _div([zero, b1 + zero, b2 + zero, b3 + zero], [2.0 + zero, b1 + zero, b2 + zero, b3 + zero])
    w2 = _mul(w, w)
    w3 = _mul(w2, w)
    c = [P[0] * w[j] + P[1] * w2[j] + P[2] * w3[j] for j in range(4)]
    a = [None, 1.0 + zero]
    for n in (2, 3, 4):
        a.append(sum(c[j] * a[n - j] for j in range(1, n)) / (sym_q(n, q) - 1.0))
    return a[2], a[3], a[4]


def h2_functional(P, q: float, b1, x, zeta):
    """|a2 a4 - a3^2| at Caratheodory parameters (B1, x, zeta)."""
    b2, b3 = caratheodory(b1, x, zeta)
    a2, a3, a4 = coefficients(P, q, b1, b2, b3)
    return np.abs(a2 * a4 - a3 * a3)


def h2_sample_max(P, q: float, rng: np.random.Generator, count: int = 4096) -> float:
    """Max of the H2 functional over a random sample of Caratheodory triples."""
    b1 = 2.0 * rng.random(count)
    x = np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    zeta = np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    return float(np.max(h2_functional(P, q, b1, x, zeta)))


def fs_sharp(mu: float, P, q: float) -> float:
    """Sharp max of |a3 - mu a2^2| (Keogh-Merkes): (P1/q3) max(1, |2v - 1|)."""
    P1, P2, _ = P
    q2, q3 = sym_q(2, q) - 1.0, sym_q(3, q) - 1.0
    v = mu * P1 * q3 / (2.0 * q2 * q2) - (P1 * P1 - P1 * q2 + P2 * q2) / (2.0 * P1 * q2)
    return P1 / q3 * max(1.0, abs(2.0 * v - 1.0))


def fs_printed(mu: float, P, q: float) -> float:
    """The printed closed form (P1^2 |q2 - mu q3| + P2 q2^2) / (q2^2 q3)."""
    P1, P2, _ = P
    q2, q3 = sym_q(2, q) - 1.0, sym_q(3, q) - 1.0
    return (P1 * P1 * abs(q2 - mu * q3) + P2 * q2 * q2) / (q2 * q2 * q3)


def exact_margin(taylor, q: float, k: float, alpha: float, z: complex) -> float:
    """Conic margin of w = sum [n]~ a_n z^n / sum a_n z^n at z, no truncation."""
    num = sum(sym_q(n, q) * a * z**n for n, a in enumerate(taylor, start=1))
    den = sum(a * z**n for n, a in enumerate(taylor, start=1))
    w = num / den
    return w.real - k * abs(w - 1.0) - alpha


def close(got, want, tol: float = REL_TOL, scale: float = 1.0) -> bool:
    """|got - want| <= tol * max(scale, |want|); False for None or NaN."""
    if got is None or want is None:
        return False
    got, want = complex(got), complex(want)
    return abs(got - want) <= tol * max(scale, abs(want))


# --- the ledger --------------------------------------------------------------

RECORD_CLAIMS = (
    "second-hankel-bound", "fekete-szego-mu-0", "fekete-szego-mu-0.5",
    "fekete-szego-mu-1", "fekete-szego-mu-star", "printed-first-hankel-shortcut",
    "printed-third-coefficient-shortcut", "printed-quadratic-coefficient-example",
    "t-class-budget-sharpness", "growth-envelope-upper", "derivative-envelope-upper",
    "extreme-point-roundtrip", "sufficient-condition-sampled",
)
CLASSICAL_LIMIT_CLAIMS = ("printed-classical-h2-limit", "endpoint-classical-h2-limit")
GROWTH_RADIUS = 0.9


def check_ledger_point(report: dict, q: float, k: float, alpha: float,
                       rng: np.random.Generator) -> list[str]:
    """Check one ledger report for a single parameter point."""
    problems: list[str] = []
    bad = problems.append
    tol = report["header"]["tolerance"]
    records = report["records"]
    claims = [r["claim"] for r in records]
    want = list(RECORD_CLAIMS)
    if (q, k, alpha) == (1.0, 1.0, 0.0):
        want += CLASSICAL_LIMIT_CLAIMS
    if sorted(claims) != sorted(want):
        bad(f"claims {claims} differ from the expected set")
    P = disk_map(k, alpha)
    q3 = sym_q(3, q) - 1.0
    c = distortion_c(q, k, alpha)
    r = GROWTH_RADIUS
    for rec in records:
        name, pt = rec["claim"], rec["point"]
        bound, oracle, slack = rec["bound"], rec["oracle"], rec["slack"]
        if (pt["q"], pt["k"], pt["alpha"]) != (q, k, alpha):
            bad(f"{name}: point {pt} is not ({q}, {k}, {alpha})")
        if not all(close(got, exp, TIGHT_TOL) for got, exp in zip((pt["P1"], pt["P2"], pt["P3"]), P)):
            bad(f"{name}: disk-map coefficients {pt['P1']}, {pt['P2']}, {pt['P3']} != {P}")
        if slack is None or not close(slack, bound - oracle, TIGHT_TOL):
            bad(f"{name}: slack {slack} != bound - oracle")
            continue
        expected_status = ("violated" if slack < -tol else
                           "verified" if pt["provenance"] == "builtin-k0" else "reconstructed-input")
        if rec["status"] != expected_status:
            bad(f"{name}: status {rec['status']} but slack {slack} and tolerance {tol} "
                f"give {expected_status}")
        mu = rec["mu"]
        if name == "second-hankel-bound" or name in CLASSICAL_LIMIT_CLAIMS:
            am = rec["argmax"]
            x = complex(*am["x"])
            zeta = complex(*am["zeta"])
            at_argmax = float(h2_functional(P, q, am["B1"], x, zeta))
            if not close(oracle, at_argmax):
                bad(f"{name}: oracle {oracle!r} != H2 functional {at_argmax!r} at its argmax")
            sample = h2_sample_max(P, q, rng)
            if oracle < sample * (1.0 - REL_TOL):
                bad(f"{name}: oracle {oracle!r} below a sampled value {sample!r}")
            if (q, k, alpha) == (1.0, 0.0, 0.0) and not close(oracle, 1.0):
                bad(f"{name}: oracle {oracle!r} != 1 (Janteng-Halim-Darus)")
            if name == "endpoint-classical-h2-limit" and not close(bound, P[0] ** 2 / q3**2):
                bad(f"{name}: bound {bound!r} != P1^2/q3^2")
            if name == "printed-classical-h2-limit" and not close(bound, 16.0 / math.pi**2):
                bad(f"{name}: bound {bound!r} != 16/pi^2")
        elif mu is not None:
            if not close(oracle, fs_sharp(mu, P, q)):
                bad(f"{name}: oracle {oracle!r} != sharp value {fs_sharp(mu, P, q)!r} at mu={mu}")
            if name.startswith("fekete-szego") and not close(bound, fs_printed(mu, P, q)):
                bad(f"{name}: bound {bound!r} != printed form {fs_printed(mu, P, q)!r}")
        elif name == "printed-quadratic-coefficient-example":
            if not close(oracle, (1.0 - alpha) / phi(2, q, k, alpha)):
                bad(f"{name}: threshold {oracle!r} != (1-alpha)/phi_2")
        elif name == "t-class-budget-sharpness":
            if not (close(oracle, 1.0 - alpha, TIGHT_TOL) and close(bound, 1.0 - alpha, TIGHT_TOL)):
                bad(f"{name}: budget {bound!r} / attained {oracle!r} != 1 - alpha")
        elif name == "growth-envelope-upper":
            if not (close(oracle, r + c * r * r, TIGHT_TOL) and close(bound, r + c * r * r, TIGHT_TOL)):
                bad(f"{name}: growth oracle {oracle!r} / bound {bound!r} != r + c r^2")
        elif name == "derivative-envelope-upper":
            if not close(bound, 1.0 + 2.0 * c * r, TIGHT_TOL):
                bad(f"{name}: bound {bound!r} != 1 + 2 c r")
            if oracle < (1.0 + 2.0 * c * r) * (1.0 - TIGHT_TOL):
                bad(f"{name}: oracle {oracle!r} misses the witness value 1 + 2 c r")
        elif name == "extreme-point-roundtrip":
            if not 0.0 <= oracle <= TIGHT_TOL:
                bad(f"{name}: roundtrip error {oracle!r} > {TIGHT_TOL}")
        elif name == "sufficient-condition-sampled":
            if oracle != 0.0:
                bad(f"{name}: certified members violate the domain by {oracle!r}")
    return problems


# --- membership --------------------------------------------------------------


def check_membership(taylor: np.ndarray, q: float, k: float, alpha: float, out: dict) -> list[str]:
    """Check the membership outputs for f = z + a2 z^2 + ... (taylor = a1, a2, ...).

    `out` holds the verdicts as (certified, margin, witness) tuples under
    "sufficient", "sampled" and, for negative-coefficient input, "t_form";
    "derivative" holds the coefficients of D~_q f; "decompose" holds the
    weights, or None when the program refused the decomposition, and
    "compose" the Taylor coefficients composed back from them.
    """
    problems: list[str] = []
    bad = problems.append
    order = len(taylor)
    weights = phi_vector(order, q, k, alpha)
    mags = np.abs(taylor[1:])
    total = math.fsum(weights * mags)
    budget = 1.0 - alpha

    certified, margin, _ = out["sufficient"]
    if not close(margin, budget - total, REL_TOL, max(1.0, total)):
        bad(f"sufficient margin {margin!r} != 1 - alpha - sum phi_n |a_n| = {budget - total!r}")
    if (certified == "member-sufficient") != (margin >= 0.0):
        bad(f"sufficient verdict {certified} disagrees with its margin {margin!r}")

    s_certified, _, witness = out["sampled"]
    if s_certified == "not-member-witness":
        if certified == "member-sufficient":
            bad(f"sufficiently certified member got a sampled witness at {witness}")
        m = exact_margin(taylor, q, k, alpha, witness)
        if m > REL_TOL:
            bad(f"sampled witness {witness} has exact margin {m!r} > 0")
    elif s_certified != "inconclusive":
        bad(f"sampled verdict {s_certified} is neither a witness nor inconclusive")

    deriv = np.asarray(out["derivative"])
    want = np.array([sym_q(n, q) * a for n, a in enumerate(taylor, start=1)])
    if deriv.shape != want.shape or np.abs(deriv - want).max() > TIGHT_TOL * max(1.0, np.abs(want).max()):
        bad("symmetric q-derivative coefficients differ from [n]~_q a_n")

    if "t_form" not in out:
        return problems
    neg = -taylor[1:].real
    t_total = math.fsum(weights * neg)
    t_margin = budget - t_total
    t_certified, margin, _ = out["t_form"]
    if not close(margin, t_margin, REL_TOL, max(1.0, t_total)):
        bad(f"t-form margin {margin!r} != 1 - alpha - sum phi_n a_n = {t_margin!r}")
    member = t_margin >= -REL_TOL * max(1.0, t_total)
    if t_certified == "member-iff-negative" and not member:
        bad(f"t-form says member but the exact margin is {t_margin!r}")
    if t_certified == "not-member-witness" and member:
        bad(f"t-form says not a member but the exact margin is {t_margin!r}")
    if member and s_certified == "not-member-witness":
        bad(f"negative-coefficient member got a sampled witness at {witness}")

    lambdas = out["decompose"]
    if not member:
        if lambdas is not None:
            bad("a non-member was decomposed over the extreme points")
        return problems
    if lambdas is None:
        bad("a member was refused its extreme-point decomposition")
        return problems
    want_l = weights * neg / budget
    want_l = np.concatenate(([1.0 - math.fsum(want_l)], want_l))
    lam = np.asarray(lambdas)
    if lam.shape != want_l.shape or np.abs(lam - np.maximum(want_l, 0.0)).max() > TIGHT_TOL:
        bad("extreme-point weights differ from phi_n a_n / (1 - alpha)")
    back = np.asarray(out["compose"])
    if back.shape != taylor.shape or np.abs(back - taylor).max() > TIGHT_TOL:
        bad("compose(decompose(f)) does not return f")
    return problems


# --- the command line ---------------------------------------------------------


def one_line_error(code, stderr: str) -> list[str]:
    """A usage or input error: exit 1 and a single `error:` line, no traceback."""
    lines = stderr.strip().splitlines()
    if code == 1 and len(lines) == 1 and lines[0].startswith("error:"):
        return []
    return [f"expected exit 1 with a one-line diagnostic, got exit {code} and {len(lines)} "
            f"stderr lines: {lines[-1] if lines else ''!r}"]
