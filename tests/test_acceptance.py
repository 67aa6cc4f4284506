"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 asserts that the closed-form coefficient-functional bounds
dominate the brute-force oracles on the default parameter points.  The
second-Hankel half holds.  The Fekete-Szego half is genuinely false in
the parabolic regimes: the member subordinated through w(z) = z^2 has
a2 = 0 and |a3| = P1/q3, which exceeds the closed form near its branch
point whenever P1 > P2 (always at k = 1).  That part of the criterion is
implemented faithfully and left red; see the analysis in the failure
message.
"""

import math
import time

import numpy as np
import pytest

import reference
from qstarlike.classes import (
    DecompositionWeights,
    derivative_distortion_bounds,
    distortion_bounds,
    distortion_coefficient,
    extremal_function,
    extreme_point_compose,
    extreme_point_decompose,
    random_certified_member,
    random_certified_rows,
    sufficient_condition_margin,
)
from qstarlike.conic import ClassParams, conic_coefficients
from qstarlike.hankel import (
    ConicCoefficients,
    SchwarzTriple,
    fekete_szego_bound_complex,
    fekete_szego_bound_real,
    fekete_szego_breakpoint,
)
from qstarlike.qcalc import (
    _symmetric_q_number_any,
    q_derivative,
    symmetric_q_derivative,
    symmetric_q_number,
)
from qstarlike.series import GRID_ANGLES, GRID_RADII, TruncatedSeries
from qstarlike.verify import (
    STATUS_VIOLATED,
    run_ledger,
    default_parameter_points,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def default_ledger():
    """One default-grid ledger run over the 12 standard points (shared)."""
    t0 = time.time()
    report_obj = run_ledger(default_parameter_points())
    return report_obj, time.time() - t0


class TestCriterion01OperatorIdentities:
    def test_identity_and_product_rule(self):
        rng = np.random.default_rng(20260808)
        order = 16
        t0 = time.time()
        worst = 0.0
        for q in (0.3, 0.5, 0.9):
            for _ in range(1000):
                tail = rng.uniform(-1, 1, order - 2) + 1j * rng.uniform(-1, 1, order - 2)
                f = TruncatedSeries.from_taylor([1.0, *tail], order=order)
                lhs = symmetric_q_derivative(f, q)
                rhs = reference.scaled(q_derivative(f, q * q), 1.0 / q)
                for a, b in zip(lhs.coeffs, rhs.coeffs):
                    gap = abs(a - b) / max(1.0, abs(a), abs(b))
                    worst = max(worst, gap)
                    assert gap <= 1e-12

                tail_g = rng.uniform(-1, 1, order - 2) + 1j * rng.uniform(-1, 1, order - 2)
                g = TruncatedSeries.from_taylor([1.0, *tail_g], order=order)
                left = symmetric_q_derivative(reference.multiply(f, g), q)
                m = order - 1
                right = reference.add(
                    reference.multiply(reference.scaled(g, 1.0 / q, m),
                                       symmetric_q_derivative(f, q)),
                    reference.multiply(reference.scaled(f, q, m),
                                       symmetric_q_derivative(g, q)),
                )
                for a, b in zip(left.coeffs, right.coeffs):
                    gap = abs(a - b) / max(1.0, abs(a), abs(b))
                    worst = max(worst, gap)
                    assert gap <= 1e-12
        elapsed = time.time() - t0
        report("criterion 1 operator identities",
               elapsed < 5.0, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")
        assert elapsed < 5.0

    def test_derivative_identity_spec_form(self):
        # the square-parameter identity holds coefficientwise by algebra:
        # [n]~_q = q^(1-n) [n]_{q^2}
        for q in (0.3, 0.5, 0.9):
            for n in range(1, 17):
                lhs = symmetric_q_number(n, q)
                rhs = q ** (1 - n) * (1 - q ** (2 * n)) / (1 - q * q)
                assert abs(lhs - rhs) <= 1e-13 * lhs


class TestCriterion02QNumberLimits:
    def test_limit_and_symmetry(self):
        q = 1 - 1e-6
        worst = max(abs(symmetric_q_number(n, q) - n) for n in range(1, 33))
        assert worst <= 1e-5
        worst_sym = 0.0
        for q in (0.2, 0.5, 0.9, 0.999):
            for n in range(1, 33):
                a = _symmetric_q_number_any(n, q)
                b = _symmetric_q_number_any(n, 1.0 / q)
                worst_sym = max(worst_sym, abs(a - b) / a)
                assert abs(a - b) <= 1e-13 * a
        report("criterion 2 q-number limits", True,
               f"limit dev {worst:.2e}, symmetry dev {worst_sym:.2e}")


class TestCriterion03KoebeAnchor:
    def test_koebe_coefficients_and_hankel(self):
        P = ConicCoefficients(2.0, 2.0, 2.0)
        # B1 = 2 forces (B1, B2, B3) = (2, 2, 2) whatever x and zeta are
        a2, a3, a4 = reference.coefficients_at(P, SchwarzTriple(2.0, 0.0, 0.0), 1.0)
        assert abs(a2 - 2) <= 1e-12
        assert abs(a3 - 3) <= 1e-12
        assert abs(a4 - 4) <= 1e-12
        h22 = a2 * a4 - a3 * a3  # H2(2), the determinant of [[a2, a3], [a3, a4]]
        h21 = a3 - a2 * a2  # H2(1), the determinant of [[1, a2], [a2, a3]]
        assert h22 == -1 + 0j
        assert h21 == -1 + 0j
        report("criterion 3 Koebe anchor", True,
               f"(a2,a3,a4)=({a2.real:g},{a3.real:g},{a4.real:g}), H2(2)={h22.real:g}")


class TestCriterion04ConicAnchor:
    def test_parabolic_p1(self):
        P = conic_coefficients(1.0, 0.0)
        dev = abs(P.P1 - 8 / math.pi**2)
        assert dev <= 1e-12
        report("criterion 4 conic anchor", True, f"P1 dev {dev:.2e}")


class TestCriterion05Sharpness:
    def test_extremal_margins_vanish(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(20):
            p = ClassParams(
                q=float(rng.uniform(0.25, 1.0)),
                k=float(rng.uniform(0.0, 4.0)),
                alpha=float(rng.uniform(0.0, 0.95)),
            )
            for n in range(2, 33):
                margin = sufficient_condition_margin(extremal_function(n, p), p)
                worst = max(worst, abs(margin))
                assert abs(margin) <= 1e-12
        report("criterion 5 sharpness", True, f"worst |margin| {worst:.2e}")


class TestCriterion06DistortionEnvelope:
    def test_envelopes_hold(self):
        t0 = time.time()
        order = 32
        powers_cache = {}
        worst = 0.0
        for (q, k, a) in ((0.5, 1.0, 0.0), (0.9, 0.0, 0.25), (1.0, 0.0, 0.0)):
            p = ClassParams(q, k, a)
            rng = np.random.default_rng(606)
            # one block of 10,000 members: the same rows as 10,000 single draws
            coeffs = np.zeros((10_000, order + 1), dtype=complex)
            coeffs[:, 1] = 1.0
            coeffs[:, 2:] = -random_certified_rows(p, rng, 10_000, order)
            deriv = coeffs[:, 1:] * np.arange(1, order + 1)[None, :]
            for r in GRID_RADII:
                if r not in powers_cache:
                    z = r * np.exp(1j * 2 * np.pi * np.arange(GRID_ANGLES) / GRID_ANGLES)
                    powers_cache[r] = z[None, :] ** np.arange(order + 1)[:, None]
                powers = powers_cache[r]
                vals = np.abs(coeffs @ powers)
                lo, hi = distortion_bounds(r, p)
                worst = max(worst, float(vals.max()) - hi, lo - float(vals.min()))
                assert vals.max() <= hi + 1e-9
                assert vals.min() >= lo - 1e-9
                dvals = np.abs(deriv @ powers[:-1])
                dlo, dhi = derivative_distortion_bounds(r, p)
                worst = max(worst, float(dvals.max()) - dhi, dlo - float(dvals.min()))
                assert dvals.max() <= dhi + 1e-9
                assert dvals.min() >= dlo - 1e-9
            eq = TruncatedSeries.from_taylor([1.0, distortion_coefficient(p)], order)  # z + c z^2
            for r in (0.3, 0.9):
                gap = abs(abs(reference.evaluate(eq, r)) - distortion_bounds(r, p)[1])
                assert gap <= 1e-12
        elapsed = time.time() - t0
        report("criterion 6 distortion envelope",
               elapsed < 30.0, f"worst excess {worst:.2e}, {elapsed:.1f}s")
        assert elapsed < 30.0


class TestCriterion07ExtremePoints:
    def test_roundtrips(self):
        rng = np.random.default_rng(77)
        p = ClassParams(0.7, 1.0, 0.2)
        worst = 0.0
        for _ in range(1000):
            raw = rng.random(int(rng.integers(2, 32)))
            w = DecompositionWeights(tuple(raw / raw.sum()))
            back = extreme_point_decompose(extreme_point_compose(w, p), p)
            gap = max(abs(x - y) for x, y in zip(w.lambdas, back.lambdas))
            worst = max(worst, gap)
            assert gap <= 1e-12

            f = random_certified_member(p, rng, order=24)
            again = extreme_point_compose(extreme_point_decompose(f, p), p, order=24)
            gap = max(abs(x - y) for x, y in zip(f.coeffs, again.coeffs))
            worst = max(worst, gap)
            assert gap <= 1e-12
        report("criterion 7 extreme points", True, f"worst roundtrip dev {worst:.2e}")


class TestCriterion08BoundDominance:
    def test_h2_dominance_and_anchor(self, default_ledger):
        ledger, elapsed = default_ledger
        per_point = elapsed / 12.0
        rows = [r for r in ledger.records if r.claim == "second-hankel-bound"]
        assert len(rows) == 12
        worst = min(r.slack for r in rows)
        for r in rows:
            assert r.slack >= -1e-6, (r.q, r.k, r.alpha, r.slack)
        anchor = next(r for r in rows if (r.q, r.k, r.alpha) == (1.0, 0.0, 0.0))
        assert anchor.bound == pytest.approx(7.0, abs=1e-12)
        assert anchor.oracle == pytest.approx(1.0, abs=1e-2)
        assert anchor.status == "verified"
        ok = per_point < 60.0
        report("criterion 8 second-Hankel dominance", ok,
               f"min slack {worst:.2e}, {per_point:.1f}s/point")
        assert per_point < 60.0

    def test_fekete_szego_dominance(self, default_ledger):
        # Faithful to the stated criterion; genuinely red in the parabolic
        # regimes (see the module docstring for the counterexample).
        ledger, _ = default_ledger
        rows = [r for r in ledger.records if r.claim.startswith("fekete-szego-mu-")]
        assert len(rows) == 48
        violations = [r for r in rows if r.slack < -1e-6]
        ok = not violations
        report("criterion 8 Fekete-Szego dominance", ok,
               f"{len(violations)} of {len(rows)} (point, mu) combinations exceed the bound")
        assert not violations, (
            "the closed-form Fekete-Szego bound is exceeded by the oracle at: "
            + "; ".join(
                f"q={r.q} k={r.k} alpha={r.alpha} mu={r.mu}: bound {r.bound:.6f} < "
                f"oracle {r.oracle:.6f}" for r in violations
            )
            + " — the member subordinated through w(z)=z^2 has a2=0, |a3|=P1/q3, "
            "which beats the closed form near mu=q2/q3 whenever P1 > P2 "
            "(always in the parabolic regime); see notes/decisions.md"
        )


class TestCriterion09LedgerTypos:
    def test_printed_first_hankel_flagged_violated(self, default_ledger):
        ledger, _ = default_ledger
        rec = next(
            r for r in ledger.records
            if r.claim == "printed-first-hankel-shortcut"
            and (r.q, r.k, r.alpha) == (1.0, 0.0, 0.0)
        )
        assert rec.bound == pytest.approx(-1.0, abs=1e-12)
        assert rec.oracle == pytest.approx(1.0, abs=1e-2)
        assert rec.status == STATUS_VIOLATED
        report("criterion 9 printed H2(1) typo", True,
               f"bound {rec.bound:g} vs oracle {rec.oracle:.4f}, status {rec.status}")

    def test_classical_limit_values_recorded_not_asserted(self, default_ledger):
        ledger, _ = default_ledger
        printed = next(r for r in ledger.records if r.claim == "printed-classical-h2-limit")
        endpoint = next(r for r in ledger.records if r.claim == "endpoint-classical-h2-limit")
        assert (printed.q, printed.k, printed.alpha) == (1.0, 1.0, 0.0)
        assert printed.bound == pytest.approx(16 / math.pi**2, abs=1e-12)
        assert endpoint.bound == pytest.approx(16 / math.pi**4, abs=1e-12)
        assert printed.oracle == endpoint.oracle  # same oracle maximum alongside
        assert printed.slack is not None and endpoint.slack is not None
        report(
            "criterion 9 classical-limit comparison (documented, not asserted)", True,
            f"oracle {printed.oracle:.4f} vs printed 16/pi^2={printed.bound:.4f} "
            f"[{printed.status}] and endpoint 16/pi^4={endpoint.bound:.4f} "
            f"[{endpoint.status}]",
        )


class TestCriterion10FeketeSzegoConsistency:
    def test_real_complex_agreement_and_continuity(self):
        rng = np.random.default_rng(1010)
        P = conic_coefficients(1.0, 0.0)
        worst = 0.0
        for _ in range(1000):
            mu = float(rng.uniform(-10, 10))
            q = float(rng.uniform(0.05, 1.0))
            a = fekete_szego_bound_real(mu, P, q)
            b = fekete_szego_bound_complex(mu, P, q)
            gap = abs(a - b) / max(1.0, abs(a), abs(b))
            worst = max(worst, gap)
            assert gap <= 1e-12
        for q in (0.3, 0.5, 0.9, 1.0):
            mu = fekete_szego_breakpoint(q)
            center = fekete_szego_bound_real(mu, P, q)
            below = fekete_szego_bound_real(math.nextafter(mu, -math.inf), P, q)
            above = fekete_szego_bound_real(math.nextafter(mu, math.inf), P, q)
            assert abs(below - center) <= 1e-12
            assert abs(above - center) <= 1e-12
        report("criterion 10 Fekete-Szego consistency", True,
               f"worst real-vs-complex dev {worst:.2e}")


# Status of every default-ledger record, one string per claim with one code
# per point of default_parameter_points(): q = 0.5, 0.8, 1 (the three
# groups) crossed with (k, alpha) = (0, 0), (0, 0.25), (1, 0), (1, 0.5).
# v = verified, r = reconstructed-input, X = violated, - = no record.
PINNED_STATUS_CODES = {
    "second-hankel-bound":                   "vvrr vvrr vvrr",
    "fekete-szego-mu-0":                     "vvrX vvrr vvrr",
    "fekete-szego-mu-0.5":                   "vvXX vvXX vvXX",
    "fekete-szego-mu-1":                     "vvrr vvrr vvrr",
    "fekete-szego-mu-star":                  "vvXX vvXX vvXX",
    "printed-first-hankel-shortcut":         "XXXX XXXX XXXX",
    "printed-third-coefficient-shortcut":    "XXXX XXXX vvrr",
    "printed-quadratic-coefficient-example": "vvrr vvrr vvrr",
    "t-class-budget-sharpness":              "vvrr vvrr vvrr",
    "growth-envelope-upper":                 "vvrr vvrr vvrr",
    "derivative-envelope-upper":             "vvrr vvrr vvrr",
    "extreme-point-roundtrip":               "vvrr vvrr vvrr",
    "sufficient-condition-sampled":          "vvrr vvrr vvrr",
    "printed-classical-h2-limit":            "---- ---- --r-",
    "endpoint-classical-h2-limit":           "---- ---- --r-",
}
STATUS_CODES = {"v": "verified", "r": "reconstructed-input", "X": STATUS_VIOLATED}


class TestLedgerStatusesPinned:
    def test_default_ledger_statuses(self, default_ledger):
        ledger, _ = default_ledger
        points = default_parameter_points()
        want = {
            (claim, p.q, p.k, p.alpha): STATUS_CODES[c]
            for claim, codes in PINNED_STATUS_CODES.items()
            for p, c in zip(points, codes.replace(" ", ""))
            if c != "-"
        }
        got = {(r.claim, r.q, r.k, r.alpha): r.status for r in ledger.records}
        assert len(got) == len(ledger.records) == len(want) == 158
        changed = {key: (want.get(key), got.get(key))
                   for key in want.keys() | got.keys() if want.get(key) != got.get(key)}
        report("default-ledger statuses pinned", not changed,
               f"{len(changed)} of {len(want)} changed")
        assert not changed

    def test_default_ledger_report_is_reproducible(self, default_ledger):
        ledger, _ = default_ledger
        again = run_ledger(default_parameter_points())
        assert again.json_text() == ledger.json_text()
