import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference
from qstarlike import verify
from qstarlike.classes import (
    DecompositionWeights,
    extreme_point_compose,
    extreme_point_decompose,
)
from qstarlike.conic import ClassParams, ConicCoefficients, conic_coefficients
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlike.hankel import (
    SchwarzTriple,
    caratheodory_b2_b3,
    fekete_szego_breakpoint,
    h2_bound,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from qstarlike.verify import (
    CSV_FIELDS,
    OracleGrid,
    OracleSoundnessError,
    STATUS_MISSING,
    STATUS_RECONSTRUCTED,
    STATUS_VERIFIED,
    STATUS_VIOLATED,
    TOLERANCE,
    _check_caratheodory,
    _distortion_oracles,
    _fs_parts,
    _h2_b1_candidates,
    _h2_cells,
    _h2_fit,
    _h2_parts,
    _resolve_constants,
    _roundtrip_oracle,
    default_parameter_points,
    oracle_fs_max,
    oracle_fs_rows,
    oracle_h2_max,
    run_ledger,
)
from qstarlike.classes import (
    CERTIFIED_INCONCLUSIVE,
    extremal_function,
    phi_table,
    random_certified_member,
    random_certified_rows,
    sampled_membership,
    t_form_magnitudes,
)
from qstarlike.conic import conic_margin
from qstarlike.qcalc import symmetric_q_derivative
from qstarlike.series import GRID_RADII, TruncatedSeries

P00 = conic_coefficients(0.0, 0.0)


class TestOracleGrid:
    def test_defaults(self):
        g = OracleGrid()
        assert (g.nB, g.nRho, g.nPhi, g.nZeta, g.refinement) == (101, 41, 64, 32, 2)

    def test_validation(self):
        # the H2 oracle reads no grid, so nothing is validated: values that
        # were refused when it scanned (B1, |x|) construct and change nothing
        point = [ClassParams(0.8, 1.0, 0.5)]
        expected = run_ledger(point).json_text()
        for grid in (OracleGrid(nB=4), OracleGrid(refinement=-1),
                     OracleGrid(refinement=10**18)):
            assert run_ledger(point, grid=grid).json_text() == expected

    def test_point_cap(self):
        # no point cap either: a 10^12-cell grid could never be allocated, so
        # an unchanged report shows that no oracle builds an array from it
        point = [ClassParams(0.8, 1.0, 0.5)]
        huge = OracleGrid(nB=10**6, nRho=10**6, nPhi=10**6, nZeta=10**6)
        assert (run_ledger(point, grid=huge, distortion_members=16).json_text()
                == run_ledger(point).json_text())


class TestOracleScans:
    def test_degenerate_origin_cell_is_zero(self):
        consts = (P00.P1, P00.P2, P00.P3, *symmetric_gaps(1.0))
        u, v = _h2_parts(consts, 0.0, 0.0)
        assert u == 0.0 and v == 0.0
        # at B1 = 0 the x-free part of a3 - mu a2^2 vanishes; the maximum
        # over |x| <= 1 is |a3| = P1/q3 (the w(z) = z^2 member)
        c0, c1 = _fs_parts(consts, 0.5, np.array([0.0]))
        assert c0[0] == 0.0
        assert abs(c0[0]) + abs(c1[0]) == pytest.approx(P00.P1 / symmetric_gaps(1.0)[1],
                                                        rel=1e-15)

    def test_classical_h2_anchor(self):
        # Janteng-Halim-Darus: H2 <= 1 for starlike functions, attained.  At
        # B1 = 0, x = 1 every operation is exact (a2 = a4 = 0, a3 = 1), and
        # ties keep the smallest B1, so the value and its argmax are exact too
        result = oracle_h2_max(P00, 1.0)
        assert result.value == 1.0
        assert result.argmax == SchwarzTriple(0.0, 1, 1)
        assert h2_bound(P00, 1.0) == pytest.approx(7.0)

    @settings(max_examples=60, deadline=None)
    @given(
        b1=st.floats(0.0, 2.0),
        x_r=st.floats(0.0, 1.0), x_t=st.floats(0.0, 2 * math.pi),
        z_r=st.floats(0.0, 1.0), z_t=st.floats(0.0, 2 * math.pi),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_h2_rotation_invariance(self, b1, x_r, x_t, z_r, z_t, theta):
        # Rotating the Caratheodory data, B_n -> e^{i n theta} B_n, rotates
        # a_n -> e^{i (n-1) theta} a_n and leaves |a2 a4 - a3^2| unchanged,
        # so restricting B1 to the real segment loses no maximum.
        P = conic_coefficients(1.0, 0.25)
        gaps = symmetric_gaps(0.7)
        b2, b3 = caratheodory_b2_b3(b1, x_r * np.exp(1j * x_t), z_r * np.exp(1j * z_t))
        rot = np.exp(1j * theta)
        a2, a3, a4 = schwarz_to_coefficients(P.P1, P.P2, P.P3, *gaps, b1, b2, b3)
        r2, r3, r4 = schwarz_to_coefficients(P.P1, P.P2, P.P3, *gaps,
                                             b1 * rot, b2 * rot**2, b3 * rot**3)
        scale = 1.0 + abs(a2) + abs(a3) + abs(a4)
        for got, want in ((r2, a2 * rot), (r3, a3 * rot**2), (r4, a4 * rot**3)):
            assert abs(got - want) <= 1e-13 * scale
        assert abs(r2 * r4 - r3 * r3) == pytest.approx(abs(a2 * a4 - a3 * a3),
                                                       rel=1e-12, abs=1e-13 * scale**2)

    @pytest.mark.parametrize("q, k, alpha", [(1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.8, 0.0, 0.25),
                                             (0.3, 2.0, 0.0)])
    def test_h2_exact_zeta_against_brute_force(self, q, k, alpha):
        # k = 2 takes user coefficients, with which the maximum over arg x
        # is interior (0 < arg x < pi) at many cells; at the built-ins it
        # sits at arg x = 0 or pi
        user = None if k in (0.0, 1.0) else ConicCoefficients(1.6, 0.7, 2.5)
        P = user or conic_coefficients(k, alpha)
        consts = (P.P1, P.P2, P.P3, *symmetric_gaps(q))
        b_axis = np.linspace(0.0, 2.0, 9)
        rho_axis = np.linspace(0.0, 1.0, 8)
        b = b_axis[:, None, None]

        # zeta: brute force over 32 points of |zeta| = 1 at every (B1, x) of
        # a small grid.  The nearest grid angle is within pi/32 of the
        # optimal one, so per point the grid loses at most |v| (1 - cos(pi/32)).
        x = (rho_axis[:, None] * np.exp(2j * np.pi * np.arange(8) / 8))[None, :, :]
        zeta = np.exp(2j * np.pi * np.arange(32) / 32)
        b2, b3 = caratheodory_b2_b3(b[..., None], x[..., None], zeta)
        a2, a3, a4 = schwarz_to_coefficients(*consts, b[..., None], b2, b3)
        brute = np.abs(a2 * a4 - a3 * a3).max(axis=-1)
        u, v = _h2_parts(consts, b, x)
        exact = np.abs(u) + np.abs(v)
        allowance = np.abs(v) * (1.0 - math.cos(math.pi / 32)) + 1e-14
        assert np.all(brute <= exact * (1.0 + 1e-12) + 1e-15)
        assert np.all(exact <= brute + allowance)
        assert np.abs(v).max() > 0.1 * exact.max()  # the zeta term is exercised
        assert np.ptp(np.abs(v), axis=-1).max() <= 1e-15  # |v| depends on |x| alone

        # arg x: at zeta = 0, 4096 angles of |x| = rho per (B1, rho) cell.
        # The samples' Fourier coefficients show u = al + be x + ga x^2 with
        # real al, be, ga.  On |x| = 1, with |u|^2 = A + B c + C c^2 in
        # c = cos(arg x), the nearest sample is within pi/4096 of the optimal
        # angle, so the sample loses at most (|B| + 2|C|) (pi/4096)^2 / 2 in |u|^2.
        n_angles = 4096
        xs = rho_axis[None, :, None] * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
        b2, b3 = caratheodory_b2_b3(b, xs, 0.0)
        a2, a3, a4 = schwarz_to_coefficients(*consts, b, b2, b3)
        u_samples = a2 * a4 - a3 * a3
        fourier = np.fft.fft(u_samples, axis=-1) / n_angles  # [m] multiplies e^{i m arg x}
        scale = np.abs(u_samples).max()
        assert np.abs(fourier[..., 3:]).max() <= 1e-12 * scale
        assert np.abs(fourier[..., :3].imag).max() <= 1e-12 * scale
        al, lin, quad = (fourier[:, -1, m].real for m in range(3))  # rho_axis[-1] = 1
        loss = (np.abs(2 * lin * (al + quad)) + 2 * np.abs(4 * al * quad)) * (math.pi / n_angles) ** 2 / 2
        u_brute = np.abs(u_samples[:, -1]).max(axis=-1)
        u_exact, cos = _h2_cells(_h2_fit(consts), b_axis)
        assert np.all(u_brute <= u_exact * (1.0 + 1e-12) + 1e-15)
        assert np.all(u_exact**2 <= u_brute**2 + loss + 1e-14 * scale**2)
        if user is not None:
            assert np.sum(np.abs(cos) < 0.99) >= 6  # the vertex in arg x is exercised
        # the oracle maximizes over every B1, so it is at least the sampled maximum
        oracle = oracle_h2_max(P, q).value
        assert oracle >= u_brute.max() * (1.0 - 1e-12)

    @pytest.mark.parametrize("q, k, alpha", [(1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.8, 0.0, 0.25)])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.5])
    def test_fs_exact_x_against_brute_force(self, q, k, alpha, mu):
        # Brute force over a (rho, phi) grid of x with 64 angles on |x| = 1
        # at 17 values of B1, ends included; per B1 the grid loses at most
        # |c1| (1 - cos(pi/64)).
        P = conic_coefficients(k, alpha)
        consts = (P.P1, P.P2, P.P3, *symmetric_gaps(q))
        b = np.linspace(0.0, 2.0, 17)
        x = (np.linspace(0.0, 1.0, 9)[:, None]
             * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
        b2, _ = caratheodory_b2_b3(b[:, None], x, 0.0)
        a2, a3, _ = schwarz_to_coefficients(*consts, b[:, None], b2, 0.0)
        brute = np.abs(a3 - mu * a2 * a2).max(axis=-1)
        c0, c1 = _fs_parts(consts, mu, b)
        exact = np.abs(c0) + np.abs(c1)
        allowance = np.abs(c1) * (1.0 - math.cos(math.pi / 64)) + 1e-14
        assert np.all(brute <= exact * (1.0 + 1e-12) + 1e-15)
        assert np.all(exact <= brute + allowance)
        oracle = oracle_fs_max(mu, P, q).value
        assert brute.max() <= oracle * (1.0 + 1e-12)
        assert oracle <= brute.max() + allowance.max()

    def test_argmax_value_matches_reported_max(self):
        res = oracle_h2_max(P00, 0.8)
        a2, a3, a4 = reference.coefficients_at(P00, res.argmax, 0.8)
        assert abs(a2 * a4 - a3 * a3) == pytest.approx(res.value, rel=1e-12)

    def test_fs_subset_dominance(self):
        # the full oracle dominates the B1-only sub-grid (x = 0)
        mu = 0.7
        q = 0.6
        consts = (P00.P1, P00.P2, P00.P3, *symmetric_gaps(q))
        c0, _ = _fs_parts(consts, mu, np.linspace(0, 2, 21))
        sub_val = float(np.abs(c0).max())
        full = oracle_fs_max(mu, P00, q)
        assert full.value >= sub_val - 1e-12

    def test_fs_branch_point_sharp_at_half_plane(self):
        # with P1 = P2 the branch-point bound P2/q3 is attained, not exceeded
        q = 0.6
        q2, q3, _ = symmetric_gaps(q)
        res = oracle_fs_max(q2 / q3, P00, q)
        assert res.value == pytest.approx(P00.P2 / q3, rel=1e-9)

    def test_fs_branch_point_exceeds_printed_bound_in_parabolic_regime(self):
        # Genuine counterexample to the printed closed form: the member
        # subordinated through w(z) = z^2 has a2 = 0 and |a3| = P1/q3,
        # which beats the printed branch-point value P2/q3 whenever P1 > P2.
        q = 0.5
        P = conic_coefficients(1.0, 0.0)
        q2, q3, _ = symmetric_gaps(q)
        res = oracle_fs_max(q2 / q3, P, q)
        assert res.value == pytest.approx(P.P1 / q3, rel=1e-9)
        assert res.value > P.P2 / q3 + 1e-3

    def test_soundness_guard_raises(self):
        with pytest.raises(OracleSoundnessError):
            _check_caratheodory(np.array([3.0 + 0j]))



def _random_conic_cases(seed, count):
    """(P, q) with P1 in [0.2, 4], P2, P3 in [0, 12] and q near 0.05, near 1, 1 or in between."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        lo, hi = ((0.05, 0.06), (0.99, 1.0), (1.0, 1.0), (0.06, 0.99))[i % 4]
        P = ConicCoefficients(rng.uniform(0.2, 4.0), rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0))
        cases.append((P, float(rng.uniform(lo, hi))))
    return cases


def _h2_oracle_cases():
    """The default points, user coefficients and random data.

    With (0.5, 2.1, 6.6) and (0.45, 2.7, 13.1) the maximum sits at an
    interior B1 (1.19 and 1.16, on u(-1)), 38% and 39% above both ends.
    With (0.636, 4.894, 29.15) it sits at B1 = 1.94 on the vertex branch,
    cos(arg x) = 0.874, 8.8e-4 above the best of u(1) and u(-1).
    """
    cases = [(conic_coefficients(p.k, p.alpha), p.q) for p in default_parameter_points()]
    cases += [(ConicCoefficients(1.6, 0.7, 2.5), 0.3), (ConicCoefficients(0.5, 2.1, 6.6), 1.0),
              (ConicCoefficients(0.45, 2.7, 13.1), 0.55),
              (ConicCoefficients(0.636, 4.894, 29.15), 1.0)]
    return cases + _random_conic_cases(11, 24)


class TestH2EndpointLemma:
    """The facts behind the grid-free H2 oracle (notes/decisions.md)."""

    def test_coefficients_are_polynomials_in_b1_squared(self):
        # al = a t^2, be = b t (4 - t), ga = (4 - t)(l0 + l1 t) with the fit read
        # at B1 = 0, 1, against u read off the functional at each of 41 B1 values
        b = np.linspace(0.0, 2.0, 41)
        t = b * b
        for P, q in _random_conic_cases(3, 40):
            consts = _resolve_constants(P, q)
            al, be, ga = reference.h2_coefficients(consts, b)
            a, b_fit, l0, l1 = _h2_fit(consts)
            scale = max(np.abs(al).max(), np.abs(be).max(), np.abs(ga).max())
            for got, want in ((al, a * t * t), (be, b_fit * t * (4.0 - t)),
                              (ga, (4.0 - t) * (l0 + l1 * t))):
                assert np.abs(got - want).max() <= 1e-12 * scale

    def test_quadratic_coefficient_dominates_zeta_term(self):
        # 16 q2 q3^2 q4 (-ga - K) = P1^2 (4 - t)(2 - B1)(2 q2 q4 - (q3^2 - q2 q4) B1) >= 0,
        # K = P1^2 B1 (4 - t) / (8 q2 q4) the coefficient of (1 - |x|^2) in |v|
        b = np.linspace(0.0, 2.0, 41)
        t = b * b
        for P, q in _random_conic_cases(4, 40):
            consts = _resolve_constants(P, q)
            P1, q2, q3, q4 = consts[0], *consts[3:]
            assert q3 * q3 > q2 * q4 and 2.0 * q2 * q4 > q3 * q3
            _, _, ga = reference.h2_coefficients(consts, b)
            K = P1 * P1 * b * (4.0 - t) / (8.0 * q2 * q4)
            rhs = P1 * P1 * (4.0 - t) * (2.0 - b) * (2.0 * q2 * q4 - (q3 * q3 - q2 * q4) * b)
            lhs = 16.0 * q2 * q3 * q3 * q4 * (-ga - K)
            scale = 16.0 * q2 * q3 * q3 * q4 * (np.abs(ga).max() + K.max())
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale
            assert rhs.min() >= 0.0

    def test_maximum_over_x_sits_on_unit_circle(self):
        # max over zeta is |u| + |v|; sampled inside the disk it never beats
        # the exact maximum over |x| = 1 at the same B1
        b = np.linspace(0.0, 2.0, 41)[:, None, None]
        x = (np.linspace(0.0, 1.0, 40, endpoint=False)[:, None]
             * np.exp(2j * np.pi * np.arange(256) / 256))[None]
        for P, q in _random_conic_cases(5, 24):
            consts = _resolve_constants(P, q)
            u, v = _h2_parts(consts, b, x)
            inside = (np.abs(u) + np.abs(v)).max(axis=(1, 2))
            on_circle, _ = _h2_cells(_h2_fit(consts), b[:, 0, 0])
            assert np.all(inside <= on_circle * (1.0 + 1e-12) + 1e-300)

    def test_oracle_dominates_dense_scan_and_brute_force(self):
        rng = np.random.default_rng(7)
        dense_b = np.linspace(0.0, 2.0, 20001)
        n = 20000
        for P, q in _h2_oracle_cases():
            consts = _resolve_constants(P, q)
            res = oracle_h2_max(P, q)
            dense, _ = _h2_cells(_h2_fit(consts), dense_b)
            assert res.value >= dense.max() * (1.0 - 1e-12)
            b1 = 2.0 * rng.random(n)
            x = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            zeta = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            b2, b3 = caratheodory_b2_b3(b1, x, zeta)
            a2, a3, a4 = schwarz_to_coefficients(*consts, b1, b2, b3)
            assert res.value >= np.abs(a2 * a4 - a3 * a3).max() * (1.0 - 1e-12)


def _fs_cases():
    """(P, q, mu) at the default points and two user coefficient sets, real and complex mu."""
    cases = [(conic_coefficients(p.k, p.alpha), p.q) for p in default_parameter_points()]
    cases += [(ConicCoefficients(*user), q)
              for user in ((1.6, 0.7, 2.5), (0.3, 5.0, 0.1)) for q in (0.5, 1.0)]
    for P, q in cases:
        for mu in (0.0, 0.5, 1.0, fekete_szego_breakpoint(q), 2.5, -1.0, 0.3 + 0.7j):
            yield P, q, mu


class TestFeketeSzegoOracle:
    def test_functional_is_affine_in_b1_squared(self):
        # max_x |a3 - mu a2^2| = |c0| + |c1| = |K| t + P1 (4 - t)/(4 q3) in
        # t = B1^2, so it equals its chord between B1 = 0 and B1 = 2
        b = np.linspace(0.0, 2.0, 2001)
        for P, q, mu in _fs_cases():
            c0, c1 = _fs_parts((P.P1, P.P2, P.P3, *symmetric_gaps(q)), mu, b)
            g = np.abs(c0) + np.abs(c1)
            chord = g[0] + (g[-1] - g[0]) * b * b / 4.0
            # relative to the functional's scale: near its zeros g is all rounding
            assert np.abs(g - chord).max() <= 1e-14 * g.max()

    def test_matches_keogh_merkes_value(self):
        # a3 - mu a2^2 = (P1 / (2 q3)) (B2 - v B1^2), and the sharp
        # Caratheodory bound |B2 - v B1^2| <= 2 max(1, |2v - 1|) is attained
        for P, q, mu in _fs_cases():
            q2, q3, _ = symmetric_gaps(q)
            v = mu * P.P1 * q3 / (2 * q2 * q2) - (P.P1**2 - P.P1 * q2 + P.P2 * q2) / (2 * P.P1 * q2)
            sharp = (P.P1 / q3) * max(1.0, abs(2 * v - 1))
            res = oracle_fs_max(mu, P, q)
            assert res.value == pytest.approx(sharp, rel=1e-14)
            assert res.argmax.B1 in (0.0, 2.0)

    def test_argmax_attains_value(self):
        for P, q, mu in _fs_cases():
            res = oracle_fs_max(mu, P, q)
            a2, a3, _ = reference.coefficients_at(P, res.argmax, q)
            assert abs(a3 - mu * a2 * a2) == pytest.approx(res.value, rel=1e-13)


class TestLedger:
    def test_empty_points(self):
        report = run_ledger([])
        assert report.records == ()
        assert not report.has_violations
        # the benchmark's checks read the tolerance from the header
        assert report.header["tolerance"] == TOLERANCE == 1e-6

    def test_default_points_shape(self):
        points = default_parameter_points()
        assert len(points) == 12
        assert points[0] == ClassParams(0.5, 0.0, 0.0)

    def test_single_classical_point(self):
        report = run_ledger([ClassParams(1.0, 0.0, 0.0)])
        by_claim = {r.claim: r for r in report.records}
        h2 = by_claim["second-hankel-bound"]
        assert h2.bound == pytest.approx(7.0)
        assert h2.oracle == pytest.approx(1.0, abs=1e-2)
        assert h2.status == STATUS_VERIFIED

        printed = by_claim["printed-first-hankel-shortcut"]
        assert printed.bound == pytest.approx(-1.0, abs=1e-12)
        assert printed.status == STATUS_VIOLATED

        sharp = by_claim["t-class-budget-sharpness"]
        assert sharp.slack == pytest.approx(0.0, abs=1e-12)

        growth = by_claim["growth-envelope-upper"]
        assert growth.slack == pytest.approx(0.0, abs=1e-9)
        assert growth.status == STATUS_VERIFIED

        assert by_claim["extreme-point-roundtrip"].oracle < 1e-12
        assert by_claim["sufficient-condition-sampled"].oracle == 0.0
        assert report.has_violations  # via the printed shortcut rows

        doc = json.loads(report.json_text())
        assert set(doc) == {"header", "records"}
        assert set(doc["header"]) >= {"restrictions", "tolerance", "version"}
        assert "grid" not in doc["header"]
        assert len(doc["records"]) == len(report.records)
        for rec in doc["records"]:
            assert set(rec) >= {"claim", "anchor", "point", "bound", "oracle", "slack", "status"}
        rows = list(csv.DictReader(io.StringIO(report.csv_text())))
        assert len(rows) == len(report.records)
        assert set(rows[0]) == set(CSV_FIELDS)
        # identical numeric content between the two formats
        assert float(rows[0]["bound"]) == doc["records"][0]["bound"]

    def test_classical_parabolic_point_carries_limit_rows(self):
        report = run_ledger([ClassParams(1.0, 1.0, 0.0)])
        claims = {r.claim for r in report.records}
        assert "printed-classical-h2-limit" in claims
        assert "endpoint-classical-h2-limit" in claims
        by_claim = {r.claim: r for r in report.records}
        assert by_claim["printed-classical-h2-limit"].bound == pytest.approx(16 / math.pi**2)
        P = conic_coefficients(1.0, 0.0)
        assert by_claim["endpoint-classical-h2-limit"].bound == pytest.approx(
            P.P1**2 / 4.0
        )
        # the reconstructed parabolic inputs are flagged as such
        assert by_claim["second-hankel-bound"].status in (
            STATUS_RECONSTRUCTED, STATUS_VIOLATED
        )
        assert by_claim["second-hankel-bound"].provenance == "builtin-k1"

    def test_unsupported_regime_yields_missing_record(self):
        report = run_ledger([ClassParams(0.9, 2.0, 0.0)])
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.status == STATUS_MISSING
        assert rec.bound is None and rec.oracle is None
        assert not report.has_violations

    def test_user_conic_feeds_reconstructed_records(self):
        user = ConicCoefficients(1.0, 1.0, 1.0)
        report = run_ledger([ClassParams(1.0, 2.0, 0.0)],
                            user_conic=user)
        assert all(r.provenance == "user" for r in report.records)
        assert all(r.status in (STATUS_RECONSTRUCTED, STATUS_VIOLATED)
                   for r in report.records)

    def test_user_conic_is_recorded_as_user(self):
        # whatever provenance the caller's coefficients carry, the ledger labels them user
        user = ConicCoefficients(1.0, 1.0, 1.0, provenance="builtin-k1")
        report = run_ledger([ClassParams(1.0, 2.0, 0.0)], user_conic=user)
        assert {(r.provenance, r.P1) for r in report.records} == {("user", 1.0)}

    def test_user_conic_only_outside_the_builtin_apertures(self):
        # at k = 0 and k = 1 the ledger keeps its built-in coefficients
        user = ConicCoefficients(1.0, 1.0, 1.0)
        report = run_ledger([ClassParams(1.0, 0.0, 0.0), ClassParams(1.0, 2.0, 0.0)],
                            user_conic=user)
        at_k0 = [r for r in report.records if r.k == 0.0]
        at_k2 = [r for r in report.records if r.k == 2.0]
        assert at_k0 and at_k2
        assert {(r.provenance, r.P1, r.P2, r.P3) for r in at_k0} == {("builtin-k0", 2.0, 2.0, 2.0)}
        assert {(r.provenance, r.P1, r.P2, r.P3) for r in at_k2} == {("user", 1.0, 1.0, 1.0)}

    @pytest.mark.parametrize("points, user", [
        (default_parameter_points(), None),
        ([ClassParams(0.5, 0.5, 0.1)], None),  # no disk-map coefficients: the missing record
        ([ClassParams(0.8, 2.0, 0.0)], ConicCoefficients(1.0, 0.5, 0.25)),
        ([], None),
    ], ids=["default", "missing", "user-P", "empty"])
    def test_csv_rows_match_json_records(self, points, user):
        # every column of every CSV row is the JSON record's value, as the csv
        # module writes it: None as "", a float as its repr
        report = run_ledger(points, user_conic=user)
        doc = json.loads(report.json_text())
        reader = csv.DictReader(io.StringIO(report.csv_text()))
        rows = list(reader)
        assert reader.fieldnames == CSV_FIELDS
        expected = []
        for rec in doc["records"]:
            argmax = rec["argmax"] or {"B1": None, "x": [None, None], "zeta": [None, None]}
            flat = {
                "claim": rec["claim"], **rec["point"], "mu": rec["mu"], "bound": rec["bound"],
                "oracle": rec["oracle"], "slack": rec["slack"], "status": rec["status"],
                "argmax_B1": argmax["B1"],
                "argmax_x_re": argmax["x"][0], "argmax_x_im": argmax["x"][1],
                "argmax_zeta_re": argmax["zeta"][0], "argmax_zeta_im": argmax["zeta"][1],
                "anchor": rec["anchor"],
            }
            assert len(flat) == len(CSV_FIELDS) == 19
            expected.append({name: "" if v is None else str(v) for name, v in flat.items()})
        assert rows == expected
        assert len(rows) == len(report.records)

    def test_ledger_determinism(self):
        points = [ClassParams(0.8, 0.0, 0.25)]
        r1 = run_ledger(points)
        r2 = run_ledger(points)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_status_rule(self):
        # slack below -tolerance is violated regardless of provenance
        report = run_ledger([ClassParams(0.5, 1.0, 0.0)])
        for r in report.records:
            if r.slack is not None and r.slack < -1e-6:
                assert r.status == STATUS_VIOLATED
            elif r.slack is not None:
                assert r.status in (STATUS_VERIFIED, STATUS_RECONSTRUCTED)


def _benchmark_checks():
    """perfbench/checks.py, loaded by path; it imports only math and numpy."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClaimTable:
    """verify.CLAIMS is the one list of claim names: the benchmark and the pins must follow it."""

    # the table's rows that apply everywhere, then those that apply only at (1, 1, 0)
    GROUPED = ([c.name for c in verify.CLAIMS if c.applies(ClassParams(0.5, 0.0, 0.0))]
               + [c.name for c in verify.CLAIMS if not c.applies(ClassParams(0.5, 0.0, 0.0))])

    def test_names_match_the_benchmark_checks(self):
        checks = _benchmark_checks()
        assert self.GROUPED == [*checks.RECORD_CLAIMS, *checks.CLASSICAL_LIMIT_CLAIMS]

    def test_names_match_the_pinned_statuses(self):
        from test_acceptance import PINNED_STATUS_CODES
        assert self.GROUPED == list(PINNED_STATUS_CODES)

    def test_records_follow_the_table(self):
        # every default point, and a point that reads user coefficients
        points = [*default_parameter_points(), ClassParams(0.8, 2.0, 0.1)]
        report = run_ledger(points, user_conic=ConicCoefficients(1.0, 0.5, 0.25))
        for p in points:
            got = [r.claim for r in report.records if (r.q, r.k, r.alpha) == (p.q, p.k, p.alpha)]
            assert got == [c.name for c in verify.CLAIMS if c.applies(p)], p
        at_limit = [r.claim for r in report.records if (r.q, r.k, r.alpha) == (1.0, 1.0, 0.0)]
        assert at_limit == [c.name for c in verify.CLAIMS]

    def test_records_carry_the_mu_of_their_fs_row(self):
        report = run_ledger([ClassParams(1.0, 1.0, 0.0)])  # every row applies here
        mu = {"0": 0.0, "0.5": 0.5, "1": 1.0, "star": fekete_szego_breakpoint(1.0)}
        assert len(report.records) == len(verify.CLAIMS)
        for claim, record in zip(verify.CLAIMS, report.records):
            assert record.claim == claim.name
            assert record.mu == (None if claim.fs is None else mu[claim.fs])


class TestDistortionOracle:
    def test_maxima_are_attained_by_extreme_points(self):
        # f_n = z - c_n z^n reaches r + c_n r^n and 1 + n c_n r^(n-1) where
        # z^(n-1) = -r^(n-1); members, convex combinations of the f_n, stay below
        from qstarlike.classes import extremal_function, random_certified_member
        r = 0.9
        rng = np.random.default_rng(5)
        z = r * np.exp(2j * np.pi * np.arange(96) / 96)
        powers = z[None, :] ** np.arange(33)[:, None]
        for p in (ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 0.0, 0.25),
                  ClassParams(0.3, 2.0, 0.6)):
            f_max, df_max = _distortion_oracles(p, r)
            growth, slope = [], []
            for n in range(2, 33):
                f = extremal_function(n, p)
                w = r * np.exp(1j * math.pi / (n - 1))
                growth.append(abs(reference.evaluate(f, w)))
                slope.append(abs(1.0 + n * f.a(n) * w ** (n - 1)))
            assert f_max == pytest.approx(max(growth), rel=1e-14)
            assert df_max == pytest.approx(max(slope), rel=1e-14)
            coeffs = np.vstack([random_certified_member(p, rng).coeffs for _ in range(200)])
            assert np.abs(coeffs @ powers).max() <= f_max * (1.0 + 1e-12)
            deriv = coeffs[:, 1:] * np.arange(1, 33)
            assert np.abs(deriv @ powers[:-1]).max() <= df_max * (1.0 + 1e-12)


def _roundtrip_per_weight(p, rng, n_weights=64):
    """The roundtrip oracle as a loop over the public functions, one weight vector at a time."""
    worst = 0.0
    for _ in range(n_weights):
        raw = rng.random(12)
        w = DecompositionWeights(tuple(raw / raw.sum()))
        back = extreme_point_decompose(extreme_point_compose(w, p), p)
        padded = np.zeros(max(len(w.lambdas), len(back.lambdas)))
        padded[: len(back.lambdas)] = back.lambdas
        padded[: len(w.lambdas)] -= w.lambdas
        worst = max(worst, float(np.abs(padded).max()))
    return worst


class TestWholeArrayOracles:
    """The array-shaped oracles give bit-for-bit what their per-item forms give."""

    @pytest.mark.parametrize("seed", [20260808, 1])
    def test_roundtrip_matches_per_weight_loop(self, seed):
        for index, p in enumerate(default_parameter_points()):
            child, _ = np.random.SeedSequence([seed, index]).spawn(2)
            got = _roundtrip_oracle(p, np.random.default_rng(child))
            assert got == _roundtrip_per_weight(p, np.random.default_rng(child))

    def test_h2_cells_match_candidate_array_evaluation(self):
        # the closed form in al, be, ga against a2 a4 - a3^2 computed from the
        # Caratheodory data at each B1 and its reported arg x on |x| = 1
        b = np.linspace(0.0, 2.0, 101)
        cases = [(conic_coefficients(p.k, p.alpha), p.q) for p in default_parameter_points()]
        for P, q in cases + [(ConicCoefficients(1.6, 0.7, 2.5), 0.3)]:
            consts = _resolve_constants(P, q)
            vals, cos = _h2_cells(_h2_fit(consts), b)
            x = cos + 1j * np.sqrt(1.0 - cos * cos)
            b2, b3 = caratheodory_b2_b3(b, x, 0.0)
            a2, a3, a4 = schwarz_to_coefficients(*consts, b, b2, b3)
            assert np.abs(vals - np.abs(a2 * a4 - a3 * a3)).max() <= 1e-13 * vals.max()

    @pytest.mark.parametrize("candidate", [(0, 0), (1, 1), (2, -1)])
    def test_guard_sees_every_candidate(self, monkeypatch, candidate):
        # B2 beyond 2 at one arg-x candidate of one B1 must abort the oracle
        real = verify.caratheodory_b2_b3

        def broken(b1, x, zeta):
            b2, b3 = real(b1, x, zeta)
            if np.ndim(x) == 2:  # the candidate array, not the x = 0, +-1 probes
                b2 = b2.copy()
                b2[candidate] = 2.5
            return b2, b3

        monkeypatch.setattr(verify, "caratheodory_b2_b3", broken)
        with pytest.raises(OracleSoundnessError, match="B2"):
            oracle_h2_max(P00, 1.0)


def _margin_at_one(f, p):
    """((1 - alpha) - sum phi_n a_n) / (1 - sum a_n): the margin of z - sum a_n z^n as z -> 1."""
    a = -np.array(f.coeffs[2:]).real
    return ((1.0 - p.alpha) - math.fsum(phi_table(p, f.order) * a)) / (1.0 - math.fsum(a))


def _drawing_only(f):
    """A random_certified_rows stand-in whose every row is f's magnitudes |a_n|."""
    magnitudes = t_form_magnitudes(f)
    return lambda p, rng, count, order: np.tile(magnitudes, (count, 1))


class TestExactSufficiencyOracle:
    """A negative-coefficient member's least margin over the disk is its limit at z -> 1."""

    def test_grid_minimum_sits_at_the_real_boundary_point(self):
        # the analysis in notes/decisions.md, seen on the grid: the minimum is
        # at (0.995, angle 0) and lies at or above the z -> 1 margin
        edge = GRID_RADII[-1]
        for index, p in enumerate(default_parameter_points()):
            rng = np.random.default_rng([3, index])
            for _ in range(20):
                f = random_certified_member(p, rng)
                verdict = sampled_membership(f, p)
                assert verdict.certified == CERTIFIED_INCONCLUSIVE
                w = (edge * reference.evaluate(symmetric_q_derivative(f, p.q), edge)
                     / reference.evaluate(f, edge))
                assert verdict.margin == pytest.approx(conic_margin(w, p.k, p.alpha),
                                                       rel=1e-12, abs=1e-15)
                assert verdict.margin >= _margin_at_one(f, p)

    def test_oracle_is_zero_on_the_default_draws(self):
        for index, p in enumerate(default_parameter_points()):
            _, child = np.random.SeedSequence([20260808, index]).spawn(2)
            assert verify._sufficiency_oracle(p, np.random.default_rng(child)) == 0.0

    @pytest.mark.parametrize("p", default_parameter_points())
    def test_member_past_the_budget_is_reported(self, monkeypatch, p):
        # f_8 scaled 1.02 fails only near z = 1: at r = 0.995 it spends
        # 1.02 * 0.995^7 < 1 of the budget, so the grid misses it
        f8 = extremal_function(8, p)
        past = TruncatedSeries.from_taylor([1.0, *(1.02 * c for c in f8.coeffs[2:])],
                                           order=f8.order)
        assert sampled_membership(past, p).certified == CERTIFIED_INCONCLUSIVE
        monkeypatch.setattr(verify, "random_certified_rows", _drawing_only(past))
        got = verify._sufficiency_oracle(p, np.random.default_rng(0))
        assert got > 0.0
        assert got == pytest.approx(-_margin_at_one(past, p), rel=1e-12)

    @given(q=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
           k=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e6)),
           alpha=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_certified_rows_keep_f_one_at_least_half(self, q, k, alpha, seed):
        # phi_n >= phi_2 >= k + 2 - alpha, so a row within the budget 1 - alpha
        # sums to at most (1 - alpha)/(k + 2 - alpha) <= 1/2: f(1) >= 1/2, and
        # the oracle needs no refusal of a zero of f on the closed disk
        p = ClassParams(q, k, alpha)
        rows = random_certified_rows(p, np.random.default_rng(seed), 20, 32)
        assert max(map(math.fsum, rows.tolist())) <= 0.5


def _polynomial_candidates(consts):
    """_h2_b1_candidates, its fit read off reference.h2_coefficients, its cubic by np.polymul."""
    al, be, ga = reference.h2_coefficients(consts, np.array([0.0, 1.0]))
    a, b, l0 = al[1], be[1] / 3.0, ga[0] / 4.0
    l1 = ga[1] / 3.0 - l0
    t = [0.0, 4.0]
    for s in (1.0, -1.0):
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


class TestOneArrayPassPerPoint:
    """The batched ledger oracles give the bits of their one-item forms."""

    def test_member_margins_are_the_scalar_ones(self, monkeypatch):
        # w(1) of every member, the one array the oracle's exact sums score,
        # against fsum over the coefficients of f and of symmetric_q_derivative(f);
        # the float decision that usually settles the oracle first is switched off
        seen = []
        monkeypatch.setattr(verify, "_cleared_at_one", lambda *args: False)
        monkeypatch.setattr(verify, "conic_margin",
                            lambda w, k, alpha: seen.append(w) or conic_margin(w, k, alpha))
        for index, p in enumerate(default_parameter_points()):
            for seed in range(5):
                seen.clear()
                verify._sufficiency_oracle(p, np.random.default_rng([seed, index]))
                rng = np.random.default_rng([seed, index])
                want = []
                for _ in range(verify.SUFFICIENCY_MEMBERS):
                    f = random_certified_member(p, rng)
                    f_one = math.fsum(c.real for c in f.coeffs)
                    dq_one = math.fsum(c.real for c in symmetric_q_derivative(f, p.q).coeffs)
                    want.append(dq_one / f_one)
                assert len(seen) == 1 and seen[0].tolist() == want

    def test_fs_rows_are_oracle_fs_max(self):
        for P, q in _h2_oracle_cases():
            ledger_mus = (0.0, 0.5, 1.0, fekete_szego_breakpoint(q))
            # the ledger's call: real mu, the same bits as one call per mu
            assert repr(oracle_fs_rows(ledger_mus, P, q)) == repr(
                tuple(oracle_fs_max(mu, P, q) for mu in ledger_mus))
            mus = (*ledger_mus, 0.3 + 0.2j)
            for got, mu in zip(oracle_fs_rows(mus, P, q), mus):
                want = oracle_fs_max(mu, P, q)
                assert got.value == want.value and got.argmax == want.argmax

    def test_fs_rows_refuse_overflow(self):
        P = ConicCoefficients(1e200, 1.0, 1.0)
        with pytest.raises(OverflowError, match="^the Fekete-Szego oracle maximum overflows"):
            oracle_fs_rows((0.0, 0.5), P, 0.5)

    def test_candidate_cubic_matches_polymul(self):
        for P, q in _random_conic_cases(13, 500):
            consts = _resolve_constants(P, q)
            with np.errstate(all="ignore"):
                assert np.array_equal(_h2_b1_candidates(_h2_fit(consts)),
                                      _polynomial_candidates(consts))
