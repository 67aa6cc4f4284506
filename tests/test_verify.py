import csv
import json
import math

import numpy as np
import pytest

from qstarlike.conic import ClassParams, ConicCoefficients, conic_coefficients
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlike.hankel import (
    caratheodory_b2_b3,
    fekete_szego_breakpoint,
    h2_bound,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from qstarlike.verify import (
    CSV_FIELDS,
    MAX_GRID_POINTS,
    MAX_REFINEMENT,
    OracleGrid,
    OracleSoundnessError,
    STATUS_MISSING,
    STATUS_RECONSTRUCTED,
    STATUS_VERIFIED,
    STATUS_VIOLATED,
    _check_caratheodory,
    _distortion_oracles,
    _fs_parts,
    _h2_cells,
    _h2_parts,
    default_parameter_points,
    oracle_fs_max,
    oracle_h2_max,
    run_ledger,
)

SMALL = OracleGrid(nB=17, nRho=9, nZeta=8, refinement=1)
P00 = conic_coefficients(0.0, 0.0)


class TestOracleGrid:
    def test_defaults(self):
        g = OracleGrid()
        assert (g.nB, g.nRho, g.nPhi, g.nZeta, g.refinement) == (101, 41, 64, 32, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleGrid(nB=4)
        with pytest.raises(ValueError):
            OracleGrid(refinement=-1)
        OracleGrid(refinement=MAX_REFINEMENT)
        # 10^18 levels could never run; the refusal comes first
        for refinement in (MAX_REFINEMENT + 1, 10**18):
            with pytest.raises(ValueError, match="refinement must lie in"):
                OracleGrid(refinement=refinement)

    def test_point_cap(self):
        assert 101 * 41 <= MAX_GRID_POINTS
        OracleGrid(nB=MAX_GRID_POINTS // 8, nRho=8)
        # 1e12 cells could never be allocated; the refusal comes first
        with pytest.raises(ValueError, match="exceeds the cap"):
            OracleGrid(nB=10**6, nRho=10**6)
        with pytest.raises(ValueError, match="exceeds the cap"):
            OracleGrid(nB=MAX_GRID_POINTS // 8 + 1, nRho=8)
        # nPhi and nZeta are accepted and unused, so they count toward no cap
        OracleGrid(nPhi=10**6, nZeta=10**6)


class TestOracleScans:
    def test_degenerate_origin_cell_is_zero(self):
        consts = (P00.P1, P00.P2, P00.P3, *symmetric_gaps(1.0))
        vals, _ = _h2_cells(consts, np.array([0.0]), np.array([0.0]))
        assert vals[0, 0] == 0.0
        # at B1 = 0 the x-free part of a3 - mu a2^2 vanishes; the maximum
        # over |x| <= 1 is |a3| = P1/q3 (the w(z) = z^2 member)
        c0, c1 = _fs_parts(consts, 0.5, np.array([0.0]))
        assert c0[0] == 0.0
        assert abs(c0[0]) + abs(c1[0]) == pytest.approx(P00.P1 / symmetric_gaps(1.0)[1],
                                                        rel=1e-15)

    def test_classical_h2_anchor(self):
        result = oracle_h2_max(P00, 1.0, SMALL)
        assert result.value == pytest.approx(1.0, abs=1e-2)
        assert h2_bound(P00, 1.0) == pytest.approx(7.0)

    def test_refinement_never_decreases(self):
        # MAX_REFINEMENT levels drive the window spacing below the float
        # resolution of B1; the windows must still stay inside [0, 2] x [0, 1]
        for (q, k, a) in ((1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.8, 1.0, 0.0)):
            P = conic_coefficients(k, a)
            for refinement in (3, MAX_REFINEMENT):
                grid = OracleGrid(nB=17, nRho=9, refinement=refinement)
                res = oracle_h2_max(P, q, grid)
                assert len(res.level_values) == refinement + 1
                assert all(b >= a_ for a_, b in zip(res.level_values, res.level_values[1:]))

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
        P = conic_coefficients(k, alpha, user=user)
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
        # real al, be, ga.  With |u|^2 = A + B c + C c^2 in c = cos(arg x),
        # the nearest sample is within pi/4096 of the optimal angle, so the
        # sample loses at most (|B| + 2|C|) (pi/4096)^2 / 2 in |u|^2.
        n_angles = 4096
        xs = rho_axis[None, :, None] * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
        b2, b3 = caratheodory_b2_b3(b, xs, 0.0)
        a2, a3, a4 = schwarz_to_coefficients(*consts, b, b2, b3)
        u_samples = a2 * a4 - a3 * a3
        fourier = np.fft.fft(u_samples, axis=-1) / n_angles  # [m] multiplies e^{i m arg x}
        scale = np.abs(u_samples).max()
        assert np.abs(fourier[..., 3:]).max() <= 1e-12 * scale
        assert np.abs(fourier[..., :3].imag).max() <= 1e-12 * scale
        al, lin, quad = (fourier[..., m].real for m in range(3))
        loss = (np.abs(2 * lin * (al + quad)) + 2 * np.abs(4 * al * quad)) * (math.pi / n_angles) ** 2 / 2
        u_brute = np.abs(u_samples).max(axis=-1)
        vals, cos = _h2_cells(consts, b_axis, rho_axis)
        u_exact = vals - np.abs(v[..., 0])
        assert np.all(u_brute <= u_exact * (1.0 + 1e-12) + 1e-15)
        assert np.all(u_exact**2 <= u_brute**2 + loss + 1e-14 * scale**2)
        if user is not None:
            assert np.sum(np.abs(cos) < 0.99) > 20  # the vertex in arg x is exercised
        oracle = oracle_h2_max(P, q, OracleGrid(nB=9, nRho=8, refinement=0)).value
        assert oracle == pytest.approx(vals.max(), rel=1e-12)

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
        from qstarlike.hankel import (
            caratheodory_from_parameters,
            coefficients_from_schwarz,
        )
        res = oracle_h2_max(P00, 0.8, SMALL)
        B = caratheodory_from_parameters(res.argmax)
        a2, a3, a4 = coefficients_from_schwarz(P00, B, 0.8)
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
            assert res.level_values == (res.value,)

    def test_argmax_attains_value(self):
        from qstarlike.hankel import caratheodory_from_parameters, coefficients_from_schwarz
        for P, q, mu in _fs_cases():
            res = oracle_fs_max(mu, P, q)
            a2, a3, _ = coefficients_from_schwarz(P, caratheodory_from_parameters(res.argmax), q)
            assert abs(a3 - mu * a2 * a2) == pytest.approx(res.value, rel=1e-13)


class TestLedger:
    def test_empty_points(self):
        report = run_ledger([], grid=SMALL)
        assert report.records == ()
        assert not report.has_violations

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            run_ledger([ClassParams(1.0, 0.0, 0.0)], grid=SMALL, tolerance=tolerance)
        assert run_ledger([], grid=SMALL, tolerance=0.0).records == ()

    def test_default_points_shape(self):
        points = default_parameter_points()
        assert len(points) == 12
        assert points[0] == ClassParams(0.5, 0.0, 0.0)

    def test_single_classical_point(self, tmp_path):
        report = run_ledger([ClassParams(1.0, 0.0, 0.0)], grid=SMALL,
                            distortion_members=60)
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

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        report.write_json(json_path)
        report.write_csv(csv_path)
        doc = json.loads(json_path.read_text())
        assert set(doc) == {"header", "records"}
        assert set(doc["header"]) >= {"grid", "restrictions", "tolerance", "version"}
        assert len(doc["records"]) == len(report.records)
        for rec in doc["records"]:
            assert set(rec) >= {"claim", "anchor", "point", "bound", "oracle", "slack", "status"}
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.records)
        assert set(rows[0]) == set(CSV_FIELDS)
        # identical numeric content between the two formats
        assert float(rows[0]["bound"]) == doc["records"][0]["bound"]

    def test_classical_parabolic_point_carries_limit_rows(self):
        report = run_ledger([ClassParams(1.0, 1.0, 0.0)], grid=SMALL,
                            distortion_members=40)
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
        report = run_ledger([ClassParams(0.9, 2.0, 0.0)], grid=SMALL)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.status == STATUS_MISSING
        assert rec.bound is None and rec.oracle is None
        assert not report.has_violations

    def test_user_conic_feeds_reconstructed_records(self):
        user = ConicCoefficients(1.0, 1.0, 1.0)
        report = run_ledger([ClassParams(1.0, 2.0, 0.0)], grid=SMALL,
                            user_conic=user, distortion_members=40)
        assert all(r.provenance == "user" for r in report.records)
        assert all(r.status in (STATUS_RECONSTRUCTED, STATUS_VIOLATED)
                   for r in report.records)

    def test_ledger_determinism(self):
        points = [ClassParams(0.8, 0.0, 0.25)]
        r1 = run_ledger(points, grid=SMALL, distortion_members=40)
        r2 = run_ledger(points, grid=SMALL, distortion_members=40)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_status_rule(self):
        # slack below -tolerance is violated regardless of provenance
        report = run_ledger([ClassParams(0.5, 1.0, 0.0)], grid=SMALL,
                            distortion_members=40)
        for r in report.records:
            if r.slack is not None and r.slack < -1e-6:
                assert r.status == STATUS_VIOLATED
            elif r.slack is not None:
                assert r.status in (STATUS_VERIFIED, STATUS_RECONSTRUCTED)


class TestDistortionOracle:
    def test_maxima_are_attained_by_extreme_points(self):
        # f_n = z - c_n z^n reaches r + c_n r^n and 1 + n c_n r^(n-1) where
        # z^(n-1) = -r^(n-1); members, convex combinations of the f_n, stay below
        from qstarlike.classes import extremal_function, random_certified_member
        from qstarlike.series import evaluate
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
                growth.append(abs(evaluate(f, w)))
                slope.append(abs(1.0 + n * f.a(n) * w ** (n - 1)))
            assert f_max == pytest.approx(max(growth), rel=1e-14)
            assert df_max == pytest.approx(max(slope), rel=1e-14)
            coeffs = np.vstack([random_certified_member(p, rng).coeffs for _ in range(200)])
            assert np.abs(coeffs @ powers).max() <= f_max * (1.0 + 1e-12)
            deriv = coeffs[:, 1:] * np.arange(1, 33)
            assert np.abs(deriv @ powers[:-1]).max() <= df_max * (1.0 + 1e-12)
