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
    OracleGrid,
    OracleSoundnessError,
    STATUS_MISSING,
    STATUS_RECONSTRUCTED,
    STATUS_VERIFIED,
    STATUS_VIOLATED,
    _check_caratheodory,
    _fs_chunk,
    _fs_parts,
    _h2_chunk,
    _h2_parts,
    default_parameter_points,
    oracle_fs_max,
    oracle_h2_max,
    run_ledger,
)

SMALL = OracleGrid(nB=17, nRho=9, nPhi=12, nZeta=8, refinement=1)
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

    def test_point_cap(self):
        assert 101 * 41 * 64 <= MAX_GRID_POINTS
        OracleGrid(nB=MAX_GRID_POINTS // 64 // 8, nRho=8, nPhi=64)
        # 1e18 points could never be allocated; the refusal comes first
        with pytest.raises(ValueError, match="exceeds the cap"):
            OracleGrid(nB=10**6, nRho=10**6, nPhi=10**6)
        with pytest.raises(ValueError, match="exceeds the cap"):
            OracleGrid(nB=MAX_GRID_POINTS // 64 // 8 + 1, nRho=8, nPhi=64)


class TestOracleScans:
    def test_degenerate_origin_cell_is_zero(self):
        consts = (P00.P1, P00.P2, P00.P3, *symmetric_gaps(1.0))
        val, _, _ = _h2_chunk(consts, np.array([0.0]), np.array([[0.0 + 0j]]))
        assert val == 0.0
        # at B1 = 0 the x-free part of a3 - mu a2^2 vanishes; the maximum
        # over |x| <= 1 is |a3| = P1/q3 (the w(z) = z^2 member)
        val_fs, _, c0 = _fs_chunk(consts, 0.5, np.array([0.0]))
        assert c0 == 0.0
        assert val_fs == pytest.approx(P00.P1 / symmetric_gaps(1.0)[1], rel=1e-15)

    def test_classical_h2_anchor(self):
        result = oracle_h2_max(P00, 1.0, SMALL)
        assert result.value == pytest.approx(1.0, abs=1e-2)
        assert h2_bound(P00, 1.0) == pytest.approx(7.0)

    def test_refinement_never_decreases(self):
        for (q, k, a) in ((1.0, 0.0, 0.0), (0.5, 1.0, 0.0)):
            P = conic_coefficients(k, a)
            res = oracle_h2_max(P, q, OracleGrid(nB=17, nRho=9, nPhi=12, nZeta=8, refinement=3))
            assert len(res.level_values) == 4
            assert all(b >= a_ for a_, b in zip(res.level_values, res.level_values[1:]))
            fs = oracle_fs_max(0.5, P, q, OracleGrid(nB=17, nRho=9, nPhi=12, nZeta=8, refinement=3))
            assert all(b >= a_ for a_, b in zip(fs.level_values, fs.level_values[1:]))

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

    @pytest.mark.parametrize("q, k, alpha", [(1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.8, 0.0, 0.25)])
    def test_h2_exact_zeta_against_brute_force(self, q, k, alpha):
        # Brute force over 32 points of |zeta| = 1 at every (B1, x) of a
        # small grid.  The nearest grid angle is within pi/32 of the optimal
        # one, so per cell the grid loses at most |v| (1 - cos(pi/32)).
        P = conic_coefficients(k, alpha)
        grid = OracleGrid(nB=9, nRho=8, nPhi=8, refinement=0)
        consts = (P.P1, P.P2, P.P3, *symmetric_gaps(q))
        b = np.linspace(0.0, 2.0, grid.nB)[:, None, None]
        x = (np.linspace(0.0, 1.0, grid.nRho)[:, None]
             * np.exp(2j * np.pi * np.arange(grid.nPhi) / grid.nPhi))[None, :, :]
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
        oracle = oracle_h2_max(P, q, grid).value
        assert brute.max() <= oracle * (1.0 + 1e-12)
        assert oracle <= brute.max() + allowance.max()

    @pytest.mark.parametrize("q, k, alpha", [(1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.8, 0.0, 0.25)])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.5])
    def test_fs_exact_x_against_brute_force(self, q, k, alpha, mu):
        # Brute force over a (rho, phi) grid of x with 64 angles on |x| = 1
        # at every B1 of the oracle's axis; per B1 the grid loses at most
        # |c1| (1 - cos(pi/64)).
        P = conic_coefficients(k, alpha)
        grid = OracleGrid(nB=17, nRho=8, nPhi=8, refinement=0)
        consts = (P.P1, P.P2, P.P3, *symmetric_gaps(q))
        b = np.linspace(0.0, 2.0, grid.nB)
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
        oracle = oracle_fs_max(mu, P, q, grid).value
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
        full = oracle_fs_max(mu, P00, q, SMALL)
        assert full.value >= sub_val - 1e-12

    def test_fs_branch_point_sharp_at_half_plane(self):
        # with P1 = P2 the branch-point bound P2/q3 is attained, not exceeded
        q = 0.6
        q2, q3, _ = symmetric_gaps(q)
        res = oracle_fs_max(q2 / q3, P00, q, SMALL)
        assert res.value == pytest.approx(P00.P2 / q3, rel=1e-9)

    def test_fs_branch_point_exceeds_printed_bound_in_parabolic_regime(self):
        # Genuine counterexample to the printed closed form: the member
        # subordinated through w(z) = z^2 has a2 = 0 and |a3| = P1/q3,
        # which beats the printed branch-point value P2/q3 whenever P1 > P2.
        q = 0.5
        P = conic_coefficients(1.0, 0.0)
        q2, q3, _ = symmetric_gaps(q)
        res = oracle_fs_max(q2 / q3, P, q, SMALL)
        assert res.value == pytest.approx(P.P1 / q3, rel=1e-9)
        assert res.value > P.P2 / q3 + 1e-3

    def test_soundness_guard_raises(self):
        with pytest.raises(OracleSoundnessError):
            _check_caratheodory(np.array([3.0 + 0j]))



class TestLedger:
    def test_empty_points(self):
        report = run_ledger([], grid=SMALL)
        assert report.records == ()
        assert not report.has_violations

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
