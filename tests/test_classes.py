import math

import numpy as np
import pytest

from qstarlike import classes as cls
from qstarlike.classes import (
    CERTIFIED_INCONCLUSIVE,
    CERTIFIED_MEMBER_IFF_NEGATIVE,
    CERTIFIED_MEMBER_SUFFICIENT,
    CERTIFIED_NOT_MEMBER_WITNESS,
    DecompositionError,
    DecompositionWeights,
    TFormError,
    coefficient_threshold,
    derivative_distortion_bounds,
    distortion_bounds,
    distortion_coefficient,
    distortion_equality_function,
    extremal_function,
    extreme_point_compose,
    extreme_point_decompose,
    phi_table,
    random_certified_member,
    sampled_membership,
    sufficient_condition_margin,
    sufficient_membership,
    ts_membership,
)
from qstarlike.conic import ClassParams
from qstarlike.series import (
    DiskGrid,
    TruncatedSeries,
    default_disk_grid,
)

P_HALF = ClassParams(q=0.5, k=1.0, alpha=0.0)
P_CLASSICAL = ClassParams(q=1.0, k=0.0, alpha=0.0)


def member(*taylor, order=32):
    return TruncatedSeries.from_taylor(taylor, order=order)


class TestThreshold:
    def test_hand_value(self):
        assert coefficient_threshold(2, P_HALF) == pytest.approx(0.25, abs=1e-15)

    def test_classical_reduction(self):
        # q=1, k=0 reduces to (1 - alpha)/(n - alpha)
        for alpha in (0.0, 0.25, 0.6):
            p = ClassParams(1.0, 0.0, alpha)
            for n in range(2, 12):
                assert coefficient_threshold(n, p) == pytest.approx(
                    (1 - alpha) / (n - alpha), rel=1e-14
                )
        for n in range(2, 12):
            assert coefficient_threshold(n, P_CLASSICAL) == pytest.approx(1.0 / n, rel=1e-14)

    def test_alpha_near_one_vanishes(self):
        p = ClassParams(0.5, 1.0, 1 - 1e-9)
        assert 0 < coefficient_threshold(2, p) < 1e-9

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            coefficient_threshold(1, P_HALF)

    def test_phi_table_matches_threshold_denominator(self):
        for p in (P_HALF, P_CLASSICAL, ClassParams(0.8, 0.5, 0.2)):
            for order in (1, 2, 16, 64):
                phi = phi_table(p, order)
                assert phi.tolist() == [cls.threshold_denominator(n, p)
                                        for n in range(2, order + 1)]
                assert not phi.flags.writeable

    @pytest.mark.filterwarnings("error")
    def test_phi_table_overflow_is_worded(self):
        # [1024]~_0.5 is about 9e307, so phi_1024 = 2 [1024]~_q - 1 overflows at k = 1
        p = ClassParams(0.5, 1.0, 0.0)
        assert np.isfinite(phi_table(p, 1023)).all()
        with pytest.raises(OverflowError, match=r"phi_1024 .* at q=0\.5"):
            phi_table(p, 1024)
        with pytest.raises(OverflowError, match="phi_1024"):
            extremal_function(3, p, order=1024)


class TestSufficientCondition:
    def test_identity_function(self):
        for alpha in (0.0, 0.4):
            p = ClassParams(0.7, 2.0, alpha)
            f = TruncatedSeries.identity(16)
            assert sufficient_condition_margin(f, p) == pytest.approx(1 - alpha, abs=1e-15)
            assert sufficient_membership(f, p).certified == CERTIFIED_MEMBER_SUFFICIENT

    def test_extremal_margin_zero(self):
        for n in (2, 5, 17):
            f = extremal_function(n, P_HALF)
            assert abs(sufficient_condition_margin(f, P_HALF)) < 1e-12

    def test_hand_negative_margin(self):
        f = member(1.0, 0.3)
        assert sufficient_condition_margin(f, P_HALF) == pytest.approx(-0.2, abs=1e-14)
        assert sufficient_membership(f, P_HALF).certified == CERTIFIED_INCONCLUSIVE


class TestTsMembership:
    def test_identity_function(self):
        verdict = ts_membership(TruncatedSeries.identity(8), P_HALF)
        assert verdict.certified == CERTIFIED_MEMBER_IFF_NEGATIVE
        assert verdict.margin == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 9, 32])
    def test_threshold_function_is_member_with_zero_margin(self, n):
        f = extremal_function(n, P_HALF)
        verdict = ts_membership(f, P_HALF)
        assert verdict.certified == CERTIFIED_MEMBER_IFF_NEGATIVE
        assert abs(verdict.margin) < 1e-12

    def test_overweight_function_rejected(self):
        t = coefficient_threshold(2, P_HALF)
        f = member(1.0, -1.01 * t)
        verdict = ts_membership(f, P_HALF)
        assert verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS
        assert verdict.margin < 0
        assert verdict.witness == 1.0 + 0j  # the real-axis boundary direction

    def test_positive_coefficient_is_form_error(self):
        with pytest.raises(TFormError):
            ts_membership(member(1.0, 0.2), P_HALF)
        with pytest.raises(TFormError):
            ts_membership(member(1.0, 0.1j), P_HALF)
        # the message names the first offending power, not a later one
        with pytest.raises(TFormError, match=r"coefficient of z\^4 is "):
            extreme_point_decompose(member(1.0, -0.1, 0.0, 0.3j, 0.2, order=8), P_HALF)

    def test_tiny_positive_noise_tolerated(self):
        f = member(1.0, -0.1, 5e-15)
        verdict = ts_membership(f, P_HALF)
        assert verdict.certified == CERTIFIED_MEMBER_IFF_NEGATIVE

    def test_tiny_coefficient_keeps_its_weight(self):
        # phi_64 is about 1.23e19 at q = 0.5, so a2..a63 = 0, a64 = -5e-15
        # overspends the budget 1 by about 6e4: no member.
        p = ClassParams(0.5, 0.0, 0.0)
        f = member(1.0, *([0.0] * 62), -5e-15, order=64)
        verdict = ts_membership(f, p)
        assert verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS
        assert verdict.margin == pytest.approx(1.0 - 5e-15 * cls.threshold_denominator(64, p))
        with pytest.raises(DecompositionError):
            extreme_point_decompose(f, p)


class TestSampledMembership:
    def test_identity_function_margin(self):
        for alpha in (0.0, 0.5):
            p = ClassParams(0.5, 1.0, alpha)
            verdict = sampled_membership(TruncatedSeries.identity(8), p)
            assert verdict.certified == CERTIFIED_INCONCLUSIVE
            assert verdict.margin == pytest.approx(1 - alpha, abs=1e-12)

    def test_extremal_has_no_witness(self):
        verdict = sampled_membership(extremal_function(2, P_HALF), P_HALF)
        assert verdict.certified == CERTIFIED_INCONCLUSIVE
        assert verdict.margin > 0

    def test_witness_found_for_fat_coefficient(self):
        f = member(1.0, 0.9)
        verdict = sampled_membership(f, P_HALF)
        assert verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS
        assert verdict.margin <= 0
        assert abs(verdict.witness) < 1.0

    def test_first_witness_is_lexicographic(self):
        f = member(1.0, 0.9)
        grid = default_disk_grid()
        verdict = sampled_membership(f, P_HALF, grid)
        # rescan manually: the reported witness must be the first failing
        # (radius, angle) pair in scan order
        from qstarlike.qcalc import symmetric_q_derivative
        from qstarlike.series import evaluate
        deriv = symmetric_q_derivative(f, P_HALF.q)
        for i, j, z in grid.points():
            w = z * evaluate(deriv, z) / evaluate(f, z)
            margin = w.real - P_HALF.k * abs(w - 1) - P_HALF.alpha
            if margin <= 0:
                assert abs(z - verdict.witness) < 1e-14
                return
        pytest.fail("manual scan found no witness")

    def test_vanishing_f_is_witness(self):
        f = member(1.0, -2.0, order=8)  # f(0.5) = 0
        grid = DiskGrid(radii=(0.25, 0.5), n_angles=8)
        verdict = sampled_membership(f, P_HALF, grid)
        assert verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS
        assert verdict.witness == pytest.approx(0.5)
        assert verdict.margin == -math.inf
        assert verdict.to_json_dict()["margin"] is None
        # on the default grid: f = z + z^2/0.52 vanishes at the grid point -0.52
        grid = default_disk_grid()
        verdict = sampled_membership(member(1.0, 1 / 0.52), P_HALF, grid)
        assert verdict.margin == -math.inf
        assert verdict.witness == complex(grid.mesh()[grid.radii.index(0.52), grid.n_angles // 2])

    def test_derivative_series_rejected(self):
        from qstarlike.qcalc import symmetric_q_derivative
        d = symmetric_q_derivative(TruncatedSeries.from_taylor([1, 0.1]), 0.5)
        with pytest.raises(Exception):
            sampled_membership(d, P_HALF)

    def test_sufficiency_chain(self):
        # anything the coefficient condition certifies survives the grid
        # scan out to radius 0.995 (margins comfortably above -1e-6)
        rng = np.random.default_rng(404)
        for p in (P_HALF, ClassParams(0.9, 0.0, 0.25), ClassParams(1.0, 1.0, 0.0)):
            for _ in range(40):
                f = random_certified_member(p, rng)
                assert sufficient_condition_margin(f, p) >= 0
                verdict = sampled_membership(f, p)
                if verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS:
                    assert verdict.margin > -1e-6
                else:
                    assert verdict.margin > 0
            for n in (2, 9, 32):
                verdict = sampled_membership(extremal_function(n, p), p)
                assert verdict.certified == CERTIFIED_INCONCLUSIVE


class TestExtremalFunction:
    def test_first_is_identity(self):
        f = extremal_function(1, P_HALF)
        assert f.is_normalized
        assert all(c == 0 for c in f.coeffs[2:])

    def test_hand_value(self):
        f = extremal_function(2, P_HALF)
        assert f.a(2) == pytest.approx(-0.25, abs=1e-15)

    def test_order_grows_with_n(self):
        f = extremal_function(40, P_HALF)
        assert f.order == 40
        assert f.a(40) != 0

    def test_order_below_n_is_refused(self):
        # an explicit order must hold z^n; None means max(DEFAULT_ORDER, n)
        for n, order in ((3, -7), (5, 2), (1, 1), (40, 39)):
            with pytest.raises(ValueError, match=f"order = {order} is below max\\(n, 2\\) "
                                                 f"= {max(n, 2)}"):
                extremal_function(n, P_HALF, order=order)
        assert extremal_function(5, P_HALF, order=5).order == 5
        assert extremal_function(5, P_HALF).order == 32
        assert extremal_function(1, P_HALF, order=2).order == 2

    def test_size_cap(self):
        # refused before the coefficient list is allocated
        for n, order in ((cls.MAX_EXTREMAL_ORDER + 1, 32), (2, cls.MAX_EXTREMAL_ORDER + 1),
                         (10**18, 32)):
            with pytest.raises(ValueError, match="must not exceed"):
                extremal_function(n, P_CLASSICAL, order=order)
        f = extremal_function(cls.MAX_EXTREMAL_ORDER, P_CLASSICAL)
        assert f.order == cls.MAX_EXTREMAL_ORDER


class TestDistortion:
    def test_at_origin(self):
        assert distortion_bounds(0.0, P_HALF) == (0.0, 0.0)
        assert derivative_distortion_bounds(0.0, P_HALF) == (1.0, 1.0)

    def test_hand_coefficients(self):
        assert distortion_coefficient(P_HALF) == pytest.approx(0.25, abs=1e-15)
        lo, hi = distortion_bounds(0.5, P_HALF)
        assert lo == pytest.approx(0.5 - 0.25 * 0.25, abs=1e-15)
        assert hi == pytest.approx(0.5 + 0.25 * 0.25, abs=1e-15)
        dlo, dhi = derivative_distortion_bounds(0.5, P_HALF)
        assert dlo == pytest.approx(1 - 0.5 * 0.5, abs=1e-15)
        assert dhi == pytest.approx(1 + 0.5 * 0.5, abs=1e-15)

    def test_classical_limit(self):
        assert distortion_coefficient(P_CLASSICAL) == pytest.approx(0.5, abs=1e-15)
        for alpha in (0.0, 0.3, 0.7):
            p = ClassParams(1.0, 0.0, alpha)
            assert distortion_coefficient(p) == pytest.approx(
                (1 - alpha) / (2 - alpha), rel=1e-14
            )

    def test_coefficient_equals_n2_threshold(self):
        for p in (P_HALF, P_CLASSICAL, ClassParams(0.77, 3.0, 0.4)):
            assert distortion_coefficient(p) == pytest.approx(
                coefficient_threshold(2, p), rel=1e-14
            )

    def test_lower_bound_stays_nonnegative(self):
        for r in np.linspace(0, 0.999, 50):
            lo, _ = distortion_bounds(float(r), P_HALF)
            assert lo >= 0

    def test_equality_function_attains_upper(self):
        from qstarlike.series import evaluate
        for p in (P_HALF, P_CLASSICAL):
            f = distortion_equality_function(p)
            for r in (0.2, 0.5, 0.9):
                assert abs(evaluate(f, r)) == pytest.approx(
                    distortion_bounds(r, p)[1], abs=1e-12
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            distortion_bounds(1.0, P_HALF)
        with pytest.raises(ValueError):
            derivative_distortion_bounds(-0.1, P_HALF)


class TestExtremePoints:
    def test_single_extremal_weight(self):
        w = extreme_point_decompose(extremal_function(2, P_HALF), P_HALF)
        assert w.lambdas[1] == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(w.lambdas) == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for i, v in enumerate(w.lambdas) if i != 1)

    def test_identity_weight(self):
        w = extreme_point_decompose(TruncatedSeries.identity(8), P_HALF)
        assert w.lambdas[0] == pytest.approx(1.0, abs=1e-15)

    def test_convex_combination(self):
        f2 = extremal_function(2, P_HALF, order=8)
        f3 = extremal_function(3, P_HALF, order=8)
        mix = TruncatedSeries(tuple(0.5 * a + 0.5 * b for a, b in zip(f2.coeffs, f3.coeffs)))
        w = extreme_point_decompose(mix, P_HALF)
        assert w.lambdas[0] == pytest.approx(0.0, abs=1e-12)
        assert w.lambdas[1] == pytest.approx(0.5, abs=1e-12)
        assert w.lambdas[2] == pytest.approx(0.5, abs=1e-12)

    def test_compose_simple(self):
        p = P_HALF
        w = DecompositionWeights((1.0,))
        assert extreme_point_compose(w, p) == TruncatedSeries.identity(32)
        w2 = DecompositionWeights((0.0, 1.0))
        assert extreme_point_compose(w2, p) == extremal_function(2, p)

    def test_roundtrip_both_ways(self):
        rng = np.random.default_rng(5)
        p = ClassParams(0.8, 1.0, 0.25)
        for _ in range(50):
            raw = rng.random(10)
            w = DecompositionWeights(tuple(raw / raw.sum()))
            back = extreme_point_decompose(extreme_point_compose(w, p), p)
            assert max(
                abs(a - b) for a, b in zip(w.lambdas, back.lambdas)
            ) < 1e-12
            f = random_certified_member(p, rng, order=16)
            again = extreme_point_compose(extreme_point_decompose(f, p), p, order=16)
            assert max(abs(a - b) for a, b in zip(f.coeffs, again.coeffs)) < 1e-12

    def test_composition_is_member(self):
        rng = np.random.default_rng(6)
        raw = rng.random(6)
        w = DecompositionWeights(tuple(raw / raw.sum()))
        f = extreme_point_compose(w, P_HALF)
        assert ts_membership(f, P_HALF).certified == CERTIFIED_MEMBER_IFF_NEGATIVE

    def test_non_member_rejected(self):
        t = coefficient_threshold(2, P_HALF)
        f = member(1.0, -1.5 * t)
        with pytest.raises(DecompositionError):
            extreme_point_decompose(f, P_HALF)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DecompositionWeights((0.5, 0.4))  # does not sum to 1
        with pytest.raises(ValueError):
            DecompositionWeights((1.5, -0.5))
        for lams in ((math.nan, 1.0), (1.0, math.nan), (math.nan, 1.5, -0.5)):
            with pytest.raises(ValueError):
                DecompositionWeights(lams)
        # rounding-level negatives are clamped to 0; nonnegative weights are kept as given
        assert DecompositionWeights((1.0 + 1e-13, -1e-13)).lambdas == (1.0 + 1e-13, 0.0)
        assert DecompositionWeights((0.25, 0.75)).lambdas == (0.25, 0.75)

    def test_compose_order_below_weight_count(self):
        w = DecompositionWeights((0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match="order 2 is below the number of weights 3"):
            extreme_point_compose(w, P_HALF, order=2)
        assert extreme_point_compose(w, P_HALF, order=3).order == 3


class TestRandomMember:
    def test_always_certified(self):
        rng = np.random.default_rng(9)
        for p in (P_HALF, ClassParams(0.3, 0.0, 0.6)):
            for _ in range(25):
                f = random_certified_member(p, rng)
                assert sufficient_condition_margin(f, p) >= 0
                verdict = ts_membership(f, p)
                assert verdict.certified == CERTIFIED_MEMBER_IFF_NEGATIVE


def test_verdict_json_shape():
    v = sampled_membership(member(1.0, 0.9), P_HALF)
    doc = v.to_json_dict()
    assert doc["certified"] == CERTIFIED_NOT_MEMBER_WITNESS
    assert isinstance(doc["witness"], list) and len(doc["witness"]) == 2
    doc2 = sufficient_membership(TruncatedSeries.identity(4), P_HALF).to_json_dict()
    assert doc2["witness"] is None
