import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from qstarlike import classes as cls
from qstarlike.classes import (
    CERTIFIED_INCONCLUSIVE,
    CERTIFIED_MEMBER_IFF_NEGATIVE,
    CERTIFIED_MEMBER_SUFFICIENT,
    CERTIFIED_NOT_MEMBER_WITNESS,
    DecompositionError,
    DecompositionWeights,
    TFormError,
    budget_rows,
    coefficient_threshold,
    convex_weight_rows,
    decompose_rows,
    derivative_distortion_bounds,
    distortion_bounds,
    distortion_coefficient,
    extremal_function,
    extreme_point_compose,
    extreme_point_decompose,
    phi_table,
    random_certified_member,
    random_certified_rows,
    sampled_membership,
    sufficient_condition_margin,
    sufficient_membership,
    t_form_magnitudes,
    t_form_rows,
    ts_membership,
)
from qstarlike.conic import ClassParams, conic_margin
from qstarlike.qcalc import symmetric_q_derivative, symmetric_q_number
from qstarlike.series import (
    GRID_ANGLES,
    GRID_RADII,
    TruncatedSeries,
    evaluate_on_grid,
    evaluate_rows_on_grid,
    grid_point,
)
from qstarlike.verify import default_parameter_points

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
        # threshold_denominator reads phi_table, so both meet the formula written out
        for p in (P_HALF, P_CLASSICAL, ClassParams(0.8, 0.5, 0.2)):
            for order in (1, 2, 16, 64):
                phi = phi_table(p, order)
                formula = [symmetric_q_number(n, p.q) * (p.k + 1.0) - (p.k + p.alpha)
                           for n in range(2, order + 1)]
                assert phi.tolist() == formula
                assert [cls.threshold_denominator(n, p) for n in range(2, order + 1)] == formula
                assert all(type(cls.threshold_denominator(n, p)) is float
                           for n in range(2, order + 1))
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
        verdict = sampled_membership(f, P_HALF)
        # rescan manually: the reported witness must be the first failing
        # (radius, angle) pair in scan order
        from qstarlike.qcalc import symmetric_q_derivative
        deriv = symmetric_q_derivative(f, P_HALF.q)
        for i, j in np.ndindex(len(GRID_RADII), GRID_ANGLES):
            z = grid_point(i, j)
            w = z * reference.evaluate(deriv, z) / reference.evaluate(f, z)
            margin = w.real - P_HALF.k * abs(w - 1) - P_HALF.alpha
            if margin <= 0:
                assert abs(z - verdict.witness) < 1e-14
                return
        pytest.fail("manual scan found no witness")

    def test_vanishing_f_is_witness(self):
        # f = z + z^2/0.52 (sum |a_n| = 1.92, so the zero test runs) vanishes at the
        # grid point -0.52, on angle pi: the last angle the scan of a real series covers
        verdict = sampled_membership(member(1.0, 1 / 0.52), P_HALF)
        assert verdict.certified == CERTIFIED_NOT_MEMBER_WITNESS
        assert verdict.witness == grid_point(GRID_RADII.index(0.52), GRID_ANGLES // 2)
        assert verdict.witness == -0.52
        assert verdict.margin == -math.inf
        assert verdict.to_json_dict()["margin"] is None

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
        # z + c z^2 reaches the upper envelope r + c r^2 at z = r
        for p in (P_HALF, P_CLASSICAL):
            f = TruncatedSeries.from_taylor([1.0, distortion_coefficient(p)])
            for r in (0.2, 0.5, 0.9):
                assert abs(reference.evaluate(f, r)) == pytest.approx(
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


def _refusal(fn, *args):
    """(exception type, message) that fn(*args) raises."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestHugeCoefficients:
    """Huge but finite coefficients end in one worded OverflowError, not inf or a warning."""

    HUGE = member(1.0, -1e308)

    @pytest.mark.parametrize("check", [sufficient_condition_margin, ts_membership,
                                       extreme_point_decompose])
    def test_weighted_sum_overflow_is_refused(self, check):
        with np.errstate(all="raise"):
            with pytest.raises(OverflowError, match=r"sum\(phi_n \|a_n\|\) overflows .* q=0\.5"):
                check(self.HUGE, P_HALF)

    def test_complex_magnitude_overflow_is_refused(self):
        # |a_2| itself is past the largest double, though both its parts are finite
        with pytest.raises(OverflowError, match=r"sum\(phi_n \|a_n\|\) overflows .* q=0\.5"):
            sufficient_condition_margin(member(1.0, 1e308 + 1e308j), P_HALF)

    def test_fsum_overflow_of_finite_terms_is_refused(self):
        # each phi_n |a_n| is finite, their sum is not
        f = member(1.0, -5e307, -5e307, order=4)
        with pytest.raises(OverflowError, match="overflows"):
            sufficient_condition_margin(f, ClassParams(1.0, 0.0, 0.0))


class TestBudgetRows:
    """budget_rows is the one coefficient budget sum; each caller reads it."""

    def test_equals_fsum_of_weighted_magnitudes(self):
        rng = np.random.default_rng(41)
        for index, p in enumerate(default_parameter_points()):
            order = int(rng.integers(2, 65))
            tails = rng.normal(size=(30, order - 1)) + 1j * rng.normal(size=(30, order - 1))
            tails *= 0.5 ** np.arange(order - 1)
            phi = phi_table(p, order).tolist()
            want = [math.fsum(w * abs(a) for w, a in zip(phi, row)) for row in tails.tolist()]
            magnitudes = [[abs(a) for a in row] for row in tails.tolist()]
            assert budget_rows(magnitudes, p) == want
            f = TruncatedSeries.from_taylor([1.0, *tails[0].tolist()])
            assert sufficient_condition_margin(f, p) == (1.0 - p.alpha) - want[0]

    def test_t_form_margin_reads_it(self):
        rng = np.random.default_rng(42)
        for p in default_parameter_points():
            a = rng.random(31) * 0.01 * 0.5 ** np.arange(31)
            f = TruncatedSeries.from_taylor([1.0, *(-a).tolist()])
            assert ts_membership(f, p).margin == (1.0 - p.alpha) - budget_rows([a.tolist()], p)[0]

    def test_member_rows_scale_by_the_budget_sum(self):
        # each row is its raw draw times (share of 1 - alpha) / budget_rows(raw)
        for index, p in enumerate(default_parameter_points()):
            draw = np.random.default_rng([6, index]).random((20, 32))
            raw, share = draw[:, :-1], draw[:, -1] * (1.0 - p.alpha)
            want = [[r * (s / t) for r in row]
                    for row, s, t in zip(raw.tolist(), share.tolist(), budget_rows(raw.tolist(), p))]
            rows = random_certified_rows(p, np.random.default_rng([6, index]), 20, 32)
            assert rows.tolist() == want


class TestRowKernels:
    """The row kernels refuse exactly what their one-row public functions refuse."""

    @pytest.mark.parametrize("lams", [
        (math.nan, 1.0), (1.0, math.nan), (0.5, 0.4), (1.5, -0.5), (math.nan, 1.5, -0.5),
    ])
    def test_weight_refusals(self, lams):
        want = _refusal(DecompositionWeights, lams)
        assert _refusal(convex_weight_rows, np.array([lams])) == want
        # a valid row before the bad one does not hide it
        rows = np.array([(1.0,) + (0.0,) * (len(lams) - 1), lams])
        assert _refusal(convex_weight_rows, rows) == want

    @pytest.mark.parametrize("lams", [(math.nan, 1.5, -0.5), (1.5, math.nan, -0.5)])
    def test_negative_weight_is_named_wherever_a_nan_sits(self, lams):
        want = (ValueError, "weights must be nonnegative")
        assert _refusal(DecompositionWeights, lams) == want
        assert _refusal(convex_weight_rows, np.array([lams])) == want

    def test_weight_clamp(self):
        lams = (1.0 + 1e-13, -1e-13)
        got = convex_weight_rows(np.array([lams, (0.25, 0.75)]))
        assert got.tolist() == [list(DecompositionWeights(lams).lambdas), [0.25, 0.75]]

    @pytest.mark.parametrize("n, value", [(2, -0.01 + 1e-3j), (5, 1e-3), (7, 2e-14)])
    def test_t_form_refusals_name_the_first_bad_n(self, n, value):
        taylor = [1.0] + [-1e-4] * 15
        taylor[n - 1] = value
        taylor[n + 2] = 0.5  # a later bad coefficient is not the one named
        f = member(*taylor, order=16)
        want = _refusal(t_form_magnitudes, f)
        assert want[0] is TFormError and f"z^{n} " in want[1]
        assert _refusal(t_form_rows, np.array([f.coeffs[2:]])) == want
        good = np.full((1, 15), -1e-4 + 0j)
        assert _refusal(t_form_rows, np.vstack([good, [f.coeffs[2:]]])) == want

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(-math.inf, 0.0)])
    def test_t_form_rows_refuse_non_finite(self, value):
        # a series cannot hold these; the array kernel refuses them itself
        tails = np.full((1, 7), -1e-4 + 0j)
        tails[0, 3] = value
        with pytest.raises(TFormError, match="z\\^5 "):
            t_form_rows(tails)

    def test_budget_overrun(self):
        f = member(1.0, -1.5 * coefficient_threshold(2, P_HALF))
        want = _refusal(extreme_point_decompose, f, P_HALF)
        assert want[0] is DecompositionError
        assert _refusal(decompose_rows, t_form_rows(np.array([f.coeffs[2:]])), P_HALF) == want
        # a valid row before the over-budget one does not hide it
        valid = member(1.0, -0.5 * coefficient_threshold(2, P_HALF))
        tails = t_form_rows(np.array([valid.coeffs[2:], f.coeffs[2:]]))
        assert _refusal(decompose_rows, tails, P_HALF) == want

    def test_public_functions_are_the_one_row_case(self):
        rng = np.random.default_rng(11)
        p = ClassParams(0.8, 1.0, 0.25)
        members = [random_certified_member(p, rng, order=16) for _ in range(5)]
        tails = np.array([f.coeffs[2:] for f in members])
        rows = convex_weight_rows(decompose_rows(t_form_rows(tails), p))
        for f, row in zip(members, rows):
            assert extreme_point_decompose(f, p).lambdas == tuple(row.tolist())


class TestGridProduct:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_one_product_matches_two_evaluations(self, seed):
        for index, p in enumerate(default_parameter_points()):
            f = random_certified_member(p, np.random.default_rng([seed, index]))
            numerator = TruncatedSeries((0j, *symmetric_q_derivative(f, p.q).coeffs))
            f_vals, num_vals = evaluate_rows_on_grid([f.coeffs, numerator.coeffs])
            assert np.array_equal(f_vals, evaluate_on_grid(f))
            assert np.array_equal(num_vals, evaluate_on_grid(numerator))


def _real_scan_cases():
    """Real members and non-members at orders 2, 16, 32 and 64, and the order-1024 extremal."""
    rng = np.random.default_rng(2027)
    cases = []
    for order in (2, 16, 32, 64):
        for p in (P_HALF, ClassParams(0.9, 0.0, 0.25), ClassParams(0.8, 2.0, 0.1)):
            f = random_certified_member(p, rng, order)
            overspent = TruncatedSeries((0j, 1 + 0j, *(3.0 * c for c in f.coeffs[2:])))
            signs = rng.choice((-1.0, 1.0), order - 1) * 0.8 ** np.arange(1, order)
            cases += [
                (f"certified member, order {order}", f, p),
                (f"extremal f_{order}", extremal_function(order, p, order=order), p),
                (f"overspent t-form, order {order}", overspent, p),
                (f"mixed signs, order {order}", member(1.0, *signs, order=order), p),
                (f"fat a2, order {order}", member(1.0, 0.9, order=order), p),
            ]
    cases.append(("zero at -0.52", member(1.0, 1 / 0.52, order=2), P_HALF))
    cases.append(("extremal f_1024", extremal_function(1024, P_CLASSICAL, order=1024), P_CLASSICAL))
    return [pytest.param(f, p, id=f"{label} at q={p.q} k={p.k} alpha={p.alpha}") for label, f, p in cases]


REAL_SCAN_CASES = _real_scan_cases()


class TestHalfScan:
    """Real series are scanned on angles 0 .. pi; the full grid gives the same verdict."""

    @pytest.mark.parametrize("f, p", REAL_SCAN_CASES)
    def test_conjugate_columns(self, f, p):
        numerator = (0j, *symmetric_q_derivative(f, p.q).coeffs)
        values = evaluate_rows_on_grid([f.coeffs, numerator])
        half = GRID_ANGLES // 2
        mirrored = np.ascontiguousarray(values[:, :, :half:-1])
        conjugates = np.ascontiguousarray(values[:, :, 1:half].conj())
        assert np.array_equal(mirrored.view(np.uint64), conjugates.view(np.uint64))

    @pytest.mark.parametrize("f, p", REAL_SCAN_CASES)
    def test_half_scan_is_full_scan(self, f, p):
        verdict = sampled_membership(f, p)
        certified, margin, witness = reference.full_grid_scan(f, p)
        assert (verdict.certified, verdict.witness) == (certified, witness)
        # the angle-pi column is the one column the two products may round
        # differently (a BLAS kernel's edge), so a margin read there may move an ulp
        assert verdict.margin == margin or abs(verdict.margin - margin) <= 1e-14

    def test_verdicts_cover_both_outcomes(self):
        verdicts = {reference.full_grid_scan(*case.values)[0] for case in REAL_SCAN_CASES}
        assert verdicts == {CERTIFIED_INCONCLUSIVE, CERTIFIED_NOT_MEMBER_WITNESS}

    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False), min_size=1, max_size=63),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_zero_test_bound(self, tail, share):
        # sum |a_n| <= 1 - 1e-9 gives |f(z)| >= |z| (1 - sum |a_n|) >= 4e-11 on the grid,
        # which is why the scan may skip its |f| < 1e-12 test
        total = math.fsum(map(abs, tail))
        assume(total > 0.0)
        tail = [c * (share * (1.0 - 1e-9) / total) for c in tail]
        assume(sum(map(abs, tail)) <= 1.0 - 1e-9)
        f = member(1.0, *tail, order=len(tail) + 1)
        assert np.abs(evaluate_on_grid(f)).min() > 1e-12

    def test_zero_test_bound_at_order_1024(self):
        f = extremal_function(1024, P_CLASSICAL, order=1024)
        assert sum(map(abs, f.coeffs[2:])) <= 1.0 - 1e-9
        assert np.abs(evaluate_on_grid(f)).min() > 1e-12

    def test_complex_input_scans_every_angle(self):
        # z + 0.9 z^2 fails on angles 33..63 only; g(z) = e^(-i theta) f(e^(i theta) z) with
        # theta = -pi/2 is z - 0.9i z^2, whose failing points all lie past pi
        p = P_HALF
        f, g = member(1.0, 0.9), member(1.0, -0.9j)
        assert reference.full_grid_scan(f, p)[0] == CERTIFIED_NOT_MEMBER_WITNESS
        numerator = (0j, *symmetric_q_derivative(g, p.q).coeffs)
        g_vals, num_vals = evaluate_rows_on_grid([g.coeffs, numerator], GRID_ANGLES // 2 + 1)
        assert (conic_margin(num_vals / g_vals, p.k, p.alpha) > 0.0).all()
        certified, margin, witness = reference.full_grid_scan(g, p)
        assert certified == CERTIFIED_NOT_MEMBER_WITNESS and witness.imag < 0.0
        verdict = sampled_membership(g, p)
        assert (verdict.certified, verdict.witness, verdict.margin) == (certified, witness, margin)


class TestRandomMember:
    @pytest.mark.parametrize("order", [2, 5, 32, 64])
    def test_rows_are_the_single_draws(self, order):
        # one (count, order) block holds the doubles of count single draws, in order
        for index, p in enumerate(default_parameter_points()):
            single, block = (np.random.default_rng([5, index]) for _ in range(2))
            members = [random_certified_member(p, single, order) for _ in range(20)]
            rows = random_certified_rows(p, block, 20, order)
            assert rows.shape == (20, order - 1)
            assert (np.vstack([t_form_magnitudes(f) for f in members]) == rows).all()
            assert single.random() == block.random()

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
