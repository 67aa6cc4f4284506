import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import coefficients_at
from qstarlike.conic import ConicCoefficients, conic_coefficients
from qstarlike.hankel import (
    HankelQuantities,
    SchwarzTriple,
    caratheodory_b2_b3,
    fekete_szego_bound_complex,
    fekete_szego_bound_real,
    fekete_szego_breakpoint,
    h2_bound,
    h2_bound_from_quantities,
    hankel_quantities,
    printed_corollary_values,
    quadratic_max_on_interval,
    refuse_overflow,
    schwarz_to_coefficients,
    symmetric_gaps,
)
from qstarlike.qcalc import symmetric_q_number

P_KOEBE = ConicCoefficients(2.0, 2.0, 2.0)


class TestCaratheodoryParametrization:
    def test_saturated_b1_fixes_everything(self):
        for x in (0.0, 1.0, -0.5 + 0.5j):
            for zeta in (0.0, 1.0, 1j):
                b2, b3 = caratheodory_b2_b3(2.0, x, zeta)
                assert b2 == pytest.approx(2.0, abs=1e-15)
                assert b3 == pytest.approx(2.0, abs=1e-15)

    def test_pure_x_direction(self):
        b2, b3 = caratheodory_b2_b3(0.0, 1.0, 0.5j)
        assert b2 == pytest.approx(2.0, abs=1e-15)
        assert b3 == pytest.approx(0.0, abs=1e-15)

    def test_pure_zeta_direction(self):
        b2, b3 = caratheodory_b2_b3(0.0, 0.0, 1.0)
        assert b2 == pytest.approx(0.0, abs=1e-15)
        assert b3 == pytest.approx(2.0, abs=1e-15)

    def test_bounds_hold_on_bulk_random_sample(self):
        rng = np.random.default_rng(12)
        n = 100_000
        b1 = rng.uniform(0, 2, n)
        x = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        zeta = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        b2, b3 = caratheodory_b2_b3(b1, x, zeta)
        assert np.abs(b2).max() <= 2 + 1e-12
        assert np.abs(b3).max() <= 2 + 1e-12

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            SchwarzTriple(2.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            SchwarzTriple(1.0, 1.1, 0.0)
        with pytest.raises(ValueError):
            SchwarzTriple(1.0, 0.0, 1.1j)


class TestCoefficientsFromSchwarz:
    def test_zero_data_gives_identity(self):
        assert coefficients_at(P_KOEBE, SchwarzTriple(0.0, 0.0, 0.0), 0.7) == (0j, 0j, 0j)

    def test_koebe_anchor(self):
        # B1 = 2 forces B2 = B3 = 2 whatever x and zeta are
        a2, a3, a4 = coefficients_at(P_KOEBE, SchwarzTriple(2.0, 0.0, 0.0), 1.0)
        assert abs(a2 - 2) < 1e-12
        assert abs(a3 - 3) < 1e-12
        assert abs(a4 - 4) < 1e-12

    def test_a2_hand_value(self):
        a2, _, _ = coefficients_at(P_KOEBE, SchwarzTriple(2.0, 0.0, 0.0), 0.5)
        assert a2 == pytest.approx(4.0 / 3.0, rel=1e-14)  # q2 = 1.5

    def test_symmetric_gaps(self):
        q2, q3, q4 = symmetric_gaps(0.5)
        assert q2 == pytest.approx(1.5, abs=1e-14)
        assert q3 == pytest.approx(4.25, abs=1e-14)
        assert q4 == pytest.approx(9.625, abs=1e-14)
        assert symmetric_gaps(1.0) == pytest.approx((1.0, 2.0, 3.0))

    @given(st.one_of(st.sampled_from([1.0, math.nextafter(1.0, 0.0), 1e-3, 1e-60]),
                     st.floats(1e-100, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_gaps_are_at_least_one_two_three(self, q):
        # q + 1/q >= 2, q^2 + q^-2 >= 2 and q^3 + q + 1/q + q^-3 >= 4 hold for
        # every q > 0, so no gap is ever zero or negative and symmetric_gaps
        # refuses none; below about 1e-103, [4]~_q overflows and is refused there
        assert symmetric_gaps(q) >= (1.0, 2.0, 3.0)


class TestHankelQuantities:
    def test_hand_values_at_classical_point(self):
        hq = hankel_quantities(P_KOEBE, 1.0)
        assert (hq.q2, hq.q3, hq.q4) == pytest.approx((1.0, 2.0, 3.0))
        assert hq.S == pytest.approx(4.0)
        assert hq.M == pytest.approx(48.0)
        assert hq.N == pytest.approx(32.0)
        assert hq.U == pytest.approx(104.0)
        assert hq.V == pytest.approx(84.0)
        assert hq.cP == pytest.approx(-24.0)
        assert hq.cQ == pytest.approx(384.0)
        assert hq.cR == pytest.approx(192.0)

    def test_small_p1_limit(self):
        # M, N vanish linearly in P1 and cR quadratically; S -> q2 P2
        P = ConicCoefficients(1e-12, 2.0, 2.0)
        hq = hankel_quantities(P, 0.5)
        assert hq.S == pytest.approx(hq.q2 * 2.0, rel=1e-9)
        assert abs(hq.M) < 1e-9
        assert abs(hq.N) < 1e-9
        assert abs(hq.cR) < 1e-20

    def test_gaps_are_the_scalar_brackets(self):
        # symmetric_gaps reads the bracket table; each gap equals the scalar reference
        for q in np.linspace(0.001, 1.0, 400):
            assert symmetric_gaps(q) == tuple(symmetric_q_number(j, q) - 1.0 for j in (2, 3, 4))

    def test_u_v_nonnegative(self):
        for q in (0.3, 0.6, 1.0):
            for (k, a) in ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5)):
                hq = hankel_quantities(conic_coefficients(k, a), q)
                assert hq.U >= 0 and hq.V >= 0


class TestQuadraticMax:
    def test_concave_interior_vertex(self):
        # -(t-1)^2 + 5 on [0, 4] peaks at t=1
        assert quadratic_max_on_interval(-1, 2, 4, 0, 4) == pytest.approx(5.0)

    def test_convex_takes_endpoint(self):
        assert quadratic_max_on_interval(1, -4, 0, 0, 4) == pytest.approx(0.0)

    def test_linear_decreasing_takes_left(self):
        assert quadratic_max_on_interval(0, -5, 7, 0, 4) == pytest.approx(7.0)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 4, 20001)
        for _ in range(200):
            a, b, c = rng.normal(size=3) * 10
            exact = quadratic_max_on_interval(a, b, c, 0, 4)
            brute = float((a * t * t + b * t + c).max())
            assert exact >= brute - 1e-9
            assert exact <= brute + 1e-6


class TestH2Bound:
    def test_classical_anchor(self):
        assert h2_bound(P_KOEBE, 1.0) == pytest.approx(7.0, abs=1e-12)

    def test_matches_t4_closed_form_when_endpoint_wins(self):
        hq = hankel_quantities(P_KOEBE, 1.0)
        assert h2_bound(P_KOEBE, 1.0) == pytest.approx(
            hq.V / (hq.q2**2 * hq.q3**2 * hq.q4), abs=1e-12
        )

    def test_degenerate_linear_case_matches_t0_form(self):
        # cP = 0 and cQ < 0: the maximum sits at t = 0 and equals P1^2/q3^2
        hq = hankel_quantities(conic_coefficients(1.0, 0.0), 0.5)
        degenerate = hq._replace(cP=0.0, cQ=-5.0)
        P1 = conic_coefficients(1.0, 0.0).P1
        assert h2_bound_from_quantities(degenerate) == pytest.approx(
            P1**2 / hq.q3**2, rel=1e-12
        )

    def test_dominates_random_triples_at_classical_point(self):
        rng = np.random.default_rng(21)
        bound = h2_bound(P_KOEBE, 1.0)
        q2, q3, q4 = symmetric_gaps(1.0)
        for _ in range(2000):
            b1 = rng.uniform(0, 2)
            x = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            zeta = np.exp(1j * rng.uniform(0, 2 * np.pi))
            b2, b3 = caratheodory_b2_b3(b1, x, zeta)
            a2, a3, a4 = schwarz_to_coefficients(2, 2, 2, q2, q3, q4, b1, b2, b3)
            assert abs(a2 * a4 - a3 * a3) <= bound + 1e-9


class TestFeketeSzego:
    def test_branch_point_value(self):
        for q in (0.4, 0.8, 1.0):
            P = conic_coefficients(0.0, 0.0)
            q2, q3, _ = symmetric_gaps(q)
            mu = q2 / q3
            assert fekete_szego_bound_complex(mu, P, q) == pytest.approx(
                P.P2 / q3, rel=1e-13
            )

    def test_classical_values(self):
        assert fekete_szego_bound_complex(0.0, P_KOEBE, 1.0) == pytest.approx(3.0)
        assert fekete_szego_bound_complex(1.0, P_KOEBE, 1.0) == pytest.approx(3.0)

    def test_real_hand_value(self):
        P = ConicCoefficients(2.0, 2.0, 2.0)
        got = fekete_szego_bound_real(0.0, P, 0.5)
        assert got == pytest.approx(2 * 0.25 / 1.0625 + 4 * 0.125 / (1.0625 * 0.75), rel=1e-12)
        assert got == pytest.approx(fekete_szego_bound_complex(0.0, P, 0.5), rel=1e-13)

    def test_breakpoint_formula(self):
        assert fekete_szego_breakpoint(1.0) == pytest.approx(0.5, abs=1e-15)
        q = 0.5
        assert fekete_szego_breakpoint(q) == pytest.approx(
            q * (q * q - q + 1) / (q**4 + 1), abs=1e-15
        )
        # mu* is exactly q2/q3
        q2, q3, _ = symmetric_gaps(q)
        assert fekete_szego_breakpoint(q) == pytest.approx(q2 / q3, rel=1e-14)

    def test_breakpoint_value_and_continuity(self):
        for q in (0.3, 0.5, 0.9, 1.0):
            P = conic_coefficients(1.0, 0.25)
            mu = fekete_szego_breakpoint(q)
            center = fekete_szego_bound_real(mu, P, q)
            assert center == pytest.approx(P.P2 * q * q / (q**4 + 1), rel=1e-13)
            eps = 1e-9
            assert abs(fekete_szego_bound_real(mu - eps, P, q) - center) < 1e-8
            assert abs(fekete_szego_bound_real(mu + eps, P, q) - center) < 1e-8

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_real_equals_complex(self, mu, q):
        P = ConicCoefficients(1.3, 0.9, 0.4)
        a = fekete_szego_bound_real(mu, P, q)
        b = fekete_szego_bound_complex(mu, P, q)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class TestPrintedValues:
    def test_classical_hand_values(self):
        pv = printed_corollary_values(P_KOEBE, 1.0)
        assert pv.h21_printed == pytest.approx(-1.0, abs=1e-13)
        assert pv.a3_printed == pytest.approx(3.0, abs=1e-13)
        assert pv.h2_limit_printed == pytest.approx(16 / math.pi**2, abs=1e-15)

    def test_printed_a3_matches_theorem_only_at_classical_q(self):
        # at q = 1 the factor q^2 - q + 1 is 1 and the two forms agree
        pv = printed_corollary_values(P_KOEBE, 1.0)
        assert pv.a3_printed == pytest.approx(
            fekete_szego_bound_complex(0.0, P_KOEBE, 1.0), abs=1e-13
        )
        # below q = 1 the printed shortcut is strictly smaller
        for q in (0.3, 0.5, 0.8):
            pv = printed_corollary_values(P_KOEBE, q)
            assert pv.a3_printed < fekete_szego_bound_complex(0.0, P_KOEBE, q)

    def test_printed_h21_is_not_a_valid_bound_classically(self):
        assert printed_corollary_values(P_KOEBE, 1.0).h21_printed < 0


class TestRefuseOverflow:
    """refuse_overflow reads a result's top-level float fields, shallowly."""

    FIELDS = dict(q2=1.0, q3=2.0, q4=3.0, S=1.0, M=1.0, N=1.0, U=1.0, V=1.0,
                  cP=1.0, cQ=1.0, cR=1.0)

    @staticmethod
    def _returning(result):
        @refuse_overflow("a test quantity")
        def fn(P, q):
            return result
        return fn

    @pytest.mark.parametrize("field, value", [("cP", math.inf), ("V", -math.inf),
                                              ("q2", math.nan)])
    def test_non_finite_top_level_field_is_refused(self, field, value):
        hq = HankelQuantities(**{**self.FIELDS, field: value})
        with pytest.raises(OverflowError, match="^a test quantity overflows a double at q=0.5"):
            self._returning(hq)(P_KOEBE, 0.5)
        with pytest.raises(OverflowError, match="a test quantity"):
            self._returning((HankelQuantities(**self.FIELDS), hq))(P_KOEBE, 0.5)

    def test_finite_result_passes_and_nested_fields_are_not_read(self):
        hq = HankelQuantities(**self.FIELDS)
        assert self._returning(hq)(P_KOEBE, 0.5) is hq
        # a nested record, like an oracle argmax, is not a result field: its inf is not read
        nested = collections.namedtuple("Nested", "value inner")
        result = nested(1.0, HankelQuantities(**{**self.FIELDS, "cP": math.inf}))
        assert self._returning(result)(P_KOEBE, 0.5) is result
        assert self._returning(1.5)(P_KOEBE, 0.5) == 1.5
        with pytest.raises(OverflowError):
            self._returning(math.nan)(P_KOEBE, 0.5)
