import cmath
import math

import numpy as np
import pytest

from qstarlike.conic import (
    ClassParams,
    ConicCoefficients,
    UnsupportedConicRegimeError,
    conic_coefficients,
    conic_margin,
    in_conic_domain,
)


def parabolic_taylor(count):
    """Oracle: z-coefficients of (2/pi^2) log((1+sqrt z)/(1-sqrt z))^2.

    log((1+u)/(1-u)) = 2(u + u^3/3 + u^5/5 + ...), so with u = sqrt(z) the
    square is 4z * (sum z^m/(2m+1))^2; the convolution below is exact.
    """
    inner = [1.0 / (2 * m + 1) for m in range(count)]
    conv = [math.fsum(inner[i] * inner[j - i] for i in range(j + 1)) for j in range(count)]
    return [8.0 / math.pi**2 * c for c in conv]  # entry j multiplies z^(j+1)


class TestMembershipPredicate:
    def test_center_always_inside(self):
        for k in (0.0, 1.0, 3.0):
            for alpha in (0.0, 0.5, 0.99):
                assert in_conic_domain(1.0, k, alpha)

    def test_boundary_point_excluded_with_zero_margin(self):
        alpha = 0.3
        w = alpha + 0j  # real point with Re w = alpha, |w-1| scaled out at k=0
        assert not in_conic_domain(w, 0.0, alpha)
        assert conic_margin(w, 0.0, alpha) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert in_conic_domain(2 + 1j, 1.0, 0.0)  # 2 > sqrt(2)
        assert conic_margin(2 + 1j, 1.0, 0.0) == pytest.approx(2 - math.sqrt(2), abs=1e-15)

    def test_far_left_excluded(self):
        assert not in_conic_domain(-1.0, 0.0, 0.0)
        assert not in_conic_domain(0.5 + 3j, 2.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            in_conic_domain(1.0, -0.5, 0.0)
        with pytest.raises(ValueError):
            in_conic_domain(1.0, 1.0, 1.0)

    # one k rule and one alpha rule for all three: NaN and inf k used to pass
    # the k < 0 test, so in_conic_domain answered False and conic_coefficients
    # reported an unsupported regime
    @pytest.mark.parametrize("k, alpha, words", [
        *(pytest.param(k, 0.0, "k must be a finite nonnegative real", id=f"k={k}")
          for k in (math.nan, math.inf, -math.inf, -0.5)),
        *(pytest.param(1.0, a, r"alpha must lie in \[0, 1\)", id=f"alpha={a}")
          for a in (math.nan, math.inf, 1.0)),
    ])
    @pytest.mark.parametrize("call", [
        lambda k, a: in_conic_domain(2.0, k, a),
        conic_coefficients,
        lambda k, a: ClassParams(0.5, k, a),
    ], ids=["in_conic_domain", "conic_coefficients", "ClassParams"])
    def test_one_rule_for_k_and_one_for_alpha(self, call, k, alpha, words):
        with pytest.raises(ValueError, match=words):
            call(k, alpha)

    @pytest.mark.parametrize("k, alpha", [(0.0, 0.0), (0.5, 0.2), (1.0, 0.0), (2.7, 0.9)])
    def test_array_margin_is_the_scalar_margin(self, k, alpha):
        rng = np.random.default_rng(31)
        w = 3.0 * (rng.normal(size=(40, 97)) + 1j * rng.normal(size=(40, 97)))
        got = conic_margin(w, k, alpha)
        assert got.shape == w.shape
        # the array margin is the formula sampled_membership wrote out inline
        assert np.array_equal(got, w.real - k * np.abs(w - 1.0) - alpha)
        scalar = np.array([[conic_margin(complex(v), k, alpha) for v in row] for row in w])
        if k == 0.0:
            assert np.array_equal(got, scalar)
        else:
            # numpy's array |w - 1| and Python's abs may differ in the last bit
            scale = np.abs(w.real) + k * np.abs(w - 1.0) + alpha
            assert np.all(np.abs(got - scalar) <= 4.0 * np.finfo(float).eps * scale)


class TestCoefficients:
    def test_parabolic_anchor(self):
        P = conic_coefficients(1.0, 0.0)
        assert abs(P.P1 - 8.0 / math.pi**2) < 1e-12

    def test_half_plane_values(self):
        P = conic_coefficients(0.0, 0.0)
        assert (P.P1, P.P2, P.P3) == (2.0, 2.0, 2.0)
        assert P.provenance == "builtin-k0"
        assert not P.is_reconstructed

    def test_half_plane_oracle_geometric(self):
        # (1 + (1-2a)z)/(1-z) = 1 + 2(1-a) sum z^n: compare numerically
        alpha = 0.25
        P = conic_coefficients(0.0, alpha)
        z = 0.1 + 0.05j
        exact = (1 + (1 - 2 * alpha) * z) / (1 - z)
        cubic = 1 + z * (P.P1 + z * (P.P2 + z * P.P3))
        tail = 2 * (1 - alpha) * abs(z) ** 4 / (1 - abs(z))
        assert abs(exact - cubic) <= tail + 1e-15

    def test_parabolic_oracle_convolution(self):
        want = parabolic_taylor(3)
        P = conic_coefficients(1.0, 0.0)
        assert P.P1 == pytest.approx(want[0], abs=1e-12)
        assert P.P2 == pytest.approx(want[1], abs=1e-12)
        assert P.P3 == pytest.approx(want[2], abs=1e-12)
        assert P.P2 == pytest.approx(16.0 / (3 * math.pi**2), abs=1e-12)
        assert P.P3 == pytest.approx(184.0 / (45 * math.pi**2), abs=1e-12)

    def test_parabolic_oracle_numeric_point(self):
        # evaluate the closed-form map at z = 0.1 and compare to the cubic
        z = 0.1
        u = math.sqrt(z)
        exact = 1 + 2 / math.pi**2 * (math.log((1 + u) / (1 - u))) ** 2
        P = conic_coefficients(1.0, 0.0)
        cubic = 1 + z * (P.P1 + z * (P.P2 + z * P.P3))
        assert abs(exact - cubic) < 5e-5

    def test_alpha_scaling_monotone(self):
        for k in (0.0, 1.0):
            previous = None
            for alpha in (0.0, 0.2, 0.4, 0.6, 0.8):
                P = conic_coefficients(k, alpha)
                assert P.P1 > 0 and P.P2 > 0 and P.P3 > 0
                if previous is not None:
                    assert P.P1 < previous.P1
                    assert P.P2 < previous.P2
                    assert P.P3 < previous.P3
                previous = P
                base = conic_coefficients(k, 0.0)
                assert P.P1 == pytest.approx(base.P1 * (1 - alpha), rel=1e-14)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedConicRegimeError):
            conic_coefficients(2.0, 0.0)
        with pytest.raises(UnsupportedConicRegimeError):
            conic_coefficients(0.5, 0.1)

    def test_user_injection(self):
        # conic_coefficients resolves the built-ins only; user coefficients are
        # a ConicCoefficients of their own, which the ledger uses at k not in {0, 1}
        user = ConicCoefficients(1.0, 0.5, 0.25)
        assert (user.P1, user.P2, user.P3) == (1.0, 0.5, 0.25)
        assert user.provenance == "user"
        assert user.is_reconstructed
        with pytest.raises(TypeError):
            conic_coefficients(2.0, 0.0, user=user)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            ConicCoefficients(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ConicCoefficients(1.0, -0.1, 1.0)

    @pytest.mark.parametrize("values, name", [
        ((math.inf, 1.0, 1.0), "P1"),
        ((math.nan, 1.0, 1.0), "P1"),
        ((1.0, math.nan, 1.0), "P2"),
        ((1.0, math.inf, 1.0), "P2"),
        ((1.0, 1.0, math.nan), "P3"),
        ((1.0, 1.0, math.inf), "P3"),
    ])
    def test_non_finite_coefficients_refused(self, values, name):
        # P1 > 0 passes inf and P2 < 0 passes NaN, so finiteness is its own check
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ConicCoefficients(*values)


class TestMapSendsDiskIntoDomain:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_half_plane_map(self, alpha):
        for j in range(64):
            z = 0.9 * cmath.exp(2j * math.pi * j / 64)
            w = (1 + (1 - 2 * alpha) * z) / (1 - z)
            assert conic_margin(w, 0.0, alpha) > 0

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_parabolic_exact_map(self, alpha):
        # the closed-form map stays inside even at radius 0.9
        for j in range(64):
            z = 0.9 * cmath.exp(2j * math.pi * j / 64)
            u = cmath.sqrt(z)
            w = 1 + (1 - alpha) * 2 / math.pi**2 * (cmath.log((1 + u) / (1 - u))) ** 2
            assert conic_margin(w, 1.0, alpha) > 0

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_parabolic_truncated_map(self, alpha):
        # The cubic truncation errs by ~0.22 at radius 0.9 (the map has a
        # boundary log singularity), so the truncated check runs at 0.5
        # where the truncation error is far below the observed margins.
        P = conic_coefficients(1.0, alpha)
        for j in range(64):
            z = 0.5 * cmath.exp(2j * math.pi * j / 64)
            w = 1 + z * (P.P1 + z * (P.P2 + z * P.P3))
            assert conic_margin(w, 1.0, alpha) > 0


class TestClassParams:
    def test_valid(self):
        p = ClassParams(q=0.5, k=1.0, alpha=0.25)
        assert (p.q, p.k, p.alpha) == (0.5, 1.0, 0.25)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ClassParams(q=0.0, k=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            ClassParams(q=0.5, k=-1.0, alpha=0.0)
        with pytest.raises(ValueError):
            ClassParams(q=0.5, k=1.0, alpha=1.0)
