import math
import re

import numpy as np
import pytest

import reference
from qstarlike import qcalc
from qstarlike.qcalc import (
    _symmetric_q_number_any,
    q_derivative,
    q_number,
    symmetric_q_derivative,
    symmetric_q_number,
)
from qstarlike.series import NormalizationError, TruncatedSeries


def rand_normalized(rng, order=16):
    tail = rng.uniform(-1, 1, order - 2) + 1j * rng.uniform(-1, 1, order - 2)
    return TruncatedSeries.from_taylor([1.0, *tail], order=order)


def assert_coeffs_close(f, g, tol):
    assert f.order == g.order
    for a, b in zip(f.coeffs, g.coeffs):
        assert abs(a - b) <= tol * max(1.0, abs(a), abs(b)), (a, b)


class TestQNumber:
    def test_zero(self):
        assert q_number(0, 0.3) == 0
        assert q_number(0.0, 0.9) == 0

    def test_hand_value(self):
        assert q_number(3, 0.5) == pytest.approx(1.75, abs=1e-15)

    def test_classical_limit(self):
        for n in range(1, 9):
            assert q_number(n, 1.0) == n
            assert abs(q_number(n, 1 - 1e-6) - n) < 1e-4

    def test_complex_argument(self):
        lam = 1.5 + 0.5j
        q = 0.7
        expected = (1 - q**lam) / (1 - q)
        assert q_number(lam, q) == pytest.approx(expected)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            q_number(2, 0.0)
        with pytest.raises(ValueError):
            q_number(2, 1.5)


class TestSymmetricQNumber:
    def test_unity(self):
        for q in (0.1, 0.5, 0.99, 1.0):
            assert symmetric_q_number(1, q) == pytest.approx(1.0, abs=1e-15)

    def test_hand_values(self):
        assert symmetric_q_number(2, 0.5) == pytest.approx(2.5, abs=1e-14)
        assert symmetric_q_number(3, 0.5) == pytest.approx(5.25, abs=1e-14)

    def test_classical_value_is_exact(self):
        for n in range(1, 33):
            assert symmetric_q_number(n, 1.0) == n

    def test_limit(self):
        for n in (2, 7, 32):
            assert abs(symmetric_q_number(n, 1 - 1e-6) - n) <= 1e-5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            symmetric_q_number(0, 0.5)
        with pytest.raises(ValueError):
            symmetric_q_number(3, 1.2)

    def test_q_inverse_symmetry(self):
        for n in (1, 2, 5, 17, 32):
            for q in (0.2, 0.5, 0.77, 0.999):
                a = _symmetric_q_number_any(n, q)
                b = _symmetric_q_number_any(n, 1.0 / q)
                assert abs(a - b) <= 1e-13 * abs(a)

    def test_monotone_limit(self):
        for n in (2, 5, 16, 32):
            gaps = [abs(symmetric_q_number(n, 1 - 10.0**-k) - n) for k in range(2, 9)]
            assert all(x > y for x, y in zip(gaps, gaps[1:])), (n, gaps)

    def test_small_q_still_computes(self):
        value = symmetric_q_number(2, 1e-4)
        assert value == pytest.approx(1e4 + 1e-4, rel=1e-12)


class TestQDerivative:
    def test_identity_function(self):
        f = TruncatedSeries.identity(4)
        d = q_derivative(f, 0.5)
        assert d.order == 3
        assert d.coeffs[0] == 1
        assert all(c == 0 for c in d.coeffs[1:])

    def test_hand_value(self):
        f = TruncatedSeries.from_taylor([1, 1])
        d = q_derivative(f, 0.5)
        assert d.coeffs[0] == 1
        assert d.coeffs[1] == pytest.approx(1.5, abs=1e-15)

    def test_classical_limit_is_derivative(self):
        f = TruncatedSeries.from_taylor([1, 0.5, -0.25, 0.125])
        d = q_derivative(f, 1.0)
        expected = [1, 2 * 0.5, 3 * -0.25, 4 * 0.125]
        for got, want in zip(d.coeffs, expected):
            assert got == pytest.approx(want, abs=1e-15)

    def test_rejects_constant_term(self):
        g = TruncatedSeries((1 + 0j, 0.5 + 0j, 0j))
        with pytest.raises(NormalizationError):
            q_derivative(g, 0.5)


class TestSymmetricQDerivative:
    def test_identity_function(self):
        d = symmetric_q_derivative(TruncatedSeries.identity(4), 0.7)
        assert d.coeffs[0] == 1
        assert all(c == 0 for c in d.coeffs[1:])

    def test_hand_value(self):
        f = TruncatedSeries.from_taylor([1, 1])
        d = symmetric_q_derivative(f, 0.5)
        assert d.coeffs[1] == pytest.approx(2.5, abs=1e-14)

    @pytest.mark.parametrize("op, name", [(symmetric_q_derivative, "D~_q"),
                                          (q_derivative, "D_q")])
    def test_overflowing_coefficient_names_the_operator(self, op, name):
        # [2]~_0.5 = 2.5 and [2]_0.5 = 1.5 push a finite 1.7e308 past the largest double
        f = TruncatedSeries.from_taylor([1.0, -1.7e308])
        with pytest.raises(OverflowError, match=f"^{re.escape(name)} f overflows a double at q=0.5$"):
            op(f, 0.5)

    def test_output_not_normalized(self):
        d = symmetric_q_derivative(TruncatedSeries.from_taylor([1, 0.5]), 0.5)
        assert not d.is_normalized  # carries an explicit constant term

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_square_parameter_identity(self, q):
        # D~_q f equals the q^2-derivative of f evaluated at z/q.
        rng = np.random.default_rng(101)
        for _ in range(100):
            f = rand_normalized(rng)
            lhs = symmetric_q_derivative(f, q)
            rhs = reference.scaled(q_derivative(f, q * q), 1.0 / q)
            assert_coeffs_close(lhs, rhs, 1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_product_rule(self, q):
        rng = np.random.default_rng(202)
        for _ in range(100):
            f = rand_normalized(rng)
            g = rand_normalized(rng)
            lhs = symmetric_q_derivative(reference.multiply(f, g), q)
            m = f.order - 1
            t1 = reference.multiply(reference.scaled(g, 1.0 / q, m), symmetric_q_derivative(f, q))
            t2 = reference.multiply(reference.scaled(f, q, m), symmetric_q_derivative(g, q))
            assert_coeffs_close(lhs, reference.add(t1, t2), 1e-12)

    def test_linearity(self):
        # exact up to the one reordering of multiply-vs-add per coefficient
        rng = np.random.default_rng(303)
        for _ in range(50):
            f = rand_normalized(rng)
            g = rand_normalized(rng)
            q = 0.6
            left = symmetric_q_derivative(reference.add(f, g), q)
            right = reference.add(symmetric_q_derivative(f, q), symmetric_q_derivative(g, q))
            assert_coeffs_close(left, right, 1e-15)

    def test_linearity_exact_on_dyadic_coefficients(self):
        f = TruncatedSeries.from_taylor([1, 0.5, -0.25, 0.125], order=8)
        g = TruncatedSeries.from_taylor([1, 0.25, 0.5, -0.75], order=8)
        q = 0.5
        left = symmetric_q_derivative(reference.add(f, g), q)
        right = reference.add(symmetric_q_derivative(f, q), symmetric_q_derivative(g, q))
        assert left == right


def test_factor_table_cache_consistency():
    # cached tables must agree with direct evaluation
    f = TruncatedSeries.from_taylor([1] + [0.1] * 15, order=16)
    d = symmetric_q_derivative(f, 0.37)
    for n in range(2, 17):
        assert d.coeffs[n - 1] == pytest.approx(symmetric_q_number(n, 0.37) * 0.1, rel=1e-15)
    assert math.isclose(d.coeffs[0].real, 1.0)
