import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlike import series as ser
from qstarlike.classes import extremal_function
from qstarlike.conic import ClassParams
from qstarlike.series import (
    DiskGrid,
    OrderMismatchError,
    SeriesFormatError,
    SingularDivisionError,
    TruncatedSeries,
    TruncationWarning,
    default_disk_grid,
)


def S(*taylor, order=None):
    return TruncatedSeries.from_taylor(taylor, order=order)


def max_diff(f, g):
    return max(abs(a - b) for a, b in zip(f.coeffs, g.coeffs))


coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
taylors = st.lists(coeff, min_size=2, max_size=10)


class TestBasics:
    def test_orders_and_normalization(self):
        f = S(1, 0.5)
        assert f.order == 2
        assert f.is_normalized
        assert f.taylor == (1 + 0j, 0.5 + 0j)
        assert f.a(2) == 0.5
        assert f.a(7) == 0

    def test_padding(self):
        f = S(1, 0.5, order=6)
        assert f.order == 6
        assert f.coeffs[-1] == 0
        with pytest.raises(ValueError):
            S(1, 2, 3, order=2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TruncatedSeries((0j, complex("inf")))


class TestAdd:
    def test_cancellation(self):
        assert ser.add(S(1, 1), S(1, -1)) == S(2, 0)

    def test_zero_identity(self):
        f = S(1, 0.25, -0.5)
        assert ser.add(f, TruncatedSeries.zero(f.order)) == f

    def test_hand_sum(self):
        assert ser.add(S(1, 0.5), S(1, 0.25)) == S(2, 0.75)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            ser.add(S(1, 1), S(1, 1, order=5))

    @given(taylors, taylors, taylors)
    def test_reassociation(self, a, b, c):
        n = max(len(a), len(b), len(c))
        f, g, h = (TruncatedSeries.from_taylor(t, order=n + 1) for t in (a, b, c))
        left = ser.add(ser.add(f, g), h)
        right = ser.add(f, ser.add(g, h))
        assert max_diff(left, right) <= 1e-15 * max(1.0, max(abs(c) for c in left.coeffs))


class TestMultiply:
    def test_monomials_truncate(self):
        z = S(1, order=1)
        assert ser.multiply(z, z) == TruncatedSeries((0j, 0j))  # z^2 truncated away
        z2 = S(1, order=2)
        assert ser.multiply(z2, z2) == TruncatedSeries((0j, 0j, 1 + 0j))

    def test_hand_product(self):
        f = S(1, 1, order=4)
        g = S(1, -1, order=4)
        assert ser.multiply(f, g) == TruncatedSeries((0j, 0j, 1 + 0j, 0j, -1 + 0j))

    def test_one_identity(self):
        f = S(1, 0.3, -0.7, 0.1)
        assert ser.multiply(f, TruncatedSeries.one(f.order)) == f

    @given(taylors, taylors)
    def test_commutative_exact(self, a, b):
        n = max(len(a), len(b))
        f = TruncatedSeries.from_taylor(a, order=n + 1)
        g = TruncatedSeries.from_taylor(b, order=n + 1)
        assert ser.multiply(f, g) == ser.multiply(g, f)

    @given(taylors, taylors, taylors)
    @settings(max_examples=60)
    def test_distributes_over_add(self, a, b, c):
        n = max(len(a), len(b), len(c))
        f, g, h = (TruncatedSeries.from_taylor(t, order=n + 1) for t in (a, b, c))
        left = ser.multiply(f, ser.add(g, h))
        right = ser.add(ser.multiply(f, g), ser.multiply(f, h))
        scale = max(1.0, max(abs(v) for v in left.coeffs), max(abs(v) for v in right.coeffs))
        assert max_diff(left, right) <= 1e-13 * scale


class TestDivide:
    def test_self_division(self):
        f = S(1, 0.4, -0.2, 0.05)
        q = ser.divide(f, f)
        assert abs(q.coeffs[0] - 1) < 1e-15
        assert all(abs(c) < 1e-15 for c in q.coeffs[1:])
        assert q.order == f.order - 1

    def test_monomial_shift(self):
        z2 = TruncatedSeries((0j, 0j, 1 + 0j, 0j))
        z = S(1, order=3)
        assert ser.divide(z2, z) == TruncatedSeries((0j, 1 + 0j, 0j))

    def test_degree_shifted_quotient(self):
        f = S(1, 1, order=3)
        z = S(1, order=3)
        assert ser.divide(f, z) == TruncatedSeries((1 + 0j, 1 + 0j, 0j))

    def test_zero_divisor(self):
        with pytest.raises(SingularDivisionError):
            ser.divide(S(1, 1), TruncatedSeries.zero(2))

    def test_pole_rejected(self):
        one = TruncatedSeries.one(3)
        z = S(1, order=3)
        with pytest.raises(SingularDivisionError):
            ser.divide(one, z)

    def test_mul_div_roundtrip_random(self):
        # Tail coefficients at the scale of actual class members (sum of
        # magnitudes below 1); larger tails measure conditioning of the
        # quotient recursion rather than correctness.
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = 12
            fc = rng.uniform(-0.5, 0.5, (2, n)) + 1j * rng.uniform(-0.5, 0.5, (2, n))
            fc[:, 0] = 0.5 + rng.uniform(0, 1, 2)  # |leading| >= 0.5
            f = TruncatedSeries.from_taylor(fc[0], order=n + 1)
            g = TruncatedSeries.from_taylor(fc[1], order=n + 1)
            back = ser.divide(ser.multiply(f, g), g)
            worst = max(
                abs(a - b) / max(1.0, abs(a))
                for a, b in zip(f.coeffs, back.coeffs)
            )
            assert worst < 1e-12


class TestEvaluate:
    def test_identity(self):
        assert ser.evaluate(S(1), 0.5) == 0.5

    def test_hand_value(self):
        assert ser.evaluate(S(1, 1), 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_boundary_warns(self):
        f = S(1, -0.25)
        with pytest.warns(TruncationWarning):
            value = ser.evaluate(f, 1.0)
        assert value == pytest.approx(0.75, abs=1e-15)

    def test_truncation_tail_bound(self):
        rng = np.random.default_rng(11)
        C, n_low, n_high, r = 1.0, 12, 32, 0.7
        for _ in range(50):
            full = rng.uniform(-C, C, n_high) + 1j * rng.uniform(-C, C, n_high)
            full = full / np.maximum(1.0, np.abs(full))  # coefficients bounded by C
            low = TruncatedSeries.from_taylor(full[:n_low], order=n_low)
            high = TruncatedSeries.from_taylor(full, order=n_high)
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            gap = abs(ser.evaluate(low, z) - ser.evaluate(high, z))
            assert gap <= C * r ** (n_low + 1) / (1 - r) + 1e-15


class TestScaleArgument:
    def test_unit_scale(self):
        f = S(1, 0.5, -0.25)
        assert ser.scale_argument(f, 1.0) == f
        assert ser.scale_argument(f, 1.0, raw=True) == f

    def test_raw_substitution(self):
        f = S(1, 1)
        assert ser.scale_argument(f, 2.0, raw=True) == S(2, 4)

    def test_monomial_raw(self):
        q = 0.4
        n = 5
        f = TruncatedSeries.from_taylor([0, 0, 0, 0, 1], order=n)
        g = ser.scale_argument(f, 1.0 / q, raw=True)
        assert abs(g.coeffs[n] - q ** (-n)) < 1e-12 * q ** (-n)

    def test_normalized_mode_keeps_normalization(self):
        f = S(1, 0.5, 0.25)
        g = ser.scale_argument(f, 0.3 + 0.1j)
        assert g.is_normalized
        # g(z) = f(cz)/c
        c = 0.3 + 0.1j
        assert abs(ser.evaluate(g, 0.5) - ser.evaluate(f, c * 0.5) / c) < 1e-15


class TestDiskGrid:
    def test_default_grid_shape(self):
        grid = default_disk_grid()
        assert len(grid.radii) == 25
        assert grid.radii[-1] == 0.995
        assert grid.n_angles == 96
        assert max(grid.radii) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 0.4), n_angles=16)
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 1.0), n_angles=16)
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5,), n_angles=4)

    def test_mesh_matches_points(self):
        grid = DiskGrid(radii=(0.25, 0.5), n_angles=8)
        mesh = grid.mesh()
        for i, j, z in grid.points():
            assert abs(mesh[i, j] - z) < 1e-15

    def test_grid_evaluation_matches_scalar(self):
        phases = np.exp(2j * np.pi * np.random.default_rng(7).random(63))
        cases = [
            (S(1, 0.2, -0.3j, 0.05), DiskGrid(radii=(0.3, 0.6), n_angles=8)),
            (S(1, 0.2, -0.3j, 0.05), default_disk_grid()),
            (S(1, *(0.9 ** np.arange(2, 65) * phases)), default_disk_grid()),  # order 64
            (extremal_function(1024, ClassParams(1.0, 0.0, 0.0), order=1024), default_disk_grid()),
            (S(1, 1 / 0.52), default_disk_grid()),  # f(-0.52) = 0 on the grid
        ]
        for f, grid in cases:
            # both evaluations err by a few ulp per term: O(order * eps * sum |a_n| |z|^n)
            vals = ser.evaluate_on_grid(f, grid)
            mags = np.abs(np.array(f.coeffs))
            powers = np.arange(f.order + 1)
            for i, j, z in grid.points():
                tol = 4 * (f.order + 1) * np.finfo(float).eps * float(mags @ abs(z) ** powers)
                assert abs(vals[i, j] - ser.evaluate(f, z)) <= tol, (f.order, z)


class TestJson:
    def test_roundtrip(self, tmp_path):
        f = S(1, 0.5, -0.25j, order=5)
        path = tmp_path / "f.json"
        ser.dump_function(f, path)
        assert ser.load_function(path) == f
        doc = json.loads(path.read_text())
        assert doc["coeffs"][0] == [1.0, 0.0]  # coeffs[0] is a1
        assert doc["order"] == 5
        assert len(doc["coeffs"]) == 5

    def test_derivative_kind_roundtrip(self, tmp_path):
        g = TruncatedSeries((1 + 0j, 1.5 + 0j, 0j))
        path = tmp_path / "g.json"
        ser.dump_function(g, path, kind="derivative")
        assert ser.load_function(path) == g

    def test_rejects_non_finite(self):
        with pytest.raises(SeriesFormatError):
            ser.from_json_dict({"order": 2, "coeffs": [[1.0, 0.0], [math.inf, 0.0]]})

    def test_rejects_length_mismatch(self):
        with pytest.raises(SeriesFormatError):
            ser.from_json_dict({"order": 3, "coeffs": [[1.0, 0.0], [0.5, 0.0]]})

    def test_function_kind_cannot_hold_constant(self):
        g = TruncatedSeries((1 + 0j, 0.5 + 0j))
        with pytest.raises(SeriesFormatError):
            ser.to_json_dict(g, kind="function")
