import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qstarlike import series as ser
from qstarlike.classes import extremal_function
from qstarlike.conic import ClassParams
from qstarlike.series import (
    GRID_ANGLES,
    GRID_RADII,
    OrderMismatchError,
    SeriesFormatError,
    SingularDivisionError,
    TruncatedSeries,
    grid_point,
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


# The series algebra below lives in tests/reference.py, where the operator
# identities and grid checks use it as an independent reference; these
# classes pin its hand values and algebraic laws.


class TestAdd:
    def test_cancellation(self):
        assert reference.add(S(1, 1), S(1, -1)) == S(2, 0)

    def test_zero_identity(self):
        f = S(1, 0.25, -0.5)
        assert reference.add(f, TruncatedSeries((0j,) * (f.order + 1))) == f

    def test_hand_sum(self):
        assert reference.add(S(1, 0.5), S(1, 0.25)) == S(2, 0.75)

    @given(taylors, taylors, taylors)
    def test_reassociation(self, a, b, c):
        n = max(len(a), len(b), len(c))
        f, g, h = (TruncatedSeries.from_taylor(t, order=n + 1) for t in (a, b, c))
        left = reference.add(reference.add(f, g), h)
        right = reference.add(f, reference.add(g, h))
        assert max_diff(left, right) <= 1e-15 * max(1.0, max(abs(c) for c in left.coeffs))


class TestMultiply:
    def test_monomials_truncate(self):
        z = S(1, order=1)
        assert reference.multiply(z, z) == TruncatedSeries((0j, 0j))  # z^2 truncated away
        z2 = S(1, order=2)
        assert reference.multiply(z2, z2) == TruncatedSeries((0j, 0j, 1 + 0j))

    def test_hand_product(self):
        f = S(1, 1, order=4)
        g = S(1, -1, order=4)
        assert reference.multiply(f, g) == TruncatedSeries((0j, 0j, 1 + 0j, 0j, -1 + 0j))

    def test_one_identity(self):
        f = S(1, 0.3, -0.7, 0.1)
        assert reference.multiply(f, TruncatedSeries((1 + 0j,) + (0j,) * f.order)) == f

    @given(taylors, taylors)
    def test_commutative_exact(self, a, b):
        n = max(len(a), len(b))
        f = TruncatedSeries.from_taylor(a, order=n + 1)
        g = TruncatedSeries.from_taylor(b, order=n + 1)
        assert reference.multiply(f, g) == reference.multiply(g, f)

    @given(taylors, taylors, taylors)
    @settings(max_examples=60)
    def test_distributes_over_add(self, a, b, c):
        n = max(len(a), len(b), len(c))
        f, g, h = (TruncatedSeries.from_taylor(t, order=n + 1) for t in (a, b, c))
        left = reference.multiply(f, reference.add(g, h))
        right = reference.add(reference.multiply(f, g), reference.multiply(f, h))
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
            ser.divide(S(1, 1), TruncatedSeries((0j, 0j, 0j)))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            ser.divide(S(1, 1), S(1, 1, order=5))

    def test_pole_rejected(self):
        one = TruncatedSeries((1 + 0j, 0j, 0j, 0j))
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
            back = ser.divide(reference.multiply(f, g), g)
            worst = max(
                abs(a - b) / max(1.0, abs(a))
                for a, b in zip(f.coeffs, back.coeffs)
            )
            assert worst < 1e-12


class TestEvaluate:
    def test_identity(self):
        assert reference.evaluate(S(1), 0.5) == 0.5

    def test_hand_value(self):
        assert reference.evaluate(S(1, 1), 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_truncation_tail_bound(self):
        rng = np.random.default_rng(11)
        C, n_low, n_high, r = 1.0, 12, 32, 0.7
        for _ in range(50):
            full = rng.uniform(-C, C, n_high) + 1j * rng.uniform(-C, C, n_high)
            full = full / np.maximum(1.0, np.abs(full))  # coefficients bounded by C
            low = TruncatedSeries.from_taylor(full[:n_low], order=n_low)
            high = TruncatedSeries.from_taylor(full, order=n_high)
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            gap = abs(reference.evaluate(low, z) - reference.evaluate(high, z))
            assert gap <= C * r ** (n_low + 1) / (1 - r) + 1e-15


class TestScaleArgument:
    def test_unit_scale(self):
        f = S(1, 0.5, -0.25)
        assert reference.scaled(f, 1.0) == f

    def test_raw_substitution(self):
        f = S(1, 1)
        assert reference.scaled(f, 2.0) == S(2, 4)

    def test_monomial_raw(self):
        q = 0.4
        n = 5
        f = TruncatedSeries.from_taylor([0, 0, 0, 0, 1], order=n)
        g = reference.scaled(f, 1.0 / q)
        assert abs(g.coeffs[n] - q ** (-n)) < 1e-12 * q ** (-n)


class TestScanGrid:
    def test_default_grid_shape(self):
        assert len(GRID_RADII) == 25
        assert GRID_RADII[-1] == 0.995
        assert GRID_ANGLES == 96
        assert all(0.0 < a < b < 1.0 for a, b in zip(GRID_RADII, GRID_RADII[1:]))

    def test_mesh_matches_points(self):
        # grid_point(i, j) has the bits of the whole-mesh product r_i e^(i t_j),
        # with e^(i t_j) one exp up to t = pi (exactly -1 there) and the exact
        # conjugate of e^(i t_(96 - j)) beyond
        half = GRID_ANGLES // 2
        roots = np.exp(1j * (2.0 * np.pi * np.arange(half + 1) / GRID_ANGLES))
        roots[half] = -1.0
        roots = np.concatenate((roots, roots[half - 1:0:-1].conj()))
        mesh = np.asarray(GRID_RADII)[:, None] * roots[None, :]
        points = np.array([[grid_point(i, j) for j in range(GRID_ANGLES)]
                           for i in range(len(GRID_RADII))])
        assert np.array_equal(points.view(np.uint64), mesh.view(np.uint64))
        # column 96 - j is the conjugate of column j, bit for bit (j = 1 .. 47)
        mirrored = np.ascontiguousarray(points[:, :half:-1])
        conjugates = np.ascontiguousarray(points[:, 1:half].conj())
        assert np.array_equal(mirrored.view(np.uint64), conjugates.view(np.uint64))
        assert (points[:, half].imag == 0.0).all()
        for (i, j), z in np.ndenumerate(points):
            assert abs(z - GRID_RADII[i] * cmath.exp(2j * math.pi * j / GRID_ANGLES)) < 1e-15

    def test_grid_evaluation_matches_scalar(self):
        phases = np.exp(2j * np.pi * np.random.default_rng(7).random(63))
        cases = [
            S(1, 0.2, -0.3j, 0.05),
            S(1, *(0.9 ** np.arange(2, 65) * phases)),  # order 64
            extremal_function(1024, ClassParams(1.0, 0.0, 0.0), order=1024),
            S(1, 1 / 0.52),  # f(-0.52) = 0 on the grid
        ]
        for f in cases:
            # both evaluations err by a few ulp per term: O(order * eps * sum |a_n| |z|^n)
            vals = ser.evaluate_on_grid(f)
            mags = np.abs(np.array(f.coeffs))
            powers = np.arange(f.order + 1)
            for (i, j), value in np.ndenumerate(vals):
                z = grid_point(i, j)
                tol = 4 * (f.order + 1) * np.finfo(float).eps * float(mags @ abs(z) ** powers)
                assert abs(value - reference.evaluate(f, z)) <= tol, (f.order, z)


class TestJson:
    def test_roundtrip(self, tmp_path):
        f = S(1, 0.5, -0.25j, order=5)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(ser.to_json_dict(f)))
        doc = json.loads(path.read_text())
        assert ser.from_json_dict(doc) == f
        assert doc["coeffs"][0] == [1.0, 0.0]  # coeffs[0] is a1
        assert doc["order"] == 5
        assert len(doc["coeffs"]) == 5

    def test_derivative_kind_is_refused(self):
        # deriv still writes derivative files, but no reader accepts a constant term
        g = TruncatedSeries((1 + 0j, 1.5 + 0j, 0j))
        doc = json.loads(json.dumps(ser.to_json_dict(g, kind="derivative")))
        assert doc["kind"] == "derivative" and doc["coeffs"][0] == [1.0, 0.0]
        with pytest.raises(SeriesFormatError, match="only function files can be read, not kind 'derivative'"):
            ser.from_json_dict(doc)

    def test_deep_nesting_is_a_format_error(self, tmp_path):
        # function files are read by the CLI's one JSON reader, which names the flag
        from qstarlike.cli import CliError, _read_json

        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(CliError, match="--in file .* is unreadable"):
            _read_json(str(path), "in", ser.from_json_dict)

    @pytest.mark.parametrize("value, message", [
        (True, "must be a JSON number"),
        ("0.5", "must be a JSON number"),
        ([1.0], "must be a JSON number"),
        (math.inf, "must be finite"),
        (math.nan, "must be finite"),
        (10**400, "is an integer too large for a double"),
    ], ids=["bool", "string", "list", "inf", "nan", "huge-int"])
    def test_json_real_refuses(self, value, message):
        with pytest.raises(SeriesFormatError, match=f"^entry 3 {message}"):
            ser.json_real(value, "entry 3")

    def test_json_real_accepts_ints_and_floats(self):
        two = ser.json_real(2, "x")
        assert two == 2.0 and type(two) is float
        assert ser.json_real(-0.25, "x") == -0.25
        assert ser.json_real(2**1023, "x") == 2.0**1023

    def test_rejects_non_finite(self):
        with pytest.raises(SeriesFormatError):
            ser.from_json_dict({"order": 2, "coeffs": [[1.0, 0.0], [math.inf, 0.0]]})

    def test_rejects_length_mismatch(self):
        with pytest.raises(SeriesFormatError):
            ser.from_json_dict({"order": 3, "coeffs": [[1.0, 0.0], [0.5, 0.0]]})

    def test_count_is_checked_before_any_entry(self):
        # the entries are not even well formed: the count refuses the file first
        with pytest.raises(SeriesFormatError, match="must carry exactly 2 coefficients"):
            ser.from_json_dict({"order": 2, "coeffs": ["x"] * 5})

    def test_function_kind_cannot_hold_constant(self):
        g = TruncatedSeries((1 + 0j, 0.5 + 0j))
        with pytest.raises(SeriesFormatError):
            ser.to_json_dict(g, kind="function")
