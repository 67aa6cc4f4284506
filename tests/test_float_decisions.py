"""Sums that only decide a sign are first decided in floats: the results stay bit for bit.

convex_weight_rows and the two seeded ledger oracles settle most rows from
float sums with a proven error bound and fall back to their correctly
rounded code otherwise (notes/decisions.md, "Sums that only decide a
sign").  Each is compared here with its pre-filter definition in
tests/reference.py, and each fallback is driven at least once.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qstarlike import classes, verify
from qstarlike.classes import budget_rows, convex_weight_rows, extremal_function, threshold_denominator
from qstarlike.conic import ClassParams, ConicCoefficients
from qstarlike.verify import default_parameter_points, run_ledger


def _outcome(fn, *args):
    """fn(*args) as ("value", repr) or (exception type, message), comparable across versions."""
    try:
        got = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return "value", repr(got.tolist() if isinstance(got, np.ndarray) else got)


def _spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call as [args, result]."""
    real = getattr(module, name)
    calls = []

    def spy(*args):
        calls.append([args, None])  # recorded before the call, which may raise
        calls[-1][1] = real(*args)
        return calls[-1][1]

    monkeypatch.setattr(module, name, spy)
    return calls


def _with_reference_oracles(monkeypatch):
    monkeypatch.setattr(verify, "_roundtrip_oracle", reference._roundtrip_oracle)
    monkeypatch.setattr(verify, "_sufficiency_oracle", reference._sufficiency_oracle)


class TestWeightRowFilter:
    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_row_on_the_tolerance_edge_takes_fsum(self, monkeypatch, ulps):
        # a row summing to 1 + 1e-12 within a few ulps is too close to call in
        # floats: the correctly rounded rule decides it, and as before
        last = 0.5 + 1e-12
        for _ in range(abs(ulps)):
            last = math.nextafter(last, math.copysign(math.inf, ulps))
        rows = np.array([[0.25, 0.75], [0.5, last]])
        seen = _spy(monkeypatch, classes, "_refuse_off_sums")
        assert _outcome(convex_weight_rows, rows) == _outcome(reference.convex_weight_rows, rows)
        assert seen[0][0][0] == [[0.5, last]]

    def test_clear_rows_skip_fsum(self, monkeypatch):
        raw = np.random.default_rng(5).random((64, 12))
        lams = raw / raw.sum(axis=1, keepdims=True)
        seen = _spy(monkeypatch, classes, "_refuse_off_sums")
        assert np.array_equal(convex_weight_rows(lams), reference.convex_weight_rows(lams))
        assert seen[0][0][0] == []

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(1, 64),  # weights in the row
                st.integers(0, 2**32 - 1),  # seed of their raw shares
                st.one_of(  # offset of the row sum from 1
                    st.sampled_from([0.0, 1e-12, -1e-12]),
                    st.floats(-3e-12, 3e-12),
                ),
                st.integers(-4, 4),  # ulps added to the offset entry
                st.one_of(  # an odd entry, or none
                    st.none(),
                    st.sampled_from([math.nan, math.inf, -math.inf, -1e-12, -2e-12, 1e308]),
                ),
            ),
            min_size=1, max_size=3,
        ),
    )
    def test_same_rows_or_same_refusal_as_fsum(self, rows):
        width = max(r[0] for r in rows)
        out = np.zeros((len(rows), width))
        for i, (n, seed, offset, ulps, odd) in enumerate(rows):
            rng = np.random.default_rng(seed)
            share = rng.random(n)
            row = share / share.sum()
            j = int(rng.integers(n))
            value = float(row[j] + offset)
            for _ in range(abs(ulps)):
                value = math.nextafter(value, math.copysign(math.inf, ulps))
            row[j] = value
            if odd is not None:
                row[int(rng.integers(n))] = odd
            out[i, :n] = row
        assert _outcome(convex_weight_rows, out) == _outcome(reference.convex_weight_rows, out)


class _FixedDraw:
    """A stand-in generator whose random(shape) returns one fixed block."""

    def __init__(self, block):
        self.block = block

    def random(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


class TestSufficiencyFilter:
    @pytest.mark.parametrize("p", default_parameter_points())
    def test_full_budget_member_takes_fsum(self, monkeypatch, p):
        # raw magnitudes (1, 0, ..., 0) and the whole budget: every member is
        # f_2 = z - (1 - alpha)/phi_2 z^2, whose z -> 1 margin is 0 by sharpness,
        # so the floats cannot clear it
        draw = np.zeros((verify.SUFFICIENCY_MEMBERS, verify.DEFAULT_ORDER))
        draw[:, 0] = draw[:, -1] = 1.0
        a = classes.random_certified_rows(p, _FixedDraw(draw), verify.SUFFICIENCY_MEMBERS,
                                          verify.DEFAULT_ORDER)
        assert a[0, 0] == (1.0 - p.alpha) / threshold_denominator(2, p)
        seen = _spy(monkeypatch, verify, "_cleared_at_one")
        got = verify._sufficiency_oracle(p, _FixedDraw(draw))
        assert [result for _, result in seen] == [False]
        assert repr(got) == repr(reference._sufficiency_oracle(p, _FixedDraw(draw)))

    def test_default_draws_are_cleared_in_floats(self, monkeypatch):
        seen = _spy(monkeypatch, verify, "_cleared_at_one")
        for index, p in enumerate(default_parameter_points()):
            _, child = np.random.SeedSequence([20260808, index]).spawn(2)
            assert verify._sufficiency_oracle(p, np.random.default_rng(child)) == 0.0
        assert [result for _, result in seen] == [True] * 12


class TestSameBitsAsReference:
    def test_default_points_fifty_seeds(self):
        for seed in range(50):
            for index, p in enumerate(default_parameter_points()):
                children = np.random.SeedSequence([seed, index]).spawn(2)
                for name, child in zip(("_roundtrip_oracle", "_sufficiency_oracle"), children):
                    got = _outcome(getattr(verify, name), p, np.random.default_rng(child))
                    want = _outcome(getattr(reference, name), p, np.random.default_rng(child))
                    assert got == want, (name, seed, p)

    def test_default_ledger_bytes(self, monkeypatch):
        points = default_parameter_points()
        got = run_ledger(points)
        _with_reference_oracles(monkeypatch)
        want = run_ledger(points)
        assert got.json_text() == want.json_text()
        assert got.csv_text() == want.csv_text()

    def test_random_points_with_user_coefficients(self, monkeypatch):
        rng = np.random.default_rng(30)
        # about a third of the points at the built-in k = 0 or 1, the rest on user coefficients
        ks = np.where(rng.random(200) < 0.3, rng.choice([0.0, 1.0], 200), rng.uniform(0.0, 3.0, 200))
        points = [ClassParams(q, k, alpha) for q, k, alpha in
                  zip(rng.uniform(0.05, 1.0, 200), ks, rng.uniform(0.0, 0.95, 200))]
        P = ConicCoefficients(*rng.uniform(0.2, 3.0, 3))
        got = run_ledger(points, user_conic=P, rng_seed=7).json_text()
        _with_reference_oracles(monkeypatch)
        assert got == run_ledger(points, user_conic=P, rng_seed=7).json_text()


class TestBudgetClaimAtItsOwnOrder:
    """t-class-budget-sharpness reads f_2 at order 2; at DEFAULT_ORDER the further terms are zeros."""

    def test_same_bits_as_default_order(self):
        claim = next(c for c in verify.CLAIMS if c.name == "t-class-budget-sharpness")
        rng = np.random.default_rng(30)
        points = [*default_parameter_points()] + [
            ClassParams(q, k, alpha) for q, k, alpha in
            zip(rng.uniform(0.05, 1.0, 50), rng.uniform(0.0, 3.0, 50), rng.uniform(0.0, 0.95, 50))]
        for p in points:
            full = extremal_function(2, p).coeffs[2:]
            want = budget_rows([list(map(abs, full))], p)[0]
            assert repr(claim.oracle(SimpleNamespace(p=p))) == repr(want), p
