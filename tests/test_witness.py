"""Each H2 and Fekete-Szego maximum is attained by a function written down from its argmax.

Every H2 argmax has |x| = 1 and every Fekete-Szego argmax has B1 in
{0, 2}.  For such an argmax (B1, x, zeta), gamma = B1 / 2 and the Schwarz
function

    w(z) = z (gamma + x z) / (1 + gamma x z)

give p = (1 + w) / (1 - w) = 1 + B1 z + B2 z^2 + B3 z^3 + ..., with B2 and
B3 the Caratheodory parametrization of that (B1, x): zeta drops out at
|x| = 1, and a2, a3 read no B3.  B1 = 2 gives w = z and B1 = 0 gives
w = x z^2.  The member f with
z D~_q f / f = h = 1 + P1 w + P2 w^2 + P3 w^3 + ... then has

    ([n]~_q - 1) a_n = sum_{j < n} h_{n-j} a_j,    a_1 = 1,

and its |a2 a4 - a3^2| or |a3 - mu a2^2| must be the oracle's value.  The
coefficients come from plain series products here, not from
schwarz_to_coefficients or caratheodory_b2_b3, so a slip in the oracles'
closed forms cannot cancel out.
"""

import numpy as np
import pytest

from qstarlike.conic import ConicCoefficients, conic_coefficients
from qstarlike.hankel import fekete_szego_breakpoint
from qstarlike.qcalc import symmetric_q_number
from qstarlike.verify import default_parameter_points, oracle_fs_rows, oracle_h2_max

REL_TOL = 1e-14
# z^0 .. z^3: a2, a3 and a4 read h_1, h_2 and h_3 only
TERMS = 4


def _product(s, t):
    return [sum(s[i] * t[n - i] for i in range(n + 1)) for n in range(TERMS)]


def _schwarz(b1, x):
    """z (gamma + x z) / (1 + gamma x z), gamma = b1 / 2, to z^3."""
    gamma = b1 / 2.0
    return _product([0.0, gamma, x, 0.0], [(-gamma * x) ** m for m in range(TERMS)])


def _witness(P, q, argmax):
    """(a2, a3, a4) of the member subordinated through the argmax's Schwarz function."""
    w = _schwarz(argmax.B1, argmax.x)
    w2 = _product(w, w)
    w3 = _product(w2, w)
    h = [(n == 0) + P.P1 * w[n] + P.P2 * w2[n] + P.P3 * w3[n] for n in range(TERMS)]
    a = [0.0, 1.0]
    for n in (2, 3, 4):
        a.append(sum(h[n - j] * a[j] for j in range(1, n)) / (symmetric_q_number(n, q) - 1.0))
    return a[2], a[3], a[4]


def _mus(q):
    return (0.0, 0.5, 1.0, fekete_szego_breakpoint(q), 2.0, 0.3 + 0.4j)


def _worst_errors(P, q):
    """Largest relative gap between a witness's functional and its oracle value: (H2, FS)."""
    h2 = oracle_h2_max(P, q)
    a2, a3, a4 = _witness(P, q, h2.argmax)
    h2_error = abs(abs(a2 * a4 - a3 * a3) - h2.value) / h2.value
    fs_error, mus = 0.0, _mus(q)
    for mu, fs in zip(mus, oracle_fs_rows(mus, P, q)):
        a2, a3, _ = _witness(P, q, fs.argmax)
        fs_error = max(fs_error, abs(abs(a3 - mu * a2 * a2) - fs.value) / fs.value)
    return h2_error, fs_error


def _random_points(kind, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = float(rng.uniform(0.01, 1.0))
        if kind == "builtin":
            P = conic_coefficients(float(rng.choice([0.0, 1.0])), float(rng.uniform(0.0, 0.99)))
        else:
            P = ConicCoefficients(*(float(v) for v in rng.uniform([0.05, 0.0, 0.0], 4.0)))
        yield P, q


@pytest.mark.parametrize("p", default_parameter_points())
def test_default_point(p):
    h2_error, fs_error = _worst_errors(conic_coefficients(p.k, p.alpha), p.q)
    assert h2_error <= REL_TOL and fs_error <= REL_TOL


@pytest.mark.parametrize("kind, seed", [("builtin", 31), ("user", 32)])
def test_random_points(kind, seed):
    cases = [(max(_worst_errors(P, q)), P, q) for P, q in _random_points(kind, 120, seed)]
    error, P, q = max(cases, key=lambda case: case[0])
    assert error <= REL_TOL, (P, q)
