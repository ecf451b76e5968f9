"""Tests for curve arithmetic, periods, and elliptic dilogarithms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ellreg.elliptic import (
    CURVE_11A,
    CURVE_17A,
    CurveModel,
    PeriodLattice,
    TorsionCoordinate,
    a_p,
    an_coefficients,
    elliptic_dilog,
    periods,
    torsion_coordinate,
)
import ellreg.elliptic as elliptic
from ellreg.elliptic import _weierstrass_pair
from ellreg.special import TruncationError

from reference_routes import dilog_kronecker_oracle, j_invariant

CURVE_X3_MINUS_X = CurveModel(0, 0, 0, -1, 0, 32)
CURVE_X3_PLUS_1 = CurveModel(0, 0, 0, 0, 1, 36)

# D_E(P) for the five-torsion point P = (0, 0) on 11a, to 20 digits of
# test_reference's 30-digit mpmath route (mpmath periods, and D summed
# from mpmath.polylog over C*/q^Z).
D11A_AT_P = 0.19119373708433168526


def brute_force_ap(curve, p):
    count = 1
    for x in range(p):
        for y in range(p):
            lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
            if lhs == curve.rhs(x) % p:
                count += 1
    return p + 1 - count


def test_invariants_11a():
    assert CURVE_11A.discriminant == -11
    assert CURVE_11A.c_invariants == (16, -152)
    assert j_invariant(CURVE_11A) == Fraction(-4096, 11)


def test_invariants_17a():
    assert CURVE_17A.discriminant == -(17**4)


def test_ap_against_brute_force():
    for curve in (CURVE_11A, CURVE_17A, CURVE_X3_MINUS_X):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert a_p(curve, p) == brute_force_ap(curve, p), (curve, p)


# Cremona's 11a, 17a and the prime-conductor models 19a .. 101a, as
# a1, a2, a3, a4, a6, N; each discriminant is +-N^k.
SWEEP_MODELS = [
    (0, -1, 1, 0, 0, 11), (1, -1, 1, -1, -14, 17), (0, 1, 1, -9, -15, 19),
    (0, 0, 1, -1, 0, 37), (0, 1, 1, 0, 0, 43), (1, -1, 1, 0, 0, 53),
    (1, 0, 0, -2, 1, 61), (0, 1, 1, -12, -21, 67), (1, -1, 0, 4, -3, 73),
    (1, 1, 1, -2, 0, 79), (1, 1, 1, 1, 0, 83), (1, 1, 1, -1, 0, 89),
    (0, 1, 1, -1, -1, 101),
]


def point_count_ap(curve, p):
    """p + 1 - #X(F_p) by counting y-solutions of the completed square
    (2y + a1 x + a3)^2 = 4 rhs(x) at each x, from a square table."""
    if p == 2:
        return brute_force_ap(curve, 2)
    is_sq = np.zeros(p, dtype=bool)
    half = np.arange((p + 1) // 2, dtype=np.int64)
    is_sq[(half * half) % p] = True
    x = np.arange(p, dtype=np.int64)
    rhs = (x * x * x % p + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
    dq = ((curve.a1 * x + curve.a3) ** 2 + 4 * rhs) % p
    count = 1 + int(np.sum(np.where(dq == 0, 1, np.where(is_sq[dq], 2, 0))))
    return p + 1 - count


def test_ap_stays_exact_where_the_cubic_passes_int64():
    # At p = 1,500,007, 4 x^3 passes 2^63 for the largest x: a cubic
    # formed in int64 before its reduction wraps (a_p read -1080 there).
    # The reference sums the Legendre symbols in Python integers.
    p = 1_500_007
    b2, b4, b6 = CURVE_11A.b_invariants[:3]
    is_square = bytearray(p)
    for y in range(1, (p + 1) // 2):
        is_square[y * y % p] = 1
    values = [(((4 * x + b2) * x + 2 * b4) * x + b6) % p for x in range(p)]
    want = values.count(0) - p + 2 * sum(is_square[v] for v in values)
    assert abs(want) <= 2 * math.sqrt(p)
    assert a_p(CURVE_11A, p) == -want == -1532


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: "%da" % m[-1])
def test_ap_legendre_sum_matches_point_count(model):
    curve = CurveModel(*model)
    sieve = np.ones(4001, dtype=bool)
    sieve[:2] = False
    for d in range(2, 64):
        sieve[d * d::d] = False
    primes = np.flatnonzero(sieve).tolist()
    assert len(primes) == 550 and curve.conductor in primes
    for p in primes:
        assert a_p(curve, p) == point_count_ap(curve, p), p


def test_ap_known_row_11a():
    assert [a_p(CURVE_11A, p) for p in (2, 3, 5, 7, 11, 13)] == [-2, -1, 1, -2, 1, 4]


def test_hasse_bound():
    for curve in (CURVE_11A, CURVE_17A):
        for p in range(2, 500):
            if any(p % d == 0 for d in range(2, p)):
                continue
            ap = a_p(curve, p)
            if curve.conductor % p == 0:
                assert abs(ap) <= 1
            else:
                assert ap * ap <= 4 * p


def test_an_multiplicative_and_recursive():
    a = an_coefficients(CURVE_11A, 400)
    assert a[1] == 1
    assert a[6] == a[2] * a[3]
    assert a[4] == a[2] ** 2 - 2
    assert a[9] == a[3] ** 2 - 3
    assert a[121] == a[11] ** 2  # conductor prime: no -p term
    assert a[15] == a[3] * a[5]
    assert a[8] == a[2] * a[4] - 2 * a[2]


def test_an_ramanujan_size():
    a = an_coefficients(CURVE_11A, 3000)
    for n in range(1, 3001):
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert abs(a[n]) <= divisors * math.sqrt(n) + 1e-9


def direct_real_period(lat):
    """2 * integral_{e1}^inf dX / sqrt(4X^3 - g2 X - g3) by substitution."""
    roots = np.roots([4.0, 0.0, -lat.g2, -lat.g3])
    reals = [r.real for r in roots if abs(r.imag) < 1e-9]
    e1 = max(reals)
    nodes, wts = np.polynomial.legendre.leggauss(400)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * wts
    s = t / (1.0 - t)
    ds = 1.0 / (1.0 - t) ** 2
    X = e1 + s * s
    P = 4.0 * X**3 - lat.g2 * X - lat.g3
    return 2.0 * float(np.sum(w * 2.0 * ds / np.sqrt(P / (X - e1))))


@pytest.mark.parametrize(
    "curve",
    [CURVE_11A, CURVE_17A, CURVE_X3_MINUS_X, CURVE_X3_PLUS_1],
    ids=["11a", "17a", "x3-x", "x3+1"],
)
def test_real_period_against_direct_integral(curve):
    lat = periods(curve)
    omega = direct_real_period(lat)
    assert abs(omega - lat.omega1) < 1e-8 * lat.omega1
    assert (lat.q > 0) == (curve.discriminant > 0)
    assert lat.tau.imag > 0
    assert abs(lat.q) < 1


@pytest.mark.parametrize(
    "curve",
    [CURVE_11A, CURVE_17A, CURVE_X3_MINUS_X, CURVE_X3_PLUS_1],
    ids=["11a", "17a", "x3-x", "x3+1"],
)
def test_j_invariant_dual_route(curve):
    """q-expansion route j = E4^3 / eta^24 vs the algebraic c4^3 / disc."""
    lat = periods(curve)
    q = lat.q
    n = np.arange(1, 200)
    sigma3 = np.array(
        [sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in n], float
    )
    e4 = 1.0 + 240.0 * float(np.sum(sigma3 * q**n))
    eta24 = q * float(np.prod((1.0 - q**n) ** 24))
    j_q = e4**3 / eta24
    j_alg = float(j_invariant(curve))
    if j_alg == 0.0:
        assert abs(j_q) < 1e-6
    else:
        assert abs(j_q - j_alg) < 1e-9 * abs(j_alg)


@pytest.mark.parametrize("curve", [CURVE_11A, CURVE_X3_MINUS_X], ids=["11a", "x3-x"])
def test_weierstrass_differential_equation(curve):
    lat = periods(curve)
    rng = np.random.default_rng(7)
    for _ in range(30):
        al, be = rng.uniform(0.05, 0.95, 2)
        p, dp = _weierstrass_pair(lat, al, be)
        lhs = dp * dp
        rhs = 4.0 * p**3 - lat.g2 * p - lat.g3
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_torsion_match_11a_five_torsion():
    lattice = periods(CURVE_11A)
    P = torsion_coordinate(CURVE_11A, lattice, (0, 0), 5)
    assert (P.a, P.b) == (3, 0)
    minus = torsion_coordinate(CURVE_11A, lattice, (0, -1), 5)
    assert minus == P.scale(-1)
    double = torsion_coordinate(CURVE_11A, lattice, (1, -1), 5)
    assert double == P.scale(2)
    assert P.scale(5) == TorsionCoordinate(5, 0, 0) != P


def test_torsion_match_two_torsion():
    T = torsion_coordinate(CURVE_X3_MINUS_X, periods(CURVE_X3_MINUS_X),
                           (0, 0), 2)
    assert T.scale(2) == TorsionCoordinate(2, 0, 0) != T


def test_torsion_no_match_raises():
    with pytest.raises(ValueError):
        # not a torsion point
        torsion_coordinate(CURVE_11A, periods(CURVE_11A), (5, 7), 5)


def test_torsion_coordinate_arithmetic():
    t = TorsionCoordinate(5, 3, 0)
    assert t.scale(2) == TorsionCoordinate(5, 1, 0)
    assert t.scale(-1).scale(2) == t.scale(-2) == TorsionCoordinate(5, 4, 0)
    with pytest.raises(ValueError):
        TorsionCoordinate(0, 1, 1)


def test_elliptic_dilog_frozen_value_and_doubling():
    lat = periods(CURVE_11A)
    P = torsion_coordinate(CURVE_11A, lat, (0, 0), 5)
    d1 = elliptic_dilog(lat, P)
    d2 = elliptic_dilog(lat, P.scale(2))
    assert abs(d1 - D11A_AT_P) < 5e-16
    assert abs(d2 - 1.5 * d1) < 5e-16
    assert abs(elliptic_dilog(lat, P.scale(4)) + d1) < 2e-16
    assert abs(elliptic_dilog(lat, P.scale(3)) + d2) < 2e-16


def test_elliptic_dilog_odd():
    lat = periods(CURVE_11A)
    rng = np.random.default_rng(11)
    for _ in range(10):
        al, be = rng.uniform(0.05, 0.95, 2)
        d = elliptic_dilog(lat, (al, be))
        dm = elliptic_dilog(lat, (-al, -be))
        assert abs(d + dm) < 1e-11


def test_elliptic_dilog_vanishes_at_two_torsion():
    lat = periods(CURVE_11A)
    for cls in [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]:
        assert abs(elliptic_dilog(lat, cls)) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_distribution_relation(n):
    lat = periods(CURVE_11A)
    rng = np.random.default_rng(n)
    for _ in range(8):
        al, be = rng.uniform(0.05, 0.95, 2)
        lhs = elliptic_dilog(lat, (n * al, n * be))
        rhs = sum(
            elliptic_dilog(lat, (al + j / n, be + k / n))
            for j in range(n)
            for k in range(n)
        )
        assert abs(lhs - n * rhs) < 1e-10


def test_kronecker_oracle_agreement():
    lat = periods(CURVE_11A)
    P = torsion_coordinate(CURVE_11A, lat, (0, 0), 5)
    direct = elliptic_dilog(lat, P)
    assert abs(dilog_kronecker_oracle(lat, P, 500) - direct) < 1e-5
    rng = np.random.default_rng(23)
    for _ in range(3):
        al, be = rng.uniform(0.1, 0.9, 2)
        d = elliptic_dilog(lat, (al, be))
        assert abs(dilog_kronecker_oracle(lat, (al, be), 300) - d) < 1e-4


def test_kronecker_oracle_rejects_small_radius():
    lat = periods(CURVE_11A)
    with pytest.raises(ValueError):
        dilog_kronecker_oracle(lat, (0.3, 0.2), 10)


def test_elliptic_dilog_consistent_with_direct_l_value():
    """(10/11) pi D_E(P) should reproduce sum a_n / n^2 for the level-11 curve."""
    lat = periods(CURVE_11A)
    P = torsion_coordinate(CURVE_11A, lat, (0, 0), 5)
    a = np.array(an_coefficients(CURVE_11A, 20000), dtype=float)
    n = np.arange(len(a), dtype=float)
    n[0] = 1.0
    l2 = float(np.sum(a[1:] / n[1:] ** 2))
    assert abs((10.0 / 11.0) * math.pi * elliptic_dilog(lat, P) - l2) < 5e-5


def test_elliptic_dilog_term_cap(monkeypatch):
    lat = periods(CURVE_11A)
    monkeypatch.setattr(elliptic, "MAX_TERMS", 5)
    with pytest.raises(TruncationError):
        elliptic_dilog(lat, (0.3, 0.2))


def test_class_parameter_type_error():
    lat = periods(CURVE_11A)
    with pytest.raises(TypeError):
        elliptic_dilog(lat, "nonsense")


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        periods(CurveModel(0, 0, 0, 0, 0, 1))
