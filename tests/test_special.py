import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellreg.lseries import _term_count, _weights
from ellreg.special import (
    TruncationError,
    _leggauss,
    bloch_wigner,
    dilog,
    exp_integral_e1,
    gauss_legendre_nodes,
    periodic_bernoulli2,
)

import reference_routes
from reference_routes import dedekind_eta, siegel_theta

CATALAN = 0.9159655941772190


def clausen2(theta, terms=2_000_000):
    # Brute-force oracle: D(e^{i theta}) = sum_{n>=1} sin(n theta) / n^2.
    n = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(np.sin(n * theta) / (n * n)))


def test_dilog_at_minus_one():
    assert abs(dilog(-1.0) + math.pi**2 / 12.0) < 1e-14


def test_dilog_at_one_half():
    # Landen closed form: Li2(1/2) = pi^2/12 - log(2)^2 / 2.
    expected = math.pi**2 / 12.0 - 0.5 * math.log(2.0) ** 2
    assert abs(dilog(0.5) - expected) < 1e-14


def test_dilog_matches_raw_series_inside_disc():
    rng = random.Random(7)
    for _ in range(40):
        r = 0.85 * math.sqrt(rng.random())
        t = 2.0 * math.pi * rng.random()
        z = r * cmath.exp(1j * t)
        direct = sum(z**n / n**2 for n in range(1, 4000))
        assert abs(dilog(z) - direct) < 1e-12


def test_dilog_inversion_region_against_series():
    # Li2(z) for large z against the inversion formula evaluated manually.
    for z in [3.7 + 2.2j, -5.0 + 0.3j, 10.0 - 4.0j]:
        inv = sum((1.0 / z) ** n / n**2 for n in range(1, 200))
        lg = cmath.log(-z)
        expected = -inv - math.pi**2 / 6.0 - 0.5 * lg * lg
        assert abs(dilog(z) - expected) < 1e-13


def test_dilog_principal_branch_across_cut():
    # The cut sits on [1, oo); approaching from above and below must give
    # conjugate values with nonzero imaginary part.
    up = dilog(2.0 + 1e-12j)
    down = dilog(2.0 - 1e-12j)
    assert up.imag > 1.0
    assert abs(up - down.conjugate()) < 1e-9


def test_bloch_wigner_catalan():
    assert abs(bloch_wigner(1j) - CATALAN) < 1e-13
    assert abs(bloch_wigner(1j) - clausen2(math.pi / 2.0)) < 1e-6


def test_bloch_wigner_unit_circle_matches_clausen():
    for theta in [0.4, 1.1, 2.8]:
        z = cmath.exp(1j * theta)
        assert abs(bloch_wigner(z) - clausen2(theta)) < 5e-7


def test_bloch_wigner_vanishes_on_reals_and_antisymmetry():
    rng = random.Random(2024)
    for _ in range(1000):
        x = math.tan(math.pi * (rng.random() - 0.5)) * 3.0
        assert abs(bloch_wigner(x)) < 1e-13
        z = complex(4.0 * (rng.random() - 0.5), 4.0 * (rng.random() - 0.5))
        if z.imag == 0 or z in (0, 1):
            continue
        assert abs(bloch_wigner(z.conjugate()) + bloch_wigner(z)) < 1e-13


def test_bloch_wigner_inversion():
    rng = random.Random(11)
    for _ in range(200):
        z = complex(3.0 * (rng.random() - 0.5), 2.5 * (rng.random() - 0.5))
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3 or z.imag == 0:
            continue
        assert abs(bloch_wigner(1.0 / z) + bloch_wigner(z)) < 1e-12


def test_bloch_wigner_five_term_relation():
    rng = random.Random(5)
    count = 0
    while count < 300:
        x = complex(2.4 * (rng.random() - 0.5), 2.4 * (rng.random() - 0.5))
        y = complex(2.4 * (rng.random() - 0.5), 2.4 * (rng.random() - 0.5))
        if min(abs(x), abs(y), abs(1 - x), abs(1 - y), abs(1 - x * y)) < 0.05:
            continue
        total = (
            bloch_wigner(x)
            + bloch_wigner(y)
            + bloch_wigner((1 - x) / (1 - x * y))
            + bloch_wigner(1 - x * y)
            + bloch_wigner((1 - y) / (1 - x * y))
        )
        assert abs(total) < 1e-11
        count += 1


def _grid(level, k):
    """The points x = 2 pi n / sqrt(level), n = 1 .. k, the weights of the
    level's L-values are taken at."""
    return (2.0 * math.pi / math.sqrt(level)) * np.arange(1, k + 1)


def test_incomplete_gamma_closed_forms():
    # x^s G_s(x) = Gamma(s, x) is e^-x at s = 1 and (1 + x) e^-x at s = 2.
    x = _grid(121, 40)
    for got, t in zip(_weights(1, 121, 40) * x, x):
        assert abs(got - math.exp(-t)) <= 1e-15 * math.exp(-t)
    for got, t in zip(_weights(2, 121, 40) * x * x, x):
        want = (1.0 + t) * math.exp(-t)
        assert abs(got - want) <= 1e-15 * want


def test_incomplete_gamma_against_trapezoid_oracle():
    # Gamma(s, x) = int_x^oo t^{s-1} e^{-t} dt, truncated far in the tail,
    # at the orders s = 0, 1, 2 of the weights, on the level-121 grid.
    x = _grid(121, 35)
    for s in (0, 1, 2):
        weights = _weights(s, 121, 35)
        for n in (1, 3, 13, 34):
            # Truncating at x + 30 leaves a tail below 1e-12; a finer step
            # would push the trapezoid's own h^2 error past the tolerance.
            t = np.linspace(x[n], x[n] + 30.0, 1_000_001)
            oracle = float(np.trapezoid(t ** (s - 1.0) * np.exp(-t), t))
            assert abs(weights[n] * x[n] ** s - oracle) < 1e-10


def test_incomplete_gamma_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-1.0)


@given(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([2, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_periodic_bernoulli2_distribution(x, r):
    # Sampling inside [0, 1) keeps x + k/r exactly representable enough
    # for the 1e-14 bound; periodicity itself is checked separately.
    lhs = periodic_bernoulli2(r * x)
    rhs = r * sum(periodic_bernoulli2(x + k / r) for k in range(r))
    assert abs(lhs - rhs) < 1e-14


def test_periodic_bernoulli2_distribution_away_from_origin():
    rng = random.Random(31)
    for _ in range(100):
        x = 40.0 * (rng.random() - 0.5)
        for r in (2, 3, 5):
            lhs = periodic_bernoulli2(r * x)
            rhs = r * sum(periodic_bernoulli2(x + k / r) for k in range(r))
            assert abs(lhs - rhs) < 1e-13


def test_periodic_bernoulli2_base_values():
    assert abs(periodic_bernoulli2(0.0) - 1.0 / 6.0) < 1e-16
    assert abs(periodic_bernoulli2(0.5) + 1.0 / 12.0) < 1e-16
    assert abs(periodic_bernoulli2(7.25) - periodic_bernoulli2(0.25)) < 1e-15


def test_dedekind_eta_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4}).
    expected = math.gamma(0.25) / (2.0 * math.pi**0.75)
    assert abs(dedekind_eta(1j) - expected) < 1e-13


def test_dedekind_eta_modular_transformations():
    rng = random.Random(3)
    for _ in range(25):
        z = complex(rng.random() - 0.5, 0.4 + 1.5 * rng.random())
        shift = dedekind_eta(z + 1.0)
        assert abs(shift - cmath.exp(1j * math.pi / 12.0) * dedekind_eta(z)) < 1e-12
        flip = dedekind_eta(-1.0 / z)
        assert abs(flip - cmath.sqrt(z / 1j) * dedekind_eta(z)) < 1e-12


def test_dedekind_eta_domain_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        dedekind_eta(1.0 - 0.2j)
    monkeypatch.setattr(reference_routes, "MAX_TERMS", 3)
    with pytest.raises(TruncationError):
        dedekind_eta(0.001j)


def test_siegel_theta_quasi_periodicity():
    rng = random.Random(9)
    for _ in range(25):
        z = complex(rng.random() - 0.5, 0.5 + rng.random())
        w = complex(1.5 * (rng.random() - 0.5), 0.8 * (rng.random() - 0.5))
        th = siegel_theta(w, z)
        assert abs(siegel_theta(w + 1.0, z) + th) < 1e-11
        shifted = siegel_theta(w + z, z)
        factor = -cmath.exp(-1j * math.pi * z - 2j * math.pi * w)
        assert abs(shifted - factor * th) < 1e-11
        assert abs(siegel_theta(-w, z) + th) < 1e-12


def test_siegel_theta_vanishes_at_lattice_points():
    z = 0.3 + 1.1j
    assert abs(siegel_theta(0.0, z)) < 1e-15
    assert abs(siegel_theta(1.0, z)) < 1e-12
    assert abs(siegel_theta(z, z)) < 1e-12


def test_siegel_theta_domain_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        siegel_theta(0.3, -1j)
    monkeypatch.setattr(reference_routes, "MAX_TERMS", 2)
    with pytest.raises(TruncationError):
        siegel_theta(0.3, 0.001j)


def test_gauss_legendre_low_degree():
    xs, ws = gauss_legendre_nodes(8, 0.0, 1.0)
    assert abs(ws @ (xs * xs) - 1.0 / 3.0) < 1e-15


def test_gauss_legendre_exact_for_degree_2n_minus_1():
    # Degree 15 with 8 nodes, integrated over an asymmetric interval.
    coeffs = [3.0, -1.0, 2.5, 0.0, 1.0, -4.0, 0.25, 2.0, -1.5, 0.5, 1.0, 0.0, -2.0, 1.0, 0.125, -0.75]

    def poly(t):
        return sum(c * t**k for k, c in enumerate(coeffs))

    exact = sum(c * (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
    xs, ws = gauss_legendre_nodes(8, -1.0, 2.0)
    approx = ws @ poly(xs)
    assert abs(approx - exact) < 1e-11 * max(1.0, abs(exact))


def _mpmath_leggauss(n, digits=30):
    """Nodes and weights at the given precision, from mpmath's own
    Legendre function: Newton from the cosine guesses on P_n, with P_n' =
    n (x P_n - P_{n-1}) / (x^2 - 1), and w = 2 / ((1 - x^2) P_n'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits + 10):
        def value_and_slope(x):
            value = mpmath.legendre(n, x)
            return value, n * (x * value - mpmath.legendre(n - 1, x)) / (
                x * x - 1)

        nodes, weights = [], []
        for k in range(1, n + 1):
            x = -mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + 0.5))
            for _ in range(100):
                value, slope = value_and_slope(x)
                x -= value / slope
                if abs(value / slope) < mpmath.mpf(10) ** -digits:
                    break
            else:
                raise AssertionError("the reference did not converge")
            slope = value_and_slope(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope ** 2))
        return nodes, weights


@pytest.mark.parametrize("n, tol", [(32, 2e-16), (64, 5e-16)])
def test_gauss_legendre_matches_a_30_digit_reference(n, tol):
    x, w = gauss_legendre_nodes(n)
    ref_x, ref_w = _mpmath_leggauss(n)
    assert list(x) == sorted(x) and len(set(x)) == n
    assert max(abs(float(a - b)) for a, b in zip(ref_x, x)) <= tol
    assert max(abs(float(a - b)) for a, b in zip(ref_w, w)) <= tol


def test_gauss_legendre_makes_no_linalg_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg was called")

    for name in np.linalg.__all__:
        monkeypatch.setattr(np.linalg, name, refuse)
    _leggauss.cache_clear()
    x, w = _leggauss(48)
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert _leggauss(48)[0] is x


def test_gauss_legendre_raises_past_its_newton_cap(monkeypatch):
    import ellreg.special as special

    monkeypatch.setattr(special, "NEWTON_STEPS", 1)
    _leggauss.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="did not converge"):
            _leggauss(20)
    finally:
        _leggauss.cache_clear()


def test_incomplete_gamma_shared_helpers_keep_real_values_bitwise():
    # G_0 = E_1 keeps the values of the general incomplete gamma at order
    # 0 it replaced: the alternating series (x <= 1) and the continued
    # fraction (x > 1).
    before = {
        0.5: "0x1.1e9aa50574b81p-1",
        0.9: "0x1.0a6da8996601ep-2",
        1.5: "0x1.99ae22365646dp-4",
        4.0: "0x1.ef5e06002f2b1p-9",
    }
    for x, value in before.items():
        assert exp_integral_e1(x) == float.fromhex(value)


def test_exp_integral_and_negative_orders_against_mpmath():
    # E_1 = Gamma(0, x) on both branches: the power series serves x <= 1,
    # the branch L(E, 2) takes at every conductor above 4 pi^2.
    mpmath = pytest.importorskip("mpmath")
    for x in [1e-6, 1e-3] + list(np.linspace(0.01, 1.0, 100)):
        want = float(mpmath.e1(x))
        assert abs(exp_integral_e1(x) - want) <= 1e-15 * want
    for x in np.linspace(1.0, 40.0, 200)[1:]:
        want = float(mpmath.e1(x))
        assert abs(exp_integral_e1(x) - want) <= 1e-14 * want


def test_exp_integral_branches_meet_at_one():
    # The series serves x = 1 and the continued fraction the next double.
    # Their values differ by 2.4e-15 relative, the fraction's rounding
    # there; E_1 itself falls by only 8e-17 relative over the step.
    below = exp_integral_e1(1.0)
    above = exp_integral_e1(math.nextafter(1.0, 2.0))
    assert abs(below - above) <= 5e-15 * below


def test_the_general_incomplete_gamma_is_gone():
    # L-values are taken at s = 1 and 2 only, so neither the package nor
    # special names the general or complex routines.
    import ellreg
    import ellreg.special as special

    for name in ("incomplete_gamma_upper", "incomplete_gamma_upper_complex",
                 "complex_gamma"):
        assert not hasattr(special, name)
        with pytest.raises(AttributeError):
            getattr(ellreg, name)


@pytest.mark.parametrize("level", [11, 121, 37 ** 2, 389 ** 2])
def test_weights_match_a_30_digit_reference(level):
    # G_s(x) = x^{-s} Gamma(s, x) at every point of the level's grid that
    # Lambda reads, against mpmath at 30 digits at the same double x.
    mpmath = pytest.importorskip("mpmath")
    k = _term_count(level, 10 ** 9)
    x = _grid(level, k)
    with mpmath.workdps(30):
        for s, tol in ((0, 1e-14), (1, 5e-16), (2, 5e-16)):
            for got, t in zip(_weights(s, level, k), x.tolist()):
                want = mpmath.gammainc(s, t) * mpmath.mpf(t) ** -s
                assert abs(got - want) <= tol * want, (s, t)
