"""Headline numbers against 30-digit references built with mpmath.

L-values: the reference repeats the smoothed sum Lambda(g, s) =
sum a_n G_s(cn) - w sum b_n G_{2-s}(cn), G_s(x) = x^{-s} Gamma(s, x),
with mpmath's incomplete gamma at 30 digits, summed until the tail is
below 1e-32, and measures each root number w from the q-expansions at
30 digits.  Only the Hecke eigenvalues and the character exponents come
from the package.

Periods and elliptic dilogarithms: the roots of 4x^3 - g2 x - g3 come
from mpmath.polyroots, the periods from mpmath.agm (the real one
checked against a quadrature, tau against the curve's j-invariant),
and D_E(P) = sum_k D(x q^k) from mpmath.polylog(2, .).  Only the
Weierstrass coefficients and the torsion class come from the package.
mpmath is a test-only dependency.
"""

import functools
import math

import pytest

from ellreg.characters import enumerate_characters
from ellreg.elliptic import (
    CURVE_11A,
    CURVE_17A,
    CurveModel,
    TorsionCoordinate,
    elliptic_dilog,
    periods,
    torsion_coordinate,
)
from ellreg.lseries import l_value, newform_from_curve, twisted_lambda_table

from reference_routes import j_invariant

mpmath = pytest.importorskip("mpmath")

CURVES = {
    "11a": CURVE_11A,
    "17a": CURVE_17A,
    "43a": CurveModel(0, 1, 1, 0, 0, 43),
    "101a": CurveModel(0, 1, 1, -1, -1, 101),
}


def _terms(rate):
    # e^{-rate n} below 1e-32 beyond n: the series tails at 30 digits.
    return int(math.ceil(75.0 / rate)) + 1


def _root_number(a, b, level):
    """w from g(-1/(M z)) = w M z^2 gbar(z) at z = 1.13 i / sqrt(M)."""
    y = mpmath.mpf("1.13") / mpmath.sqrt(level)

    def series(coeffs, height):
        q = mpmath.exp(-2 * mpmath.pi * height)
        total, qn = mpmath.mpc(0), mpmath.mpf(1)
        for n in range(1, _terms(2 * math.pi * height)):
            qn *= q
            total += coeffs[n] * qn
        return total
    return -series(a, 1 / (level * y)) / (level * y * y * series(b, y))


@functools.lru_cache(maxsize=None)
def _weights(level, s):
    """G_s(cn) and G_{2-s}(cn), c = 2 pi / sqrt(level), up to the tail."""
    c = 2 * mpmath.pi / mpmath.sqrt(level)
    return [(mpmath.gammainc(s, c * n) * (c * n) ** (-s),
             mpmath.gammainc(2 - s, c * n) * (c * n) ** (s - 2))
            for n in range(1, _terms(float(c)))]


def _completed(a, b, level, s):
    """Lambda(g, s) for coefficient lists a (the form) and b (partner)."""
    w = _root_number(a, b, level)
    return mpmath.fsum(a[n] * g_s - w * b[n] * g_dual
                       for n, (g_s, g_dual) in enumerate(_weights(level, s),
                                                         start=1))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_l_two_against_the_30_digit_reference(name):
    curve = CURVES[name]
    form = newform_from_curve(curve, 4000)
    a = [mpmath.mpf(int(v.real)) for v in form.coefficients]
    n = curve.conductor
    with mpmath.workdps(30):
        want = _completed(a, a, n, 2) * 4 * mpmath.pi ** 2 / n
        assert abs(mpmath.im(want)) < mpmath.mpf("1e-28")
        want = float(mpmath.re(want))
    got = l_value(form, 2.0)
    assert abs(got.imag) < 1e-15
    assert abs(got.real - want) <= 1e-13 * abs(want), (got, want)


def test_twisted_table_against_the_30_digit_reference():
    p = 37
    form = newform_from_curve(CurveModel(0, 0, 1, -1, 0, p), 4000)
    table = twisted_lambda_table(form)
    # The slowest series is the root number's, at height 1 / (1.13 p).
    a = [int(v.real) for v in form.coefficients[:_terms(2 * math.pi
                                                        / (1.13 * p))]]
    want = {}
    with mpmath.workdps(30):
        for chi in enumerate_characters(p):
            if chi.is_trivial:
                continue
            roots = [mpmath.expjpi(mpmath.mpf(2 * e) / chi.order)
                     for e in range(chi.order)]
            values = [0 if chi.exponent_at(n) is None
                      else roots[chi.exponent_at(n)] for n in range(p)]
            own = [a[n] * values[n % p] for n in range(len(a))]
            dual = [mpmath.conj(v) for v in own]
            want[chi] = complex(_completed(own, dual, p * p, 1))
    assert len(table) == len(want) + 1
    scale = max(abs(v) for v in want.values())
    vanishing = 0
    for k, (chi, value) in enumerate(want.items(), start=1):
        err = abs(table[k] - value)
        if abs(value) < 1e-10 * scale:
            vanishing += 1
            assert err <= 1e-13, chi
        else:
            assert err <= 1e-13 * abs(value), chi
    assert vanishing < len(want)


def _lattice(curve):
    """(omega1, tau) at 30 digits, normalized as elliptic.periods does."""
    c4, c6 = curve.c_invariants
    g2, g3 = mpmath.mpf(c4) / 12, mpmath.mpf(c6) / 216
    roots = mpmath.polyroots([4, 0, -g2, -g3], extraprec=100)
    if curve.discriminant > 0:
        e3, e2, e1 = sorted(mpmath.re(r) for r in roots)
    else:
        e1 = mpmath.re(min(roots, key=lambda r: abs(mpmath.im(r))))
        e2, e3 = sorted((r for r in roots if abs(mpmath.im(r)) > 1e-20),
                        key=mpmath.im)
    omega1 = mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e3),
                                    mpmath.sqrt(e1 - e2))
    omega2 = 1j * mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e3),
                                         mpmath.sqrt(e2 - e3))
    # The real period is 2 int_{e1}^inf dx / y; with x = e1 + t^2 the
    # integrand is 1 / sqrt((x - e2)(x - e3)).
    real_period = 2 * mpmath.quad(
        lambda t: 1 / mpmath.sqrt((e1 - e2 + t * t) * (e1 - e3 + t * t)),
        [0, 1, mpmath.inf])
    assert abs(omega1 - real_period) < mpmath.mpf("1e-27") * abs(omega1)
    tau = omega2 / omega1
    if mpmath.im(tau) < 0:
        tau = -tau
    tau -= mpmath.floor(mpmath.re(tau) + mpmath.mpf("0.25"))  # Re in [-1/4, 3/4)
    j = j_invariant(curve)
    j = mpmath.mpf(j.numerator) / j.denominator
    assert abs(1728 * mpmath.kleinj(tau) - j) < mpmath.mpf("1e-24") * abs(j)
    return mpmath.re(omega1), tau


def _bloch_wigner(z):
    if abs(z) > 1:
        return -_bloch_wigner(1 / z)
    return (mpmath.im(mpmath.polylog(2, z))
            + mpmath.arg(1 - z) * mpmath.log(abs(z)))


def _dilog(tau, alpha, beta):
    """D_E at exp(2 pi i (alpha + beta tau)), summed until a term pair
    is below 1e-32."""
    q = mpmath.expjpi(2 * tau)
    x = mpmath.expjpi(2 * (alpha + beta * tau))
    total, k, step = _bloch_wigner(x), 0, 1
    while abs(step) > mpmath.mpf("1e-32"):
        k += 1
        up, down = _bloch_wigner(x * q ** k), _bloch_wigner(x / q ** k)
        total += up + down
        step = abs(up) + abs(down)
    return total


# The five-torsion class of P = (0, 0) on 11a, the point of thm8 and
# cor101, and fixed (alpha, beta) classes on 17a and 43a.
DILOG_CLASSES = {"11a": TorsionCoordinate(5, 3, 0), "17a": (0.2, 0.3),
                 "43a": (0.35, 0.15)}


@pytest.mark.parametrize("name", sorted(DILOG_CLASSES))
def test_periods_and_dilog_against_the_30_digit_reference(name):
    curve = CURVES[name]
    lattice = periods(curve)
    point = DILOG_CLASSES[name]
    if isinstance(point, TorsionCoordinate):
        assert torsion_coordinate(curve, lattice, (0, 0), 5) == point
        alpha, beta = point.a / point.n, point.b / point.n
    else:
        alpha, beta = point
    with mpmath.workdps(30):
        omega1, tau = _lattice(curve)
        want = _dilog(tau, mpmath.mpf(alpha), mpmath.mpf(beta))
        omega1, tau, want = float(omega1), complex(tau), float(want)
    assert abs(lattice.omega1 - omega1) <= 1e-14 * omega1
    assert abs(lattice.tau - tau) <= 1e-14
    assert abs(elliptic_dilog(lattice, point) - want) <= 2e-15 * abs(want), (
        name, want)
