"""Scalar special functions shared by the rest of the package.

Everything here is plain floating point: dilogarithms, the upper
incomplete gamma function, the periodic second Bernoulli polynomial
and Gauss-Legendre nodes.  The package's point-dependent series
(q-expansions, Eisenstein streams, the elliptic dilogarithm) stop once
their tail is below ABS_TOL.  The elliptic dilogarithm takes at most
MAX_TERMS terms; hitting that cap raises instead of returning a
silently wrong value.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

ABS_TOL = 1e-13  # the largest tail a truncated series may drop
MAX_TERMS = 200_000  # the most terms a series may take before it raises

# Even-index Bernoulli numbers B_2..B_30, used by the log-series branch
# of dilog.  B_1 = -1/2 is handled explicitly.
_BERNOULLI_EVEN = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
    8615841276005.0 / 14322,
]


class TruncationError(RuntimeError):
    """A series hit its term cap before meeting its tolerance."""


def _dilog_series(z):
    # Plain power series; callers guarantee |z| <= 1/2 so the tail is
    # geometric and 60 terms are already below double precision.
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(1, 80):
        term *= z
        total += term / (n * n)
        if abs(term) < 1e-18:
            break
    return total


def _dilog_log_series(z):
    # Expansion in w = -log(1-z), valid for |w| < 2*pi.  Used on the
    # annulus where neither the power series nor its pullbacks converge
    # quickly.
    w = -cmath.log(1.0 - z)
    total = w - w * w / 4.0
    wsq = w * w
    wpow = w
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI_EVEN, start=1):
        wpow *= wsq
        fact *= (2 * k) * (2 * k + 1)
        total += b2k * wpow / fact
        if abs(wpow / fact) < 1e-18:
            break
    return total


def dilog(z) -> complex:
    """Principal-branch dilogarithm Li_2(z), cut along [1, oo)."""
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    az = abs(z)
    if az <= 0.5:
        return _dilog_series(z)
    if abs(1.0 - z) <= 0.5:
        # Reflection: Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z).
        if z == 1.0:
            return math.pi * math.pi / 6.0 + 0.0j
        return (
            math.pi * math.pi / 6.0
            - cmath.log(z) * cmath.log(1.0 - z)
            - _dilog_series(1.0 - z)
        )
    if az > 1.0:
        # Inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2, which
        # lands back in the closed unit disc.
        minus_z = complex(-z.real, 0.0 if z.imag == 0.0 else -z.imag)
        lg = cmath.log(minus_z)
        return -dilog(1.0 / z) - math.pi * math.pi / 6.0 - 0.5 * lg * lg
    # Shell 0.5 < |z| <= 1 away from 1: here |log(1-z)| <= 1.8 and the
    # Bernoulli series converges rapidly.
    return _dilog_log_series(z)


def bloch_wigner(z) -> float:
    """Bloch-Wigner function D(z) = Im Li_2(z) + arg(1-z) log|z|.

    Real analytic off {0, 1}, zero on the real line, and the single-valued
    cousin of the dilogarithm.  D(0) and D(1) are defined as 0.
    """
    z = complex(z)
    if z == 0 or z == 1:
        return 0.0
    if z.imag == 0.0:
        # Exact zero on the reals regardless of rounding in the two parts.
        return 0.0
    return dilog(z).imag + cmath.phase(1.0 - z) * math.log(abs(z))


def _upper_gamma_cf(s, x):
    # Modified Lentz continued fraction for Gamma(s, x) / (x^s e^-x),
    # stable for x > max(1, s).  Every step is generic over complex s;
    # the caller applies the prefactor with math or cmath.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _lower_gamma_series(s, x):
    # gamma(s, x) / (x^s e^-x) by the standard ascending series, for
    # x <= max(1, s) and Re s > 0.  Every step is generic over complex s.
    total = 1.0 / s
    term = 1.0 / s
    sk = s
    for _ in range(1000):
        sk += 1.0
        term *= x / sk
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total


def _exp_integral_e1(x):
    # E_1(x) for 0 < x <= 1 via the convergent alternating series.
    total = -0.5772156649015328606 - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        total -= term / k
        if abs(term / k) < 1e-18:
            break
    return total


def incomplete_gamma_upper(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for real s and x > 0.

    Continued fraction for large x, ascending series for small x, with
    recursion in s to reach nonpositive orders.
    """
    if not x > 0:
        raise ValueError("incomplete_gamma_upper requires x > 0")
    s = float(s)
    x = float(x)
    if x > max(1.0, s):
        return math.exp(-x + s * math.log(x)) * _upper_gamma_cf(s, x)
    if s > 0:
        return math.gamma(s) - (math.exp(-x + s * math.log(x))
                                * _lower_gamma_series(s, x))
    # s <= 0 and x <= 1: climb down from Gamma(0, x) = E_1(x) when s is
    # integral, otherwise climb up to a positive order and come back.
    if s == math.floor(s):
        g = _exp_integral_e1(x)
        k = 0.0
        while k > s:
            k -= 1.0
            g = (g - math.exp(-x + k * math.log(x))) / k
        return g
    shift = int(math.ceil(-s)) + 1
    ss = s + shift
    g = math.gamma(ss) - (math.exp(-x + ss * math.log(x))
                          * _lower_gamma_series(ss, x))
    for j in range(shift - 1, -1, -1):
        sj = s + j
        g = (g - math.exp(-x + sj * math.log(x))) / sj
    return g


# Lanczos coefficients, g = 7, n = 9.
_LANCZOS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def complex_gamma(s) -> complex:
    """Gamma(s) for complex s via the Lanczos approximation."""
    s = complex(s)
    if s.real < 0.5:
        # Reflection formula; poles at nonpositive integers surface as
        # a zero denominator, which is the honest failure mode.
        return math.pi / (cmath.sin(math.pi * s) * complex_gamma(1.0 - s))
    z = s - 1.0
    acc = _LANCZOS[0] + sum(_LANCZOS[i] / (z + i) for i in range(1, 9))
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def incomplete_gamma_upper_complex(s, x: float) -> complex:
    """Upper incomplete gamma Gamma(s, x) for complex s and real x > 0."""
    s = complex(s)
    if s.imag == 0.0:
        return complex(incomplete_gamma_upper(s.real, x))
    if not x > 0:
        raise ValueError("incomplete_gamma_upper_complex requires x > 0")
    prefactor = cmath.exp(-x + s * cmath.log(x))
    if x > abs(s) + 1.0:
        return prefactor * _upper_gamma_cf(s, x)
    return complex_gamma(s) - prefactor * _lower_gamma_series(s, x)


def periodic_bernoulli2(x: float) -> float:
    """One-periodic extension of B_2(t) = t^2 - t + 1/6 from [0, 1)."""
    t = x - math.floor(x)
    return t * t - t + 1.0 / 6.0


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, n * (x * cur - prev) / (x * x - 1.0)


NEWTON_STEPS = 10  # the most Newton steps a rule may take before it raises


@lru_cache(maxsize=None)
def _leggauss(n: int):
    # Newton's method on P_n from the Tricomi-style first guesses, in
    # O(n^2) work and with no eigensolve (Hale and Townsend, SIAM J. Sci.
    # Comput. 35, 2013).  The symmetrizations make the nodes exactly odd
    # and the weights exactly even.
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(NEWTON_STEPS):
        value, slope = _legendre(n, x)
        step = value / slope
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise RuntimeError(f"{n}-point Gauss-Legendre nodes did not converge")
    x = (x - x[::-1]) / 2
    w = 2.0 / ((1.0 - x * x) * _legendre(n, x)[1] ** 2)
    w = (w + w[::-1]) / 2
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(n: int, a: float = -1.0, b: float = 1.0):
    """Read-only nodes and weights for n-point Gauss-Legendre on [a, b].

    The rule on [-1, 1] is computed once per n and returned as is.
    """
    if n < 1:
        raise ValueError("need at least one node")
    x, w = _leggauss(n)
    if a == -1.0 and b == 1.0:
        return x, w
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs, ws = mid + half * x, half * w
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws
