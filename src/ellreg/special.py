"""Scalar special functions shared by the rest of the package.

Everything here is plain floating point: dilogarithms, the exponential
integral E_1, the periodic second Bernoulli polynomial and
Gauss-Legendre nodes.  The package's truncated series (q-expansions,
Eisenstein streams, the period oracle's cut-off) stop once their tail is
below ABS_TOL; Bloch-Wigner, E_1 and the elliptic dilogarithm are summed
to double precision.  The elliptic dilogarithm takes at most MAX_TERMS
terms; hitting that cap raises instead of returning a silently wrong
value.
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
    cousin of the dilogarithm.  D(0) and D(1) are defined as 0.  Outside
    the unit circle it is read as -D(1/z) (Zagier, "The dilogarithm
    function", 2007), so Li_2 is only taken on the closed unit disc and
    no terms of size log^2|z| cancel.
    """
    z, sign = complex(z), 1.0
    if abs(z) > 1.0:
        z, sign = 1.0 / z, -1.0
    if z.imag == 0.0:
        # Exact zero on the reals regardless of rounding in the two parts.
        return 0.0
    return sign * (dilog(z).imag + cmath.phase(1.0 - z) * math.log(abs(z)))


def _e1_fraction(x):
    # E_1(x) e^x = 1/(x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(x + 7 - ...)))),
    # evaluated backward.  Its error at depth n falls like e^{-4 sqrt(n x)},
    # so twice the depth at which that reaches 1e-17 is past double
    # precision for every x > 1.
    t = 0.0
    for i in range(int(2.0 * (math.log(1e17) / 4.0) ** 2 / x) + 20, 0, -1):
        t = i * i / (x + 2 * i + 1 - t)
    return 1.0 / (x + 1.0 - t)


def exp_integral_e1(x: float) -> float:
    """E_1(x) = Gamma(0, x) for x > 0: the convergent alternating series
    for x <= 1, the continued fraction, evaluated backward, beyond."""
    if x > 1.0:
        return math.exp(-x) * _e1_fraction(x)
    total = -0.5772156649015328606 - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        total -= term / k
        if abs(term / k) < 1e-18:
            break
    return total


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
