"""Elliptic curves over Q: point counts, periods, elliptic dilogarithms.

Curves are given by integral Weierstrass coefficients.  The period
lattice is computed with the arithmetic-geometric mean and normalized to
Z + Z tau with q = exp(2 pi i tau) real, the shape every curve over R
admits.  The elliptic dilogarithm is summed over the Tate parametrization
C*/q^Z until the Bloch-Wigner envelope of its tail is below half an ulp
of the sum; the tests cross-check it against an Eisenstein-Kronecker
lattice sum and a 30-digit mpmath sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special import MAX_TERMS, TruncationError, bloch_wigner

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class CurveModel:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int

    @property
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (
            a1 * a1 * a6
            + 4 * a2 * a6
            - a1 * a3 * a4
            + a2 * a3 * a3
            - a4 * a4
        )
        return b2, b4, b6, b8

    @property
    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    @property
    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def rhs(self, x):
        return x**3 + self.a2 * x**2 + self.a4 * x + self.a6


CURVE_11A = CurveModel(0, -1, 1, 0, 0, 11)
CURVE_17A = CurveModel(1, -1, 1, -1, -14, 17)

CURVE_REGISTRY = {"11a": CURVE_11A, "17a": CURVE_17A}


def a_p(curve: CurveModel, p: int) -> int:
    """Trace of Frobenius p + 1 - #X(F_p), counting the projective points
    of the (possibly singular) reduction.  Valid at good and bad primes.
    """
    if p == 2:
        count = 1  # point at infinity
        for x in range(2):
            for y in range(2):
                lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % 2
                if lhs == curve.rhs(x) % 2:
                    count += 1
        return 2 + 1 - count
    # Complete the square in y: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2
    # + 2 b4 x + b6, so the y-count at x is 1 + legendre of the right side.
    x = np.arange(p, dtype=np.int64)
    legendre = np.full(p, -1)
    legendre[x * x % p] = 1
    legendre[0] = 0
    b2, b4, b6 = (b % p for b in curve.b_invariants[:3])
    # Reduced after each product, so int64 holds it for p up to 3e9.
    cubic = ((4 * x + b2) % p * x + 2 * b4) % p * x + b6
    return -int(np.sum(legendre[cubic % p]))


def _smallest_prime_factors(n):
    spf = list(range(n + 1))
    for i in range(2, int(n**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def an_coefficients(curve: CurveModel, nmax: int):
    """Hecke eigenvalues a_n for n <= nmax via multiplicativity.

    Good primes use the standard recursion a_{p^{k+1}} = a_p a_{p^k}
    - p a_{p^{k-1}}; primes dividing the conductor use a_{p^k} = a_p^k.
    """
    a = [0] * (nmax + 1)
    if nmax >= 1:
        a[1] = 1
    spf = _smallest_prime_factors(nmax)
    ap_cache = {}
    for n in range(2, nmax + 1):
        p = spf[n]
        if p not in ap_cache:
            ap_cache[p] = a_p(curve, p)
        m = n
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if m > 1:
            a[n] = a[p**k] * a[m]
            continue
        # n = p^k
        if curve.conductor % p == 0:
            a[n] = ap_cache[p] ** k
        elif k == 1:
            a[n] = ap_cache[p]
        else:
            a[n] = ap_cache[p] * a[p ** (k - 1)] - p * a[p ** (k - 2)]
    return a


def _agm(a, b):
    """Optimal arithmetic-geometric mean for complex arguments.

    The square root sign is chosen so successive iterates stay in the
    same half plane: |a1 - b1| <= |a1 + b1|, ties broken toward
    Im(b1/a1) > 0.
    """
    a = complex(a)
    b = complex(b)
    for _ in range(80):
        am = 0.5 * (a + b)
        gm = cmath.sqrt(a * b)
        if abs(am - gm) > abs(am + gm) or (
            abs(abs(am - gm) - abs(am + gm)) < 1e-18 * abs(am)
            and (gm / am).imag < 0
        ):
            gm = -gm
        a, b = am, gm
        if abs(a - b) < 1e-16 * abs(a):
            return 0.5 * (a + b)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class PeriodLattice:
    """Lattice omega1 (Z + Z tau) with omega1 > 0, Im tau > 0, q real."""

    omega1: float
    tau: complex
    q: float
    g2: float
    g3: float
    b2: int


def periods(curve: CurveModel) -> PeriodLattice:
    """Period lattice of the curve, normalized so q = e^{2 pi i tau} is real.

    q > 0 when the discriminant is positive (two real components),
    q < 0 when negative (one component).
    """
    b2 = curve.b_invariants[0]
    c4, c6 = curve.c_invariants
    g2 = c4 / 12.0
    g3 = c6 / 216.0
    disc = curve.discriminant
    if disc == 0:
        raise ValueError("singular curve")
    # One AGM route (Cremona, Algorithms for Modular Elliptic Curves, 2nd
    # ed., 3.7): e1 is the real root, the largest if all are; a stable sort
    # orders the others, leaving a complex pair in np.roots' order.
    roots = np.roots([4.0, 0.0, -g2, -g3]).astype(complex).tolist()
    e1 = max(roots, key=lambda r: (-abs(r.imag), r.real))
    roots.remove(e1)
    e2, e3 = sorted(roots, key=lambda r: -r.real)
    e1 = complex(e1.real)
    omega1 = math.pi / _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
    omega2 = 1j * math.pi / _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e2 - e3))
    tau = omega2 / omega1
    if tau.imag < 0:
        tau = -tau
    tau = complex(tau.real - round(tau.real), tau.imag)
    if abs(omega1.imag) > 1e-12 * abs(omega1):
        raise ValueError("real period did not come out real")
    w1 = abs(omega1.real)
    # Snap Re tau to 0 or +-1/2 so q is real by construction.
    if abs(tau.real) < 1e-12:
        tau = complex(0.0, tau.imag)
        q = math.exp(-2.0 * math.pi * tau.imag)
    elif abs(abs(tau.real) - 0.5) < 1e-9:
        tau = complex(0.5, tau.imag)
        q = -math.exp(-2.0 * math.pi * tau.imag)
    else:
        raise ValueError(f"lattice is neither rectangular nor rhombic: tau={tau}")
    if (q > 0) != (disc > 0):
        raise ValueError("sign of q does not match sign of discriminant")
    return PeriodLattice(w1, tau, q, g2, g3, b2)


def _weierstrass_pair(lattice: PeriodLattice, alpha, beta, terms=80):
    """(P(z), P'(z)) for z = (alpha + beta tau) omega1 via q-series."""
    tau = lattice.tau
    w = cmath.exp(TWO_PI_I * (alpha + beta * tau))
    q = cmath.exp(TWO_PI_I * tau)
    p_sum = 1.0 / 12.0 + w / (1.0 - w) ** 2
    dp_sum = w * (1.0 + w) / (1.0 - w) ** 3
    qn = 1.0 + 0.0j
    for _ in range(1, terms):
        qn *= q
        if abs(qn) < 1e-19:
            break
        qw = qn * w
        qow = qn / w
        p_sum += qw / (1.0 - qw) ** 2 + qow / (1.0 - qow) ** 2
        p_sum -= 2.0 * qn / (1.0 - qn) ** 2
        dp_sum += qw * (1.0 + qw) / (1.0 - qw) ** 3
        dp_sum -= qow * (1.0 + qow) / (1.0 - qow) ** 3
    scale = TWO_PI_I / lattice.omega1
    return scale**2 * p_sum, scale**3 * dp_sum


@dataclass(frozen=True)
class TorsionCoordinate:
    """A torsion class (a + b tau)/n on the normalized lattice."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")

    def scale(self, k):
        return TorsionCoordinate(self.n, (k * self.a) % self.n, (k * self.b) % self.n)


def torsion_coordinate(curve: CurveModel, lattice: PeriodLattice, point,
                       n: int):
    """Match a rational n-torsion point (x, y) of the curve to its class
    on the curve's lattice, periods(curve).

    Scans all n^2 - 1 nonzero classes, comparing both coordinates to
    within 1e-6, and insists on a unique match; anything else is a hard
    error.
    """
    x, y = point
    target_X = float(x) + lattice.b2 / 12.0
    target_Y = 2.0 * float(y) + curve.a1 * float(x) + curve.a3
    matches = []
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                continue
            px, py = _weierstrass_pair(lattice, a / n, b / n)
            if abs(px - target_X) < 1e-6 and abs(py - target_Y) < 1e-6:
                matches.append(TorsionCoordinate(n, a, b))
    if len(matches) != 1:
        raise ValueError(
            f"expected exactly one torsion match, found {len(matches)}"
        )
    return matches[0]


def _class_parameters(lattice: PeriodLattice, point):
    """(alpha, beta) with the class represented by exp(2 pi i (alpha + beta tau))."""
    if isinstance(point, TorsionCoordinate):
        return point.a / point.n, point.b / point.n
    if isinstance(point, tuple):
        return float(point[0]), float(point[1])
    raise TypeError("point must be a TorsionCoordinate or an (alpha, beta) pair")


def elliptic_dilog(lattice: PeriodLattice, point) -> float:
    """Elliptic dilogarithm D_E(P) = sum_{k in Z} D(x q^k) on C*/q^Z.

    The terms at k < 0 are -D(q^-k / x), as D(1/z) = -D(z), so the k-th
    pair is D at moduli at most r = max(|x|, 1/|x|) |q|^k, and |D(z)| <=
    |z| (pi^2/6 + (pi/2) |log|z||) on the closed unit disc.  That
    envelope, summed over the pairs left, bounds the tail: the sum stops
    once the bound is below half an ulp of the sum.
    """
    alpha, beta = _class_parameters(lattice, point)
    x = cmath.exp(TWO_PI_I * (alpha + beta * lattice.tau))
    aq = abs(lattice.q)
    if aq >= 1.0:
        raise ValueError("need |q| < 1")
    log_q, log_r = math.log(aq), abs(math.log(abs(x)))
    total = bloch_wigner(x)
    up, down = x, 1.0 / x
    for _ in range((MAX_TERMS - 1) // 2):
        up *= lattice.q
        down *= lattice.q
        total += bloch_wigner(up) - bloch_wigner(down)
        log_r += log_q
        # 2 sum_{j >= 1} r |q|^j (pi^2/6 + (pi/2)(|log r| + j |log|q||))
        tail = 2.0 * aq / (1.0 - aq) * math.exp(log_r) * (
            math.pi ** 2 / 6.0 + math.pi / 2.0 * (abs(log_r) - log_q / (1.0 - aq)))
        if total + tail == total:
            return total
    raise TruncationError("elliptic_dilog truncation exceeds term cap")
