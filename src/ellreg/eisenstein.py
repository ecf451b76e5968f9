"""Real-analytic Eisenstein series at s = 1 and the eta one-form.

Three independent evaluation routes are kept side by side:

* closed forms through the Kronecker limit formulas (Dedekind eta and
  Siegel theta products),
* literal non-holomorphic Fourier expansions of the Epstein zeta
  functions zeta*_{a,b},
* a combined divisor-sum expansion ("stream") for arbitrary weighted
  sums of E*_{(u,v)}, which the general quadrature evaluates.

The eta one-form eta(l, m) = E*_l (d - dbar) E*_m - E*_m (d - dbar) E*_l
is evaluated through streams and integrated along geodesics with
Gauss-Legendre panels and node doubling.  Along the arc rho -> rho^2,
which every suite integrates over, a per-level node table of the single
pairs E*_(u,v) turns the pulled-back arcs of a suite into one bilinear
contraction of its rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .characters import FiniteMap, _divisors, fourier_transform
from .special import (
    DEFAULT_CONTROL,
    SeriesControl,
    dedekind_eta,
    gauss_legendre_nodes,
    periodic_bernoulli2,
    siegel_theta,
)

EULER_GAMMA = 0.5772156649015329
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnimodularMatrix:
    """Element of SL_2(Z) acting on H by fractional linear maps and on
    row vectors (u, v) by right multiplication."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")

    def act(self, z):
        return (self.a * z + self.b) / (self.c * z + self.d)

    def derivative(self, z):
        return 1.0 / (self.c * z + self.d) ** 2

    def row_action(self, pair, modulus):
        u, v = pair
        return (
            (u * self.a + v * self.c) % modulus,
            (u * self.b + v * self.d) % modulus,
        )

    def __matmul__(self, other):
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
SIGMA = UnimodularMatrix(0, -1, 1, 0)
TAU_MAT = UnimodularMatrix(0, -1, 1, -1)


def g_column(v: int) -> UnimodularMatrix:
    """The standard lift (0, -1; 1, v) sending 0 -> -1/v-ish geodesics."""
    return UnimodularMatrix(0, -1, 1, v)


def zeta_star(a: int, b: int, z: complex, modulus: int,
              ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """zeta*_{a,b}(z) via the Kronecker limit formulas.

    The trivial pair uses the Dedekind eta closed form, every other pair
    the Siegel theta closed form; both are exact products, so this is
    the reference route.
    """
    N = modulus
    a %= N
    b %= N
    y = z.imag
    if y <= 0:
        raise ValueError("need Im z > 0")
    if a == 0 and b == 0:
        eta = dedekind_eta(z, ctl)
        return TWO_PI * (
            EULER_GAMMA - math.log(2.0) - 0.5 * math.log(y)
            - 2.0 * math.log(abs(eta))
        )
    w = (a - b * z) / N
    theta = siegel_theta(w, z, ctl)
    return 2.0 * math.pi**2 * b * b * y / N**2 - TWO_PI * math.log(abs(theta))


def zeta_star_qexp(a: int, b: int, z: complex, modulus: int, rmax: int) -> float:
    """zeta*_{a,b}(z) via its literal non-holomorphic Fourier expansion."""
    N = modulus
    a %= N
    b %= N
    y = z.imag
    q_pow = lambda r: cmath.exp(2j * math.pi * r * z)  # q^r
    if b == 0:
        if a == 0:
            total = math.pi**2 * y / 3.0 - math.pi * math.log(y)
            osc = 0.0
            for r in range(1, rmax + 1):
                sigma = sum(_divisors(r))
                osc += (sigma / r) * 2.0 * q_pow(r).real
            return total + TWO_PI * (EULER_GAMMA - math.log(2.0) + osc)
        zeta_N = cmath.exp(2j * math.pi / N)
        total = math.pi**2 * y / 3.0 - TWO_PI * math.log(abs(1.0 - zeta_N**a))
        osc = 0.0
        for r in range(1, rmax + 1):
            coeff = sum(
                ((zeta_N ** (k * a) + zeta_N ** (-k * a)) / k).real
                for k in _divisors(r)
            )
            osc += coeff * 2.0 * q_pow(r).real
        return total + math.pi * osc
    total = 2.0 * math.pi**2 * periodic_bernoulli2(b / N) * y
    zeta_N = cmath.exp(2j * math.pi / N)
    osc = 0.0
    for r in range(1, rmax + 1):
        alpha = 0.0 + 0.0j
        for k in _divisors(r):
            if (r // k) % N == b:
                alpha += zeta_N ** (-k * a) / k
            if (r // k) % N == (N - b) % N:
                alpha += zeta_N ** (k * a) / k
        if alpha != 0.0:
            osc += 2.0 * (alpha * cmath.exp(2j * math.pi * r * z / N)).real
    return total + math.pi * osc


class PairDivisor:
    """Finitely supported weight function on (Z/N)^2."""

    def __init__(self, modulus: int, coeffs=None):
        self.modulus = modulus
        self.coeffs = {}
        if coeffs:
            for (u, v), c in coeffs.items():
                if c != 0:
                    key = (u % modulus, v % modulus)
                    self.coeffs[key] = self.coeffs.get(key, 0) + c

    @classmethod
    def delta(cls, modulus, u, v, weight=1.0):
        return cls(modulus, {(u, v): weight})

    @classmethod
    def from_residue_map(cls, f: FiniteMap):
        """Embed a weight function on Z/N along the row (0, v)."""
        return cls(f.modulus, {(0, v): f(v) for v in range(f.modulus)})

    def right_translate(self, g: UnimodularMatrix):
        out = {}
        for x, c in self.coeffs.items():
            y = g.row_action(x, self.modulus)
            out[y] = out.get(y, 0) + c
        return PairDivisor(self.modulus, out)

    def conjugation_flip(self):
        return PairDivisor(
            self.modulus,
            {((-u) % self.modulus, v): c for (u, v), c in self.coeffs.items()},
        )

    def __add__(self, other):
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            out[x] = out.get(x, 0) + c
        return PairDivisor(self.modulus, out)

    def scaled(self, s):
        return PairDivisor(
            self.modulus, {x: s * c for x, c in self.coeffs.items()}
        )

    @property
    def degree(self):
        return sum(self.coeffs.values())

    def items(self):
        return self.coeffs.items()


def _beta2(v: int, N: int) -> float:
    """sum_b cos(2 pi b v / N) B2bar(b / N)."""
    return sum(
        math.cos(TWO_PI * b * v / N) * periodic_bernoulli2(b / N)
        for b in range(N)
    )


def _constant_term(u: int, N: int) -> float:
    """The constant term of E*_(u,v), the same for every v."""
    return (TWO_PI / N**2) * (EULER_GAMMA - math.log(2.0) - sum(
        math.cos(TWO_PI * a * u / N)
        * math.log(abs(1.0 - cmath.exp(2j * math.pi * a / N)))
        for a in range(1, N)))


class EisensteinStream:
    """Fourier data of E*_F for a pair divisor F:

    E*_F(z) = c_y y + c_log log y + c_0
              + sum_{r>=1} A_r e^{2 pi i r z / N} + B_r e^{-2 pi i r zbar / N}.
    """

    def __init__(self, divisor: PairDivisor, rmax: int):
        N = divisor.modulus
        self.modulus = N
        self.rmax = rmax
        self.c_y = self.c_0 = 0.0 + 0.0j
        self.c_log = -math.pi / N**2 * divisor.degree
        self.A = np.zeros(rmax + 1, dtype=complex)
        self.B = np.zeros(rmax + 1, dtype=complex)
        for (u, v), c in divisor.items():
            if u == 0:
                self.c_y += c * (2.0 * math.pi**2 / N) * _beta2(v, N)
            self.c_0 += c * _constant_term(u, N)
            for sign in (1, -1):
                # r = k m with k = sign u mod N gains e(sign m v / N) / k.
                for k in range((sign * u) % N or N, rmax + 1, N):
                    m = np.arange(1, rmax // k + 1)
                    base = np.exp(sign * 2j * math.pi * (m * v % N) / N) / k
                    self.A[k * m] += c * (math.pi / N) * base
                    self.B[k * m] += c * (math.pi / N) * base.conj()

    def _exps(self, z):
        """The table of e^{2 pi i r z / N} for r = 0 .. rmax."""
        r = np.arange(self.rmax + 1)
        return np.exp(2j * math.pi * np.multiply.outer(r, z) / self.modulus)

    def value(self, z):
        return self.jet(z)[0]

    def jet(self, z, ez=None):
        """E*_F at z and the coefficients of dz and dzbar in its total
        differential; ez is _exps(z), which streams of one level and rmax
        can share."""
        z = np.asarray(z, dtype=complex)
        y = z.imag
        ez = self._exps(z) if ez is None else ez
        ezbar = ez.conj()
        r = np.arange(self.rmax + 1)
        value = (self.c_y * y + self.c_log * np.log(y) + self.c_0
                 + np.einsum("r,r...->...", self.A, ez)
                 + np.einsum("r,r...->...", self.B, ezbar))
        hol = np.einsum(
            "r,r...->...", self.A * (2j * math.pi * r / self.modulus), ez)
        anti = np.einsum(
            "r,r...->...", self.B * (-2j * math.pi * r / self.modulus), ezbar)
        return (value, self.c_y / 2j + self.c_log / (2j * y) + hol,
                -self.c_y / 2j - self.c_log / (2j * y) + anti)


def suggested_rmax(modulus: int, y_min: float, tol: float = 1e-13) -> int:
    """Truncation index so the discarded stream tail is below tol."""
    if y_min <= 0:
        raise ValueError("need y_min > 0")
    return int(math.ceil(modulus * math.log(1.0 / tol) / (TWO_PI * y_min))) + 16


def e_star_point(x, z, modulus, ctl: SeriesControl = DEFAULT_CONTROL):
    """E*_x(z) by the exact double sum over zeta*_{a,b} closed forms."""
    N = modulus
    u, v = x[0] % N, x[1] % N
    total = 0.0 + 0.0j
    for a in range(N):
        for b in range(N):
            phase = cmath.exp(-2j * math.pi * (a * u + b * v) / N)
            total += phase * zeta_star(a, b, z, N, ctl)
    return (total / N**2).real


def e_star_map(f: FiniteMap, z, ctl: SeriesControl = DEFAULT_CONTROL):
    """E*_f(z) = sum_v f(v) E*_{(0,v)}(z) by the closed-form route."""
    N = f.modulus
    fhat = fourier_transform(f).values
    total = 0.0 + 0.0j
    for b in range(N):
        if fhat[b] == 0:
            continue
        row = sum(zeta_star(a, b, z, N, ctl) for a in range(N))
        total += fhat[b] * row
    return total / N**2


def e_star_stream(f: FiniteMap, y_min: float, tol: float = 1e-13):
    """Stream evaluator for E*_f, valid for Im z >= y_min."""
    rmax = suggested_rmax(f.modulus, y_min, tol)
    return EisensteinStream(PairDivisor.from_residue_map(f), rmax)


def _restricted_zeta2(v: int, N: int, cutoff: int = 2000) -> float:
    """sum over n >= 1, n = v mod N of 1/n^2, Euler-Maclaurin tail."""
    head = sum(1.0 / n**2 for n in range(1, cutoff + 1) if n % N == v % N)
    a = cutoff + 1
    while a % N != v % N:
        a += 1
    # sum_{k>=0} (a + kN)^{-2} expanded around k integration
    tail = (
        1.0 / (N * a)
        + 0.5 / a**2
        + N / (6.0 * a**3)
        - N**3 / (30.0 * a**5)
    )
    return head + tail


def e_star_sum_zero_expansion(f: FiniteMap, z, rmax: int):
    """Expansion specific to sum-zero f:

    E*_f(z) = (sum'_{n} f(n)/n^2) y
              + (pi/N^2) sum_r (1/r) (sum_{k|r} k (fhat(k)+fhat(-k))) (q^r+qbar^r)
    """
    N = f.modulus
    if abs(f.total()) > 1e-12:
        raise ValueError("expansion requires a sum-zero weight function")
    y_coeff = sum(
        (f(v) + f(-v)) * _restricted_zeta2(v, N) for v in range(1, N + 1)
    )
    fhat = fourier_transform(f).values
    q = cmath.exp(2j * math.pi * z)
    osc = 0.0 + 0.0j
    for r in range(1, rmax + 1):
        inner = sum(k * (fhat[k % N] + fhat[(-k) % N]) for k in _divisors(r))
        osc += (inner / r) * 2.0 * (q**r).real
    return complex(z.imag * y_coeff + math.pi / N**2 * osc)


class OneFormValue(NamedTuple):
    """Pointwise data of a one-form P dz + Q dzbar."""

    dz: complex
    dzbar: complex


def divisor_bracket(l: FiniteMap, m: FiniteMap) -> FiniteMap:
    """(deg m) l - (deg l) m, the obstruction divisor to closedness."""
    deg_l = l.total()
    deg_m = m.total()
    return FiniteMap(
        l.modulus,
        [deg_m * l(v) - deg_l * m(v) for v in range(l.modulus)],
    )


class EtaForm:
    """eta(l, m) = E*_l (d - dbar) E*_m - E*_m (d - dbar) E*_l.

    Both arguments are pair divisors; weight functions on Z/N enter
    through their embedding along (0, v).  Pullback under SL_2(Z) acts
    by right translation of the divisors.
    """

    def __init__(self, left: PairDivisor, right: PairDivisor, rmax: int):
        if left.modulus != right.modulus:
            raise ValueError("mixed moduli")
        self.left = left
        self.right = right
        self.rmax = rmax

    @cached_property
    def left_stream(self):
        return EisensteinStream(self.left, self.rmax)

    @cached_property
    def right_stream(self):
        return EisensteinStream(self.right, self.rmax)

    @classmethod
    def from_residue_maps(cls, l: FiniteMap, m: FiniteMap, rmax: int):
        return cls(
            PairDivisor.from_residue_map(l),
            PairDivisor.from_residue_map(m),
            rmax,
        )

    def pullback(self, g: UnimodularMatrix):
        return EtaForm(
            self.left.right_translate(g),
            self.right.right_translate(g),
            self.rmax,
        )

    def coefficients(self, z, ez=None, left_jet=None) -> OneFormValue:
        M = self.right_stream
        if ez is None:
            ez = M._exps(np.asarray(z, dtype=complex))  # same level and rmax
        vl, dl, dbl = left_jet or self.left_stream.jet(z, ez)
        vm, dm, dbm = M.jet(z, ez)
        return OneFormValue(vl * dm - vm * dl, -(vl * dbm - vm * dbl))


def eta_form(l: FiniteMap, m: FiniteMap, y_min: float = math.sqrt(3) / 2,
             tol: float = 1e-13) -> EtaForm:
    rmax = suggested_rmax(l.modulus, y_min, tol)
    return EtaForm.from_residue_maps(l, m, rmax)


def eta_chi(chi, y_min: float = math.sqrt(3) / 2, tol: float = 1e-13) -> EtaForm:
    """eta_chi = sum_{a,b units} chi(a) conj(chi)(b) eta(delta_a, delta_b)."""
    left = FiniteMap.from_character(chi)
    right = FiniteMap.from_character(chi.conjugate())
    return eta_form(left, right, y_min, tol)


def _geodesic_path(z0: complex, z1: complex):
    """Vectorized parametrization of the geodesic from z0 to z1 on [0, 1]."""
    z0 = complex(z0)
    z1 = complex(z1)
    if abs(z0.real - z1.real) < 1e-14 * max(1.0, abs(z0), abs(z1)):
        return _straight_path(z0, z1)
    center = (abs(z1) ** 2 - abs(z0) ** 2) / (2.0 * (z1.real - z0.real))
    radius = abs(z0 - center)
    th0 = cmath.phase(z0 - center)
    th1 = cmath.phase(z1 - center)

    def path(t):
        th = th0 + np.asarray(t) * (th1 - th0)
        return center + radius * np.exp(1j * th)

    def velocity(t):
        th = th0 + np.asarray(t) * (th1 - th0)
        return radius * 1j * (th1 - th0) * np.exp(1j * th)

    return path, velocity


def _straight_path(z0: complex, z1: complex):
    dz = complex(z1) - complex(z0)

    def path(t):
        return z0 + np.asarray(t) * dz

    def velocity(t):
        return np.full_like(np.asarray(t, dtype=float), dz, dtype=complex)

    return path, velocity


def integrate_one_form(form: EtaForm, path, velocity, nodes: int = 64,
                       tol: float = 1e-10, max_doublings: int = 6,
                       exps: dict | None = None):
    """Gauss-Legendre quadrature of P dz + Q dzbar with node doubling.

    Returns (value, error_estimate); raises if doubling stalls above tol.
    exps caches, by node count, the stream exponentials and, by left
    divisor, the left streams' jets: forms of one level and rmax on one
    path can share it, and of the forms with one left divisor only the
    first to reach a node count builds that stream.
    """
    exps = {} if exps is None else exps
    left = tuple(form.left.items())

    def quad(n):
        x, w = gauss_legendre_nodes(n)
        t = 0.5 * (x + 1.0)
        z = path(t)
        v = velocity(t)
        if n not in exps:
            exps[n] = form.left_stream._exps(z), {}
        ez, jets = exps[n]
        if left not in jets:
            jets[left] = form.left_stream.jet(z, ez)
        P, Q = form.coefficients(z, ez, jets[left])
        return 0.5 * complex(np.sum(w * (P * v + Q * np.conj(v))))

    prev = quad(nodes)
    for _ in range(max_doublings):
        nodes *= 2
        cur = quad(nodes)
        err = abs(cur - prev)
        if err < tol * max(1.0, abs(cur)):
            return cur, err
        prev = cur
    raise RuntimeError("quadrature failed to settle below tolerance")


def integrate_eta_geodesic(form: EtaForm, z0, z1, **kw):
    path, velocity = _geodesic_path(z0, z1)
    return integrate_one_form(form, path, velocity, **kw)


def integrate_eta_segment(form: EtaForm, z0, z1, **kw):
    path, velocity = _straight_path(z0, z1)
    return integrate_one_form(form, path, velocity, **kw)


RHO = cmath.exp(1j * math.pi / 3.0)
RHO2 = cmath.exp(2j * math.pi / 3.0)


def arc_integral(form: EtaForm, g: UnimodularMatrix = IDENTITY, **kw):
    """Integral of the form along the geodesic g(rho) -> g(rho^2),
    computed by pulling back to the unit-circle arc."""
    pulled = form.pullback(g) if g != IDENTITY else form
    value, _ = integrate_eta_geodesic(pulled, RHO, RHO2, **kw)
    return value


class ArcTable:
    """E*_x and d_z E*_x for every pair x in (Z/N)^2 at the Gauss-Legendre
    nodes of the arc rho -> rho^2, at 64 and at 128 nodes.

    E*_x is real, so d_zbar E*_x = conj(d_z E*_x) is not stored, and
    E*_{-x} = E*_x, so one row serves the pair {x, -x}; keys[i] is the
    pair of row i.  E*_F is linear in F and pulling eta back by g only
    moves divisor entries, so many pulled-back eta(l, m) integrate at
    once as a bilinear pairing of rows (integrals).  The rows follow the
    EisensteinStream expansion truncated at rmax, summed from the divisor
    pairs (k, m), k m <= rmax.
    """

    NODES = (64, 128)

    def __init__(self, modulus: int, rmax: int):
        N = modulus
        self.modulus = N
        self.rmax = rmax
        path, velocity = _geodesic_path(RHO, RHO2)
        ts, weights = [], []
        for n in self.NODES:
            x, w = gauss_legendre_nodes(n)
            t = 0.5 * (x + 1.0)
            ts.append(t)
            weights.append(0.5 * w * velocity(t))
        z = path(np.concatenate(ts))
        self.nodes = z  # the 64 nodes, then the 128
        y = z.imag
        # The quadrature of P dz + Q dzbar is sum(wdz P + conj(wdz) Q).
        self._wdz = np.concatenate(weights)
        qpow = np.exp(
            2j * math.pi * np.multiply.outer(np.arange(rmax + 1), z) / N)

        # Row keys are the pairs x = (u, v) with x <= -x, in the order of
        # the flat index u N + v; -x shares the row of x.
        u, v = np.divmod(np.arange(N * N), N)
        neg = (-u) % N * N + (-v) % N
        own = np.arange(N * N) <= neg
        index = np.empty(N * N, dtype=np.intp)
        index[own] = np.arange(np.count_nonzero(own))
        index[~own] = index[neg[~own]]
        self._index = index.reshape(N, N)
        self.keys = keys = np.stack([u[own], v[own]], axis=1)

        c_log = -math.pi / N**2
        V = np.empty((len(keys), z.size))
        D = np.empty((len(keys), z.size), dtype=complex)
        for u in range(N):
            w = (-u) % N
            if w < u:
                continue  # the pairs (u, v) fold into rows keyed (w, -v)
            block = np.flatnonzero(keys[:, 0] == u)
            vs = keys[block, 1]
            s_u, t_u = _divisor_sums(u, N, qpow)
            s_w, t_w = (s_u, t_u) if w == u else _divisor_sums(w, N, qpow)
            hol = (math.pi / N) * (s_u[vs] + s_w[(-vs) % N])
            dhol = (2j * math.pi**2 / N**2) * (t_u[vs] + t_w[(-vs) % N])
            c_0 = _constant_term(u, N)
            c_y = np.zeros((vs.size, 1))
            if u == 0:
                c_y[:, 0] = [(2.0 * math.pi**2 / N) * _beta2(v, N) for v in vs]
            V[block] = c_y * y + c_log * np.log(y) + c_0 + 2.0 * hol.real
            D[block] = c_y / 2j + c_log / (2j * y) + dhol
        self._V = V
        self._D = D
        # The integrand of eta(l, m) is bilinear in the divisors; with
        # X = 2 Im(d_z E* wdz), rows x and y pair to i (V_x X_y - V_y X_x).
        self._X = 2.0 * (D * self._wdz).imag

    def row(self, x):
        """E*_x and d_z E*_x at the nodes."""
        i = self._index[x[0] % self.modulus, x[1] % self.modulus]
        return self._V[i], self._D[i]

    # Doubles per gathered array of a block: its four arrays take 1 MB.
    BLOCK = 2**15

    def integrals(self, bottom, left_weights, right_weights,
                  tol: float = 1e-10):
        """(values, gaps)[s, k] of eta(l_k, m_k) along g_s(rho) -> g_s(rho^2)
        for the lifts g_s of bottom rows bottom[s] = (c, d), where
        l_k = sum_a left_weights[k, a] E*_(0,a) over a in Z/N and m_k
        likewise on the right.

        g_s pulls E*_(0,a) back to E*_(a c, a d), so arc s pairs the rows
        of a (c, d); a multiplier a whose weight is exactly 0 for every k
        is skipped.  The weights contract the pairing
        J[x, y] = i (V_x . X_y - V_y . X_x) of gathered rows at each node
        count.  The values use 128 nodes and the gaps are their distances
        to the 64-node values; like integrate_one_form, raises if a gap is
        not below tol * max(1, |value|)."""
        N = self.modulus
        bottom = np.asarray(bottom)

        def gather(weights):
            a = np.flatnonzero(np.any(weights != 0, axis=0))
            pairs = np.multiply.outer(bottom, a) % N
            return self._index[pairs[:, 0], pairs[:, 1]], weights[:, a]

        lrows, left_weights = gather(np.asarray(left_weights))
        rrows, right_weights = gather(np.asarray(right_weights))
        n = self.NODES[0]
        step = max(1, self.BLOCK // (self._V.shape[1] * max(
            lrows.shape[1], rrows.shape[1])))
        fine = np.empty((len(lrows), len(left_weights)), dtype=complex)
        coarse = np.empty_like(fine)
        for s in range(0, len(lrows), step):
            block = slice(s, s + step)
            vl, xl = self._V[lrows[block]], self._X[lrows[block]]
            vr, xr = self._V[rrows[block]], self._X[rrows[block]]
            for out, nodes in ((fine, slice(n, None)), (coarse, slice(n))):
                pairing = (
                    np.einsum("sin,sjn->sij", vl[..., nodes], xr[..., nodes])
                    - np.einsum("sjn,sin->sij", vr[..., nodes],
                                xl[..., nodes]))
                out[block] = 1j * np.einsum(
                    "ki,sij,kj->sk", left_weights, pairing, right_weights)
        gaps = np.abs(fine - coarse)
        if np.any(gaps >= tol * np.maximum(1.0, np.abs(fine))):
            raise RuntimeError("quadrature failed to settle below tolerance")
        return fine, gaps


def _divisor_sums(u, N, qpow):
    """For every v mod N, the sums over k = u (mod N) and m >= 1 with
    k m <= rmax of q^{km} e^{2 pi i m v / N} / k, and of the same terms
    with weight m instead of 1/k; qpow[r] holds q^r at the nodes."""
    rmax = len(qpow) - 1
    roots = np.exp(2j * math.pi * np.arange(N) / N)
    s = np.zeros((N, qpow.shape[1]), dtype=complex)
    t = np.zeros_like(s)
    for k in range(u if u else N, rmax + 1, N):
        q = qpow[k::k]  # q^{km} for m = 1 .. rmax // k, a view
        m = np.arange(1, len(q) + 1)
        # m v is reduced mod N in integers before it picks a root of unity.
        phase = roots[np.multiply.outer(np.arange(N), m) % N]
        s += (phase / k) @ q
        t += (phase * m) @ q
    return s, t

