"""Real-analytic Eisenstein series at s = 1 and the eta one-form.

Two independent evaluation routes are kept side by side:

* closed forms through the Kronecker limit formulas (Dedekind eta and
  Siegel theta products),
* a combined divisor-sum expansion ("stream") for arbitrary weighted
  sums of E*_{(u,v)}, which the general quadrature evaluates.

The eta one-form eta(l, m) = E*_l (d - dbar) E*_m - E*_m (d - dbar) E*_l
is evaluated through streams and integrated along geodesics with
Gauss-Legendre panels and node doubling.  Along the arc rho -> rho^2,
which every suite integrates over, a per-level node table of the single
pairs E*_(u,v) turns the pulled-back arcs of a suite into character
transforms of its rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .characters import (
    FiniteMap,
    _is_prime,
    _primitive_root,
    fourier_transform,
)
from .special import (
    DEFAULT_CONTROL,
    SeriesControl,
    dedekind_eta,
    gauss_legendre_nodes,
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


def _beta2(v, N: int):
    """sum_b cos(2 pi b v / N) B2bar(b / N), for an integer v or array of v."""
    t = np.arange(N) / N
    return _cosines(v, np.arange(N), N) @ (t * t - t + 1.0 / 6.0)


def _constant_term(u, N: int):
    """The constant term of E*_(u,v), the same for every v, for an
    integer u or array of u."""
    a = np.arange(1, N)
    logs = np.log(np.abs(1.0 - np.exp(2j * math.pi * a / N)))
    return (TWO_PI / N**2) * (EULER_GAMMA - math.log(2.0)
                              - _cosines(u, a, N) @ logs)


def _cosines(x, a, N: int):
    """cos(2 pi x a / N) for every x and a, with x a reduced mod N in
    integers first."""
    return np.cos(TWO_PI * (np.multiply.outer(x, a) % N) / N)


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


class OneFormValue(NamedTuple):
    """Pointwise data of a one-form P dz + Q dzbar."""

    dz: complex
    dzbar: complex


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

    def coefficients(self, z) -> OneFormValue:
        M = self.right_stream
        ez = M._exps(np.asarray(z, dtype=complex))  # same level and rmax
        vl, dl, dbl = self.left_stream.jet(z, ez)
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


def integrate_one_form(form: EtaForm, path, velocity, nodes: int = 32,
                       tol: float = 1e-10, max_doublings: int = 6):
    """Gauss-Legendre quadrature of P dz + Q dzbar with node doubling.

    Returns (value, error_estimate).  Raises if doubling stalls above
    tol: after max_doublings, or as soon as a doubling fails to halve the
    previous error, which then sits at its rounding floor.
    """

    def quad(n):
        x, w = gauss_legendre_nodes(n)
        t = 0.5 * (x + 1.0)
        z = path(t)
        v = velocity(t)
        P, Q = form.coefficients(z)
        return 0.5 * complex(np.sum(w * (P * v + Q * np.conj(v))))

    prev, last = quad(nodes), math.inf
    for _ in range(max_doublings):
        nodes *= 2
        cur = quad(nodes)
        err = abs(cur - prev)
        if err < tol * max(1.0, abs(cur)):
            return cur, err
        if not err < 0.5 * last:
            break
        prev, last = cur, err
    raise RuntimeError("quadrature failed to settle below tolerance")


def integrate_eta_geodesic(form: EtaForm, z0, z1, **kw):
    path, velocity = _geodesic_path(z0, z1)
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
    """E*_x and the pairing data of d_z E*_x for every x != 0 in (Z/p)^2,
    p prime, at the 32 and 64 Gauss-Legendre nodes of the arc rho -> rho^2.

    Rows are in (line, log) order: line l runs over (1, v), v = 0 .. p - 1,
    then (0, 1), and row i < (p - 1) / 2 of a line holds pairs[l, i] =
    g^i l, g the smallest primitive root.  E*_{-x} = E*_x and
    g^((p - 1) / 2) = -1, so the row also holds -g^i l, and the rows hold
    every x != 0 once.  E*_F is linear in F and pulling eta back by g only
    moves divisor entries, so the arcs of a line under character
    weightings are DFTs of its rows (pairings).  The rows follow the
    EisensteinStream expansion truncated at rmax, summed from the divisor
    pairs (k, m), k m <= rmax.  The highest frequency the rows carry,
    about rmax / p, does not grow with p, and neither do the node counts.
    """

    NODES = (32, 64)

    def __init__(self, modulus: int, rmax: int):
        p = modulus
        if not _is_prime(p):
            raise ValueError(f"arc tables need a prime modulus, not {p}")
        self.modulus = p
        self.rmax = rmax
        path, velocity = _geodesic_path(RHO, RHO2)
        ts, weights = [], []
        for n in self.NODES:
            x, w = gauss_legendre_nodes(n)
            t = 0.5 * (x + 1.0)
            ts.append(t)
            weights.append(0.5 * w * velocity(t))
        z = path(np.concatenate(ts))
        self.nodes = z  # the coarse rule's nodes, then the fine rule's
        y = z.imag
        # The quadrature of P dz + Q dzbar is sum(wdz P + conj(wdz) Q).
        self._wdz = np.concatenate(weights)
        qpow = np.exp(
            2j * math.pi * np.multiply.outer(np.arange(rmax + 1), z) / p)

        g = _primitive_root(p)
        lines = np.array([(1, v) for v in range(p)] + [(0, 1)])
        powers = np.array([pow(g, i, p) for i in range((p - 1) // 2)])
        self.pairs = lines[:, None] * powers[:, None] % p
        # Row x is built, u block by u block, as the one of x, -x whose u
        # is at most -u.
        x = self.pairs.reshape(-1, 2)
        us, vs = np.where(x[:, :1] > p - x[:, :1], -x % p, x).T

        c_log = -math.pi / p**2
        c_0 = _constant_term(np.arange((p + 1) // 2), p)
        V = np.empty((us.size, z.size))
        X = np.empty((us.size, z.size))
        for u in range((p + 1) // 2):
            block = np.flatnonzero(us == u)
            v = vs[block]
            s_u, t_u = _divisor_sums(u, p, qpow)
            s_w, t_w = (s_u, t_u) if u == 0 else _divisor_sums(p - u, p, qpow)
            hol = (math.pi / p) * (s_u[v] + s_w[(-v) % p])
            dhol = (2j * math.pi**2 / p**2) * (t_u[v] + t_w[(-v) % p])
            c_y = np.zeros((v.size, 1))
            if u == 0:
                c_y[:, 0] = (2.0 * math.pi**2 / p) * _beta2(v, p)
            V[block] = c_y * y + c_log * np.log(y) + c_0[u] + 2.0 * hol.real
            # eta(l, m) is bilinear in the divisors; with X = 2 Im(d_z E*
            # wdz), rows x and y pair to i (V_x X_y - V_y X_x).
            d_z = c_y / 2j + c_log / (2j * y) + dhol
            X[block] = 2.0 * (d_z * self._wdz).imag
        self._V = V.reshape(self.pairs.shape[:2] + (z.size,))
        self._X = X.reshape(self._V.shape)

    def pairings(self, ks, tol: float = 1e-10):
        """(values, gaps)[l, j] of sum_{a, c units} chi_k(a) conj chi_k(c)
        J[a l, c l] for k = ks[j] over every line l, where
        J[x, y] = i (V_x . X_y - V_y . X_x) is the arc integral of eta
        for the pair divisors delta_x, delta_y.

        With a = g^s and h = (p - 1) / 2, a character sum over the units
        runs over a line's rows twice, as s and s + h: sum_s chi_k(g^s)
        f[s mod h] is twice bin -k/2 of the length-h DFT of f for even k,
        and 0 for odd k.  The values use the fine rule of NODES and the
        gaps are their distances to the coarse rule's values; like
        integrate_one_form, raises if a gap is not below
        tol * max(1, |value|)."""
        ks = np.asarray(ks)
        bins = ks // 2
        n = self.NODES[0]
        fine = np.zeros((len(self._V), len(ks)), dtype=complex)
        coarse = np.zeros_like(fine)
        # Lines go through in blocks of at most 2^16 table entries, so
        # that no transform takes more than 1 MB.
        for block in np.array_split(np.arange(len(fine)),
                                    max(1, -(-self._V.size >> 16))):
            # np.fft is loaded on first use, not by importing ellreg.
            v, x = (np.fft.fft(f[block], axis=1)[:, bins]
                    for f in (self._V, self._X))
            # The rows are real, so bin -m of a transform is the conjugate
            # of bin m: the two terms below are exact conjugates, and the
            # values come out exactly real.
            wv, wx = v.conj(), x.conj()
            for out, nodes in ((fine, slice(n, None)), (coarse, slice(n))):
                out[block] = (
                    np.einsum("lkn,lkn->lk", wv[..., nodes], x[..., nodes])
                    - np.einsum("lkn,lkn->lk", v[..., nodes], wx[..., nodes]))
        # sum_s chi_k(g^s) f[s mod h] is twice a bin for even k, 0 for odd.
        scale = 4j * (ks % 2 == 0)
        fine *= scale
        coarse *= scale
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

