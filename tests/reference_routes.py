"""Reference routes that only the tests use.

Each is a second, plainer way to compute something the package computes
another way: literal Fourier expansions of the Epstein zeta functions
and of sum-zero Eisenstein series, eta integrals along any geodesic or
straight segment by Gauss-Legendre node doubling, the node table of every single pair E*_x along the arc
rho -> rho^2 and its pairings (the arcs that line_arcs gives in closed
form), weighted pairings of that table by four transforms of every
line, plain Dirichlet partial sums, the order-N symbols with their
cusp classes by the shift loop, canonical symbol lifts, the raw
cusp-order double sum and the rebuild of the level-13 coordinate
divisors from character units.  Then the routes that left the package
because no command runs them: the Kronecker-limit closed forms of E*
(Dedekind eta and Siegel theta products, and the discrete Fourier
transform of a weight map), the Eisenstein-Kronecker lattice sum for
the elliptic dilogarithm, the q-expansion of one stream at many points
(summed by term count, as the period oracle's old quadrature did), a
single twist f (x) chi as its own form, the Rankin convolution identity
at the coefficient level, and unit divisors
by the general double-sum order formula and in closed form for the
transform of an even character.  Then the operations on the package's
classes that no command runs (character products, the Moebius action
of SL_2(Z), symbol moves, the conjugate partner of a form, the
j-invariant and cusp-divisor arithmetic) and the scalar route of the
Mahler inner measure, np.roots on one row with a Newton step.  Last,
the character objects' value tables and labels, and the dense sums over
them (einsums over a (p - 1) x p value table) that the package now makes
as one transform over the discrete logs, and 30-digit mpmath sums (Gauss
sums, character roots, the constant terms of E* and its B2bar cosine
sums) to check those transforms and closed forms by.
The module opens with weight maps on Z/N, SL_2(Z) acting on pair
divisors and eta forms of any two weight maps pulled back along any
lift: the package's stream oracle builds eta_chi on one line of
P^1(F_p) only.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ellreg.characters import (
    DirichletCharacter,
    _divisors,
    _is_prime,
    _primitive_root,
    _totient,
    character_table,
    character_values,
    enumerate_characters,
    l_chi_2,
)
from ellreg.eisenstein import (
    EULER_GAMMA,
    EisensteinStream,
    EtaForm,
    suggested_rmax,
)
from ellreg.elliptic import (TWO_PI_I, CurveModel, PeriodLattice,
                             _class_parameters)
from ellreg.lseries import (ModularFormData, _terms_for_rate, l_value,
                            root_number)
from ellreg.modsym import CuspClass, SymbolIndex, cusp_class_of, cusp_classes
from ellreg.special import (
    ABS_TOL,
    MAX_TERMS,
    TWO_PI,
    TruncationError,
    gauss_legendre_nodes,
    periodic_bernoulli2,
)
from ellreg.units import CuspDivisor, _unit_lift, unit_divisor_chi


# Weight maps on Z/N, SL_2(Z) acting on pair divisors, and eta forms of
# any two weight maps pulled back along any lift.  The package's stream
# oracle builds eta_chi on one line of P^1(F_p) only.
class FiniteMap:
    """A function Z/NZ -> C given by its value table."""

    def __init__(self, modulus, values):
        values = list(values)
        if len(values) != modulus:
            raise ValueError("value table length must equal the modulus")
        self.modulus = modulus
        self.values = [complex(v) for v in values]

    def __call__(self, n):
        return self.values[n % self.modulus]


@dataclass(frozen=True)
class UnimodularMatrix:
    """Element of SL_2(Z), acting on row vectors (u, v) by right
    multiplication."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")

    def row_action(self, pair, modulus):
        u, v = pair
        return (
            (u * self.a + v * self.c) % modulus,
            (u * self.b + v * self.d) % modulus,
        )


def pair_divisor(modulus: int, coeffs: dict) -> dict:
    """A pair divisor as EisensteinStream takes it: the pairs reduced mod
    N and merged, zero weights dropped."""
    out = {}
    for (u, v), c in coeffs.items():
        if c != 0:
            key = (u % modulus, v % modulus)
            out[key] = out.get(key, 0) + c
    return out


def residue_divisor(f: FiniteMap) -> dict:
    """A weight map on Z/N embedded along the row (0, v)."""
    return pair_divisor(f.modulus, {(0, v): f(v) for v in range(f.modulus)})


def residue_form(l: FiniteMap, m: FiniteMap,
                 y_min: float = math.sqrt(3) / 2) -> EtaForm:
    """eta(l, m) of two weight maps, truncated for Im z >= y_min."""
    n = l.modulus
    return EtaForm(n, residue_divisor(l), residue_divisor(m),
                   suggested_rmax(n, y_min))


def pullback(form: EtaForm, g: UnimodularMatrix) -> EtaForm:
    """g* eta(L, M) = eta(L g, M g): both divisors right-translated."""
    n = form.modulus

    def moved(divisor):
        return pair_divisor(n, {g.row_action(x, n): c
                                for x, c in divisor.items()})

    return EtaForm(n, moved(form.left), moved(form.right), form.rmax)


def chi_form(p: int, k: int) -> EtaForm:
    """eta_chi_k from the value maps of chi_k and conj chi_k, unpulled."""
    chi = character_values(p, k)
    return residue_form(FiniteMap(p, chi), FiniteMap(p, chi.conj()))


def line_lift(p: int, l: int) -> UnimodularMatrix:
    """The lift of line l of P^1(F_p) in line_arcs' order: (0, -1; 1, l)
    for l < p, the identity at l = p."""
    return UnimodularMatrix(0, -1, 1, l) if l < p else UnimodularMatrix(1, 0, 0, 1)


def trivial_character(modulus):
    return DirichletCharacter(modulus, 0)


def dirichlet_series_direct(form: ModularFormData, s, nmax: int | None = None):
    """Plain partial sum of sum a_n / n^s, absolutely convergent for
    Re s > 3/2 but slow at s = 2: 30,000 terms of 11a are within 8e-7."""
    k = form.nmax if nmax is None else min(nmax, form.nmax)
    n = np.arange(1, k + 1, dtype=float)
    return complex(np.sum(form.coefficients[1:k + 1] * n ** (-complex(s))))


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


def e_star_stream(f: FiniteMap, y_min: float):
    """Stream evaluator for E*_f, valid for Im z >= y_min."""
    rmax = suggested_rmax(f.modulus, y_min)
    return EisensteinStream(f.modulus, residue_divisor(f), rmax)


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
    if abs(sum(f.values)) > 1e-12:
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


def divisor_bracket(l: FiniteMap, m: FiniteMap) -> FiniteMap:
    """(deg m) l - (deg l) m, the obstruction divisor to closedness."""
    deg_l = sum(l.values)
    deg_m = sum(m.values)
    return FiniteMap(
        l.modulus,
        [deg_m * l(v) - deg_l * m(v) for v in range(l.modulus)],
    )


RHO = cmath.exp(1j * math.pi / 3.0)
RHO2 = cmath.exp(2j * math.pi / 3.0)


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


def integrate_path(form: EtaForm, path, velocity, nodes: int = 32,
                   tol: float = 1e-10, max_doublings: int = 6):
    """Gauss-Legendre quadrature of P dz + Q dzbar along any path, with
    node doubling.

    Returns (value, error_estimate), the estimate being the distance to
    the value at half the nodes.  Raises if doubling stalls above tol:
    after max_doublings, or as soon as a doubling fails to halve the
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
    return integrate_path(form, path, velocity, **kw)


def integrate_eta_segment(form: EtaForm, z0, z1, **kw):
    path, velocity = _straight_path(z0, z1)
    return integrate_path(form, path, velocity, **kw)


def enumerate_symbols(level: int) -> list:
    """Every pair (u, v) of order N = level in (Z/NZ)^2, as SymbolIndex."""
    out = []
    for u in range(level):
        for v in range(level):
            if math.gcd(math.gcd(u, v), level) == 1:
                out.append(SymbolIndex(level, u, v))
    return out


def shifted_cusp_class(x: SymbolIndex) -> CuspClass:
    """The cusp class of x as the least pair over the signs s = +-1 and
    every shift t: (s u, s (v + t u)) mod N, O(N) per pair."""
    n = x.level
    best = None
    for s in (1, -1):
        for t in range(n):
            cand = ((s * x.u) % n, (s * (x.v + t * x.u)) % n)
            if best is None or cand < best:
                best = cand
    return CuspClass(n, *best)


def matrix_lift(x, level: int | None = None) -> UnimodularMatrix:
    """Canonical unimodular matrix with bottom row (u, v) mod N.

    x is a SymbolIndex, or a pair (u, v) of order N = level.  The bottom
    row is the smallest congruent coprime pair with
    0 <= c <= N and d >= min allowed, and the top row is reduced so that
    0 <= a < c whenever c > 0.  Deterministic, so paths are reproducible.
    """
    n, u, v = ((x.level, x.u, x.v) if level is None
               else (level, x[0] % level, x[1] % level))
    for c in (u, u + n):
        if c == 0:
            if v == 1 % n:
                return UnimodularMatrix(1, 0, 0, 1)
            if v == (-1) % n:
                return UnimodularMatrix(-1, 0, 0, -1)
            continue
        for t in range(c + 2):
            d = v + t * n
            if math.gcd(c, d) == 1:
                a, b = _complete_row(c, d)
                return UnimodularMatrix(a, b, c, d)
    raise RuntimeError("no coprime lift found for %r" % (x,))


def _cosines(x, a, N: int):
    """cos(2 pi x a / N) for every x and a, with x a reduced mod N in
    integers first."""
    return np.cos(TWO_PI * (np.multiply.outer(x, a) % N) / N)


def beta2_direct(v, N: int):
    """sum_b cos(2 pi b v / N) B2bar(b / N) as the direct cosine sum, for
    an integer v or array of v."""
    t = np.arange(N) / N
    return _cosines(v, np.arange(N), N) @ (t * t - t + 1.0 / 6.0)


def constant_term_direct(u, N: int):
    """The constant term of E*_(u,v) as the direct cosine sum
    (2 pi / N^2)(gamma - log 2 - sum_a cos(2 pi u a / N) log |1 - e(a / N)|),
    for an integer u or array of u."""
    a = np.arange(1, N)
    logs = np.log(np.abs(1.0 - np.exp(2j * math.pi * a / N)))
    return (TWO_PI / N**2) * (EULER_GAMMA - math.log(2.0)
                              - _cosines(u, a, N) @ logs)


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
        c_0 = constant_term_direct(np.arange((p + 1) // 2), p)
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
                c_y[:, 0] = (2.0 * math.pi**2 / p) * beta2_direct(v, p)
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
        line_arcs, raises if a gap is not below tol * max(1, |value|)."""
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


def _pairings_on_every_line(table: ArcTable, ks, weights=None):
    """ArcTable.pairings with a weight w(x) = weights[l, i] on the row
    (l, i) that holds x (1 on every row when no weights are given):
    (values, gaps)[l, j] of sum_{a, c units} w(a l) chi_k(a) conj chi_k(c)
    J[a l, c l] for k = ks[j], by four transforms of every line and no
    work skipped.  Bin -m of the DFT of w f is the conjugate of bin m of
    that of conj(w) f.  With weights, the transforms and sums run in
    _WIDE, so that the reference's own rounding stays far below what it
    checks; without, they run in double, as ArcTable.pairings, and give
    its bits."""
    bins = np.asarray(ks) // 2
    dtype = complex if weights is None else _WIDE
    cw = np.conj(np.ones(table.pairs.shape[:2]) if weights is None
                 else weights).astype(dtype)[..., None]
    V, X = (f.astype(dtype) for f in (table._V, table._X))
    n = ArcTable.NODES[0]
    v, x = (np.fft.fft(f, axis=1)[:, bins] for f in (V, X))
    wv, wx = (np.fft.fft(cw * f, axis=1)[:, bins].conj() for f in (V, X))
    fine, coarse = (np.einsum("lkn,lkn->lk", wv[..., nodes], x[..., nodes])
                    - np.einsum("lkn,lkn->lk", v[..., nodes], wx[..., nodes])
                    for nodes in (slice(n, None), slice(n)))
    scale = 4j * (np.asarray(ks) % 2 == 0)
    fine *= scale
    coarse *= scale
    return fine, np.abs(fine - coarse)


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) >= 0 and s a + t b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _complete_row(c: int, d: int):
    # a d - b c = 1 with 0 <= a < c for c > 0.
    g, s, t = _xgcd(c, d)
    assert g == 1
    a, b = t, -s
    shift = a // c
    return a - shift * c, b - shift * d


def order_at_cusp(f: FiniteMap, u: int, v: int) -> complex:
    """Vanishing order of the unit of f at the cusp with label (u, v).

    The value depends only on the cusp class of (u, v); this evaluates
    the raw double sum at the pair as given, so representative
    independence is a checkable property rather than a construction.
    """
    n = f.modulus
    if abs(sum(f.values)) > 1e-9:
        raise ValueError("unit divisors need a sum-zero map")
    if math.gcd(math.gcd(u, v), n) != 1:
        raise ValueError("(%d, %d) is not an order-%d label" % (u, v, n))
    return _order_from_hat(fourier_transform(f), u, v)


# cusp divisors of the plane-model coordinates x, y on the level-13
# modular curve, listed on the classes [0, v] for v = 1..6
DIV_X_LEVEL13 = (0, 1, 1, -1, 0, -1)
DIV_Y_LEVEL13 = (1, -1, 1, 1, -1, -1)


def x1_13_epsilon() -> DirichletCharacter:
    """The even sextic character mod 13 sending 2 to exp(2 pi i / 6)."""
    for chi in enumerate_characters(13):
        if chi.is_even and chi.order == 6 and chi.exponent_at(2) == 1:
            return chi
    raise RuntimeError("sextic character mod 13 not found")


def reconstruct_x1_13_units() -> dict:
    """Rebuild the level-13 coordinate divisors from character units.

    Verifies that the quadratic-character unit reproduces div y up to
    the scalar -4 sqrt(13) / 13^2, and that the combination
    (13/12) ((1+zeta6) div u_{hat eps^2} + (2-zeta6) div u_{hat epsbar^2})
    reproduces div x exactly; the report also carries the error of the
    swapped coefficient pairing, which does not reproduce div x.
    """
    eps = x1_13_epsilon()
    zeta6 = complex(eps(2))
    eps2 = character_product(eps, eps)
    eps3 = character_product(eps2, eps)
    p_classes = [CuspClass(13, 0, v) for v in range(1, 7)]

    div_y = CuspDivisor(13, {c: float(k)
                             for c, k in zip(p_classes, DIV_Y_LEVEL13)})
    div_x = CuspDivisor(13, {c: float(k)
                             for c, k in zip(p_classes, DIV_X_LEVEL13)})
    ratio = -4.0 * math.sqrt(13.0) / 13**2

    d_quad = unit_divisor_chi(eps3)
    y_err = divisor_distance(d_quad, divisor_scaled(div_y, ratio))
    l_err = abs(l_chi_2(eps3) - 4.0 * math.sqrt(13.0) * math.pi**2 / 169)

    d_hat = unit_divisor_chihat(eps2)
    d_hat_bar = unit_divisor_chihat(eps2.conjugate())
    combo = divisor_scaled(divisor_sum(divisor_scaled(d_hat, 1 + zeta6),
                                       divisor_scaled(d_hat_bar, 2 - zeta6)),
                           13 / 12)
    swapped = divisor_scaled(divisor_sum(divisor_scaled(d_hat, 2 - zeta6),
                                         divisor_scaled(d_hat_bar, 1 + zeta6)),
                             13 / 12)
    return {
        "level": 13,
        "cusp_count": len(cusp_classes(13)),
        "div_y_scalar": ratio,
        "div_y_err": y_err,
        "quadratic_l_value_err": l_err,
        "div_x_err": divisor_distance(combo, div_x),
        "div_x_swapped_err": divisor_distance(swapped, div_x),
        "degree_bound": max(abs(divisor_degree(d)) for d in
                            (d_quad, d_hat, d_hat_bar, combo)),
    }


# The Kronecker-limit route to E*: closed forms of zeta*_{a,b} from
# Dedekind eta and Siegel theta products, summed into E*_x and E*_f.
def fourier_transform(f: FiniteMap) -> FiniteMap:
    """fhat(b) = sum_v f(v) e^{-2 pi i b v / N}, numpy's DFT convention."""
    return FiniteMap(f.modulus, np.fft.fft(f.values))


def dedekind_eta(z) -> complex:
    """Dedekind eta(z) = q^{1/24} prod (1 - q^n) with q = e^{2 pi i z}."""
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("dedekind_eta requires Im z > 0")
    q = cmath.exp(2j * math.pi * z)
    aq = abs(q)
    prod = cmath.exp(1j * math.pi * z / 12.0)
    qn = 1.0 + 0.0j
    for n in range(1, MAX_TERMS + 1):
        qn *= q
        prod *= 1.0 - qn
        # Remaining factors differ from 1 by at most ~ sum |q|^m.
        if abs(qn) * aq / (1.0 - aq) < ABS_TOL:
            return prod
    raise TruncationError("dedekind_eta hit the term cap")


def siegel_theta(w, z) -> complex:
    """Siegel theta function used in the second Kronecker limit formula.

    theta(w, z) = e^{pi i z / 6} (e^{pi i w} - e^{-pi i w})
                  prod_{n>=1} (1 - q^n e^{2 pi i w})(1 - q^n e^{-2 pi i w}).
    """
    z = complex(z)
    w = complex(w)
    if not z.imag > 0:
        raise ValueError("siegel_theta requires Im z > 0")
    q = cmath.exp(2j * math.pi * z)
    aq = abs(q)
    ew = cmath.exp(2j * math.pi * w)
    prod = cmath.exp(1j * math.pi * z / 6.0) * (
        cmath.exp(1j * math.pi * w) - cmath.exp(-1j * math.pi * w)
    )
    qn = 1.0 + 0.0j
    for n in range(1, MAX_TERMS + 1):
        qn *= q
        prod *= (1.0 - qn * ew) * (1.0 - qn / ew)
        bound = abs(qn) * aq * (abs(ew) + 1.0 / abs(ew)) / (1.0 - aq)
        if bound < ABS_TOL:
            return prod
    raise TruncationError("siegel_theta hit the term cap")


def zeta_star(a: int, b: int, z: complex, modulus: int) -> float:
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
        eta = dedekind_eta(z)
        return TWO_PI * (
            EULER_GAMMA - math.log(2.0) - 0.5 * math.log(y)
            - 2.0 * math.log(abs(eta))
        )
    w = (a - b * z) / N
    theta = siegel_theta(w, z)
    return 2.0 * math.pi**2 * b * b * y / N**2 - TWO_PI * math.log(abs(theta))


def e_star_point(x, z, modulus):
    """E*_x(z) by the exact double sum over zeta*_{a,b} closed forms."""
    N = modulus
    u, v = x[0] % N, x[1] % N
    total = 0.0 + 0.0j
    for a in range(N):
        for b in range(N):
            phase = cmath.exp(-2j * math.pi * (a * u + b * v) / N)
            total += phase * zeta_star(a, b, z, N)
    return (total / N**2).real


def e_star_map(f: FiniteMap, z):
    """E*_f(z) = sum_v f(v) E*_{(0,v)}(z) by the closed-form route."""
    N = f.modulus
    fhat = fourier_transform(f).values
    total = 0.0 + 0.0j
    for b in range(N):
        if fhat[b] == 0:
            continue
        row = sum(zeta_star(a, b, z, N) for a in range(N))
        total += fhat[b] * row
    return total / N**2


# The Eisenstein-Kronecker lattice sum for the elliptic dilogarithm.
def dilog_kronecker_oracle(lattice: PeriodLattice, point, radius: int = 500) -> float:
    """Eisenstein-Kronecker lattice sum for D_E, O(1/radius) accurate.

    D_E(P) = -(Im tau)^2/pi * Re sum'_{m,n} chi(P) / (lam^2 conj(lam)),
    lam = m + n tau, chi(P) = exp(2 pi i (m beta - n alpha)).
    """
    if radius < 50:
        raise ValueError("radius below 50 is too coarse to be useful")
    alpha, beta = _class_parameters(lattice, point)
    tau = complex(lattice.tau)
    m = np.arange(-radius, radius + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    lam = mm + nn * tau
    mask = (mm != 0) | (nn != 0)
    lam = lam[mask]
    phase = np.exp(TWO_PI_I * (mm[mask] * beta - nn[mask] * alpha))
    terms = phase / (lam * lam * np.conj(lam))
    return float(-(tau.imag**2) / math.pi * np.real(np.sum(terms)))


# The q-expansion of one stream at many points, summed by term count.
def q_expansions(stream: np.ndarray, z) -> np.ndarray:
    """sum_n stream[n] e(n z) at every point of z, in the shape of z.

    stream is one coefficient stream (index 0 unused).  Each point sums
    the terms its height needs (lseries._terms_for_rate), and the points
    that share a count are summed together, in blocks of at most 2^16
    products (1 MB).
    """
    z = np.asarray(z, dtype=complex)
    points = z.ravel()
    counts = np.array([_terms_for_rate(TWO_PI * y, len(stream) - 1)
                       for y in points.imag.tolist()], dtype=int)
    out = np.empty(points.size, dtype=complex)
    for k in np.flatnonzero(np.bincount(counts)):
        idx = np.flatnonzero(counts == k)
        n = np.arange(1, k + 1)
        for block in np.array_split(idx, -(-idx.size * k >> 16)):
            q = np.exp((2j * math.pi * points[block])[:, None] * n)
            out[block] = (q * stream[1:k + 1]).sum(axis=-1)
    return out.reshape(z.shape)


# One twist f (x) chi as a form of its own.
def twist_by_character(form: ModularFormData,
                       chi: DirichletCharacter) -> ModularFormData:
    """The primitive twist f (x) chi, for chi primitive mod the prime level.

    Coefficients a_n chi(n), level p^2, so a twist cannot be twisted
    again.  The trivial character leaves the form untouched.
    """
    if chi.is_trivial:
        return form
    p = form.level
    if chi.modulus != p:
        raise ValueError("character modulus %d does not match level %d"
                         % (chi.modulus, p))
    if not chi.is_primitive:
        raise ValueError("twisting needs a primitive character")
    vals = np.array([chi(n) for n in range(p)], dtype=complex)
    mult = vals[np.arange(len(form.coefficients)) % p]
    return ModularFormData(p * p, form.coefficients * mult,
                           label=form.label + "*chi")


# The Rankin convolution identity at the Dirichlet-coefficient level,
# in extended precision.
_WIDE = np.complex256 if hasattr(np, "complex256") else np.complex128
_WIDE_PI = np.longdouble(
    "3.141592653589793238462643383279502884"
) if hasattr(np, "complex256") else np.pi


def _character_values_wide(chi: DirichletCharacter, nmax: int) -> np.ndarray:
    # chi(0..nmax) at extended precision, from the exact root exponents.
    order = chi.order
    roots = np.exp(2j * _WIDE_PI * np.arange(order, dtype=np.longdouble)
                   / np.longdouble(order)).astype(_WIDE)
    out = np.zeros(nmax + 1, dtype=_WIDE)
    for n in range(nmax + 1):
        e = chi.exponent_at(n)
        if e is not None:
            out[n] = roots[e]
    return out


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    nmax = len(a) - 1
    out = np.zeros(nmax + 1, dtype=a.dtype)
    for d in range(1, nmax + 1):
        ad = a[d]
        if ad == 0:
            continue
        out[d::d] += ad * b[1:nmax // d + 1]
    return out


def rankin_sigma(chi1: DirichletCharacter, chi2: DirichletCharacter,
                 nmax: int) -> np.ndarray:
    """sigma_{chi1,chi2}(n) = sum_{d | n} d chi1(d) chi2(n/d), n <= nmax."""
    return _dirichlet_convolve(
        np.arange(nmax + 1) * _character_values_wide(chi1, nmax),
        _character_values_wide(chi2, nmax))


def _dirichlet_inverse(a: np.ndarray) -> np.ndarray:
    nmax = len(a) - 1
    if a[1] == 0:
        raise ValueError("series with vanishing first coefficient has no "
                         "convolution inverse")
    support = [d for d in range(2, nmax + 1) if a[d] != 0]
    inv = np.zeros(nmax + 1, dtype=a.dtype)
    inv[1] = 1.0 / a[1]
    for n in range(2, nmax + 1):
        acc = 0.0 + 0.0j
        for d in support:
            if d > n:
                break
            if n % d == 0:
                acc += a[d] * inv[n // d]
        inv[n] = -acc / a[1]
    return inv


def rankin_convolution_check(form: ModularFormData,
                             chi1: DirichletCharacter,
                             chi2: DirichletCharacter,
                             nmax: int) -> float:
    """Coefficient identity behind the Rankin convolution.

    Compares a_n sigma_{chi1,chi2}(n) against the Dirichlet coefficients
    of L(f,chi2,s) L(f,chi1,s-1) / L(psi chi1 chi2, 2s-2) and returns the
    largest absolute mismatch for n <= nmax.  psi is the nebentypus,
    trivial mod the level here.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if nmax > form.nmax:
        raise ValueError("form carries only %d coefficients" % form.nmax)
    a = form.coefficients[:nmax + 1].real.astype(np.longdouble).astype(_WIDE)
    if np.max(np.abs(form.coefficients[:nmax + 1].imag)) > 0:
        raise ValueError("the coefficient identity is set up for rational "
                         "eigenforms")
    n = np.arange(nmax + 1, dtype=np.longdouble)
    lhs = a * rankin_sigma(chi1, chi2, nmax)

    chi1v = _character_values_wide(chi1, nmax)
    chi2v = _character_values_wide(chi2, nmax)
    series_a = a * chi2v
    series_b = a * chi1v * n
    # The nebentypus is trivial mod the level, so the denominator series
    # L(psi chi1 chi2, 2s-2) contributes (chi1 chi2)(m) m^2 at n = m^2
    # for m prime to the level, zero elsewhere.
    prod_wide = _character_values_wide(character_product(chi1, chi2),
                                       int(math.isqrt(nmax)))
    den = np.zeros(nmax + 1, dtype=_WIDE)
    m = 1
    while m * m <= nmax:
        if math.gcd(m, form.level) == 1:
            den[m * m] = prod_wide[m] * (m * m)
        m += 1
    rhs = _dirichlet_convolve(_dirichlet_convolve(series_a, series_b),
                              _dirichlet_inverse(den))
    return float(np.max(np.abs(lhs[1:] - rhs[1:])))


# Unit divisors by the general double-sum order formula, and the
# closed form for the unit of the Fourier transform of a character.
def _order_from_hat(fhat: FiniteMap, u: int, v: int) -> complex:
    n = fhat.modulus
    b2 = [periodic_bernoulli2(b / n) for b in range(n)]
    acc = 0.0 + 0.0j
    for a in range(n):
        au = a * u
        for b in range(n):
            acc += fhat.values[(au + b * v) % n] * b2[b]
    return -acc / (n * math.gcd(u, n))


def unit_divisor(f: FiniteMap) -> CuspDivisor:
    """Cusp divisor of the modular unit attached to a sum-zero map."""
    n = f.modulus
    if abs(sum(f.values)) > 1e-9:
        raise ValueError("unit divisors need a sum-zero map")
    fhat = fourier_transform(f)
    coeffs = {cls: _order_from_hat(fhat, cls.u, cls.v)
              for cls in cusp_classes(n)}
    return CuspDivisor(n, coeffs)


def _induced_value(chi: DirichletCharacter, d: int, beta: int) -> complex:
    return complex(chi(_unit_lift(chi.modulus, d, beta)))


def unit_divisor_chihat(chi: DirichletCharacter) -> CuspDivisor:
    """Divisor of the unit of the Fourier transform of an even character.

    At a cusp [u, v] with d = gcd(u, N) the order is zero unless the
    conductor of chi divides d, in which case it is
    -((phi(N)/N) / (phi(d)/d)) chi_d(v) sum over beta in (Z/d)* of
    B2bar(beta/d) chi_d(beta), with chi_d induced from chi.
    """
    n = chi.modulus
    if n <= 1:
        raise ValueError("the transform unit needs modulus > 1")
    if not chi.is_even:
        raise ValueError("the transform unit needs an even character")
    cond = chi.conductor
    phi_n = _totient(n)
    coeffs = {}
    for cls in cusp_classes(n):
        d = math.gcd(cls.u, n)
        if d % cond != 0:
            coeffs[cls] = 0.0
            continue
        phi_d = _totient(d)
        front = (phi_n / n) / (phi_d / d)
        s = sum(periodic_bernoulli2(beta / d) * _induced_value(chi, d, beta)
                for beta in range(d) if math.gcd(beta, d) == 1)
        coeffs[cls] = -front * _induced_value(chi, d, cls.v) * s
    return CuspDivisor(n, coeffs)


# Operations on the package's classes that no command runs.
def character_product(chi: DirichletCharacter,
                      psi: DirichletCharacter) -> DirichletCharacter:
    """chi psi, from the exact values at the smallest primitive root g:
    chi(g) psi(g) = e(e1 / m1 + e2 / m2) = e(k / phi) for chi psi = chi_k."""
    if chi.modulus != psi.modulus:
        raise ValueError("character moduli differ")
    n = chi.modulus
    g, phi = _primitive_root(n), _totient(n)
    k = sum(c.exponent_at(g) * (phi // c.order) for c in (chi, psi))
    return DirichletCharacter(n, k)


def delta_map(modulus: int, support: int) -> FiniteMap:
    """The map on Z/NZ that is 1 at support and 0 elsewhere."""
    vals = [0.0] * modulus
    vals[support % modulus] = 1.0
    return FiniteMap(modulus, vals)


def mobius(g: UnimodularMatrix, z):
    """g acting on the upper half plane: (a z + b) / (c z + d)."""
    return (g.a * z + g.b) / (g.c * z + g.d)


def mobius_derivative(g: UnimodularMatrix, z):
    """d(g z) / dz = 1 / (c z + d)^2."""
    return 1.0 / (g.c * z + g.d) ** 2


def matrix_product(g: UnimodularMatrix, h: UnimodularMatrix):
    return UnimodularMatrix(
        g.a * h.a + g.b * h.c,
        g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c,
        g.c * h.b + g.d * h.d,
    )


def matrix_inverse(g: UnimodularMatrix) -> UnimodularMatrix:
    return UnimodularMatrix(g.d, -g.b, -g.c, g.a)


def symbol_act(x: SymbolIndex, g: UnimodularMatrix) -> SymbolIndex:
    """The symbol of bottom row (u, v) g."""
    return SymbolIndex(x.level, *g.row_action((x.u, x.v), x.level))


def symbol_negated(x: SymbolIndex) -> SymbolIndex:
    return SymbolIndex(x.level, -x.u, -x.v)


def cusp_width(c: CuspClass) -> int:
    """The width N / gcd(u^2, N) of the cusp class of (u, v)."""
    return c.level // math.gcd(c.u * c.u, c.level)


def conjugate_partner(form: ModularFormData) -> ModularFormData:
    """The form whose coefficients are the conjugate stream."""
    return ModularFormData(form.level, form.coefficients.conj(),
                           label=form.label + "~")


def j_invariant(curve: CurveModel):
    """c4^3 / Delta as an exact fraction."""
    from fractions import Fraction  # on use: it loads decimal too

    c4, _ = curve.c_invariants
    return Fraction(c4**3, curve.discriminant)


def divisor_degree(d: CuspDivisor) -> complex:
    return sum(d.coefficients.values())


def divisor_sum(d: CuspDivisor, e: CuspDivisor) -> CuspDivisor:
    if e.level != d.level:
        raise ValueError("mixed levels")
    merged = dict(d.coefficients)
    for cls, c in e.coefficients.items():
        merged[cls] = merged.get(cls, 0.0) + c
    return CuspDivisor(d.level, merged)


def divisor_scaled(d: CuspDivisor, s) -> CuspDivisor:
    return CuspDivisor(d.level,
                       {c: s * v for c, v in d.coefficients.items()})


def divisor_diamond(d: CuspDivisor, k: int) -> CuspDivisor:
    """Pullback along the diamond map [u, v] -> [k u, k v]."""
    n = d.level
    if math.gcd(k, n) != 1:
        raise ValueError("%d is not a unit mod %d" % (k, n))
    coeffs = {}
    for cls in cusp_classes(n):
        moved = cusp_class_of(SymbolIndex(n, k * cls.u, k * cls.v))
        coeffs[cls] = d.coefficients.get(moved, 0.0)
    return CuspDivisor(n, coeffs)


def divisor_distance(d: CuspDivisor, e: CuspDivisor) -> float:
    """The largest coefficient difference over the classes of either."""
    keys = set(d.coefficients) | set(e.coefficients)
    if not keys:
        return 0.0
    return max(abs(d.coefficients.get(c, 0.0) - e.coefficients.get(c, 0.0))
               for c in keys)


# The scalar route of the Mahler inner measure: np.roots on one row,
# polished by one Newton step, which the batched solve reproduces.
def _trimmed(c: np.ndarray) -> np.ndarray:
    """c cut after its top nonzero entry; c_0 alone if all are 0."""
    top = len(c) - 1
    while top > 0 and c[top] == 0:
        top -= 1
    return c[:top + 1]


def _polished_roots(c: np.ndarray) -> np.ndarray:
    """Roots of the ascending coefficient vector, with one Newton step."""
    monic = c / c[-1]
    roots = np.roots(monic[::-1])
    poly = np.polynomial.Polynomial(c)
    dpoly = poly.deriv()
    for k, r in enumerate(roots):
        d = dpoly(r)
        if d != 0:
            refined = r - poly(r) / d
            if abs(poly(refined)) < abs(poly(r)):
                roots[k] = refined
    return roots


def one_variable_measure(cvec: np.ndarray) -> float:
    """Jensen's formula for the Mahler measure of sum c[j] Y^j."""
    c = _trimmed(np.asarray(cvec, dtype=complex))
    if c[-1] == 0:
        raise RuntimeError("polynomial vanishes identically at a quadrature node")
    if len(c) == 1:
        return math.log(abs(c[0]))
    roots = _polished_roots(c)
    return math.log(abs(c[-1])) + float(
        np.sum(np.log(np.maximum(1.0, np.abs(roots)))))


# The generators sigma and tau of SL_2(Z) in the Manin relations.
SIGMA = UnimodularMatrix(0, -1, 1, 0)
TAU_MAT = UnimodularMatrix(0, -1, 1, -1)


def character_map(chi: DirichletCharacter) -> FiniteMap:
    """chi's value table as a map on Z/NZ."""
    return FiniteMap(chi.modulus, [chi(a) for a in range(chi.modulus)])


def character_label(chi) -> str:
    """Inverse of character_from_label when (Z/N)* is cyclic.

    The value at the smallest primitive root pins the character down
    uniquely, so the label always round-trips.
    """
    n = chi.modulus
    g = _primitive_root(n)
    if g is None:
        raise ValueError(f"(Z/{n})* is not cyclic; no label for modulus {n}")
    return f"{n}:g={g},zeta{chi.order}^{chi.exponent_at(g)}"


def gauss_sums_mpmath(p: int, ks, dps: int = 30) -> np.ndarray:
    """tau(chi_k) = sum_a chi_k(a) e(a / p) for each k in ks, summed in
    dps-digit mpmath arithmetic, chi_k(g^i) = e(k i / (p - 1)) for the
    smallest primitive root g."""
    import mpmath

    with mpmath.workdps(dps):
        g = _primitive_root(p)
        unit = [mpmath.expjpi(mpmath.mpf(2 * i) / (p - 1))
                for i in range(p - 1)]
        terms = [(i, mpmath.expjpi(mpmath.mpf(2 * pow(g, i, p)) / p))
                 for i in range(p - 1)]
        return np.array([complex(mpmath.fsum(unit[k * i % (p - 1)] * e
                                             for i, e in terms))
                         for k in ks])


def beta2_mpmath(vs, N: int, dps: int = 30) -> np.ndarray:
    """sum_b cos(2 pi b v / N) B2bar(b / N) for each v in vs, the direct
    sum in dps-digit mpmath arithmetic, rounded once."""
    import mpmath

    with mpmath.workdps(dps):
        b2 = [(mpmath.mpf(b) / N) ** 2 - mpmath.mpf(b) / N + mpmath.mpf(1) / 6
              for b in range(N)]
        return np.array([float(mpmath.fsum(
            mpmath.cospi(mpmath.mpf(2 * (b * v % N)) / N) * w
            for b, w in enumerate(b2))) for v in map(int, vs)])


def constant_terms_mpmath(us, N: int, dps: int = 30) -> np.ndarray:
    """The constant term of E*_(u,v) for each u in us, (2 pi / N^2)(gamma
    - log 2 - sum_a cos(2 pi u a / N) log |1 - e(a / N)|), summed in
    dps-digit mpmath arithmetic and rounded once."""
    import mpmath

    with mpmath.workdps(dps):
        logs = [mpmath.log(2 * mpmath.sinpi(mpmath.mpf(a) / N))
                for a in range(1, N)]
        head = mpmath.euler - mpmath.log(2)
        return np.array([float(2 * mpmath.pi / N**2 * (head - mpmath.fsum(
            mpmath.cospi(mpmath.mpf(2 * (u * a % N)) / N) * w
            for a, w in enumerate(logs, 1)))) for u in map(int, us)])


def character_values_mpmath(p: int, ks, dps: int = 30) -> np.ndarray:
    """chi_k(a) for a = 0 .. p - 1, one row per k in ks, from dps-digit
    roots e(k i / (p - 1)) at a = g^i."""
    import mpmath

    with mpmath.workdps(dps):
        roots = [complex(mpmath.expjpi(mpmath.mpf(2 * e) / (p - 1)))
                 for e in range(p - 1)]
    g, logs = _primitive_root(p), [0] * p
    for i in range(p - 1):
        logs[pow(g, i, p)] = i
    return np.array([[0.0] + [roots[k * logs[a] % (p - 1)]
                              for a in range(1, p)] for k in ks])


def character_value_table(p: int) -> np.ndarray:
    """values[k, a] = chi_k(a), a = 0 .. p - 1, from the character
    objects: enumerate_characters(p)[k] is chi_k."""
    return np.array([[chi(a) for a in range(p)]
                     for chi in enumerate_characters(p)])


def arc_coefficients_einsum(arcs: np.ndarray) -> np.ndarray:
    """c[k, j] = tau(conj chi_j) sum_v conj chi_j(v) arcs[k, v] for arcs
    on the p + 1 lines, summed over the value table."""
    p = arcs.shape[1] - 1
    values, tau = character_value_table(p), character_table(p).tau
    bar = (-np.arange(p - 1)) % (p - 1)
    return tau[bar] * np.einsum("kv,jv->kj", arcs[:, :-1], values[bar])


def xi_bridge_lines_einsum(form: ModularFormData,
                           lambda_table: np.ndarray) -> np.ndarray:
    """xi_bridge_table's line values, its sum over the characters made
    over the value table."""
    p = form.level
    w = root_number(form)
    values, tau = character_value_table(p), character_table(p).tau
    k = np.arange(1, p - 1)
    central = tau[-k] * (TWO_PI / p) * lambda_table[k]
    units = w * np.einsum("kx,k->x", values[k, 1:].conj(), central
                          ) / (TWO_PI * (p - 1))
    at_inf = w * l_value(form, 1.0) / TWO_PI
    # Line (1, v) holds x = 1 / v.
    v = np.arange(1, p)
    return np.concatenate([[at_inf], units[[pow(int(x), -1, p) - 1
                                             for x in v]], [-at_inf]])


def thm2_weighted_einsum(coef: np.ndarray, l_one: np.ndarray) -> complex:
    """thm2's double sum sum_{k, j} lam[k, j] L_k L_j, k even nontrivial
    and j odd, with lam[k, j] = sum_m tau(chi_m) / tau(chi_m chi_j) c[m, k]
    over even m made as its own (p - 1) / 2 x (p - 1) / 2 array."""
    p = len(l_one) + 1
    tau = character_table(p).tau
    evens, odds = np.arange(2, p - 1, 2), np.arange(1, p - 1, 2)
    mixed = tau[np.add.outer(evens, odds) % (p - 1)]
    lam = np.einsum("mj,mk->kj", tau[evens, None] / mixed,
                    coef[np.ix_(evens, evens)])
    return np.einsum("kj,k,j->", lam, l_one[evens], l_one[odds])
