"""Reference routes that only the tests use.

Each is a second, plainer way to compute something the package computes
another way: literal Fourier expansions of the Epstein zeta functions
and of sum-zero Eisenstein series, eta integrals along straight
segments, weighted pairings of the arc table by four transforms of
every line, plain Dirichlet partial sums, canonical symbol lifts, the
raw cusp-order double sum and the rebuild of the level-13 coordinate
divisors from character units.
"""

import cmath
import math

import numpy as np

from ellreg.characters import (
    DirichletCharacter,
    FiniteMap,
    _divisors,
    _xgcd,
    enumerate_characters,
    fourier_transform,
    l_chi_2,
)
from ellreg.eisenstein import (
    EULER_GAMMA,
    TWO_PI,
    ArcTable,
    EisensteinStream,
    EtaForm,
    PairDivisor,
    UnimodularMatrix,
    _straight_path,
    integrate_one_form,
    suggested_rmax,
)
from ellreg.lseries import ModularFormData
from ellreg.modsym import CuspClass, cusp_classes
from ellreg.special import periodic_bernoulli2
from ellreg.units import (
    CuspDivisor,
    _order_from_hat,
    unit_divisor_chi,
    unit_divisor_chihat,
)


def trivial_character(modulus):
    exps = [
        0 if math.gcd(a, modulus) == 1 else None for a in range(modulus)
    ]
    return DirichletCharacter(modulus, 1, exps)


def dirichlet_series_direct(form: ModularFormData, s, nmax: int | None = None):
    """Plain partial sum of sum a_n / n^s; only sensible for Re s > 2."""
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


def divisor_bracket(l: FiniteMap, m: FiniteMap) -> FiniteMap:
    """(deg m) l - (deg l) m, the obstruction divisor to closedness."""
    deg_l = l.total()
    deg_m = m.total()
    return FiniteMap(
        l.modulus,
        [deg_m * l(v) - deg_l * m(v) for v in range(l.modulus)],
    )


def integrate_eta_segment(form: EtaForm, z0, z1, **kw):
    path, velocity = _straight_path(z0, z1)
    return integrate_one_form(form, path, velocity, **kw)


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


def _pairings_on_every_line(table: ArcTable, ks, weights=None):
    """ArcTable.pairings with a weight w(x) = weights[l, i] on the row
    (l, i) that holds x (1 on every row when no weights are given):
    (values, gaps)[l, j] of sum_{a, c units} w(a l) chi_k(a) conj chi_k(c)
    J[a l, c l] for k = ks[j], by four transforms of every line and no
    work skipped.  Bin -m of the DFT of w f is the conjugate of bin m of
    that of conj(w) f."""
    bins = np.asarray(ks) // 2
    cw = np.conj(np.ones(table.pairs.shape[:2]) if weights is None
                 else weights)[..., None]
    n = ArcTable.NODES[0]
    v, x = (np.fft.fft(f, axis=1)[:, bins] for f in (table._V, table._X))
    wv, wx = (np.fft.fft(cw * f, axis=1)[:, bins].conj()
              for f in (table._V, table._X))
    fine, coarse = (np.einsum("lkn,lkn->lk", wv[..., nodes], x[..., nodes])
                    - np.einsum("lkn,lkn->lk", v[..., nodes], wx[..., nodes])
                    for nodes in (slice(n, None), slice(n)))
    scale = 4j * (np.asarray(ks) % 2 == 0)
    fine *= scale
    coarse *= scale
    return fine, np.abs(fine - coarse)


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
    if abs(f.total()) > 1e-9:
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
    eps2 = eps * eps
    eps3 = eps2 * eps
    p_classes = [CuspClass(13, 0, v) for v in range(1, 7)]

    div_y = CuspDivisor(13, {c: float(k)
                             for c, k in zip(p_classes, DIV_Y_LEVEL13)})
    div_x = CuspDivisor(13, {c: float(k)
                             for c, k in zip(p_classes, DIV_X_LEVEL13)})
    ratio = -4.0 * math.sqrt(13.0) / 13**2

    d_quad = unit_divisor_chi(eps3)
    y_err = d_quad.distance(div_y.scaled(ratio))
    l_err = abs(l_chi_2(eps3) - 4.0 * math.sqrt(13.0) * math.pi**2 / 169)

    d_hat = unit_divisor_chihat(eps2)
    d_hat_bar = unit_divisor_chihat(eps2.conjugate())
    combo = (d_hat.scaled(1 + zeta6)
             + d_hat_bar.scaled(2 - zeta6)).scaled(13 / 12)
    swapped = (d_hat.scaled(2 - zeta6)
               + d_hat_bar.scaled(1 + zeta6)).scaled(13 / 12)
    return {
        "level": 13,
        "cusp_count": len(cusp_classes(13)),
        "div_y_scalar": ratio,
        "div_y_err": y_err,
        "quadratic_l_value_err": l_err,
        "div_x_err": combo.distance(div_x),
        "div_x_swapped_err": swapped.distance(div_x),
        "degree_bound": max(abs(d.degree) for d in
                            (d_quad, d_hat, d_hat_bar, combo)),
    }
