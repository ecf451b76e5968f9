"""Real-analytic Eisenstein series at s = 1 and the eta one-form.

E* is evaluated by one route: a combined divisor-sum expansion
("stream") for weighted sums of E*_{(u,v)} over a pair divisor, a dict
of weights on (Z/N)^2, with the constant terms of every u mod N from one
FFT.  The closed forms through the Kronecker limit formulas (Dedekind
eta and Siegel theta products) are the tests' reference route.

The eta one-form eta(l, m) = E*_l (d - dbar) E*_m - E*_m (d - dbar) E*_l
is evaluated through streams.  Every suite integrates it over the arc
rho -> rho^2, pulled back along a line of P^1(F_p), by one Gauss-Legendre
rule of ARC_NODES nodes, whose own top two Legendre coefficients of the
integrand bound the error.  The arcs of eta_chi on the lines are
character transforms of E* (characters.character_sums), whose
q-expansions have twisted divisor sums as coefficients (line_arcs);
arc_integral evaluates one of them from the streams of the pulled-back
divisors (eta_chi) at the same nodes.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .characters import character_sums, character_table, character_values
from .special import ABS_TOL, TWO_PI, _legendre, gauss_legendre_nodes

EULER_GAMMA = 0.5772156649015329


def _beta2(v, N: int):
    """sum_b cos(2 pi b v / N) B2bar(b / N) for an integer v or array of v,
    from the Fourier series of B2: with m = min(v mod N, -v mod N), 1 / (6 N)
    at m = 0, else 1 / (2 N sin^2(pi m / N)); the lesser angle keeps digits."""
    m = np.minimum(np.mod(v, N), np.mod(-v, N))
    s = np.sin(math.pi * np.maximum(m, 1) / N)
    return np.where(m == 0, 1.0 / (6 * N), 1.0 / (2 * N * s**2))


def _constant_terms(N: int):
    """The constant term of E*_(u,v), the same for every v, for u = 0 ..
    N - 1: (2 pi / N^2)(gamma - log 2 - sum_a cos(2 pi u a / N) l[a]) with
    l[a] = log |1 - e(a / N)| and l[0] = 0, one FFT of l."""
    logs = np.zeros(N)
    logs[1:] = np.log(np.abs(1.0 - np.exp(TWO_PI * 1j * np.arange(1, N) / N)))
    return (TWO_PI / N**2) * (EULER_GAMMA - math.log(2.0)
                              - np.fft.fft(logs).real)


def _multiples(ks, rmax: int):
    """(k, m) for each k in ks and m = 1 .. rmax // k, in that order: the
    terms k m <= rmax of the divisor sums over ks."""
    counts = rmax // ks
    k = np.repeat(ks, counts)
    return k, np.arange(1, len(k) + 1) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)


def _q_powers(count: int, z, N: int):
    """The table e^{2 pi i r z / N}, r = 0 .. count - 1 down its first
    axis, built in place: the arcs and the streams share it."""
    qpow = np.multiply.outer(np.arange(count), z)
    qpow *= 2j * math.pi
    qpow /= N
    return np.exp(qpow, out=qpow)


class EisensteinStream:
    """Fourier data of E*_F for a pair divisor F, a dict of weights on
    pairs (u, v) reduced mod N:

    E*_F(z) = c_y y + c_log log y + c_0
              + sum_{r>=1} A_r e^{2 pi i r z / N} + B_r e^{-2 pi i r zbar / N}.
    """

    def __init__(self, N: int, divisor: dict, rmax: int):
        self.modulus = N
        self.rmax = rmax
        self.c_y = self.c_0 = 0.0 + 0.0j
        self.c_log = -math.pi / N**2 * sum(divisor.values())
        self.A = np.zeros(rmax + 1, dtype=complex)
        self.B = np.zeros(rmax + 1, dtype=complex)
        # Each pair's and sign's terms go straight into A and B in the
        # order of a loop over k and m: np.add.at adds in index order, so
        # each A_r and B_r rounds as that loop would.
        constant = _constant_terms(N)
        for (u, v), c in divisor.items():
            if u == 0:
                self.c_y += c * (2.0 * math.pi**2 / N) * _beta2(v, N)
            self.c_0 += c * constant[u]
            for sign in (1, -1):
                # r = k m with k = sign u mod N gains e(sign m v / N) / k.
                k, m = _multiples(np.arange((sign * u) % N or N, rmax + 1, N),
                                  rmax)
                base = np.exp(sign * 2j * math.pi * (m * v % N) / N) / k
                np.add.at(self.A, k * m, c * (math.pi / N) * base)
                np.add.at(self.B, k * m, c * (math.pi / N) * base.conj())

    def jet(self, z, ez=None):
        """E*_F at z and the coefficients of dz and dzbar in its total
        differential; ez is _q_powers(rmax + 1, z, N), which streams of
        one level and rmax can share.  The B sums are taken as conj(sum_r
        conj(B_r) ez_r), so the table is not conjugated."""
        z = np.asarray(z, dtype=complex)
        y = z.imag
        ez = _q_powers(self.rmax + 1, z, self.modulus) if ez is None else ez
        r = np.arange(self.rmax + 1)
        value = (self.c_y * y + self.c_log * np.log(y) + self.c_0
                 + np.einsum("r,r...->...", self.A, ez)
                 + np.einsum("r,r...->...", self.B.conj(), ez).conj())
        hol = np.einsum(
            "r,r...->...", self.A * (2j * math.pi * r / self.modulus), ez)
        anti = np.einsum("r,r...->...", np.conj(
            self.B * (-2j * math.pi * r / self.modulus)), ez).conj()
        return (value, self.c_y / 2j + self.c_log / (2j * y) + hol,
                -self.c_y / 2j - self.c_log / (2j * y) + anti)


def suggested_rmax(modulus: int, y_min: float) -> int:
    """Truncation index so the discarded stream tail is below ABS_TOL."""
    if y_min <= 0:
        raise ValueError("need y_min > 0")
    return int(math.ceil(modulus * math.log(1.0 / ABS_TOL) / (TWO_PI * y_min))) + 16


class EtaForm:
    """eta(l, m) = E*_l (d - dbar) E*_m - E*_m (d - dbar) E*_l for two
    pair divisors mod N, as EisensteinStream takes them."""

    def __init__(self, N: int, left: dict, right: dict, rmax: int):
        self.modulus = N
        self.left = left
        self.right = right
        self.rmax = rmax

    @cached_property
    def left_stream(self):
        return EisensteinStream(self.modulus, self.left, self.rmax)

    @cached_property
    def right_stream(self):
        return EisensteinStream(self.modulus, self.right, self.rmax)

    def coefficients(self, z):
        """(P, Q) of the form P dz + Q dzbar at z."""
        M = self.right_stream
        ez = _q_powers(self.rmax + 1, np.asarray(z, complex), self.modulus)
        vl, dl, dbl = self.left_stream.jet(z, ez)
        vm, dm, dbm = M.jet(z, ez)
        return vl * dm - vm * dl, -(vl * dbm - vm * dbl)


def eta_chi(p: int, k: int, l: int) -> EtaForm:
    """eta_chi = sum_{a,b units} chi(a) conj(chi)(b) eta(delta_a, delta_b)
    for chi = chi_k mod the prime p, pulled back along line l of P^1(F_p)
    in line_arcs' order, and truncated for Im z >= sqrt(3) / 2.  A lift
    with bottom row (c, d), (1, l) for l < p and (0, 1) at l = p, moves
    the pair (0, a) to a (c, d)."""
    c, d = (1, l) if l < p else (0, 1)
    chi = character_values(p, k)[1:].tolist()
    left = {(a * c % p, a * d % p): w for a, w in enumerate(chi, 1)}
    right = {x: w.conjugate() for x, w in zip(left, chi)}
    return EtaForm(p, left, right, suggested_rmax(p, math.sqrt(3) / 2))


# The node count of the Gauss-Legendre rule on rho -> rho^2: the arcs'
# q-frequencies reach about rmax / p, which does not grow with p.
ARC_NODES = 64


@lru_cache(maxsize=None)
def _arc_rule(nodes: int):
    """The nodes z = i e^(i pi x / 6) of the Gauss-Legendre rule on rho ->
    rho^2, its weights times dz = (pi / 6) i z dx and (n + 1/2) P_n(x) for
    _settle at n = nodes - 2, nodes - 1; made once, and not to be written."""
    x, w = gauss_legendre_nodes(nodes)
    z = 1j * np.exp(1j * (math.pi / 6) * x)  # -x mirrors exactly
    tail = np.stack([(n + 0.5) * _legendre(n, x)[0]
                     for n in (nodes - 2, nodes - 1)], axis=-1)
    return z, (math.pi / 6) * w * 1j * z, tail


def _settle(values, summands, tail) -> float:
    """The largest tail of values, the sums of summands over their last
    axis: the larger of the rule's top two Legendre coefficients, summands
    @ tail (Trefethen, Approximation Theory and Approximation Practice,
    ch. 19).  Raises unless each is below 1e-10 max(1, |value|)."""
    tails = np.abs(summands @ tail).max(axis=-1)
    if not np.all(tails < 1e-10 * np.maximum(1.0, np.abs(values))):
        raise RuntimeError("quadrature failed to settle below tolerance")
    return float(tails.max())


def integrate_one_form(form: EtaForm, quadrature: dict | None = None):
    """The integral of P dz + Q dzbar along rho -> rho^2 by the rule of
    ARC_NODES, as line_arcs takes it, checked by _settle.  A given quadrature
    dict receives stream_nodes, the node count, and stream_gap, the tail."""
    z, wdz, tail = _arc_rule(ARC_NODES)
    P, Q = form.coefficients(z)
    summands = P * wdz + Q * np.conj(wdz)
    value = complex(np.sum(summands))
    gap = _settle(value, summands, tail)
    if quadrature is not None:
        quadrature.update(stream_nodes=ARC_NODES, stream_gap=gap)
    return value


def arc_integral(p: int, k: int, l: int, quadrature: dict | None = None):
    """The arc of eta_chi_k on rho -> rho^2 pulled back along line l of
    P^1(F_p) by integrate_one_form, which fills a given quadrature dict."""
    return integrate_one_form(eta_chi(p, k, l), quadrature)


def line_arcs(p: int):
    """(arcs, gap): arcs[l, k // 2 - 1], one real column per pair {chi_k,
    chi_-k = conj chi_k} at its lesser even exponent k, is the arc of
    eta_chi_k on rho -> rho^2 pulled back along line l of P^1(F_p), p
    prime: (1, v), v = 0 .. p - 1, then (0, 1), as eta_chi takes them.
    The sign rule: chi_-k's arcs are minus chi_k's; the real character's
    are 0 and have no column.  gap is the largest tail, as _settle takes it.

    The arc is i sum (V conj X - conj V X) over the nodes, with V =
    sum_a chi(a) E*_(a l), D = d_z V and X = -i (D wdz - conj(D' wdz)),
    ' marking conj chi.  Along (1, v), V = C + H(v) + conj H'(v), with
    H(v) = (2 pi / p) sum_r sigma(r) e(r v / p) q^r, q = e(z / p) and
    sigma(r) = sum_{d m = r} chi(d) / d; along (0, 1), V = c_y y + H0 +
    conj H0', H0 = (2 pi / p) tau(chi) sum_r q^r sum_{d m = r, p | d}
    conj chi(m) / d.  Grouped by r mod p, the v-dependence is one DFT.
    z -> -conj z takes node x to -x, q to conj q and wdz to conj wdz, so
    conj H'(v) is H(-v) at node -x.  Raises unless every pair's tails
    settle, as _settle does."""
    tau = character_table(p).tau
    reps = np.arange(2, (p - 1) // 2, 2)
    rmax = suggested_rmax(p, math.sqrt(3) / 2)
    J = rmax // p + 1
    r = np.arange(J * p)
    # sigma(r) adds chi(d) / d over the pairs d m = r in the order of d;
    # W0[c, r / p] sums 1/d over p | d and m = c mod p.
    d, m = _multiples(np.arange(1, rmax + 1), rmax)
    dm, dmod, inverse = d * m, d % p, 1.0 / d
    W0 = np.zeros((p, J))
    cusp = dmod == 0
    np.add.at(W0, (m[cusp] % p, d[cusp] // p * m[cusp]), inverse[cusp])
    # r = 0 holds C / 2 (the mirror adds the rest); conj chi_k = chi_-k.
    const = character_sums(_constant_terms(p), p)[reps] / 2
    a0 = (TWO_PI / p) * tau[reps, None] * character_sums(W0, p)[-reps]
    c_y = 2.0 * math.pi**2 / p * character_sums(_beta2(r[:p], p), p)[reps]
    deriv = 2j * math.pi * r / p
    bar = np.append(-np.arange(p) % p, p)  # the line of -x for x on line l
    z, wdz, tail = _arc_rule(ARC_NODES)
    qpow = _q_powers(J * p, z, p)
    arcs, gap = np.empty((p + 1, len(reps))), 0.0
    coef = np.empty((2, J * p), dtype=complex)
    buf = np.empty((p + 1, 2, len(z)), dtype=complex)
    for i, k in enumerate(reps):
        terms = character_values(p, k)[dmod] * inverse
        coef[0].real = np.bincount(dm, terms.real, len(r))
        coef[0].imag = np.bincount(dm, terms.imag, len(r))
        coef[0] *= TWO_PI / p
        coef[0, 0] = const[i]
        np.multiply(coef[0], deriv, out=coef[1])
        # Summed by residue c, then bin v of the inverse DFT is the
        # e(r v / p) sum; row p is the cusp line.
        np.matmul(coef.reshape(2, J, p).transpose(2, 0, 1),
                  qpow.reshape(J, p, -1).transpose(1, 0, 2), out=buf[:p])
        np.fft.ifft(buf[:p], axis=0, norm="forward", out=buf[:p])
        np.matmul(np.stack([a0[i], a0[i] * deriv[::p]]), qpow[::p],
                  out=buf[p])
        H, D = buf[:, 0], buf[:, 1]
        D[p] += c_y[i] / 2j
        mirror = H[bar, ::-1]
        H += mirror  # V
        H[p] += c_y[i] * z.imag
        D *= wdz
        mirror = D[bar, ::-1] + D
        # -2 Im sum V conj(-i M) is -2 Re sum V conj(M), node by node.
        np.conjugate(mirror, out=mirror)
        mirror *= H
        summands = -2.0 * mirror.real
        arcs[:, i] = summands.sum(axis=-1)
        gap = max(gap, _settle(arcs[:, i], summands, tail))
    return arcs, gap


def on_evens(pairs, p: int):
    """Values by line_arcs' column (the last axis) on every even
    nontrivial k = 2, 4, .. p - 3, by line_arcs' sign rule: 0 for the
    real character, which has no column."""
    ks = np.arange(2, p - 1, 2)
    sign = np.sign(p - 1 - 2 * ks)
    values = np.zeros(pairs.shape[:-1] + ks.shape, dtype=pairs.dtype)
    values[..., sign != 0] = sign[sign != 0] * pairs[
        ..., np.minimum(ks, p - 1 - ks)[sign != 0] // 2 - 1]
    return values
