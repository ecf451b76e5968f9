"""Completed L-values of weight-2 forms at s = 1 and s = 2 by smoothed sums.

A weight-2 newform is carried as one coefficient stream plus its level;
its functional-equation partner is the complex-conjugate stream.  The
completed value Lambda(g, s) = M^{s/2} (2pi)^{-s} Gamma(s) L(g, s) is
computed from the split integral representation (Dokchitser, "Computing
special values of motivic L-functions", Experiment. Math. 13, 2004)

    Lambda(g, s) = sum_n a_n G_s(cn) - w sum_n conj(a_n) G_{2-s}(cn),

with c = 2pi/sqrt(M), G_s(x) = x^{-s} Gamma(s, x), and w the
Atkin-Lehner pseudo-eigenvalue, always measured numerically from the
transformation g(-1/(Mz)) = w M z^2 gbar(z).  The identities read
Lambda only at s = 1 (the central values) and s = 2 (L(E, 2)), where
the weights are elementary: G_1(x) = e^-x / x, G_2(x) = (1 + x) e^-x /
x^2 and G_0 = E_1.  The twists f (x) chi_k of a prime-level form are
never written out: each of their sums is, for every k at once, one
transform of the form's terms binned by n mod p.
The module also covers the residue of L(f (x) f, s) at s = 2 expressed
through the twisted central values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characters import character_sums, character_table, pair_sum
from .elliptic import CurveModel, an_coefficients
from .special import ABS_TOL, TruncationError, exp_integral_e1

TWO_PI = 2.0 * math.pi
_ROOT_HEIGHTS = (1.13, 1.41, 0.97, 1.67)  # _root_numbers' y * sqrt(level)
_ROOT_TOL = 1e-8  # how far its two samples may differ, and |w| from 1


@dataclass(frozen=True, eq=False)
class ModularFormData:
    """Level and coefficient stream of a weight-2 form.

    coefficients[n] is a_n (index 0 unused).  For every form in scope
    the functional-equation partner is the complex-conjugate stream.
    """

    level: int
    coefficients: np.ndarray
    label: str = ""
    _root_cache: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        a = np.asarray(self.coefficients, dtype=complex)
        if a.ndim != 1 or len(a) < 2:
            raise ValueError("the coefficient stream must be a 1-d array")
        if abs(a[1] - 1.0) > 1e-12:
            raise ValueError("expected a normalized eigenform with a_1 = 1")
        object.__setattr__(self, "coefficients", a)

    @property
    def nmax(self) -> int:
        return len(self.coefficients) - 1


def newform_from_curve(curve: CurveModel, nmax: int) -> ModularFormData:
    """Rational newform attached to an integral Weierstrass model."""
    a = np.array(an_coefficients(curve, nmax), dtype=complex)
    return ModularFormData(curve.conductor, a, label="%da" % curve.conductor)


def _root_rates(level: int) -> np.ndarray:
    # The decay rates of _root_numbers' sums: every height and its dual.
    y = np.array(_ROOT_HEIGHTS) / math.sqrt(level)
    return TWO_PI * np.concatenate([y, 1.0 / (level * y)])


@lru_cache(maxsize=None)
def _term_count(level: int, nmax: int) -> int:
    # The terms of a q-expansion at the height 1 / sqrt(level) (1 / sqrt 3
    # for level <= 2), where the smoothed sums' weights decay as fast.
    c = TWO_PI / math.sqrt(level) if level > 2 else TWO_PI / math.sqrt(3)
    return int(_terms_for_rates(np.array([c]), nmax)[0])


def _twist_terms(p: int, nmax: int) -> int:
    """The terms of the twists f (x) chi_k, of level p^2, that
    twisted_lambda_table reads, at any root-number height."""
    return max(int(_terms_for_rates(_root_rates(p * p), nmax).max()),
               _term_count(p * p, nmax))


def _oracle_terms(p: int, nmax: int) -> int:
    """The terms the period oracle sums, at height 1 / p."""
    return int(_terms_for_rates(np.array([TWO_PI / p]), nmax)[0])


def newform_terms(level: int) -> int:
    """The most terms of a prime-level newform's stream that any sum
    reads: Lambda and the root number at the level, the twists at its
    square (_twist_terms) and the period oracle (_oracle_terms)."""
    n = sys.maxsize
    return max(_term_count(level, n), _twist_terms(level, n),
               _oracle_terms(level, n),
               int(_terms_for_rates(_root_rates(level), n).max()))


def _terms_for_rates(rates: np.ndarray, nmax: int) -> np.ndarray:
    """At each decay rate, the first k of 8, 10, 12, 14, 16, 19, ...
    (steps of 1 + k // 8) with 4 k^{3/2} |q|^k / (1 - |q|) below ABS_TOL,
    |q| = e^{-rate}, where the 4 d(n) sqrt(n) <= 4 n^{3/2} Hasse-style
    bound controls the tail."""
    counts = np.zeros(rates.shape, dtype=int)
    rates = rates.ravel()
    left, denom = np.arange(rates.size), 1.0 - np.exp(-rates)  # unsettled
    k = 8
    while k <= nmax and left.size:
        tail = 4.0 * k ** 1.5 * np.exp(-rates[left] * k) / denom[left]
        counts.flat[left[tail < ABS_TOL]] = k
        left = left[~(tail < ABS_TOL)]
        k += 1 + k // 8
    if left.size:
        rate = float(rates[left[0]])
        raise TruncationError(
            "need more coefficients: decay rate %.3g reaches only %.3g "
            "after %d terms" % (rate, 4.0 * nmax ** 1.5
                                * math.exp(-rate * nmax), nmax))
    return counts


def q_expansions(streams: np.ndarray, z) -> np.ndarray:
    """sum_n streams[..., n] e(n z) at every point of z.

    streams is one coefficient stream or a stack of them (index 0
    unused); the result has shape streams.shape[:-1] + z.shape.  Each
    point sums the terms its height needs (_terms_for_rates), and the
    points that share a count are summed together, in blocks of at most
    2^16 products (1 MB).
    """
    z = np.asarray(z, dtype=complex)
    stack = np.atleast_2d(streams)
    points = z.ravel()
    counts = _terms_for_rates(TWO_PI * points.imag, stack.shape[1] - 1)
    out = np.empty((len(stack), points.size), dtype=complex)
    # The distinct counts, found without np.unique: its 1-d form imports
    # numpy.ma.
    for k in np.flatnonzero(np.bincount(counts)):
        idx = np.flatnonzero(counts == k)
        n = np.arange(1, k + 1)
        a = stack[:, None, 1:k + 1]
        for block in np.array_split(idx, -(-idx.size * k * len(stack) >> 16)):
            q = np.exp((2j * math.pi * points[block])[:, None] * n)
            out[:, block] = (q * a).sum(axis=-1)
    return out.reshape(np.shape(streams)[:-1] + z.shape)


def _root_numbers(series, level: int) -> np.ndarray:
    """Atkin-Lehner pseudo-eigenvalues of some forms of one level.

    series(z) is the forms' q-series at the points z, one row per form.
    Each form is sampled at the first two of four heights y where its
    partner, the conjugate stream, does not vanish at iy; the two
    samples must agree and have modulus 1.  The partner at iy is
    conj(g(iy)), so each height sums every form at two points.
    """
    m = level
    samples = []
    for c in _ROOT_HEIGHTS:
        if samples and all(len(s) == 2 for s in samples):
            break
        y = c / math.sqrt(m)
        at_y, at_dual = series(np.array([1j * y, 1j / (m * y)])).T
        samples = samples or [[] for _ in at_y]
        for s, num, den in zip(samples, at_dual.tolist(),
                               at_y.conj().tolist()):
            if len(s) < 2 and abs(den) >= 1e-12 * math.exp(-TWO_PI * y):
                s.append(-num / (m * y * y * den))
    roots = []
    for s in samples:
        if len(s) < 2:
            raise RuntimeError("root number: q-expansion vanished at every "
                               "sample height")
        w1, w2 = s
        if abs(w1 - w2) > _ROOT_TOL or abs(abs(w1) - 1.0) > _ROOT_TOL:
            raise RuntimeError(
                "root number inconsistent: samples %r, %r" % (w1, w2))
        w = 0.5 * (w1 + w2)
        roots.append(w / abs(w))
    return np.array(roots)


def root_number(form: ModularFormData) -> complex:
    """Atkin-Lehner pseudo-eigenvalue from g(-1/(Mz)) = w M z^2 gbar(z),
    by the rule of _root_numbers on the one stream."""
    if not form._root_cache:
        form._root_cache.append(complex(_root_numbers(
            lambda z: q_expansions(form.coefficients[None], z),
            form.level)[0]))
    return form._root_cache[0]


def _weights(s: int, level: int, k: int) -> np.ndarray:
    # G_s(x) = x^{-s} Gamma(s, x) at x = cn, n = 1 .. k, c = 2 pi / sqrt(M),
    # for the orders 0, 1 and 2 that Lambda at s = 1 and 2 reads.
    x = (TWO_PI / math.sqrt(level)) * np.arange(1, k + 1)
    if s == 0:
        return np.array([exp_integral_e1(t) for t in x.tolist()])
    e = np.exp(-x)
    return e / x if s == 1 else (1.0 + x) * e / (x * x)


def lambda_value(form: ModularFormData, s) -> complex:
    """Completed value Lambda(g, s) = M^{s/2} (2pi)^{-s} Gamma(s) L(g, s)
    at s = 1 or 2; any other s raises ValueError."""
    if s not in (1, 2):
        raise ValueError(f"Lambda is summed at s = 1 and 2 only, not {s!r}")
    k = _term_count(form.level, form.nmax)
    g_s = _weights(s, form.level, k)
    # At s = 1 the two halves share their weights.
    g_dual = g_s if s == 1 else _weights(0, form.level, k)
    a = form.coefficients[1:k + 1]
    return complex(a @ g_s - root_number(form) * (a.conj() @ g_dual))


def l_value(form: ModularFormData, s) -> complex:
    """Uncompleted L(g, s) at s = 1 or 2, from lambda_value; there the
    Gamma factor is 1."""
    return lambda_value(form, s) * TWO_PI ** s * form.level ** (-s / 2.0)


def _residue_bins(terms: np.ndarray, p: int) -> np.ndarray:
    """sum of terms[n] over n = 0, 1, ... by n mod p: character_sums of
    the bins is sum_n chi_k(n) terms[n] for every k."""
    n = np.arange(len(terms)) % p
    return np.bincount(n, terms.real, p) + 1j * np.bincount(n, terms.imag, p)


def _twisted_series(form: ModularFormData, z: np.ndarray) -> np.ndarray:
    """sum_n chi_k(n) a_n e(n z), the q-series of f (x) chi_k, at each
    point of z (columns) for k = 1 .. p - 2 (rows); each point sums the
    terms its height needs (_terms_for_rates), as q_expansions does."""
    a = form.coefficients
    counts = _terms_for_rates(TWO_PI * z.imag, form.nmax)
    return np.stack([
        character_sums(_residue_bins(
            a[:k + 1] * np.exp(2j * math.pi * np.arange(k + 1) * point),
            form.level), form.level)[1:]
        for point, k in zip(z, counts)], axis=-1)


def twisted_lambda_table(form: ModularFormData) -> np.ndarray:
    """Lambda[k] = Lambda(f (x) chi_k, 1) by character exponent, nan at k = 0.

    f (x) chi_k has level p^2 and the stream chi_k(n) a_n, which is never
    built: its root number samples _twisted_series, and its Lambda sum
    S_k = sum_n chi_k(n) a_n G(n) is one character_sums call for every k.
    At s = 1 the weights G are real, so the dual half is conj(S_k), and
    Lambda_k = S_k - w_k conj(S_k).
    """
    p, m = form.level, form.level ** 2
    w = _root_numbers(lambda z: _twisted_series(form, z), m)
    k = _term_count(m, form.nmax)
    terms = form.coefficients[:k + 1] * np.append(0.0, _weights(1, m, k))
    sums = character_sums(_residue_bins(terms, p), p)[1:]
    return np.concatenate([[math.nan], sums - w * sums.conj()])


def residue_tensor_square(form: ModularFormData,
                          lambda_table: np.ndarray) -> float:
    """Residue of L(f (x) f, s) at s = 2 for prime-level trivial-character f.

    (2 pi i / ((N+1)(N-1)^2)) sum Lambda(f x chi',1) Lambda(f x chi,1)
    / tau(chi chi') over ordered pairs of primitive characters mod N
    with chi chi' odd.  With chi = chi_j and chi' = chi_k that is
    chi_{j+k}, odd exactly when j + k is: one pair_sum.  lambda_table is
    the twisted table of twisted_lambda_table.
    """
    n = form.level
    lam = np.append(0.0, lambda_table[1:])
    odd = np.arange(n - 1) % 2 / character_table(n).tau
    value = pair_sum(lam, lam, odd) * 2j * math.pi / ((n + 1) * (n - 1) ** 2)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise RuntimeError("residue came out non-real: %r" % value)
    return value.real
