"""Completed L-values of weight-2 forms at s = 1 and s = 2 by smoothed sums.

A weight-2 newform is carried as one coefficient stream plus its level;
its functional-equation partner is the complex-conjugate stream.  The
completed value Lambda(g, s) = M^{s/2} (2pi)^{-s} Gamma(s) L(g, s) is
computed from the split integral representation (Dokchitser, "Computing
special values of motivic L-functions", Experiment. Math. 13, 2004)

    Lambda(g, s) = sum_n a_n G_s(cn) - w sum_n conj(a_n) G_{2-s}(cn),

with c = 2pi/sqrt(M), G_s(x) = x^{-s} Gamma(s, x), and w the
Atkin-Lehner pseudo-eigenvalue.  A form's w is measured numerically from
the transformation g(-1/(Mz)) = w M z^2 gbar(z), summed at the heights
1.13 / sqrt(M) and 1.41 / sqrt(M) and at their duals, the lowest
1 / (1.41 sqrt(M)); a twist f (x) chi_k of a newform of prime level p,
p exactly dividing it, has the closed form w = tau(chi_k)^2 / p (Atkin
and Li, "Twists of newforms and pseudo-eigenvalues of W-operators",
Invent. Math. 48, 1978).  The identities read Lambda only at s = 1 (the
central values) and s = 2 (L(E, 2)), where the weights are elementary:
G_1(x) = e^-x / x, G_2(x) = (1 + x) e^-x / x^2 and G_0 = E_1.  The
twists are never written out: their Lambda sum is, for every k at once,
one transform of the form's terms binned by n mod p.
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
from .special import ABS_TOL, TWO_PI, TruncationError, exp_integral_e1

_ROOT_HEIGHTS = (1.13, 1.41)  # root_number's y * sqrt(level)
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


@lru_cache(maxsize=None)
def _term_count(level: int, nmax: int) -> int:
    # The terms of a q-expansion at the height 1 / sqrt(level) (1 / sqrt 3
    # for level <= 2), where the smoothed sums' weights decay as fast.
    c = TWO_PI / math.sqrt(level) if level > 2 else TWO_PI / math.sqrt(3)
    return _terms_for_rate(c, nmax)


def newform_terms(level: int) -> int:
    """The most terms of a newform of prime level p that any sum reads,
    _term_count(p * p, sys.maxsize): the twists' Lambda at p^2 and the
    period oracle read it at height 1 / p, which for p >= 3 lies below
    Lambda's 1 / sqrt(p) and the root number's lowest, 1 / (1.41 sqrt(p))."""
    return _term_count(level * level, sys.maxsize)


def _terms_for_rate(rate: float, nmax: int) -> int:
    """The first k of 8, 10, 12, 14, 16, 19, ... (steps of 1 + k // 8)
    with 4 k^{3/2} |q|^k / (1 - |q|) below ABS_TOL, |q| = e^{-rate},
    where the 4 d(n) sqrt(n) <= 4 n^{3/2} Hasse-style bound controls
    the tail."""
    k, denom = 8, 1.0 - math.exp(-rate)
    while k <= nmax:
        if 4.0 * k ** 1.5 * math.exp(-rate * k) / denom < ABS_TOL:
            return k
        k += 1 + k // 8
    raise TruncationError(
        "need more coefficients: decay rate %.3g reaches only %.3g after %d "
        "terms" % (rate, 4.0 * nmax ** 1.5 * math.exp(-rate * nmax), nmax))


def root_number(form: ModularFormData) -> complex:
    """Atkin-Lehner pseudo-eigenvalue from g(-1/(Mz)) = w M z^2 gbar(z).

    The stream is summed at two heights y and at their duals 1 / (My);
    the partner at iy is conj(g(iy)).  The two samples must agree and
    have modulus 1, which a nan sample never does.
    """
    if form._root_cache:
        return form._root_cache[0]
    m, a = form.level, form.coefficients

    def q_sum(z):
        # sum_n a_n e(nz), over the terms that the height of z needs.
        k = _terms_for_rate(TWO_PI * z.imag, form.nmax)
        return complex((np.exp(2j * math.pi * z * np.arange(1, k + 1))
                        * a[1:k + 1]).sum())
    samples = []
    for c in _ROOT_HEIGHTS:
        y = c / math.sqrt(m)
        samples.append(-q_sum(1j / (m * y))
                       / (m * y * y * q_sum(1j * y).conjugate()))
    w1, w2 = samples
    if not (abs(w1 - w2) <= _ROOT_TOL and abs(abs(w1) - 1.0) <= _ROOT_TOL):
        raise RuntimeError(
            "root number inconsistent: samples %r, %r" % (w1, w2))
    w = 0.5 * (w1 + w2)
    form._root_cache.append(w / abs(w))
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


def _twist_roots(p: int) -> np.ndarray:
    """w_k = tau(chi_k)^2 / p for k = 1 .. p - 2: the pseudo-eigenvalue
    of f (x) chi_k when p exactly divides the level of f (Atkin and Li,
    Invent. Math. 48, 1978).  Taken as chi_k(-1) tau_k / tau_-k, equal
    as tau_-k = chi_k(-1) conj(tau_k) and |tau_k|^2 = p: half the
    rounding error of the square, and real at the real character."""
    tau, k = character_table(p).tau, np.arange(1, p - 1)
    return (-1.0) ** k * tau[k] / tau[-k]


def twisted_lambda_table(form: ModularFormData) -> np.ndarray:
    """Lambda[k] = Lambda(f (x) chi_k, 1) by character exponent, nan at k = 0.

    f (x) chi_k has level p^2 and the stream chi_k(n) a_n, which is never
    built: its root number is _twist_roots(p)[k - 1], and its Lambda sum
    S_k = sum_n chi_k(n) a_n G(n) is one character_sums call for every k.
    At s = 1 the weights G are real, so the dual half is conj(S_k), and
    Lambda_k = S_k - w_k conj(S_k).
    """
    p, m = form.level, form.level ** 2
    w = _twist_roots(p)
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
