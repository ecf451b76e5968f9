"""Completed L-values of weight-2 forms by incomplete-gamma smoothing.

A weight-2 newform is carried as one coefficient stream plus its level;
its functional-equation partner is the complex-conjugate stream.  The
completed value Lambda(g, s) = M^{s/2} (2pi)^{-s} Gamma(s) L(g, s) is
computed from the split integral representation

    Lambda(g, s) = sum_n a_n G_s(cn) - w sum_n conj(a_n) G_{2-s}(cn),

with c = 2pi/sqrt(M), G_s(x) = x^{-s} Gamma(s, x), and w the
Atkin-Lehner pseudo-eigenvalue, always measured numerically from the
transformation g(-1/(Mz)) = w M z^2 gbar(z).  Summation, root numbers
and Lambda each work on a stack of streams of one level, so the twists
f (x) chi_k of a prime-level form are the rows of one matrix.  The
module also covers the Rankin convolution identity at the
Dirichlet-coefficient level and the residue of L(f (x) f, s) at s = 2
expressed through the twisted central values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characters import DirichletCharacter, character_table
from .elliptic import CurveModel, an_coefficients
from .special import (
    DEFAULT_CONTROL,
    SeriesControl,
    TruncationError,
    complex_gamma,
    incomplete_gamma_upper_complex,
)

TWO_PI = 2.0 * math.pi
_ROOT_HEIGHTS = (1.13, 1.41, 0.97, 1.67)  # _root_numbers' y * sqrt(level)


@dataclass(frozen=True, eq=False)
class ModularFormData:
    """Level and coefficient stream of a weight-2 form.

    coefficients[n] is a_n (index 0 unused).  For every form in scope
    the functional-equation partner is the complex-conjugate stream.
    """

    level: int
    coefficients: np.ndarray
    label: str = ""
    _root_cache: list = field(default_factory=list, repr=False)

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

    def conjugate_partner(self) -> "ModularFormData":
        """The form whose coefficients are the conjugate stream."""
        return ModularFormData(self.level, self.coefficients.conj(),
                               label=self.label + "~")


def newform_from_curve(curve: CurveModel, nmax: int = 4000) -> ModularFormData:
    """Rational newform attached to an integral Weierstrass model."""
    a = np.array(an_coefficients(curve, nmax), dtype=complex)
    return ModularFormData(curve.conductor, a, label="%da" % curve.conductor)


def _term_count(level: int, nmax: int,
                tol: float = DEFAULT_CONTROL.abs_tol) -> int:
    # The terms of a q-expansion at the height 1 / sqrt(level) (1 / sqrt 3
    # for level <= 2), where the smoothed sums' weights decay as fast.
    c = TWO_PI / math.sqrt(level) if level > 2 else TWO_PI / math.sqrt(3)
    return _terms_for_rate(c, nmax, tol)


def _terms_for_rate(rate: float, nmax: int, tol: float) -> int:
    return int(_terms_for_rates(np.array([rate]), nmax, tol)[0])


def _terms_for_rates(rates: np.ndarray, nmax: int, tol: float) -> np.ndarray:
    """At each decay rate, the first k of 8, 10, 12, 14, 16, 19, ...
    (steps of 1 + k // 8) with 4 k^{3/2} |q|^k / (1 - |q|) below tol,
    |q| = e^{-rate}, where the 4 d(n) sqrt(n) <= 4 n^{3/2} Hasse-style
    bound controls the tail."""
    counts = np.zeros(rates.shape, dtype=int)
    k = 8
    while k <= nmax and not counts.all():
        tail = 4.0 * k ** 1.5 * np.exp(-rates * k) / (1.0 - np.exp(-rates))
        counts[(counts == 0) & (tail < tol)] = k
        k += 1 + k // 8
    if not counts.all():
        rate = float(rates[counts == 0][0])
        raise TruncationError(
            "need more coefficients: decay rate %.3g reaches only %.3g "
            "after %d terms" % (rate, 4.0 * nmax ** 1.5
                                * math.exp(-rate * nmax), nmax))
    return counts


def q_expansions(streams: np.ndarray, z,
                 tol: float = DEFAULT_CONTROL.abs_tol) -> np.ndarray:
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
    counts = _terms_for_rates(TWO_PI * points.imag, stack.shape[1] - 1, tol)
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


def eval_form(form: ModularFormData, z: complex,
              ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Sum of the q-expansion at z in the upper half plane."""
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("eval_form needs Im z > 0")
    return complex(q_expansions(form.coefficients, z, ctl.abs_tol))


def _root_numbers(streams: np.ndarray, level: int,
                  tol: float = 1e-8) -> np.ndarray:
    """Atkin-Lehner pseudo-eigenvalues of a stack of forms of one level.

    Each row is sampled at the first two of four heights y where its
    partner, the conjugate stream, does not vanish at iy; the two
    samples must agree and have modulus 1.  The partner at iy is
    conj(g(iy)), so each height sums every row at two points.
    """
    m = level
    samples = [[] for _ in streams]
    for c in _ROOT_HEIGHTS:
        if all(len(s) == 2 for s in samples):
            break
        y = c / math.sqrt(m)
        at_y, at_dual = q_expansions(streams, [1j * y, 1j / (m * y)]).T
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
        if abs(w1 - w2) > tol or abs(abs(w1) - 1.0) > tol:
            raise RuntimeError(
                "root number inconsistent: samples %r, %r" % (w1, w2))
        w = 0.5 * (w1 + w2)
        roots.append(w / abs(w))
    return np.array(roots)


def root_number(form: ModularFormData, tol: float = 1e-8) -> complex:
    """Atkin-Lehner pseudo-eigenvalue from g(-1/(Mz)) = w M z^2 gbar(z),
    by the rule of _root_numbers on the one stream."""
    if not form._root_cache:
        form._root_cache.append(
            complex(_root_numbers(form.coefficients[None], form.level,
                                  tol)[0]))
    return form._root_cache[0]


def _weights(s, level: int, k: int) -> np.ndarray:
    # G_s(x) = x^{-s} Gamma(s, x) at x = cn, n = 1 .. k, c = 2 pi / sqrt(M).
    x = (TWO_PI / math.sqrt(level)) * np.arange(1, k + 1)
    return x ** -complex(s) * np.array(
        [incomplete_gamma_upper_complex(s, t) for t in x])


def _lambda_values(streams: np.ndarray, level: int, s, w,
                   ctl: SeriesControl = DEFAULT_CONTROL):
    """Lambda(g, s) of one stream or of each row of a stack of streams
    of one level, given their root numbers w."""
    k = _term_count(level, np.shape(streams)[-1] - 1, ctl.abs_tol)
    g_s = _weights(s, level, k)
    # At s = 1 the two halves share their weights.
    g_dual = g_s if complex(s) == 1.0 else _weights(2.0 - complex(s), level, k)
    a = streams[..., 1:k + 1]
    return a @ g_s - w * (a.conj() @ g_dual)


def lambda_value(form: ModularFormData, s,
                 ctl: SeriesControl = DEFAULT_CONTROL,
                 w: complex | None = None) -> complex:
    """Completed value Lambda(g, s) = M^{s/2} (2pi)^{-s} Gamma(s) L(g, s)."""
    if w is None:
        w = root_number(form)
    return complex(_lambda_values(form.coefficients, form.level, s, w, ctl))


def l_value(form: ModularFormData, s,
            ctl: SeriesControl = DEFAULT_CONTROL,
            w: complex | None = None) -> complex:
    """Uncompleted L(g, s), from lambda_value and the Gamma factor."""
    s = complex(s)
    lam = lambda_value(form, s, ctl, w)
    if s.imag == 0.0:
        gamma_s = math.gamma(s.real)
    else:
        gamma_s = complex_gamma(s)
    return lam * (TWO_PI ** s) * form.level ** (-s / 2.0) / gamma_s


def dirichlet_series_direct(form: ModularFormData, s, nmax: int | None = None):
    """Plain partial sum of sum a_n / n^s; only sensible for Re s > 2."""
    k = form.nmax if nmax is None else min(nmax, form.nmax)
    n = np.arange(1, k + 1, dtype=float)
    return complex(np.sum(form.coefficients[1:k + 1] * n ** (-complex(s))))


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
    prod_wide = _character_values_wide(chi1 * chi2, int(math.isqrt(nmax)))
    den = np.zeros(nmax + 1, dtype=_WIDE)
    m = 1
    while m * m <= nmax:
        if math.gcd(m, form.level) == 1:
            den[m * m] = prod_wide[m] * (m * m)
        m += 1
    rhs = _dirichlet_convolve(_dirichlet_convolve(series_a, series_b),
                              _dirichlet_inverse(den))
    return float(np.max(np.abs(lhs[1:] - rhs[1:])))


def _twist_streams(form: ModularFormData,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> np.ndarray:
    """Row k - 1 is the stream chi_k(n) a_n of f (x) chi_k, k = 1 .. p - 2,
    as far as _root_numbers (at any height) and _lambda_values read it at
    level p^2; if a count is beyond the form's nmax, the whole stream, so
    that the sums raise as on it."""
    p, m = form.level, form.level ** 2
    y = np.array(_ROOT_HEIGHTS) / math.sqrt(m)
    try:
        k = max(_terms_for_rates(TWO_PI * np.concatenate([y, 1.0 / (m * y)]),
                                 form.nmax, DEFAULT_CONTROL.abs_tol).max(),
                _term_count(m, form.nmax, ctl.abs_tol))
    except TruncationError:
        k = form.nmax
    values = character_table(p).values[1:]
    return values[:, np.arange(k + 1) % p] * form.coefficients[:k + 1]


def twisted_lambda_table(form: ModularFormData,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> np.ndarray:
    """Lambda[k] = Lambda(f (x) chi_k, 1) by character exponent, nan at k = 0.

    The twist streams chi_k(n) a_n, k = 1 .. p - 2, are the rows of one
    matrix of level p^2, whose root numbers and Lambda values are each
    one stacked call.
    """
    p = form.level
    streams = _twist_streams(form, ctl)
    w = _root_numbers(streams, p * p)
    return np.concatenate([[math.nan],
                           _lambda_values(streams, p * p, 1.0, w, ctl)])


def residue_tensor_square(form: ModularFormData,
                          ctl: SeriesControl = DEFAULT_CONTROL,
                          lambda_table: np.ndarray | None = None) -> float:
    """Residue of L(f (x) f, s) at s = 2 for prime-level trivial-character f.

    (2 pi i / ((N+1)(N-1)^2)) sum Lambda(f x chi',1) Lambda(f x chi,1)
    / tau(chi chi') over ordered pairs of primitive characters mod N
    with chi chi' odd.  With chi = chi_j and chi' = chi_k that is
    chi_{j+k}, odd exactly when j + k is.
    """
    n = form.level
    if lambda_table is None:
        lambda_table = twisted_lambda_table(form, ctl)
    lam = lambda_table[1:]
    j = np.arange(1, n - 1)
    pair = np.add.outer(j, j) % (n - 1)
    # einsum rounds each product as scalar complex arithmetic does, and
    # the running sum adds the terms in pair order, as a loop over the
    # pairs would.
    terms = np.einsum("j,k->jk", lam, lam) / character_table(n).tau[pair]
    total = np.cumsum(terms[pair % 2 == 1])[-1]
    value = total * 2j * math.pi / ((n + 1) * (n - 1) ** 2)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise RuntimeError("residue came out non-real: %r" % value)
    return value.real
