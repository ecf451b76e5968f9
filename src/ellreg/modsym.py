"""Manin symbols over the order-N pairs in (Z/NZ)^2.

The symbol xi(u, v) is the geodesic path {g0, ginfinity} on the modular
curve, for any integral unimodular g with bottom row (u, v) mod N.  This
module provides the symbols, their cusp classes, and two independent
ways to pair symbols with a weight-2 rational newform of prime level p,
into a table of one value per line of P^1(F_p): a direct path-integral
oracle that takes each half of a path to the cusp infinity in one coset
step and integrates its q-series term by term, every line in one binned
DFT, and a bridge through twisted central L-values, which checks it.
The two- and three-term relation quotient and the Hecke action on it,
in exact rational linear algebra, are the tests' reference
(tests/gamma1_symbols.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import character_table
from .lseries import (ModularFormData, _residue_bins, _term_count, l_value,
                      root_number)
from .special import TWO_PI


@dataclass(frozen=True)
class SymbolIndex:
    """A pair (u, v) of additive order N in (Z/NZ)^2."""

    level: int
    u: int
    v: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        object.__setattr__(self, "u", self.u % self.level)
        object.__setattr__(self, "v", self.v % self.level)
        if math.gcd(math.gcd(self.u, self.v), self.level) != 1:
            raise ValueError("pair (%d, %d) does not have order %d"
                             % (self.u, self.v, self.level))


@dataclass(frozen=True)
class CuspClass:
    """Orbit of an order-N pair under sign and upper-triangular shifts."""

    level: int
    u: int
    v: int

    @property
    def pair(self):
        return (self.u, self.v)


def cusp_class_of(x: SymbolIndex) -> CuspClass:
    """The least of (s u mod N, s v mod gcd(u, N)) over s = +-1: the
    shifts v -> v + t u reach every v' = v mod gcd(u, N)."""
    n, g = x.level, math.gcd(x.u, x.level)
    return CuspClass(n, *min((s * x.u % n, s * x.v % g) for s in (1, -1)))


def cusp_classes(level: int) -> list:
    """Every class, sorted by pair: each holds a pair (u, v) with v <
    gcd(u, N), and those of order N are the v prime to gcd(u, N)."""
    classes = {cusp_class_of(SymbolIndex(level, u, v))
               for u in range(level) for g in [math.gcd(u, level)]
               for v in range(g) if math.gcd(g, v) == 1}
    return sorted(classes, key=lambda c: c.pair)


def line_index(u, v, p: int):
    """The line of P^1(F_p) through (u, v), p prime, in line_arcs' order:
    v / u mod p for u != 0, else p.  Elementwise on arrays."""
    powers, logs, _ = character_table(p)
    u, v = np.asarray(u) % p, np.asarray(v) % p
    # 1 / g^i = g^(-i); logs[0] = 0 is masked.
    return np.where(u == 0, p, v * powers[-logs[u] % (p - 1)] % p)


def _line_rows(p: int):
    """The bottom rows (u, v) of the lines, (1, v) then (0, 1)."""
    return np.append(np.ones(p, int), 0), np.append(np.arange(p), 1)


class XiTable:
    """Values of the period pairing of a prime-level rational newform.

    The pairing is homogeneous, so it lives on P^1(F_p): lines[l] is its
    value on line l, (1, v) at l = v < p and (0, 1) at l = p, and on every
    nonzero pair of that line (see line_index).
    """

    def __init__(self, level: int, lines):
        self.level = level
        self.lines = np.asarray(lines, dtype=complex)

    def plus(self) -> np.ndarray:
        """The even part xi^+(u, v) = (xi(u, v) + xi(-u, v)) / 2 on the
        lines: (-1, v) lies on the line of (1, -v)."""
        u, v = _line_rows(self.level)
        return 0.5 * (self.lines + self.lines[line_index(-u, v, self.level)])

    def closedness(self):
        """The largest defects of Manin's relations on xi^+ over all lines,
        hence over all pairs: |xi^+(x) + xi^+(x sigma)| with sigma: (u, v)
        -> (v, -u), and |xi^+(x) + xi^+(x tau) + xi^+(x tau^2)| with tau:
        (u, v) -> (v, -u - v)."""
        p, plus = self.level, self.plus()
        u, v = _line_rows(p)
        two = plus + plus[line_index(v, -u, p)]
        three = (plus + plus[line_index(v, -u - v, p)]
                 + plus[line_index(-u - v, u, p)])
        # np.hypot rounds as abs() of a Python complex does; np.abs may not.
        return tuple(np.hypot(d.real, d.imag).max() for d in (two, three))


def xi_bridge_table(form: ModularFormData,
                    lambda_table: np.ndarray) -> XiTable:
    """Period pairing from twisted central values.

    xi(x) = (w / (2 pi (p-1))) sum_k tau(chi_-k) conj(chi_k(x)) L(f, chi_k, 1)
    at u / v = x != 0, over the nontrivial exponents k, xi(infinity) =
    (w / 2 pi) L(f, 1) at v = 0, and xi(0) = -xi(infinity) at u = 0.  The
    chibar(x) weight is the one that agrees with the quadrature route and
    satisfies the Hecke recursion.  L(f, chi_k, 1) = (2 pi / p) Lambda[k],
    from lambda_table, the twisted table of lseries.twisted_lambda_table.
    """
    p = form.level
    w = root_number(form)
    _, logs, tau = character_table(p)
    k = np.arange(1, p - 1)
    central = np.append(0.0, tau[-k] * (TWO_PI / p) * lambda_table[k])
    # At x = g^i, conj chi_k(x) = e(-k i / (p - 1)): one DFT over k.
    units = w * np.fft.fft(central) / (TWO_PI * (p - 1))
    at_inf = w * l_value(form, 1.0) / TWO_PI
    # Line (1, v) is the class x = 1 / v, the line index of (v, 1).
    v = np.arange(1, p)
    return XiTable(p, np.concatenate(
        [[at_inf], units[logs[line_index(v, 1, p)]], [-at_inf]]))


def period_integral_oracle(form: ModularFormData, symbols,
                           quadrature: dict | None = None) -> np.ndarray:
    """-i times the integral of f along the lift of each symbol, term by term.

    Loose-tolerance independent route to the period pairing.  For a lift
    g of x = (u, v) the path g(is), s > 0, splits at s = 1 into
    int_1^oo F_g dt - int_1^oo F_gS dt, with F_h(t) = f(h(it)) h'(it)
    and gS of bottom row (v, -u).  Gamma_0(p) has two cusp classes, so
    one coset step h = gamma S T^j (gamma in Gamma_0(p), j = d / c mod p
    for bottom row (c, d)) and f(z) = (w / (p z^2)) fbar(-1/(pz)) give
    F_h(t) = f(it) if p | c, else (w / p) fbar((it + j) / p): the sum of
    the additive twist conj(a_n) e(nj/p) at it/p.  Every term is an
    exponential and int_1^oo e^(-ct) dt = e^(-c) / c, so a half is
    sum_n a_n e^(-2 pi n) / (2 pi n) if p | c, else
    w sum_n conj(a_n) e(nj/p) e^(-2 pi n/p) / (2 pi n), at every j one
    DFT of the terms binned by n mod p, read at j = line_index(c, d);
    both are cut at the terms height 1/p needs (Cremona, Algorithms for
    Modular Elliptic Curves, 2nd ed., 1997, 2.10).  A given quadrature
    dict is filled with that term count and the one coset step.  symbols
    holds pairs (u, v) of order the level.
    """
    p = form.level
    pairs = []
    for u, v in symbols:
        if math.gcd(math.gcd(u, v), p) != 1:
            raise ValueError("pair (%d, %d) does not have order %d"
                             % (u, v, p))
        pairs.append((u % p, v % p))
    k = _term_count(p * p, form.nmax)
    if quadrature is not None:
        quadrature.update(oracle_terms=k, max_reduction_steps=1)
    a, n = form.coefficients[1:k + 1], np.arange(1, k + 1)
    terms = np.append(0.0, a.conj() * (np.exp(-TWO_PI * n / p)
                                       / (TWO_PI * n)))
    twists = np.fft.ifft(_residue_bins(terms, p), norm="forward")
    half = np.append(root_number(form) * twists,
                     np.sum(a * (np.exp(-TWO_PI * n) / (TWO_PI * n))))
    u, v = np.array(pairs, dtype=int).reshape(-1, 2).T
    return half[line_index(u, v, p)] - half[line_index(v, -u, p)]


def petersson(xi1: XiTable, xi2: XiTable) -> complex:
    """Pairing of two forms through their period tables.

    (i / (12 (N^2-1))) sum over (u, v) of
    xi1(u, v) conj(xi2(v, -u-v)) - xi1(v, -u-v) conj(xi2(u, v)): as each
    line holds N - 1 pairs and (0, 0) adds 0, (i / (12 (N+1))) times the
    sum over the lines.  The sign makes the pairing of a form with itself
    positive for the path orientation used by the period tables.
    """
    if xi1.level != xi2.level:
        raise ValueError("level mismatch")
    n = xi1.level
    u, v = _line_rows(n)
    turned = line_index(v, -u - v, n)
    a, b = xi1.lines, xi2.lines
    acc = np.sum(a * np.conj(b[turned]) - a[turned] * np.conj(b))
    return complex(acc * 1j / (12.0 * (n + 1)))
