"""Dirichlet characters with exact root-of-unity arithmetic.

Characters are stored as exponent tables: chi(a) = exp(2 pi i e(a) / M)
with integer e(a) modulo a common order M, so conjugates and equality
are exact.  Complex values are cached on first use.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .special import periodic_bernoulli2


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


def _divisors(n):
    """The positive divisors of n in increasing order."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _crt_pair(r1, m1, m2):
    # x with x = r1 (mod m1), x = 1 (mod m2); gcd(m1, m2) = 1.
    g, p, q = _xgcd(m1, m2)
    assert g == 1
    return (r1 * q * m2 + 1 * p * m1) % (m1 * m2)


def _factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _prime_factors(n):
    return [q for q, _ in _factorize(n)]


def _is_prime(n):
    return _factorize(n) == [(n, 1)]


def _totient(n):
    for q in _prime_factors(n):
        n = n // q * (q - 1)
    return n


def _primitive_root(n):
    """The smallest primitive root mod n >= 2, or None if there is none."""
    odd = [q for q in _prime_factors(n) if q > 2]
    if n not in (2, 4) and (len(odd) != 1 or n % 4 == 0):
        return None  # (Z/n)* is cyclic only for n = 2, 4, q^k and 2 q^k
    phi = _totient(n)
    exponents = [phi // q for q in _prime_factors(phi)]
    for g in range(1, n):
        if math.gcd(g, n) == 1 and all(pow(g, e, n) != 1 for e in exponents):
            return g


@lru_cache(maxsize=None)
def _unit_group(n):
    """Generators (g_i, m_i) with (Z/nZ)* the direct product of <g_i>."""
    if n == 1:
        return ()
    gens = []
    for p, e in _factorize(n):
        pe = p**e
        if p == 2:
            if e == 2:
                gens.append((_crt_pair(pe - 1, pe, n // pe), 2))
            elif e >= 3:
                gens.append((_crt_pair(pe - 1, pe, n // pe), 2))
                gens.append((_crt_pair(5 % pe, pe, n // pe), 2 ** (e - 2)))
        else:
            g = _primitive_root(pe)
            gens.append((_crt_pair(g, pe, n // pe), pe // p * (p - 1)))
    return tuple(gens)


def _exponent_tuples(orders):
    """Every tuple (k_1, ..., k_r) with 0 <= k_i < orders[i], the first
    entry running fastest."""
    return [t[::-1] for t in product(*map(range, reversed(orders)))]


@lru_cache(maxsize=None)
def _dlog_tables(n):
    """Discrete logs of every unit mod n on the generator tuple.

    Each generator is congruent to 1 away from its own prime power, so
    the joint logs are found by enumerating exponent tuples within each
    CRT component.  Moduli here are tiny, brute force is fine.
    """
    gens = _unit_group(n)
    logs = {}
    for choices in _exponent_tuples([m for _, m in gens]):
        val = 1
        for (g, _), k in zip(gens, choices):
            val = val * pow(g, k, n) % n
        logs[val] = choices
    assert len(logs) == _totient(n), "generators do not span the unit group"
    return logs


class DirichletCharacter:
    """A Dirichlet character modulo N with exact value exponents."""

    def __init__(self, modulus, order, exponents):
        self.modulus = modulus
        exps = [None if e is None else e % order for e in exponents]
        # Reduce so that `order` is the true multiplicative order of chi.
        g = order
        for e in exps:
            if e:
                g = math.gcd(g, e)
        order //= g
        # exponents[a] is None off the units, else an int modulo `order`.
        self._exp = tuple(None if e is None else e // g for e in exps)
        self.order = order
        assert len(self._exp) == modulus
        self._cache = None
        # order is the true order, so (modulus, order, exponents) is the
        # identity behind __eq__ and __hash__.
        self._key = (modulus, order, self._exp)
        self._hash = hash(self._key)

    def _values(self):
        if self._cache is None:
            m = self.order
            roots = [cmath.exp(2j * math.pi * k / m) for k in range(m)]
            self._cache = tuple(
                0.0 if e is None else roots[e] for e in self._exp
            )
        return self._cache

    def __call__(self, n) -> complex:
        return self._values()[n % self.modulus]

    def exponent_at(self, n):
        """Exact exponent e with chi(n) = exp(2 pi i e / order), or None."""
        return self._exp[n % self.modulus]

    @property
    def is_trivial(self):
        return all(e is None or e == 0 for e in self._exp)

    @property
    def is_even(self):
        return self._exp[(-1) % self.modulus] == 0

    @property
    def conductor(self):
        """Smallest d | N such that chi factors through (Z/dZ)*."""
        n = self.modulus
        for d in sorted(_divisors(n)):
            ok = True
            for a in range(n):
                if math.gcd(a, n) == 1 and a % d == 1 % d and self._exp[a] != 0:
                    ok = False
                    break
            if ok:
                return d
        return n

    @property
    def is_primitive(self):
        return self.conductor == self.modulus

    def conjugate(self):
        exps = [None if e is None else (-e) % self.order for e in self._exp]
        return DirichletCharacter(self.modulus, self.order, exps)

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, order {self.order})"


def enumerate_characters(modulus):
    """All phi(N) Dirichlet characters mod N, closed under products."""
    if modulus == 1:
        return [DirichletCharacter(1, 1, [0])]
    logs = _dlog_tables(modulus)
    orders = [m for _, m in _unit_group(modulus)]
    total = math.lcm(*orders)
    # exps[j, a] = sum_i log_i(a) c_i (total / m_i) for the j-th choice
    # c of exponents, and -1 off the units.
    steps = (np.array(_exponent_tuples(orders), dtype=int)
             * (total // np.array(orders, dtype=int)))
    exps = np.full((len(steps), modulus), -1)
    exps[:, list(logs)] = (
        steps @ np.array(list(logs.values()), dtype=int).T % total)
    return [DirichletCharacter(modulus, total,
                               [None if e < 0 else e for e in row])
            for row in exps.tolist()]


class FiniteMap:
    """A function Z/NZ -> C given by its value table."""

    def __init__(self, modulus, values):
        values = list(values)
        if len(values) != modulus:
            raise ValueError("value table length must equal the modulus")
        self.modulus = modulus
        self.values = [complex(v) for v in values]

    @classmethod
    def from_character(cls, chi):
        return cls(chi.modulus, [chi(a) for a in range(chi.modulus)])

    def __call__(self, n):
        return self.values[n % self.modulus]


def gauss_sum(chi) -> complex:
    """tau(chi) = sum_a chi(a) e^{2 pi i a / N}."""
    n = chi.modulus
    return sum(
        chi(a) * cmath.exp(2j * math.pi * a / n) for a in range(1, n)
    )


class CharacterTable(NamedTuple):
    """The characters mod a prime p, indexed by their exponent k.

    chi_k(g^a) = e(k a / (p - 1)) for the smallest primitive root g, so
    chi_j chi_k = chi_{j+k}, conj chi_k = chi_{-k}, chi_0 is trivial and
    chi_k is even exactly when k is.  values[k, a] = chi_k(a) for
    a = 0 .. p - 1 and tau[k] = tau(chi_k); both arrays are read-only.
    """

    characters: tuple
    values: np.ndarray
    tau: np.ndarray


@lru_cache(maxsize=None)
def character_table(p: int) -> CharacterTable:
    """The exponent-indexed characters mod the prime p, built once."""
    if not _is_prime(p):
        raise ValueError(f"character tables need a prime modulus, not {p}")
    # enumerate_characters runs one exponent over the one generator.
    chars = tuple(enumerate_characters(p))
    # chi_k(a) = e(k log(a) / (p - 1)), read from the roots of chi_k's
    # reduced order (p - 1) / d as DirichletCharacter reads them.
    logs = np.array([_dlog_tables(p)[a][0] for a in range(1, p)])
    ks = np.arange(p - 1)
    g = np.gcd(ks, p - 1)
    values = np.zeros((p - 1, p), dtype=complex)
    for d in _divisors(p - 1):
        m = (p - 1) // d
        roots = np.array([cmath.exp(2j * math.pi * e / m) for e in range(m)])
        values[g == d, 1:] = roots[np.outer(ks[g == d], logs) % (p - 1) // d]
    # tau[k] = sum_a chi_k(a) e(a / p), added in gauss_sum's order with
    # its scalar complex products spelled out in real arithmetic, which
    # numpy's vectorized complex product may fuse.
    tau = np.zeros(p - 1, dtype=complex)
    for a in range(1, p):
        e, column = cmath.exp(2j * math.pi * a / p), values[:, a]
        tau.real += column.real * e.real - column.imag * e.imag
        tau.imag += column.real * e.imag + column.imag * e.real
    values.flags.writeable = tau.flags.writeable = False
    return CharacterTable(chars, values, tau)


def twisted_bernoulli2(chi) -> complex:
    """B_{2,chi} = N sum_a chi(a) B2bar(a/N), a finite exact-style sum."""
    n = chi.modulus
    return n * sum(
        chi(a) * periodic_bernoulli2(a / n) for a in range(1, n + 1)
    )


def l_chi_2(chi) -> complex:
    """L(chi, 2) for an even nontrivial primitive character.

    Uses the closed form L(chi, 2) / pi^2 = B_{2, chibar} / (N tau(chibar)),
    equivalent to the functional equation at s = 2.
    """
    if chi.is_trivial:
        raise ValueError("l_chi_2 requires a nontrivial character")
    if not chi.is_even:
        raise ValueError("l_chi_2 requires an even character")
    if not chi.is_primitive:
        raise ValueError("l_chi_2 requires a primitive character")
    bar = chi.conjugate()
    return (
        math.pi**2
        * twisted_bernoulli2(bar)
        / (chi.modulus * gauss_sum(bar))
    )


def character_from_label(label):
    """Parse labels like '11:g=2,zeta5^1' meaning chi(2) = zeta_5.

    The generator must pin the character down uniquely among all
    characters mod N; otherwise the label is rejected.
    """
    try:
        mod_part, rest = label.split(":", 1)
        gen_part, root_part = rest.split(",", 1)
        modulus = int(mod_part)
        gen = int(gen_part.split("=", 1)[1])
        base, expo = root_part.split("^", 1)
        if not base.startswith("zeta"):
            raise ValueError
        root_order = int(base[4:])
        power = int(expo)
    except (ValueError, IndexError):
        raise ValueError(f"cannot parse character label {label!r}") from None
    if modulus < 1 or root_order < 1:
        raise ValueError(f"character label {label!r} needs a modulus and "
                         f"a root order of at least 1")
    if math.gcd(gen, modulus) != 1:
        raise ValueError("generator must be a unit")
    matches = []
    for chi in enumerate_characters(modulus):
        e = chi.exponent_at(gen)
        # chi(gen) = zeta_m^k exactly iff e/order = k/m (mod 1).
        if (e * root_order - power * chi.order) % (chi.order * root_order) == 0:
            matches.append(chi)
    if not matches:
        raise ValueError(f"no character mod {modulus} with that value")
    if len(matches) > 1:
        raise ValueError(f"label {label!r} is ambiguous")
    return matches[0]


def character_label(chi) -> str:
    """Inverse of character_from_label when (Z/N)* is cyclic.

    The value at the smallest primitive root pins the character down
    uniquely, so the label always round-trips.
    """
    n = chi.modulus
    if n <= 2:
        return f"{n}:g=1,zeta1^0"
    g = _primitive_root(n)
    if g is None:
        raise ValueError(f"(Z/{n})* is not cyclic; no label for modulus {n}")
    return f"{n}:g={g},zeta{chi.order}^{chi.exponent_at(g)}"
