"""Dirichlet characters with exact root-of-unity arithmetic.

Characters have one encoding, their exponent at a primitive root: mod N
with (Z/N)* cyclic (N = 1, 2, 4, q^k and 2 q^k), chi_k(g^i) = e(k i /
phi(N)) for g the smallest primitive root.  enumerate_characters lists
chi_k at index k, labels name chi_k by its value at g, and modulo a prime,
the verify suites' case, character_table holds the exponents as arrays
and makes no character object, and character_sums takes sum_a chi_k(a)
f(a) for every k as one transform.  One cached table per modulus,
_unit_logs, holds g, its powers and the discrete logs that all of these
read.  A DirichletCharacter is its modulus and k: its value at a is an
integer exponent modulo its order, read from the logs, so conjugates
and equality are exact; complex values are cached on first use.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .special import periodic_bernoulli2


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


# Miller-Rabin with the prime bases up to 41 is exact below 3.3e24
# (Sorenson and Webster, 2017), where the verifier's levels lie.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Deterministic Miller-Rabin for n below 3.3e24."""
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _totient(n):
    for q in _prime_factors(n):
        n = n // q * (q - 1)
    return n


def _primitive_root(n):
    """The smallest primitive root mod n >= 1, or None if there is none."""
    odd = [q for q in _prime_factors(n) if q > 2]
    if n not in (1, 2, 4) and (len(odd) != 1 or n % 4 == 0):
        return None  # (Z/n)* is cyclic only for n = 1, 2, 4, q^k and 2 q^k
    phi = _totient(n)
    exponents = [phi // q for q in _prime_factors(phi)]
    for g in range(1, n + 1):
        if math.gcd(g, n) == 1 and all(pow(g, e, n) != 1 for e in exponents):
            return g


@lru_cache(maxsize=None)
def _unit_logs(n):
    """(g, powers, logs) for g the smallest primitive root mod n, built
    once: powers[i] = g^i mod n for i < phi(n), and logs[a] = i for a =
    g^i, None off the units.  Raises ValueError when (Z/n)* is not
    cyclic."""
    g = _primitive_root(n)
    if g is None:
        raise ValueError(f"(Z/{n})* is not cyclic: characters mod {n} "
                         f"need a primitive root")
    powers = tuple(pow(g, i, n) for i in range(_totient(n)))
    logs = [None] * n
    for i, a in enumerate(powers):
        logs[a] = i
    return g, powers, tuple(logs)


class DirichletCharacter:
    """chi_k modulo N, the character of exponent k at the primitive root.

    chi_k(g^i) = e(k i / phi) with phi = phi(N), so the order is m = phi /
    gcd(k, phi) and chi_k(a) = e(e_a / m) with the integer exponent e_a =
    (k / gcd) logs[a] mod m.  Two characters are equal when their moduli
    and their k mod phi are.
    """

    def __init__(self, modulus, k):
        _, powers, self._logs = _unit_logs(modulus)
        phi = len(powers)
        self.modulus, self.k = modulus, k % phi
        d = math.gcd(self.k, phi)
        self.order, self._step = phi // d, self.k // d
        self._cache = None

    def _values(self):
        if self._cache is None:
            m = self.order
            roots = [cmath.exp(2j * math.pi * k / m) for k in range(m)]
            self._cache = tuple(
                0.0 if e is None else roots[e]
                for e in map(self.exponent_at, range(self.modulus))
            )
        return self._cache

    def __call__(self, n) -> complex:
        return self._values()[n % self.modulus]

    def exponent_at(self, n):
        """Exact exponent e with chi(n) = exp(2 pi i e / order), or None."""
        i = self._logs[n % self.modulus]
        return None if i is None else self._step * i % self.order

    @property
    def is_trivial(self):
        return self.k == 0

    @property
    def is_even(self):
        return self.exponent_at(-1) == 0

    @property
    def conductor(self):
        """Smallest d | N such that chi factors through (Z/dZ)*: chi is 1
        on every unit a = 1 mod d (exponent_at is None off the units)."""
        n = self.modulus
        return next(d for d in _divisors(n)
                    if not any(map(self.exponent_at, range(1 % d, n, d))))

    @property
    def is_primitive(self):
        return self.conductor == self.modulus

    def conjugate(self):
        return DirichletCharacter(self.modulus, -self.k)

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (self.modulus, self.k) == (other.modulus, other.k)

    def __hash__(self):
        return hash((self.modulus, self.k))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, order {self.order})"


def enumerate_characters(modulus):
    """chi_k for k = 0 .. phi(N) - 1 at index k: chi_k(g^i) = e(k i / phi(N))
    for g the smallest primitive root mod N.  Raises ValueError when
    (Z/N)* is not cyclic."""
    return [DirichletCharacter(modulus, k)
            for k in range(len(_unit_logs(modulus)[1]))]


def gauss_sum(chi) -> complex:
    """tau(chi) = sum_a chi(a) e^{2 pi i a / N}."""
    n = chi.modulus
    return sum(
        chi(a) * cmath.exp(2j * math.pi * a / n) for a in range(1, n)
    )


class CharacterTable(NamedTuple):
    """The characters mod a prime p, as their exponents k.

    chi_k(g^i) = e(k i / (p - 1)) for the smallest primitive root g, so
    chi_j chi_k = chi_{j+k}, conj chi_k = chi_{-k}, chi_0 is trivial and
    chi_k is even exactly when k is.  powers[i] = g^i mod p, logs[a] is
    the i with g^i = a (logs[0] = 0 holds no log) and tau[k] = tau(chi_k).
    A sum sum_a chi_k(a) F(a) over every k is one DFT of F(powers) (Rader's
    re-indexing, character_sums).  All three arrays are read-only.
    """

    powers: np.ndarray
    logs: np.ndarray
    tau: np.ndarray


@lru_cache(maxsize=None)
def character_table(p: int) -> CharacterTable:
    """The exponent table of the characters mod the prime p, built once."""
    if not _is_prime(p):
        raise ValueError(f"character tables need a prime modulus, not {p}")
    _, powers, logs = _unit_logs(p)
    powers, logs = np.array(powers), np.array((0,) + logs[1:])
    # tau[k] = sum_i e(k i / (p - 1)) e(g^i / p), one inverse DFT.
    tau = np.fft.ifft(np.exp(2j * math.pi * powers / p), norm="forward")
    for array in (powers, logs, tau):
        array.flags.writeable = False
    return CharacterTable(powers, logs, tau)


def character_values(p: int, ks) -> np.ndarray:
    """chi_k(a) for a = 0 .. p - 1, p prime, one row per exponent k in ks
    (a scalar k gives one row): e(k logs[a] / (p - 1)), and 0 at a = 0."""
    n = p - 1
    # e(h / n) with h in (-n / 2, n / 2]: the least angle rounds least.
    h = np.arange(n)
    roots = np.exp(2j * math.pi * np.where(2 * h > n, h - n, h) / n)
    values = roots[np.multiply.outer(ks, character_table(p).logs) % n]
    values[..., 0] = 0.0
    return values


def character_sums(f: np.ndarray, p: int) -> np.ndarray:
    """sum_a chi_k(a) f[a] along axis 0 for every exponent k mod the prime
    p, at index k: one inverse DFT of f at the powers of g (f[0] unread)."""
    return np.fft.ifft(f[character_table(p).powers], axis=0, norm="forward")


def pair_sum(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> complex:
    """sum_{j, k} a[j] b[k] f[(j + k) mod (p - 1)], a double sum over pairs
    of characters weighted by their product chi_j chi_k = chi_{j+k}: f
    against the cyclic convolution of a and b, one transform of each."""
    return complex(f @ np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)))


def exponent_label(n: int, k: int) -> str:
    """The label of chi_k = enumerate_characters(n)[k], which
    character_from_label reads back: chi_k(g) = e(k / phi) = zeta_m^e in
    lowest terms."""
    g, powers, _ = _unit_logs(n)
    phi = len(powers)
    d = math.gcd(int(k), phi)
    return f"{n}:g={g},zeta{phi // d}^{int(k) // d}"


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

    (Z/N)* must be cyclic and the generator must pin the character down
    uniquely among all characters mod N; otherwise the label is rejected.
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
    _, powers, logs = _unit_logs(modulus)
    phi = len(powers)
    j = logs[gen % modulus]
    # chi_k(gen) = e(k j / phi) is zeta_m^e iff k j m = e phi (mod phi m).
    # With d = gcd(j, phi) that holds for no k when m d does not divide
    # e phi, and else for d of the k in 0 .. phi - 1.
    d = math.gcd(j, phi)
    if power * phi % (root_order * d):
        raise ValueError(f"no character mod {modulus} with that value")
    if d > 1:
        raise ValueError(f"label {label!r} is ambiguous")
    k = power * phi // root_order * pow(j, -1, phi) % phi
    return DirichletCharacter(modulus, k)
