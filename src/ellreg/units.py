"""Cusp divisors of modular units attached to sum-zero maps on Z/NZ.

A sum-zero map f on Z/NZ determines a modular unit whose logarithm is
the Eisenstein series of f divided by pi, normalized to leading Fourier
coefficient 1 at the infinite cusp.  This module computes the exact
cusp divisor of such a unit in closed form when f is an even Dirichlet
character.  The general double-sum order formula, the closed form for
the Fourier transform of a character and the arithmetic of divisors
are the tests' reference routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .characters import (DirichletCharacter, _prime_factors, _unit_logs,
                         l_chi_2)
from .modsym import cusp_classes


@dataclass
class CuspDivisor:
    """Formal complex combination of cusp classes at one level."""

    level: int
    coefficients: dict = field(default_factory=dict)

    def items(self):
        return sorted(self.coefficients.items(),
                      key=lambda kv: (kv[0].u, kv[0].v))


def _primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod chi's conductor d that chi is induced
    from: its value at d's primitive root g is chi at a unit lift of g."""
    cond = chi.conductor
    if cond == chi.modulus:
        return chi
    g, powers, _ = _unit_logs(cond)
    e = chi.exponent_at(_unit_lift(chi.modulus, cond, g))
    # chi_k(g) = e(k / phi(d)) = e(e / order): the orders are equal.
    return DirichletCharacter(cond, e * (len(powers) // chi.order))


def _unit_lift(n: int, d: int, beta: int) -> int:
    for k in range(max(1, n // d)):
        w = (beta + k * d) % n
        if math.gcd(w, n) == 1:
            return w
    raise ValueError("no unit lift of %d mod %d to mod %d" % (beta, d, n))


def _l2_even(chi: DirichletCharacter) -> complex:
    """L(chi, 2) for even nontrivial chi, reduced to the primitive part."""
    prim = _primitive_part(chi)
    value = l_chi_2(prim)
    for p in _prime_factors(chi.modulus):
        if prim.modulus % p != 0:
            value *= 1.0 - complex(prim(p)) / p**2
    return value


def unit_divisor_chi(chi: DirichletCharacter) -> CuspDivisor:
    """Closed-form divisor -(L(chi,2)/pi^2) sum chibar(v) [0, v].

    Supported on the cusps with first label 0; chi must be even and
    nontrivial.
    """
    if chi.is_trivial or not chi.is_even:
        raise ValueError("the character unit needs chi even nontrivial")
    n = chi.modulus
    scale = -_l2_even(chi) / math.pi**2
    coeffs = {}
    for cls in cusp_classes(n):
        if cls.u % n == 0:
            coeffs[cls] = scale * complex(chi(cls.v)).conjugate()
        else:
            coeffs[cls] = 0.0
    return CuspDivisor(n, coeffs)
