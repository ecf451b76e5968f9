import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ellreg.characters import (
    DirichletCharacter,
    _is_prime,
    _prime_factors,
    _primitive_root,
    _totient,
    character_from_label,
    character_sums,
    character_table,
    character_values,
    enumerate_characters,
    exponent_label,
    gauss_sum,
    l_chi_2,
    pair_sum,
    twisted_bernoulli2,
)

from reference_routes import (FiniteMap, character_label, character_map,
                              character_product, fourier_transform,
                              character_values_mpmath,
                              gauss_sums_mpmath, trivial_character)


def phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_enumeration_counts_and_group_closure():
    for n in range(2, 41):
        if _primitive_root(n) is None:
            with pytest.raises(ValueError, match="not cyclic"):
                enumerate_characters(n)
            continue
        chars = enumerate_characters(n)
        assert len(chars) == phi(n)
        assert len(set(chars)) == phi(n)
        # Closed under products and conjugation (spot-check a few pairs).
        for a in chars[:4]:
            assert a.conjugate() in chars
            for b in chars[:4]:
                assert character_product(a, b) in chars


def test_orthogonality_rows():
    for n in (7, 11, 12, 13, 24, 40):
        if _primitive_root(n) is None:
            with pytest.raises(ValueError, match="not cyclic"):
                enumerate_characters(n)
            continue
        chars = enumerate_characters(n)
        for chi in chars:
            for psi in chars:
                s = sum(
                    chi(a) * psi(a).conjugate()
                    for a in range(n)
                    if math.gcd(a, n) == 1
                )
                target = phi(n) if chi == psi else 0.0
                assert abs(s - target) < 1e-12


def test_values_vanish_off_units():
    chi = enumerate_characters(50)[3]
    for a in range(50):
        if math.gcd(a, 50) != 1:
            assert chi(a) == 0.0


def test_character_orders_mod_13():
    # (Z/13)* is cyclic of order 12: orders partition as expected.
    orders = sorted(c.order for c in enumerate_characters(13))
    assert orders == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]
    evens = [c for c in enumerate_characters(13) if c.is_even]
    assert sorted(c.order for c in evens) == [1, 2, 3, 3, 6, 6]


def test_conductor_and_primitivity():
    conductors = [c.conductor for c in enumerate_characters(27)]
    # Mod 27: trivial (1), the quadratic lift from 3, the four lifts of
    # orders 3 and 6 from 9 and the twelve primitive characters.
    assert {d: conductors.count(d) for d in set(conductors)} == {
        1: 1, 3: 1, 9: 4, 27: 12}
    for c in enumerate_characters(13):
        assert c.conductor == (1 if c.is_trivial else 13)
        assert c.is_primitive == (not c.is_trivial)


def test_parity():
    chars11 = enumerate_characters(11)
    assert sum(1 for c in chars11 if c.is_even) == 5
    assert sum(1 for c in chars11 if not c.is_even) == 5
    for c in chars11:
        sign = 1.0 if c.is_even else -1.0
        assert abs(c(-1) - sign) < 1e-15


def test_gauss_sum_quadratic_closed_forms():
    # tau of the quadratic character is sqrt(N) for N = 1 mod 4 and
    # i sqrt(N) for N = 3 mod 4.
    quad13 = next(
        c for c in enumerate_characters(13) if c.order == 2
    )
    assert abs(gauss_sum(quad13) - math.sqrt(13)) < 1e-12
    quad11 = next(c for c in enumerate_characters(11) if c.order == 2)
    assert abs(gauss_sum(quad11) - 1j * math.sqrt(11)) < 1e-12


def test_gauss_sum_product_rule():
    for n in (11, 13):
        for chi in enumerate_characters(n):
            if chi.is_trivial:
                continue
            tau = gauss_sum(chi)
            taubar = gauss_sum(chi.conjugate())
            assert abs(abs(tau) - math.sqrt(n)) < 1e-12
            assert abs(tau * taubar - chi(-1) * n) < 1e-11


def test_fourier_round_trip():
    rng = np.random.default_rng(4)
    for n in (5, 11, 12):
        f = FiniteMap(n, rng.normal(size=n) + 1j * rng.normal(size=n))
        g = fourier_transform(fourier_transform(f))
        for v in range(n):
            assert abs(g(v) - n * f(-v)) < 1e-10


def test_fourier_transform_matches_the_direct_sum():
    # The O(N^2) loop that fourier_transform was before np.fft.fft.
    rng = np.random.default_rng(5)
    for n in (1, 7, 12, 37):
        f = FiniteMap(n, rng.normal(size=n) + 1j * rng.normal(size=n))
        hat = fourier_transform(f)
        for b in range(n):
            direct = sum(f(v) * cmath.exp(-2j * math.pi * b * v / n)
                         for v in range(n))
            assert abs(hat(b) - direct) < 1e-12


def test_fourier_of_primitive_character():
    # For primitive chi: chihat(b) = chi(-1) tau(chi) chibar(b).
    for n in (11, 13):
        for chi in enumerate_characters(n):
            if chi.is_trivial:
                continue
            hat = fourier_transform(character_map(chi))
            tau = gauss_sum(chi)
            for b in range(n):
                expected = chi(-1) * tau * chi.conjugate()(b)
                assert abs(hat(b) - expected) < 1e-11


def test_l_chi_2_quadratic_mod_13():
    quad13 = next(c for c in enumerate_characters(13) if c.order == 2)
    expected = 4.0 * math.sqrt(13.0) / 169.0 * math.pi**2
    assert abs(l_chi_2(quad13) - expected) < 1e-12


def test_l_chi_2_matches_direct_series():
    # Direct partial sum over n <= 10^6; character sums are bounded so
    # the tail is far below the tolerance.
    for n in (11, 13):
        for chi in enumerate_characters(n):
            if chi.is_trivial or not chi.is_even or not chi.is_primitive:
                continue
            k = np.arange(1, 1_000_001)
            vals = np.array([chi(int(a)) for a in range(n)])
            series = np.sum(vals[k % n] / k.astype(float) ** 2)
            assert abs(l_chi_2(chi) - series) < 1e-8


def test_l_chi_2_rejects_bad_input():
    chars = enumerate_characters(11)
    odd = next(c for c in chars if not c.is_even)
    with pytest.raises(ValueError):
        l_chi_2(odd)
    with pytest.raises(ValueError):
        l_chi_2(trivial_character(11))
    lifted = next(
        c
        for c in enumerate_characters(26)
        if not c.is_trivial and c.conductor < 26 and c.is_even
    )
    with pytest.raises(ValueError):
        l_chi_2(lifted)


def test_quintic_l_value_product_mod_11():
    # For the even quintic characters mod 11 the conjugate product of
    # L-values has the closed form
    #   L(chi,2) L(chibar,2) / pi^4 = (2/11)^4 (7 - z - zbar), z = chi(3),
    # equivalently B_{2,chi} B_{2,chibar} = (16/11)(7 - z - zbar).
    chars = [
        c for c in enumerate_characters(11) if c.is_even and c.order == 5
    ]
    assert len(chars) == 4
    for chi in chars:
        z = chi(3)
        lhs = l_chi_2(chi) * l_chi_2(chi.conjugate()) / math.pi**4
        rhs = (2.0 / 11.0) ** 4 * (7.0 - z - z.conjugate())
        assert abs(lhs - rhs) < 1e-14
        bprod = twisted_bernoulli2(chi) * twisted_bernoulli2(chi.conjugate())
        assert abs(bprod - 16.0 / 11.0 * rhs * 11.0**4 / 16.0) < 1e-10


def test_character_label_parsing():
    chi = character_from_label("11:g=2,zeta5^1")
    assert chi.modulus == 11
    assert abs(chi(2) - cmath.exp(2j * math.pi / 5)) < 1e-15
    assert chi.order == 5 and chi.is_even
    eps = character_from_label("13:g=2,zeta6^1")
    assert eps.order == 6
    assert abs(eps(2) - cmath.exp(2j * math.pi / 6)) < 1e-15
    with pytest.raises(ValueError):
        character_from_label("11:g=2,zeta3^1")
    with pytest.raises(ValueError):
        character_from_label("nonsense")
    with pytest.raises(ValueError):
        character_from_label("12:g=5,zeta2^1")  # (Z/12)* is not cyclic


def test_character_label_round_trip():
    for n in (5, 11, 13, 9):
        for chi in enumerate_characters(n):
            label = character_label(chi)
            assert character_from_label(label) == chi
    assert character_label(trivial_character(2)) == "2:g=1,zeta1^0"
    with pytest.raises(ValueError):
        character_label(trivial_character(12))  # (Z/12)* not cyclic


def test_equality_is_exact_not_float():
    a, b = enumerate_characters(5)[1], enumerate_characters(5)[1]
    assert a == b and hash(a) == hash(b)
    assert a != a.conjugate() or a.order <= 2


def test_number_theory_helpers_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 2000):
        assert _totient(n) == sympy.totient(n)
        assert _prime_factors(n) == sympy.primefactors(n)
        assert _is_prime(n) == sympy.isprime(n)
        if n >= 2:
            # The smallest root, or None when (Z/n)* is not cyclic; the
            # character labels are built on it.
            assert _primitive_root(n) == sympy.primitive_root(n), n


def test_primality_matches_sympy_and_rejects_strong_pseudoprimes():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(10**4 + 1)
            if _is_prime(n) != sympy.isprime(n)] == []
    # The least strong pseudoprimes to the bases 2; 2 .. 7; 2 .. 23 and
    # 2 .. 37, and primes of 17 and 19 digits.
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461, 43200002159999963, 2**61 - 1):
        assert _is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [9, 10, 11, 17, 25, 26, 27, 37, 50, 101])
def test_enumeration_index_is_the_exponent_at_the_primitive_root(n):
    # The verify layer indexes characters by k: chi_k(g) = e(k / phi(n))
    # for the smallest primitive root g, so chi_j chi_k = chi_{j+k}.
    chars = enumerate_characters(n)
    g, phi = _primitive_root(n), _totient(n)
    for k, chi in enumerate(chars):
        assert chi.exponent_at(g) * phi == k * chi.order
        assert chi.is_even == (k % 2 == 0)
    for j, k in [(1, 2), (3, phi - 4), (phi - 2, phi - 2), (5, 0)]:
        j, k = j % phi, k % phi
        assert character_product(chars[j], chars[k]) == chars[(j + k) % phi]
        assert chars[k].conjugate() == chars[-k % phi]


def test_a_label_builds_one_character():
    # The label is solved for its exponent: no other character mod 1009
    # is built.
    tracemalloc.start()
    try:
        chi = character_from_label("1009:g=11,zeta504^1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi == enumerate_characters(1009)[2]
    assert peak <= 1e6


def test_a_character_is_its_exponent():
    # The constructor, the enumeration and a label round trip name the
    # same character chi_k, for every k mod every cyclic n <= 60.
    for n in range(1, 61):
        if _primitive_root(n) is None:
            continue
        chars = enumerate_characters(n)
        for k in range(_totient(n)):
            chi = DirichletCharacter(n, k)
            assert chi == chars[k] == character_from_label(
                exponent_label(n, k))
            assert hash(chi) == hash(chars[k]) == hash(
                character_from_label(exponent_label(n, k)))


@pytest.mark.parametrize("p", [11, 37, 101, 389])
def test_character_table_reads_the_characters(p):
    # enumerate_characters(p)[k] is chi_k of the exponent table, exactly,
    # though character_table makes no character.  The values and tau are
    # checked against 30-digit sums: every k below 389, every tenth at 389.
    powers, logs, tau = character_table(p)
    assert sorted(powers) == list(range(1, p))
    assert powers[1] == _primitive_root(p)
    assert (logs[powers] == np.arange(p - 1)).all()
    for k, chi in enumerate(enumerate_characters(p)):
        assert [chi.exponent_at(a) * (p - 1) for a in range(1, p)] == [
            k * logs[a] % (p - 1) * chi.order for a in range(1, p)]
        assert chi.is_even == (k % 2 == 0)
    ks = np.arange(0, p - 1, 10 if p > 101 else 1)
    assert np.abs(character_values(p, ks)
                  - character_values_mpmath(p, ks)).max() <= 1e-15
    assert np.abs(tau[ks] - gauss_sums_mpmath(p, ks)).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 4, 10, 11, 17, 27, 37, 50, 101, 389])
def test_exponent_labels_are_the_character_labels(n):
    # The label of chi_k from (n, k) alone is the label of the object.
    assert [exponent_label(n, k) for k in range(_totient(n))] == [
        character_label(chi) for chi in enumerate_characters(n)]


@pytest.mark.parametrize("p", [11, 17, 37, 101])
def test_pair_sum_is_the_double_loop_over_exponent_pairs(p):
    n = p - 1
    rng = np.random.default_rng(p)
    a, b, f = rng.normal(size=(3, n, 2)) @ [1.0, 1.0j]
    want = 0.0j
    for j in range(n):
        for k in range(n):
            want += a[j] * b[k] * f[(j + k) % n]
    assert abs(pair_sum(a, b, f) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("p", [11, 17, 37, 101])
def test_character_sums_are_the_dense_value_table_product(p):
    # One transform at the powers of g against every row of the (p - 1) x
    # p value table, for a complex vector and a p x 3 matrix.
    rng = np.random.default_rng(p)
    table = character_values(p, np.arange(p - 1))
    vector = rng.normal(size=(p, 2)) @ [1.0, 1.0j]
    matrix = rng.normal(size=(p, 3))
    for f in (vector, matrix):
        want = table @ f
        got = character_sums(f, p)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
