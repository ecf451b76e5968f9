"""Tests for cusp divisors of modular units."""

import math

import pytest

from ellreg.characters import (
    enumerate_characters,
    gauss_sum,
    l_chi_2,
    twisted_bernoulli2,
)
from ellreg.modsym import CuspClass, cusp_classes
from ellreg.units import (CuspDivisor, _primitive_part, _unit_lift,
                          unit_divisor_chi)

from reference_routes import (
    DIV_X_LEVEL13,
    DIV_Y_LEVEL13,
    FiniteMap,
    character_map,
    character_product,
    delta_map,
    divisor_degree,
    divisor_diamond,
    divisor_distance,
    divisor_scaled,
    divisor_sum,
    fourier_transform,
    order_at_cusp,
    reconstruct_x1_13_units,
    unit_divisor,
    unit_divisor_chihat,
    x1_13_epsilon,
)


def even_nontrivial(n):
    return [c for c in enumerate_characters(n)
            if c.is_even and not c.is_trivial]


def delta_diff(n, i, j):
    f = FiniteMap(n, [delta_map(n, i)(a) - delta_map(n, j)(a)
                      for a in range(n)])
    assert abs(sum(f.values)) == 0
    return f


def test_cusp_divisor_algebra():
    c1 = CuspClass(11, 0, 1)
    c2 = CuspClass(11, 1, 0)
    d = CuspDivisor(11, {c1: 2.0, c2: -1.0})
    assert divisor_degree(d) == pytest.approx(1.0)
    total = divisor_sum(d, divisor_scaled(d, -0.5))
    assert total.coefficients[c1] == pytest.approx(1.0)
    assert [cls for cls, _ in d.items()] == [c1, c2]
    with pytest.raises(ValueError):
        divisor_sum(d, CuspDivisor(13, {}))
    with pytest.raises(ValueError):
        divisor_diamond(d, 11)
    assert divisor_distance(divisor_diamond(d, 1), d) < 1e-15
    assert divisor_distance(d, CuspDivisor(11, {c1: 2.0})) == 1.0


def test_order_at_cusp_input_validation():
    with pytest.raises(ValueError):
        order_at_cusp(delta_map(11, 1), 0, 1)
    f = delta_diff(6, 1, 5)
    with pytest.raises(ValueError):
        order_at_cusp(f, 2, 4)
    with pytest.raises(ValueError):
        unit_divisor(delta_map(11, 1))


def test_unit_divisor_degree_zero():
    for n, i, j in ((11, 3, 7), (13, 2, 5), (10, 1, 3)):
        div = unit_divisor(delta_diff(n, i, j))
        assert abs(divisor_degree(div)) < 1e-12
    for chi in even_nontrivial(13):
        assert abs(divisor_degree(unit_divisor_chi(chi))) < 1e-12
    assert abs(divisor_degree(unit_divisor_chihat(x1_13_epsilon()))) < 1e-12


def test_order_depends_only_on_cusp_class():
    f = delta_diff(11, 3, 7)
    for u, v in ((0, 1), (1, 0), (2, 3), (3, 7)):
        base = order_at_cusp(f, u, v)
        assert order_at_cusp(f, -u, -v) == pytest.approx(base, abs=1e-12)
        assert order_at_cusp(f, u, v + u) == pytest.approx(base, abs=1e-12)
        assert order_at_cusp(f, u, v + 5 * u) == pytest.approx(base, abs=1e-12)


def test_order_invariant_under_unit_scaling_of_u():
    f = delta_diff(10, 1, 3)
    for u, v in ((2, 1), (5, 2), (2, 3)):
        base = order_at_cusp(f, u, v)
        for e in (3, 7, 9):
            assert order_at_cusp(f, e * u, v) == pytest.approx(
                base, abs=1e-12)


def test_real_map_gives_real_orders():
    div = unit_divisor(delta_diff(11, 3, 7))
    for _, c in div.items():
        assert abs(c.imag) < 1e-12


def test_character_unit_closed_form_matches_double_sum():
    for n in (11, 13, 10):
        for chi in even_nontrivial(n):
            direct = unit_divisor(character_map(chi))
            closed = unit_divisor_chi(chi)
            assert divisor_distance(direct, closed) < 1e-11


def test_imprimitive_character_euler_factor():
    chi = even_nontrivial(10)[0]
    assert chi.conductor == 5
    direct = unit_divisor(character_map(chi))
    assert divisor_distance(direct, unit_divisor_chi(chi)) < 1e-11


def test_character_unit_vanishes_off_zero_cusps():
    chi = even_nontrivial(13)[0]
    f = character_map(chi)
    for cls in cusp_classes(13):
        if cls.u % 13 != 0:
            assert abs(order_at_cusp(f, cls.u, cls.v)) < 1e-12
            assert unit_divisor_chi(chi).coefficients[cls] == 0.0


def test_character_unit_rejects_bad_characters():
    odd = [c for c in enumerate_characters(11) if not c.is_even][0]
    trivial = [c for c in enumerate_characters(11) if c.is_trivial][0]
    with pytest.raises(ValueError):
        unit_divisor_chi(odd)
    with pytest.raises(ValueError):
        unit_divisor_chi(trivial)
    with pytest.raises(ValueError):
        unit_divisor_chihat(odd)


def test_transform_unit_matches_gauss_sum_times_conjugate():
    for n in (11, 13):
        for chi in even_nontrivial(n):
            lhs = unit_divisor_chihat(chi)
            rhs = divisor_scaled(unit_divisor_chi(chi.conjugate()),
                                 gauss_sum(chi))
            assert divisor_distance(lhs, rhs) < 1e-11


def test_transform_unit_matches_double_sum():
    trivial = [c for c in enumerate_characters(11) if c.is_trivial][0]
    chis = [character_product(x1_13_epsilon(), x1_13_epsilon()),
            even_nontrivial(11)[0],
            trivial]
    for chi in chis:
        f = fourier_transform(character_map(chi))
        direct = unit_divisor(f)
        assert divisor_distance(direct, unit_divisor_chihat(chi)) < 1e-11


def test_transform_unit_trivial_character_frozen_values():
    trivial = [c for c in enumerate_characters(11) if c.is_trivial][0]
    div = unit_divisor_chihat(trivial)
    for cls, c in div.items():
        want = 5.0 / 33.0 if cls.u % 11 == 0 else -5.0 / 33.0
        assert c == pytest.approx(want, abs=1e-12)
    assert abs(divisor_degree(div)) < 1e-12


def test_transform_unit_vanishes_when_conductor_misses_gcd():
    eps = x1_13_epsilon()
    div = unit_divisor_chihat(eps)
    for cls in cusp_classes(13):
        if math.gcd(cls.u, 13) == 1:
            assert div.coefficients[cls] == 0.0


def test_diamond_action_scales_character_units():
    eps = x1_13_epsilon()
    base = unit_divisor_chi(eps)
    hat = unit_divisor_chihat(eps)
    for d in (2, 5):
        chid = complex(eps(d))
        assert divisor_distance(divisor_diamond(base, d),
                                divisor_scaled(base, chid.conjugate())) < 1e-12
        assert divisor_distance(divisor_diamond(hat, d),
                                divisor_scaled(hat, chid)) < 1e-12


def test_sextic_character_selection():
    eps = x1_13_epsilon()
    assert eps.modulus == 13 and eps.order == 6 and eps.is_even
    zeta6 = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    assert complex(eps(2)) == pytest.approx(zeta6, abs=1e-12)
    b2 = twisted_bernoulli2(character_product(eps, eps))
    assert b2 == pytest.approx(2 + 2j * math.sqrt(3.0), abs=1e-10)


def test_quadratic_l_value_level13():
    eps = x1_13_epsilon()
    quad = character_product(character_product(eps, eps), eps)
    assert quad.order == 2
    want = 4.0 * math.sqrt(13.0) * math.pi**2 / 169
    assert l_chi_2(quad) == pytest.approx(want, rel=1e-12)


def test_level13_coordinate_reconstruction():
    report = reconstruct_x1_13_units()
    assert report["cusp_count"] == 12
    assert report["div_y_scalar"] == pytest.approx(
        -4.0 * math.sqrt(13.0) / 169, rel=1e-12)
    assert report["div_y_err"] < 1e-12
    assert report["quadratic_l_value_err"] < 1e-10
    assert report["div_x_err"] < 1e-10
    assert report["div_x_swapped_err"] > 0.5
    assert report["degree_bound"] < 1e-12
    assert DIV_X_LEVEL13 == (0, 1, 1, -1, 0, -1)
    assert DIV_Y_LEVEL13 == (1, -1, 1, 1, -1, -1)


@pytest.mark.parametrize("n", [25, 27, 49, 50, 54, 98, 121, 125])
def test_primitive_part_is_chi_on_the_conductor(n):
    # The primitive character is built from one value, at the conductor's
    # primitive root; it must agree with chi on every unit mod d.
    for chi in enumerate_characters(n):
        if not chi.is_even or chi.is_primitive:
            continue
        d = chi.conductor
        prim = _primitive_part(chi)
        assert prim.modulus == d and prim.is_primitive
        for beta in range(d):
            if math.gcd(beta, d) == 1:
                assert prim(beta) == chi(_unit_lift(n, d, beta))
