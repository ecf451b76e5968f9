"""Acceptance gate: each headline identity at its stated tolerance."""

import math
import random
import time

import pytest

from ellreg.characters import enumerate_characters
from ellreg.elliptic import (
    CURVE_11A,
    TorsionCoordinate,
    elliptic_dilog,
    periods,
    torsion_coordinate,
)
from ellreg.lseries import (
    lambda_value,
    newform_from_curve,
    root_number,
    twisted_lambda_table,
)
from ellreg.modsym import (
    line_index,
    period_integral_oracle,
    xi_bridge_table,
)
from ellreg.special import periodic_bernoulli2
from ellreg.verify import (
    run_appendix,
    run_cor101,
    run_mahler,
    run_thm1,
    run_thm2,
    run_thm3,
    run_thm8,
)

from gamma1_symbols import cuspidal_hecke_t2_matrix
from reference_routes import (
    FiniteMap,
    UnimodularMatrix,
    conjugate_partner,
    divisor_degree,
    e_star_point,
    mobius,
    rankin_convolution_check,
    unit_divisor,
    zeta_star,
    zeta_star_qexp,
)


@pytest.fixture(scope="module")
def form11():
    return newform_from_curve(CURVE_11A, 4000)


def _rows(reports, prefix):
    rows = [r for r in reports if r.check.startswith(prefix)]
    assert rows, prefix
    return rows


def test_criterion_1_dilog_value_of_l_at_two():
    t0 = time.perf_counter()
    reports = run_cor101()
    elapsed = time.perf_counter() - t0
    (first,) = _rows(reports, "cor101:first")
    assert first.rel_err < 1e-8
    assert elapsed < 10.0


def test_criterion_2_exotic_torsion_relation():
    t0 = time.perf_counter()
    lattice = periods(CURVE_11A)
    point = torsion_coordinate(CURVE_11A, lattice, (0, 0), 5)
    one = elliptic_dilog(lattice, point)
    two = elliptic_dilog(lattice, point.scale(2))
    elapsed = time.perf_counter() - t0
    assert abs(two - 1.5 * one) < 1e-10 * abs(two)
    assert elapsed < 2.0


def test_criterion_3_quintic_character_expansions():
    rows = _rows(run_thm8(), "thm8:identity")
    assert len(rows) == 4
    assert all(r.rel_err < 1e-8 for r in rows)


def test_criterion_4_gauss_sum_expansion_at_11():
    t0 = time.perf_counter()
    reports = run_thm1()
    elapsed = time.perf_counter() - t0
    identities = _rows(reports, "thm1:identity")
    assert len(identities) == 4
    assert all(r.rel_err < 1e-6 for r in identities)
    sweeps = _rows(reports, "thm1:odd-sweep")
    assert all(r.abs_err < 1e-9 for r in sweeps)
    assert elapsed < 60.0


def test_criterion_5_tensor_square_expansions():
    reports = run_thm2()
    (via,) = _rows(reports, "thm2:via-residue")
    (free,) = _rows(reports, "thm2:residue-free")
    assert via.rel_err < 1e-6
    assert free.rel_err < 1e-6


def test_criterion_6_symbol_pairing_at_11():
    rows = _rows(run_thm3(), "thm3:identity")
    assert len(rows) == 4
    assert all(r.rel_err < 1e-6 for r in rows)


def test_criterion_7_mahler_identities():
    t0 = time.perf_counter()
    reports = run_mahler()
    elapsed = time.perf_counter() - t0
    (first,) = _rows(reports, "mahler:first")
    (second,) = _rows(reports, "mahler:second")
    assert first.rel_err < 1e-6
    assert second.rel_err < 1e-6
    assert elapsed < 60.0


def test_criterion_8_petersson_against_residue():
    reports = run_appendix()
    (pairing,) = _rows(reports, "appendix:petersson-residue")
    assert pairing.rel_err < 1e-6
    assert pairing.left.real > 0 and pairing.right.real > 0
    (imag,) = _rows(reports, "appendix:imag-part")
    assert imag.abs_err < 1e-8


def test_criterion_9_convolution_coefficient_identity(form11):
    chars = enumerate_characters(11)
    worst = max(rankin_convolution_check(form11, c1, c2, 2000)
                for c1 in chars for c2 in chars)
    assert worst < 1e-10


def test_criterion_10_property_suites(form11):
    rng = random.Random(101)

    # Kronecker limit formulas against the Fourier expansions.
    for _ in range(20):
        a, b = rng.randrange(11), rng.randrange(11)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.6))
        closed = zeta_star(a, b, z, 11)
        series = zeta_star_qexp(a, b, z, 11, rmax=400)
        assert abs(closed - series) < 1e-10

    # E* modularity under random words in the standard generators.
    for _ in range(50):
        m = (1, 0, 0, 1)
        for _ in range(6):
            if rng.random() < 0.5:
                step = (0, -1, 1, 0)
            else:
                k = rng.randint(-3, 3)
                step = (1, k, 0, 1)
            m = (m[0] * step[0] + m[1] * step[2],
                 m[0] * step[1] + m[1] * step[3],
                 m[2] * step[0] + m[3] * step[2],
                 m[2] * step[1] + m[3] * step[3])
        g = UnimodularMatrix(*m)
        x = (rng.randrange(11), rng.randrange(1, 11))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.5))
        lhs = e_star_point(x, mobius(g, z), 11)
        rhs = e_star_point(g.row_action(x, 11), z, 11)
        assert abs(lhs - rhs) < 1e-9

    # Distribution relations for the periodic Bernoulli function and
    # the elliptic dilogarithm.
    for m in (2, 3, 5):
        for x in (0.17, 0.42, 0.8):
            total = sum(periodic_bernoulli2((x + j) / m) for j in range(m))
            assert abs(total - periodic_bernoulli2(x) / m) < 1e-10
    lattice = periods(CURVE_11A)
    point = torsion_coordinate(CURVE_11A, lattice, (0, 0), 5)
    base = elliptic_dilog(lattice, point)
    for m in (2, 3):
        total = sum(
            elliptic_dilog(lattice, TorsionCoordinate(
                5 * m, point.a + 5 * j, point.b + 5 * k))
            for j in range(m) for k in range(m))
        assert abs(total - base / m) < 1e-10

    # Modular-unit divisors have degree zero.
    for n in (11, 13):
        values = [rng.randint(-5, 5) for _ in range(n - 1)]
        values.append(-sum(values))
        assert abs(divisor_degree(unit_divisor(FiniteMap(n, values)))) < 1e-12

    # Cuspidal homology dimensions and the T_2 eigenvalue.
    assert cuspidal_hecke_t2_matrix(5).shape == (0, 0)
    m11 = cuspidal_hecke_t2_matrix(11)
    assert m11.shape == (2, 2)
    assert cuspidal_hecke_t2_matrix(13).shape == (4, 4)
    assert m11.eigenvals() == {-2: 2}

    # Completed L-function functional equation.
    w = root_number(form11)
    partner = conjugate_partner(form11)
    lam = lambda_value(form11, 1.0)
    residual = lam + w * lambda_value(partner, 1.0)
    assert abs(residual) < 1e-10 * max(1.0, abs(lam))

    # Period bridge against the direct quadrature oracle.
    xi = xi_bridge_table(form11, twisted_lambda_table(form11))
    for pair in ((1, 0), (0, 1), (2, 5), (1, 3), (4, 7)):
        bridge = xi.lines[line_index(*pair, 11)]
        assert abs(bridge - period_integral_oracle(form11, [pair])[0]) < 1e-7
