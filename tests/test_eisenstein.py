"""Tests for Eisenstein series routes and the eta one-form."""

import cmath
import copy
import math
from functools import lru_cache

import numpy as np
import pytest

from ellreg.characters import FiniteMap, enumerate_characters, fourier_transform
from ellreg.eisenstein import (
    IDENTITY,
    RHO,
    RHO2,
    ArcTable,
    EisensteinStream,
    EtaForm,
    PairDivisor,
    UnimodularMatrix,
    arc_integral,
    divisor_bracket,
    e_star_map,
    e_star_point,
    e_star_stream,
    e_star_sum_zero_expansion,
    eta_chi,
    eta_form,
    g_column,
    integrate_eta_geodesic,
    integrate_eta_segment,
    suggested_rmax,
    zeta_star,
    zeta_star_qexp,
)
from ellreg.characters import _divisors
from ellreg.eisenstein import _restricted_zeta2
from ellreg.modsym import SymbolIndex, matrix_lift

N = 11
Z0 = 0.31 + 0.83j


@lru_cache(maxsize=None)
def arc_table(modulus, rmax):
    """One node table per level and truncation, shared by this module."""
    return ArcTable(modulus, rmax)


@pytest.mark.parametrize("ab", [(0, 0), (3, 0), (0, 4), (2, 7), (10, 1), (5, 5)])
def test_zeta_star_closed_form_vs_expansion(ab):
    a, b = ab
    closed = zeta_star(a, b, Z0, N)
    series = zeta_star_qexp(a, b, Z0, N, rmax=400)
    assert abs(closed - series) < 1e-11


def test_zeta_star_representative_independence():
    # The closed form must not depend on the chosen lifts of (a, b).
    v1 = zeta_star(3, 4, Z0, N)
    v2 = zeta_star(3 - N, 4 + 2 * N, Z0, N)
    assert abs(v1 - v2) < 1e-12


def test_zeta_star_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        zeta_star(1, 1, 0.3 - 0.5j, N)


def test_restricted_zeta_partition():
    total = sum(_restricted_zeta2(v, N) for v in range(1, N + 1))
    assert abs(total - math.pi**2 / 6.0) < 1e-13


def test_e_star_stream_matches_closed_form():
    cases = [
        FiniteMap.delta(N, 3),
        FiniteMap(N, [1] * N),
        FiniteMap(N, [2, -1, 0, 3, 0, 0, -4, 0, 0, 0, 0]),
    ]
    for f in cases:
        closed = e_star_map(f, Z0)
        stream = e_star_stream(f, 0.8)
        got = complex(stream.value(np.array([Z0]))[0])
        assert abs(closed - got) < 1e-11


def test_sum_zero_expansion_route():
    f = FiniteMap(N, [2, -1, 0, 3, 0, 0, -4, 0, 0, 0, 0])
    assert abs(f.total()) == 0
    closed = e_star_map(f, Z0)
    third = e_star_sum_zero_expansion(f, Z0, rmax=400)
    assert abs(closed - third) < 1e-11


def test_modularity_under_unimodular_action():
    g = UnimodularMatrix(2, 1, 7, 4)
    for x in [(0, 1), (3, 5), (7, 0)]:
        lhs = e_star_point(x, g.act(Z0), N)
        rhs = e_star_point(g.row_action(x, N), Z0, N)
        assert abs(lhs - rhs) < 1e-11


def test_conjugation_symmetry():
    z = 0.27 + 0.91j
    lhs = e_star_point((4, 9), complex(-z.real, z.imag), N)
    rhs = e_star_point((-4, 9), z, N)
    assert abs(lhs - rhs) < 1e-12


def test_negation_symmetry():
    assert abs(e_star_point((4, 9), Z0, N) - e_star_point((-4, -9), Z0, N)) < 1e-12


def test_unimodular_matrix_validation_and_group_ops():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 1, 1, 1)
    g = UnimodularMatrix(2, 1, 7, 4)
    gi = g.inverse()
    assert (g @ gi) == UnimodularMatrix(1, 0, 0, 1)


def _loop_integral(form, corners):
    total = 0.0 + 0.0j
    for za, zb in zip(corners, corners[1:] + corners[:1]):
        val, _ = integrate_eta_segment(form, za, zb)
        total += val
    return total


def test_eta_pullback_identity():
    """g* eta(L, M) = eta(Lg, Mg), checked pointwise on coefficients."""
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    rmax = suggested_rmax(N, 0.7)
    eta = EtaForm.from_residue_maps(l, m, rmax)
    # Both z and gz keep Im above the truncation domain for these g.
    cases = [
        (UnimodularMatrix(0, -1, 1, 0), 0.2 + 1.05j),
        (UnimodularMatrix(0, -1, 1, -1), 0.5 + 1.0j),
    ]
    for g, z in cases:
        pulled = eta.pullback(g)
        zz = np.array([z])
        P, Q = eta.coefficients(g.act(zz))
        gp = g.derivative(zz)
        P2, Q2 = pulled.coefficients(zz)
        assert np.max(np.abs(P * gp - P2)) < 1e-10
        assert np.max(np.abs(Q * np.conj(gp) - Q2)) < 1e-10


def test_eta_gamma1_divisor_stability():
    l = FiniteMap.delta(N, 2)
    m = FiniteMap.delta(N, 5)
    rmax = suggested_rmax(N, 0.8)
    eta = EtaForm.from_residue_maps(l, m, rmax)
    gam = UnimodularMatrix(1, 0, N, 1)
    pulled = eta.pullback(gam)
    assert pulled.left.coeffs == eta.left.coeffs
    assert pulled.right.coeffs == eta.right.coeffs


def test_eta_closed_for_degree_zero():
    l = FiniteMap(N, [1, -1] + [0] * 9)
    m = FiniteMap(N, [0, 0, 1, 0, 0, -1] + [0] * 5)
    rmax = suggested_rmax(N, 0.9)
    eta = EtaForm.from_residue_maps(l, m, rmax)
    c1, c2 = 0.15 + 1.0j, 0.45 + 1.25j
    corners = [c1, complex(c2.real, c1.imag), c2, complex(c1.real, c2.imag)]
    assert abs(_loop_integral(eta, corners)) < 1e-12


def test_eta_stokes_against_area_form():
    """Loop integral equals (pi i / N^2) integral of E*_D dx dy / y^2."""
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    rmax = suggested_rmax(N, 0.9)
    eta = EtaForm.from_residue_maps(l, m, rmax)
    c1, c2 = 0.15 + 1.0j, 0.45 + 1.25j
    corners = [c1, complex(c2.real, c1.imag), c2, complex(c1.real, c2.imag)]
    loop = _loop_integral(eta, corners)
    bracket = divisor_bracket(l, m)
    stream = e_star_stream(bracket, 0.9)
    nx = ny = 160
    xs = np.linspace(c1.real, c2.real, nx + 1)
    xs = 0.5 * (xs[1:] + xs[:-1])
    ys = np.linspace(c1.imag, c2.imag, ny + 1)
    ys = 0.5 * (ys[1:] + ys[:-1])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = stream.value((X + 1j * Y).ravel()).reshape(X.shape)
    cell = (c2.real - c1.real) * (c2.imag - c1.imag) / (nx * ny)
    rhs = (1j * math.pi / N**2) * complex(np.sum(vals / Y**2)) * cell
    assert abs(loop - rhs) < 1e-7 * max(1.0, abs(loop))


def test_eta_real_divisors_give_imaginary_integrals():
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    eta = eta_form(l, m, y_min=0.7)
    val, _ = integrate_eta_geodesic(eta, 0.1 + 0.9j, 0.4 + 1.2j)
    assert abs(val.real) < 1e-12
    val2, _ = integrate_eta_segment(eta, 0.1 + 0.9j, 0.4 + 1.2j)
    assert abs(val2.real) < 1e-12


def test_eta_antisymmetry_and_self_vanishing():
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    e_lm = eta_form(l, m, y_min=0.8)
    e_ml = eta_form(m, l, y_min=0.8)
    e_ll = eta_form(l, l, y_min=0.8)
    z = np.array([0.2 + 0.95j])
    p1, q1 = e_lm.coefficients(z)
    p2, q2 = e_ml.coefficients(z)
    p3, q3 = e_ll.coefficients(z)
    assert abs(p1[0] + p2[0]) < 1e-13 and abs(q1[0] + q2[0]) < 1e-13
    assert abs(p3[0]) < 1e-14 and abs(q3[0]) < 1e-14


def test_arc_integral_pullback_vs_direct_geodesic():
    chi = [c for c in enumerate_characters(11) if c.order == 5][0]
    form = eta_chi(chi)
    g = g_column(2)
    via_pullback = arc_integral(form, g)
    deep = EtaForm(form.left, form.right, suggested_rmax(11, 0.14))
    direct, _ = integrate_eta_geodesic(deep, g.act(RHO), g.act(RHO2))
    assert abs(via_pullback - direct) < 1e-10


def test_arc_integral_lift_independence():
    chi = [c for c in enumerate_characters(11) if c.order == 5][0]
    form = eta_chi(chi)
    g = g_column(2)
    gam = UnimodularMatrix(1, 0, N, 1)
    assert abs(arc_integral(form, g) - arc_integral(form, gam @ g)) < 1e-11


def test_eta_chi_double_sum_assembly():
    """eta_chi assembled from character divisors equals the literal
    double sum over unit pairs (a, b) with weights chi(a) conj(chi)(b)."""
    chi = [c for c in enumerate_characters(11) if c.order == 5][0]
    local_rmax = suggested_rmax(N, math.sqrt(3) / 2)
    combined = eta_chi(chi)
    z = np.array([0.12 + 0.93j])
    P, Q = combined.coefficients(z)
    total_p = 0.0 + 0.0j
    total_q = 0.0 + 0.0j
    for a in range(1, N):
        wa = chi(a)
        if wa == 0:
            continue
        for b in range(1, N):
            wb = chi.conjugate()(b)
            if wb == 0:
                continue
            part = EtaForm.from_residue_maps(
                FiniteMap.delta(N, a), FiniteMap.delta(N, b), local_rmax
            )
            pp, qq = part.coefficients(z)
            total_p += wa * wb * pp[0]
            total_q += wa * wb * qq[0]
    assert abs(total_p - P[0]) < 1e-12
    assert abs(total_q - Q[0]) < 1e-12


def test_theorem3_weight_divisor():
    """eta(1, chihat) built from the Fourier transform of a character."""
    chi = [c for c in enumerate_characters(11) if c.order == 5][0]
    one = FiniteMap(N, [1] * N)
    chihat = fourier_transform(FiniteMap.from_character(chi))
    form = eta_form(one, chihat)
    val = arc_integral(form, g_column(3))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_quadrature_failure_is_loud():
    l = FiniteMap(N, [1, -1] + [0] * 9)
    m = FiniteMap(N, [0, 0, 1, 0, 0, -1] + [0] * 5)
    eta = eta_form(l, m, y_min=0.8)
    with pytest.raises(RuntimeError):
        integrate_eta_geodesic(
            eta, 0.1 + 0.9j, 0.4 + 1.2j, nodes=2, tol=1e-16, max_doublings=1
        )


def test_pair_divisor_algebra():
    d = PairDivisor.delta(N, 1, 2, 3.0) + PairDivisor.delta(N, 1, 2, -1.0)
    assert d.coeffs == {(1, 2): 2.0}
    assert d.degree == 2.0
    flipped = d.conjugation_flip()
    assert flipped.coeffs == {(10, 2): 2.0}
    scaled = d.scaled(0.5)
    assert scaled.coeffs == {(1, 2): 1.0}


def _character_weights(chars):
    """The divisors of each eta_chi as integrals weights over Z/p:
    left[k, a] = chi_k(a) and right[k, a] = conj chi_k(a)."""
    p = chars[0].modulus
    left = np.array([[chi(a) for a in range(p)] for chi in chars])
    right = np.array([[chi.conjugate()(a) for a in range(p)] for chi in chars])
    return left, right


def _contract(table, lifts, left, right):
    values, gaps = table.integrals([(g.c, g.d) for g in lifts], left, right)
    assert values.shape == gaps.shape == (len(lifts), len(left))
    return values, gaps


def _assert_values_match_arc_integral(table, forms, lifts, left, right):
    """The contraction of the lifts' bottom rows under the weights gives,
    arc by arc, the value of arc_integral."""
    values, _ = _contract(table, lifts, left, right)
    exps = {}  # every form shares the table's level, rmax and path
    for k, form in enumerate(forms):
        for s, g in enumerate(lifts):
            assert abs(values[s, k] - arc_integral(form, g, exps=exps)) <= 1e-13


def _assert_gaps_match_the_stream_rule(table, forms, lifts, left, right):
    """The contraction's 128-node values and 64-vs-128-node gaps are those
    of stream quadrature at 64 nodes with one doubling."""
    values, gaps = _contract(table, lifts, left, right)
    exps = {}
    for k, form in enumerate(forms):
        for s, g in enumerate(lifts):
            value, gap = integrate_eta_geodesic(
                form.pullback(g), RHO, RHO2, nodes=64, max_doublings=1,
                exps=exps)
            assert abs(values[s, k] - value) <= 1e-13
            assert abs(gaps[s, k] - gap) <= 1e-13


def _column_arcs(p):
    """thm1's arcs at level p: eta_chi of every even character over every
    column g_v, g_0 = sigma included, and the identity."""
    evens = [chi for chi in enumerate_characters(p) if chi.is_even]
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    lifts = [g_column(v) for v in range(p)] + [IDENTITY]
    return (table, [eta_chi(chi) for chi in evens], lifts,
            *_character_weights(evens))


@pytest.mark.parametrize("p", [11, 17])
def test_arc_table_matches_arc_integral_on_every_column(p):
    _assert_values_match_arc_integral(*_column_arcs(p))


@pytest.mark.parametrize("p", [11, 17])
def test_arc_contraction_matches_integral_on_every_column(p):
    _assert_gaps_match_the_stream_rule(*_column_arcs(p))


def _sample_arcs_at_37():
    p = 37
    evens = [c for c in enumerate_characters(p)
             if c.is_even and not c.is_trivial][::6]
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    lifts = [g_column(v) for v in (0, 1, 5, 18, 36)] + [IDENTITY]
    return (table, [eta_chi(chi) for chi in evens], lifts,
            *_character_weights(evens))


def test_arc_table_matches_arc_integral_at_37():
    _assert_values_match_arc_integral(*_sample_arcs_at_37())


def test_arc_contraction_matches_integral_at_37():
    _assert_gaps_match_the_stream_rule(*_sample_arcs_at_37())


def test_arc_table_rows_match_closed_forms():
    table = arc_table(N, suggested_rmax(N, math.sqrt(3) / 2))
    h = 1e-4
    for x in [(0, 0), (0, 4), (3, 5), (7, 10)]:
        values, d_z = table.row(x)
        assert np.array_equal(values, table.row((-x[0], -x[1]))[0])
        for j in (0, 40, 64, 150):
            z = table.nodes[j]
            assert abs(values[j] - e_star_point(x, z, N)) < 1e-11
            # d_z = (d_x - i d_y) / 2 by central differences.
            dx = e_star_point(x, z + h, N) - e_star_point(x, z - h, N)
            dy = e_star_point(x, z + 1j * h, N) - e_star_point(x, z - 1j * h, N)
            assert abs(d_z[j] - (dx - 1j * dy) / (4 * h)) < 1e-7


def test_arc_contraction_matches_integral_on_symbol_lifts():
    # thm3's arcs: eta(delta_1, chihat) on symbol lifts whose bottom rows
    # reach past N.
    p = 37
    evens = [c for c in enumerate_characters(p)
             if c.is_even and not c.is_trivial][::4]
    chihats = [fourier_transform(FiniteMap.from_character(chi))
               for chi in evens]
    lifts = [matrix_lift(SymbolIndex(p, u, v)) for u, v in
             [(1, 0), (0, 1), (0, 5), (3, 7), (20, 11), (36, 2)]]
    delta_one = FiniteMap.delta(p, 1)
    arcs = (arc_table(p, suggested_rmax(p, math.sqrt(3) / 2)),
            [eta_form(delta_one, chihat) for chihat in chihats], lifts,
            np.array([delta_one.values] * len(evens)),
            np.array([chihat.values for chihat in chihats]))
    _assert_values_match_arc_integral(*arcs)
    _assert_gaps_match_the_stream_rule(*arcs)


def test_arc_contraction_never_reads_a_zero_weight_multiplier():
    # chi(0) = 0 for every character, so the multiplier 0, whose pair is
    # (0, 0) on every arc, has an all-zero weight column: poisoning its
    # row must change nothing, bitwise.
    table, _, lifts, left, right = _column_arcs(N)
    poisoned = copy.copy(table)
    poisoned._V, poisoned._X = table._V.copy(), table._X.copy()
    assert list(table.keys[0]) == [0, 0]
    poisoned._V[0] = poisoned._X[0] = np.nan
    whole = _contract(table, lifts, left, right)
    for got, want in zip(_contract(poisoned, lifts, left, right), whole):
        assert np.array_equal(got, want)
    # A column that is 0 for one weighting only is still read for the
    # others.
    left = left.copy()
    left[0, 2] = 0.0
    values, _ = _contract(table, lifts, left, right)
    assert np.allclose(values[:, 1:], whole[0][:, 1:], rtol=0.0, atol=1e-15)


def test_arc_contraction_raises_when_node_counts_disagree():
    table, _, lifts, left, right = _column_arcs(N)
    bottom = [(g.c, g.d) for g in lifts]
    fine, _ = table.integrals(bottom, left, right)
    with pytest.raises(RuntimeError):
        table.integrals(bottom, left, right, tol=0.0)
    # With the 64-node columns zeroed the values must still come from the
    # 128 nodes, and the gaps become those values.
    coarse = copy.copy(table)
    coarse._V, coarse._D, coarse._X = (
        rows.copy() for rows in (table._V, table._D, table._X))
    for rows in (coarse._V, coarse._D, coarse._X):
        rows[:, :ArcTable.NODES[0]] = 0.0
    with pytest.raises(RuntimeError):
        coarse.integrals(bottom, left, right)
    values, gaps = coarse.integrals(bottom, left, right, tol=np.inf)
    assert np.array_equal(values, fine)
    assert np.array_equal(gaps, np.abs(values)) and np.abs(values).max() > 0


def test_arc_contraction_does_not_depend_on_the_block_size(monkeypatch):
    p = 17
    table, _, lifts, left, right = _column_arcs(p)
    whole = _contract(table, lifts, left, right)
    # One arc per block, then blocks of 3 with a shorter last one.
    for block in (1, 3 * table.nodes.size * (p - 1)):
        monkeypatch.setattr(ArcTable, "BLOCK", block)
        parts = _contract(table, lifts, left, right)
        for got, want in zip(parts, whole):
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def _stream_series_by_loops(divisor, rmax):
    """A_r and B_r of the stream expansion, summed term by term over
    r, the divisors k of r and the divisor's pairs."""
    n = divisor.modulus
    A = np.zeros(rmax + 1, dtype=complex)
    B = np.zeros(rmax + 1, dtype=complex)
    for r in range(1, rmax + 1):
        for k in _divisors(r):
            e_phase = cmath.exp(2j * math.pi * (r // k) / n)
            for (u, v), c in divisor.items():
                base = 0.0
                if k % n == u % n:
                    base += e_phase**v / k
                if k % n == (-u) % n:
                    base += e_phase ** (-v) / k
                A[r] += c * (math.pi / n) * base
                B[r] += c * (math.pi / n) * complex(base).conjugate()
    return A, B


@pytest.mark.parametrize("modulus, coeffs", [
    (11, {(0, 3): 1.0, (2, 5): 2.0 - 1.0j, (9, 0): 0.5}),
    (12, {(6, 1): 1.0, (0, 0): 2.0, (3, 4): 1.0j}),
    (37, {(0, b): cmath.exp(1j * b) for b in range(37)}),
])
def test_stream_series_match_the_term_by_term_loops(modulus, coeffs):
    divisor = PairDivisor(modulus, coeffs)
    stream = EisensteinStream(divisor, 150)
    A, B = _stream_series_by_loops(divisor, 150)
    # The loops raise e(m / N) to the v-th power, a few ulps per factor.
    assert np.abs(stream.A - A).max() <= 1e-13
    assert np.abs(stream.B - B).max() <= 1e-13


def test_elementary_forms_share_the_exponentials_bitwise(monkeypatch):
    p, g = 17, g_column(3)
    forms = [eta_form(FiniteMap.delta(p, 1), FiniteMap.delta(p, b))
             for b in range(p)]
    alone = [arc_integral(form, g) for form in forms]
    built = []
    real = EisensteinStream._exps

    def counting(self, z):
        built.append(np.size(z))
        return real(self, z)
    monkeypatch.setattr(EisensteinStream, "_exps", counting)
    exps = {}
    shared = [arc_integral(form, g, exps=exps) for form in forms]
    assert shared == alone
    # One table per node count, not one per form and node count.
    assert sorted(built) == sorted(exps) and len(built) >= 2
    # Each form still runs its own doubling check.
    with pytest.raises(RuntimeError):
        arc_integral(forms[2], g, exps=exps, tol=0.0, max_doublings=1)


def test_elementary_forms_build_their_common_left_stream_once(monkeypatch):
    p, g = 17, g_column(3)
    forms = [eta_form(FiniteMap.delta(p, 1), FiniteMap.delta(p, b))
             for b in range(p)]
    alone = [arc_integral(form, g) for form in forms]
    built = []
    real = EisensteinStream.__init__

    def counting(self, divisor, rmax):
        built.append(divisor.coeffs)
        real(self, divisor, rmax)
    monkeypatch.setattr(EisensteinStream, "__init__", counting)
    exps = {}
    shared = [arc_integral(form, g, exps=exps) for form in forms]
    assert shared == alone
    # One stream for delta_1 | g, then one right stream per form; b = 1
    # pairs delta_1 with itself.
    left = PairDivisor.delta(p, 0, 1).right_translate(g).coeffs
    assert len(built) == p + 1 and built[0] == built[2] == left
