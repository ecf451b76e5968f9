"""Tests for Eisenstein series routes and the eta one-form."""

import cmath
import copy
import math
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from ellreg.characters import (
    character_table,
    enumerate_characters,
)
from ellreg.eisenstein import (
    ARC_NODES,
    EisensteinStream,
    EtaForm,
    arc_integral,
    eta_chi,
    integrate_one_form,
    line_arcs,
    suggested_rmax,
)
from ellreg.characters import _divisors
from ellreg.eisenstein import _beta2, _constant_terms
from ellreg.modsym import SymbolIndex

import reference_routes
from reference_routes import (
    RHO,
    RHO2,
    ArcTable,
    FiniteMap,
    UnimodularMatrix,
    _pairings_on_every_line,
    _restricted_zeta2,
    beta2_mpmath,
    character_map,
    character_value_table,
    chi_form,
    constant_terms_mpmath,
    delta_map,
    divisor_bracket,
    e_star_map,
    e_star_point,
    e_star_stream,
    e_star_sum_zero_expansion,
    fourier_transform,
    integrate_eta_geodesic,
    integrate_eta_segment,
    line_lift,
    matrix_inverse,
    matrix_lift,
    matrix_product,
    mobius,
    mobius_derivative,
    pullback,
    residue_form,
    zeta_star,
    zeta_star_qexp,
)

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
        delta_map(N, 3),
        FiniteMap(N, [1] * N),
        FiniteMap(N, [2, -1, 0, 3, 0, 0, -4, 0, 0, 0, 0]),
    ]
    for f in cases:
        closed = e_star_map(f, Z0)
        stream = e_star_stream(f, 0.8)
        got = complex(stream.jet(np.array([Z0]))[0][0])
        assert abs(closed - got) < 1e-11


def test_sum_zero_expansion_route():
    f = FiniteMap(N, [2, -1, 0, 3, 0, 0, -4, 0, 0, 0, 0])
    assert abs(sum(f.values)) == 0
    closed = e_star_map(f, Z0)
    third = e_star_sum_zero_expansion(f, Z0, rmax=400)
    assert abs(closed - third) < 1e-11


def test_modularity_under_unimodular_action():
    g = UnimodularMatrix(2, 1, 7, 4)
    for x in [(0, 1), (3, 5), (7, 0)]:
        lhs = e_star_point(x, mobius(g, Z0), N)
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
    gi = matrix_inverse(g)
    assert matrix_product(g, gi) == UnimodularMatrix(1, 0, 0, 1)


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
    eta = residue_form(l, m, y_min=0.7)
    # Both z and gz keep Im above the truncation domain for these g.
    cases = [
        (UnimodularMatrix(0, -1, 1, 0), 0.2 + 1.05j),
        (UnimodularMatrix(0, -1, 1, -1), 0.5 + 1.0j),
    ]
    for g, z in cases:
        pulled = pullback(eta, g)
        zz = np.array([z])
        P, Q = eta.coefficients(mobius(g, zz))
        gp = mobius_derivative(g, zz)
        P2, Q2 = pulled.coefficients(zz)
        assert np.max(np.abs(P * gp - P2)) < 1e-10
        assert np.max(np.abs(Q * np.conj(gp) - Q2)) < 1e-10


def test_eta_gamma1_divisor_stability():
    l = delta_map(N, 2)
    m = delta_map(N, 5)
    eta = residue_form(l, m, y_min=0.8)
    gam = UnimodularMatrix(1, 0, N, 1)
    pulled = pullback(eta, gam)
    assert pulled.left == eta.left
    assert pulled.right == eta.right


def test_eta_closed_for_degree_zero():
    l = FiniteMap(N, [1, -1] + [0] * 9)
    m = FiniteMap(N, [0, 0, 1, 0, 0, -1] + [0] * 5)
    eta = residue_form(l, m, y_min=0.9)
    c1, c2 = 0.15 + 1.0j, 0.45 + 1.25j
    corners = [c1, complex(c2.real, c1.imag), c2, complex(c1.real, c2.imag)]
    assert abs(_loop_integral(eta, corners)) < 1e-12


def test_eta_stokes_against_area_form():
    """Loop integral equals (pi i / N^2) integral of E*_D dx dy / y^2."""
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    eta = residue_form(l, m, y_min=0.9)
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
    vals = stream.jet((X + 1j * Y).ravel())[0].reshape(X.shape)
    cell = (c2.real - c1.real) * (c2.imag - c1.imag) / (nx * ny)
    rhs = (1j * math.pi / N**2) * complex(np.sum(vals / Y**2)) * cell
    assert abs(loop - rhs) < 1e-7 * max(1.0, abs(loop))


def test_eta_real_divisors_give_imaginary_integrals():
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    eta = residue_form(l, m, y_min=0.7)
    val, _ = integrate_eta_geodesic(eta, 0.1 + 0.9j, 0.4 + 1.2j)
    assert abs(val.real) < 1e-12
    val2, _ = integrate_eta_segment(eta, 0.1 + 0.9j, 0.4 + 1.2j)
    assert abs(val2.real) < 1e-12


def test_eta_antisymmetry_and_self_vanishing():
    l = FiniteMap(N, [0, 1, 0, 0, -2, 0, 0, 0, 0, 1, 0])
    m = FiniteMap(N, [3, 0, -1, 0, 0, 0, 0, -2, 0, 0, 0])
    e_lm = residue_form(l, m, y_min=0.8)
    e_ml = residue_form(m, l, y_min=0.8)
    e_ll = residue_form(l, l, y_min=0.8)
    z = np.array([0.2 + 0.95j])
    p1, q1 = e_lm.coefficients(z)
    p2, q2 = e_ml.coefficients(z)
    p3, q3 = e_ll.coefficients(z)
    assert abs(p1[0] + p2[0]) < 1e-13 and abs(q1[0] + q2[0]) < 1e-13
    assert abs(p3[0]) < 1e-14 and abs(q3[0]) < 1e-14


def test_arc_integral_pullback_vs_direct_geodesic():
    form = eta_chi(11, 2, 11)  # the first quintic character, unpulled
    g = line_lift(11, 2)
    via_pullback = arc_integral(11, 2, 2)
    deep = EtaForm(11, form.left, form.right, suggested_rmax(11, 0.14))
    direct, _ = integrate_eta_geodesic(deep, mobius(g, RHO), mobius(g, RHO2))
    assert abs(via_pullback - direct) < 1e-10


def test_arc_integral_lift_independence():
    g = line_lift(11, 2)
    gam = UnimodularMatrix(1, 0, N, 1)
    moved = pullback(chi_form(11, 2), matrix_product(gam, g))
    assert abs(arc_integral(11, 2, 2) - integrate_one_form(moved)) < 1e-11


def test_eta_chi_double_sum_assembly():
    """eta_chi assembled from character divisors equals the literal
    double sum over unit pairs (a, b) with weights chi(a) conj(chi)(b)."""
    chi = enumerate_characters(11)[2]
    assert chi.order == 5
    combined = eta_chi(11, 2, 11)
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
            part = residue_form(delta_map(N, a), delta_map(N, b))
            pp, qq = part.coefficients(z)
            total_p += wa * wb * pp[0]
            total_q += wa * wb * qq[0]
    assert abs(total_p - P[0]) < 1e-12
    assert abs(total_q - Q[0]) < 1e-12


def test_theorem3_weight_divisor():
    """eta(1, chihat) built from the Fourier transform of a character."""
    chi = [c for c in enumerate_characters(11) if c.order == 5][0]
    one = FiniteMap(N, [1] * N)
    chihat = fourier_transform(character_map(chi))
    form = residue_form(one, chihat)
    val = integrate_one_form(pullback(form, line_lift(N, 3)))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_quadrature_failure_is_loud():
    l = FiniteMap(N, [1, -1] + [0] * 9)
    m = FiniteMap(N, [0, 0, 1, 0, 0, -1] + [0] * 5)
    eta = residue_form(l, m, y_min=0.8)
    with pytest.raises(RuntimeError):
        integrate_eta_geodesic(
            eta, 0.1 + 0.9j, 0.4 + 1.2j, nodes=2, tol=1e-16, max_doublings=1
        )


def test_an_unreachable_tolerance_raises_at_the_rounding_floor(monkeypatch):
    # eta(delta_1, delta_3) settles to about 1e-16 by 64 nodes, so 3e-18
    # cannot be met; the doubling that fails to halve the error raises,
    # before the rule grows to thousands of nodes.
    built = []
    real_nodes = reference_routes.gauss_legendre_nodes

    def counted(n, *args):
        built.append(n)
        return real_nodes(n, *args)

    monkeypatch.setattr(reference_routes, "gauss_legendre_nodes", counted)
    form = residue_form(FiniteMap(N, [float(v == 1) for v in range(N)]),
                    FiniteMap(N, [float(v == 3) for v in range(N)]))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="settle"):
        integrate_eta_geodesic(form, RHO, RHO2, tol=3e-18)
    assert time.perf_counter() - start < 1.0
    assert max(built) <= 256
    assert abs(integrate_one_form(form)) > 0.0


def _pairing_reference(table, bottom, left_weights, right_weights,
                       tol=1e-10):
    """The pair-gather route that pairings replaced: (values, gaps)[s, k]
    of eta(l_k, m_k) along g_s(rho) -> g_s(rho^2) for the lifts g_s of
    bottom rows bottom[s] = (c, d), where l_k = sum_a left_weights[k, a]
    E*_(0,a) over a in Z/p and m_k likewise on the right.

    g_s pulls E*_(0,a) back to E*_(a c, a d), so arc s pairs the rows of
    a (c, d); a multiplier whose weight is 0 for every k is skipped (the
    table has no row for (0, 0)).  The weights contract the pairing
    J[x, y] = i (V_x . X_y - V_y . X_x) of gathered rows at each node
    count, and a gap raises as in pairings."""
    p = table.modulus
    index = np.full((p, p), -1)
    for r, (u, v) in enumerate(table.pairs.reshape(-1, 2)):
        index[u, v] = index[-u % p, -v % p] = r
    V = table._V.reshape(-1, table.nodes.size)
    X = table._X.reshape(V.shape)
    bottom = np.asarray(bottom)

    def gather(weights):
        a = np.flatnonzero(np.any(weights != 0, axis=0))
        pairs = np.multiply.outer(bottom, a) % p
        rows = index[pairs[:, 0], pairs[:, 1]]
        assert (rows >= 0).all()
        return rows, weights[:, a]

    lrows, left_weights = gather(np.asarray(left_weights))
    rrows, right_weights = gather(np.asarray(right_weights))
    n = ArcTable.NODES[0]
    out = []
    for nodes in (slice(n, None), slice(n)):
        vl, xl = V[lrows][..., nodes], X[lrows][..., nodes]
        vr, xr = V[rrows][..., nodes], X[rrows][..., nodes]
        pairing = (np.einsum("sin,sjn->sij", vl, xr)
                   - np.einsum("sjn,sin->sij", vr, xl))
        out.append(1j * np.einsum(
            "ki,sij,kj->sk", left_weights, pairing, right_weights))
    fine, coarse = out
    gaps = np.abs(fine - coarse)
    if np.any(gaps >= tol * np.maximum(1.0, np.abs(fine))):
        raise RuntimeError("quadrature failed to settle below tolerance")
    return fine, gaps


def _lines(p):
    """The bottom rows of the table's lines: (1, v), then (0, 1)."""
    return [(1, v) for v in range(p)] + [(0, 1)]


def _row_weight(table, x):
    """The fold of the delta at x: 1 on the row that holds x and -x."""
    p = table.modulus
    x = np.array(x) % p
    return ((table.pairs == x).all(axis=-1)
            | (table.pairs == -x % p).all(axis=-1)).astype(float)


def _assert_pairings_match_the_reference(p, lines, ks):
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    values, gaps = table.pairings(ks)
    assert values.shape == gaps.shape == (p + 1, len(ks))
    chi = character_value_table(p)
    bottom = np.array(_lines(p))
    for l in lines:
        want = _pairing_reference(table, bottom[[l]], chi[ks], chi[-ks])
        assert np.abs(values[l] - want[0][0]).max() <= 1e-14
        assert np.abs(gaps[l] - want[1][0]).max() <= 1e-14


@pytest.mark.parametrize("p", [11, 17])
def test_pairings_match_the_pair_gather_reference(p):
    # Every line and every k; the odd k come out as exactly 0.
    ks = np.arange(p - 1)
    _assert_pairings_match_the_reference(p, range(p + 1), ks)
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    assert not table.pairings(ks[1::2])[0].any()


def test_pairings_match_the_pair_gather_reference_at_37():
    p = 37
    lines = [0, 1, 5, 18, 36, 37]
    _assert_pairings_match_the_reference(p, lines, np.arange(2, p - 1, 6))


class _FinerArcTable(ArcTable):
    """The node table at twice NODES, 64 and 128 nodes: the reference
    that the table's node counts have converged."""

    NODES = tuple(2 * n for n in ArcTable.NODES)


@pytest.mark.parametrize("p", [11, 17, 37])
def test_pairings_match_a_table_at_twice_the_nodes(p):
    rmax = suggested_rmax(p, math.sqrt(3) / 2)
    ks = np.arange(2, p - 1, 2)
    values, _ = arc_table(p, rmax).pairings(ks)
    finer, _ = _FinerArcTable(p, rmax).pairings(ks)
    assert np.abs(values - finer).max() <= 1e-15


@pytest.fixture
def fft_shapes(monkeypatch):
    """The shape of every array handed to np.fft.fft from here on."""
    shapes = []
    fft = np.fft.fft

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return shapes


def _assert_bitwise_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [11, 17, 37])
def test_unweighted_pairings_equal_the_four_transform_route(p):
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    ks = np.arange(p - 1)
    _assert_bitwise_equal(table.pairings(ks),
                          _pairings_on_every_line(table, ks))


@pytest.mark.parametrize("p", [11, 37])
def test_unweighted_pairings_transform_each_line_twice(p, fft_shapes):
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    table.pairings(np.arange(p - 1))
    # V and X once each, in blocks of lines.
    assert sum(s[0] for s in fft_shapes) == 2 * (p + 1)


def _stream_arcs(arc, lifts, ks):
    """arc(k, lift, quadrature) for each exponent k over each lift, with
    the error and the node count it settled at: (values, gaps,
    nodes)[s, j] for k = ks[j]."""
    values = np.empty((len(lifts), len(ks)), dtype=complex)
    gaps = np.empty(values.shape)
    nodes = np.empty(values.shape, dtype=int)
    for j, k in enumerate(ks):
        for s, g in enumerate(lifts):
            quad = {}
            values[s, j] = arc(k, g, quad)
            gaps[s, j], nodes[s, j] = quad["stream_gap"], quad["stream_nodes"]
    return values, gaps, nodes


def _assert_values_match_arc_integral(values, arcs):
    """The table's values give, arc by arc, the value of arc_integral."""
    for (s, k), arc in np.ndenumerate(arcs[0]):
        assert abs(values[s, k] - arc) <= 1e-13


def _assert_gaps_match_the_stream_rule(values, gaps, arcs):
    """The table's fine-rule values and coarse-vs-fine gaps are those of
    arc_integral, which takes the same two rules."""
    arc_values, arc_gaps, nodes = arcs
    assert (nodes == 2 * ArcTable.NODES[0]).all()
    for (s, k), value in np.ndenumerate(arc_values):
        assert abs(values[s, k] - value) <= 1e-13
        assert abs(gaps[s, k] - arc_gaps[s, k]) <= 1e-13


def _column_arcs(p, lines=None, ks=None):
    """thm1's arcs at level p: eta_chi of the even characters ks on the
    lines, as pairings gives them (values, gaps) and as arc_integral
    does through _stream_arcs."""
    lines = range(p + 1) if lines is None else lines
    ks = np.arange(2, p - 1, 2) if ks is None else ks
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    values, gaps = table.pairings(ks)
    return (values[lines], gaps[lines],
            _stream_arcs(lambda k, l, quad: arc_integral(p, k, l, quad),
                         lines, ks))


@lru_cache(maxsize=None)
def _every_column(p):
    """_column_arcs on every line and even character: the stream
    quadrature runs over every column once per level."""
    return _column_arcs(p)


@pytest.mark.parametrize("p", [11, 17])
def test_arc_table_matches_arc_integral_on_every_column(p):
    values, _, arcs = _every_column(p)
    _assert_values_match_arc_integral(values, arcs)


@pytest.mark.parametrize("p", [11, 17])
def test_arc_contraction_matches_integral_on_every_column(p):
    _assert_gaps_match_the_stream_rule(*_every_column(p))


@lru_cache(maxsize=None)
def _sample_arcs_at_37():
    return _column_arcs(37, [0, 1, 5, 18, 36, 37], np.arange(2, 36, 12))


def test_arc_table_matches_arc_integral_at_37():
    values, _, arcs = _sample_arcs_at_37()
    _assert_values_match_arc_integral(values, arcs)


def test_arc_contraction_matches_integral_at_37():
    _assert_gaps_match_the_stream_rule(*_sample_arcs_at_37())


def test_arc_table_rows_match_closed_forms():
    table = arc_table(N, suggested_rmax(N, math.sqrt(3) / 2))
    # The rows hold every pair x != 0 once, up to sign.
    classes = {min((u, v), ((-u) % N, (-v) % N))
               for u, v in table.pairs.reshape(-1, 2)}
    assert len(classes) == table.pairs.shape[0] * table.pairs.shape[1]
    assert len(classes) == (N * N - 1) // 2 and (0, 0) not in classes
    h = 1e-4
    for x in [(0, 4), (3, 5), (7, 10), (10, 7)]:
        row = _row_weight(table, x) == 1
        values, pairing = table._V[row][0], table._X[row][0]
        for j in (0, 40, 64, 90):
            z = table.nodes[j]
            assert abs(values[j] - e_star_point(x, z, N)) < 1e-11
            # d_z = (d_x - i d_y) / 2 by central differences, and the row
            # stores 2 Im(d_z E* wdz).
            dx = e_star_point(x, z + h, N) - e_star_point(x, z - h, N)
            dy = e_star_point(x, z + 1j * h, N) - e_star_point(x, z - 1j * h, N)
            wdz = table._wdz[j]
            d_z = (dx - 1j * dy) / (4 * h)
            assert abs(pairing[j] - 2 * (d_z * wdz).imag) < 2e-7 * abs(wdz)


def test_arc_table_needs_a_prime_modulus():
    with pytest.raises(ValueError, match="prime"):
        ArcTable(15, 40)


def test_arc_contraction_matches_integral_on_symbol_lifts():
    # eta_chi on symbol lifts whose bottom rows reach past N.  eta_chi is
    # invariant under the diamond action x -> a x, so the lift with
    # bottom row (c, d) reads line d / c mod p, or line p when p | c.
    p = 37
    table = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2))
    ks = np.arange(2, p - 1, 8)
    forms = {k: chi_form(p, k) for k in ks}
    lifts = [matrix_lift(SymbolIndex(p, u, v)) for u, v in
             [(1, 0), (0, 1), (0, 5), (3, 7), (20, 11), (36, 2)]]
    lines = [g.d * pow(g.c, -1, p) % p if g.c % p else p for g in lifts]
    values, gaps = table.pairings(ks)
    arcs = _stream_arcs(lambda k, g, quad: integrate_one_form(
        pullback(forms[k], g), quad), lifts, ks)
    _assert_values_match_arc_integral(values[lines], arcs)
    _assert_gaps_match_the_stream_rule(values[lines], gaps[lines], arcs)


def test_arc_contraction_raises_when_node_counts_disagree():
    table = arc_table(N, suggested_rmax(N, math.sqrt(3) / 2))
    ks = np.arange(2, N - 1, 2)
    fine, _ = table.pairings(ks)
    with pytest.raises(RuntimeError):
        table.pairings(ks, tol=0.0)
    # With the 64-node columns zeroed the values must still come from the
    # 128 nodes, and the gaps become those values.
    coarse = copy.copy(table)
    coarse._V, coarse._X = table._V.copy(), table._X.copy()
    for rows in (coarse._V, coarse._X):
        rows[..., :ArcTable.NODES[0]] = 0.0
    with pytest.raises(RuntimeError):
        coarse.pairings(ks)
    values, gaps = coarse.pairings(ks, tol=np.inf)
    assert np.array_equal(values, fine)
    assert np.array_equal(gaps, np.abs(values)) and np.abs(values).max() > 0


@pytest.mark.parametrize("p", [11, 17, 37, 101])
def test_line_arcs_match_the_node_table(p):
    # Every line and every even character, the quadratic one and each
    # conjugate pair included.  Both routes round differently: by 1.3e-15
    # at most at 101, where the arcs reach 6.6e-3.
    ks = np.arange(2, p - 1, 2)
    values, gaps = line_arcs(p)
    want, want_gaps = arc_table(p, suggested_rmax(p, math.sqrt(3) / 2)
                                ).pairings(ks)
    assert values.shape == gaps.shape == (p + 1, len(ks))
    assert np.abs(values - want).max() <= 3e-15
    assert np.abs(gaps - want_gaps).max() <= 3e-15


@pytest.mark.parametrize("p", [11, 17, 37, 101])
def test_line_arcs_vanish_on_the_cusp_columns(p):
    # The arcs over sigma and the identity, lines (1, 0) and (0, 1), are
    # 0 for every character: here below 2e-16 p, as in the node table.
    values, _ = line_arcs(p)
    assert np.abs(values[[0, p]]).max() <= 2e-16 * p


@pytest.mark.parametrize("p", [11, 17])
def test_line_arcs_match_arc_integral_on_every_column(p):
    # arc_integral takes the rules of ARC_NODES at line_arcs' nodes, so
    # its value and its gap to the coarse rule are those of line_arcs.
    values, gaps = line_arcs(p)
    _, _, (arcs, arc_gaps, nodes) = _every_column(p)
    for (l, j), value in np.ndenumerate(arcs):
        assert nodes[l, j] == ARC_NODES[1]
        assert abs(values[l, j] - value) <= 1e-15
        assert abs(gaps[l, j] - arc_gaps[l, j]) <= 1e-15


def test_line_arcs_raise_when_node_counts_disagree(monkeypatch):
    import ellreg.eisenstein as eisenstein

    line_arcs(N)
    # Four nodes leave the coarse values far from the fine ones.
    monkeypatch.setattr(eisenstein, "ARC_NODES", (4, ARC_NODES[1]))
    with pytest.raises(RuntimeError, match="settle"):
        line_arcs(N)
    with pytest.raises(ValueError, match="prime"):
        line_arcs(15)


def test_arc_integral_raises_when_node_counts_disagree(monkeypatch):
    import ellreg.eisenstein as eisenstein

    quad = {}
    arc_integral(N, 2, 3, quad)
    assert quad["stream_nodes"] == ARC_NODES[1] and quad["stream_gap"] < 1e-15
    monkeypatch.setattr(eisenstein, "ARC_NODES", (4, ARC_NODES[1]))
    with pytest.raises(RuntimeError, match="settle"):
        arc_integral(N, 2, 3)


@pytest.mark.parametrize("p", [11, 17, 37])
def test_line_oracle_is_the_pulled_back_residue_form(p):
    # eta_chi on line l holds the residue-map form of chi_k and conj chi_k
    # pulled back along the line's lift, weight for weight and in the
    # same order, so its streams and its arc are those of the general
    # route bit for bit.  k = 2 and p - 3 are one conjugate pair, which
    # line_arcs' column k / 2 - 1 gives up to the sign of the pair.
    values, _ = line_arcs(p)
    for k in (2, p - 3):
        reference = chi_form(p, k)
        for l in range(p + 1):
            form = eta_chi(p, k, l)
            pulled = pullback(reference, line_lift(p, l))
            for side in ("left_stream", "right_stream"):
                got, want = ([st.A, st.B, np.array([st.c_0, st.c_y, st.c_log])]
                             for st in (getattr(form, side),
                                        getattr(pulled, side)))
                _assert_bitwise_equal(got, want)
            arc = arc_integral(p, k, l)
            _assert_bitwise_equal([np.array(arc)],
                                  [np.array(integrate_one_form(pulled))])
            assert abs(arc - values[l, k // 2 - 1]) <= 1e-13


def test_line_arcs_hold_one_buffer_per_block():
    # At 101 the buffer of one conjugate pair is 209 KB.  A dense p x rmax
    # divisor table and its complex copy alone would take 1.5 MB.
    character_table(101)
    tracemalloc.start()
    try:
        line_arcs(101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def _stream_series_by_loops(n, divisor, rmax):
    """A_r and B_r of the stream expansion, summed term by term over
    r, the divisors k of r and the divisor's pairs."""
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
    stream = EisensteinStream(modulus, coeffs, 150)
    A, B = _stream_series_by_loops(modulus, coeffs, 150)
    # The loops raise e(m / N) to the v-th power, a few ulps per factor.
    assert np.abs(stream.A - A).max() <= 1e-13
    assert np.abs(stream.B - B).max() <= 1e-13


def _stream_by_k_loop(n, divisor, rmax):
    """c_0, c_y, A and B built as one loop over pairs, signs and k."""
    c_y = c_0 = 0.0 + 0.0j
    A = np.zeros(rmax + 1, dtype=complex)
    B = np.zeros(rmax + 1, dtype=complex)
    constant = _constant_terms(n)
    for (u, v), c in divisor.items():
        if u == 0:
            c_y += c * (2.0 * math.pi**2 / n) * _beta2(v, n)
        c_0 += c * constant[u]
        for sign in (1, -1):
            for k in range((sign * u) % n or n, rmax + 1, n):
                m = np.arange(1, rmax // k + 1)
                base = np.exp(sign * 2j * math.pi * (m * v % n) / n) / k
                A[k * m] += c * (math.pi / n) * base
                B[k * m] += c * (math.pi / n) * base.conj()
    return c_0, c_y, A, B


@pytest.mark.parametrize("p", [11, 17, 37])
def test_stream_builds_round_as_the_k_loop_does(p):
    # Both halves of an eta_chi form and a divisor off the row u = 0,
    # with one pair at u = p - u' so that both signs land on one k.
    rng = np.random.default_rng(p)
    form = eta_chi(p, 2, p)
    other = {(1, 2): 0.5, (p - 1, 3): 1.0 - 2.0j,
             (3, 0): rng.normal(), (0, 5): 1j}
    for divisor in (form.left, form.right, other):
        stream = EisensteinStream(p, divisor, form.rmax)
        c_0, c_y, A, B = _stream_by_k_loop(p, divisor, form.rmax)
        assert stream.c_0 == c_0 and stream.c_y == c_y
        assert np.array_equal(stream.A, A) and np.array_equal(stream.B, B)
    empty = EisensteinStream(p, {}, 40)
    assert not empty.A.any() and not empty.B.any()


@pytest.mark.parametrize("n", [11, 37, 389, 997, 5077])
def test_beta2_closed_form_matches_the_direct_sum(n):
    # Near v = N / 2 the value is about 1 / (2 N) and the direct cosine
    # sum cancels; the closed form takes the sine at the lesser angle.
    v = np.array([0, 1, 2, n // 2, n - 1])
    exact = beta2_mpmath(v, n)
    assert np.all(np.abs(_beta2(v, n) - exact) <= 1e-15 * np.abs(exact))


@pytest.mark.parametrize("n", [11, 37, 389, 997])
def test_constant_terms_match_the_direct_sum(n):
    values = _constant_terms(n)
    u = np.unique([0, 1, 2, 3, n // 3, n // 2, n - 2, n - 1])
    exact = constant_terms_mpmath(u, n)
    assert np.abs(values[u] - exact).max() <= 2e-15 * np.abs(values).max()
