"""Tests for Manin symbols, exact homology, and the two period routes."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import Matrix, Rational

from ellreg.characters import enumerate_characters, gauss_sum
from ellreg.elliptic import CURVE_11A, CURVE_17A, CurveModel
from ellreg.lseries import (
    ModularFormData,
    _term_count,
    _terms_for_rate,
    l_value,
    newform_from_curve,
    newform_terms,
    residue_tensor_square,
    root_number,
    twisted_lambda_table,
)
from ellreg.modsym import (
    CuspClass,
    SymbolIndex,
    XiTable,
    cusp_class_of,
    cusp_classes,
    line_index,
    period_integral_oracle,
    petersson,
    xi_bridge_table,
)
from ellreg.special import ABS_TOL, TruncationError, gauss_legendre_nodes

from gamma1_symbols import (
    SymbolVector,
    boundary,
    cuspidal_hecke_t2_matrix,
    diamond,
    hecke_t2,
    relation_quotient_dims,
)
from reference_routes import (
    SIGMA,
    TAU_MAT,
    UnimodularMatrix,
    _complete_row,
    cusp_width,
    enumerate_symbols,
    matrix_lift,
    mobius,
    mobius_derivative,
    q_expansions,
    shifted_cusp_class,
    symbol_act,
    symbol_negated,
    twist_by_character,
)


@pytest.fixture(scope="module")
def form11():
    return newform_from_curve(CURVE_11A, nmax=4000)


@pytest.fixture(scope="module")
def table11(form11):
    return xi_bridge_table(form11, twisted_lambda_table(form11))


def _pair_lookup(table):
    """xi at a pair (u, v), read from the line that line_index gives it;
    0 at the pair (0, 0) of smaller order."""
    p = table.level
    u, v = np.indices((p, p))
    values = table.lines[line_index(u, v, p)].tolist()
    values[0][0] = 0j

    def xi(pair):
        u, v = pair
        return values[u % p][v % p]
    return xi


def test_symbol_index_normalization():
    x = SymbolIndex(11, 13, -3)
    assert (x.u, x.v) == (2, 8)
    minus = symbol_negated(x)
    assert (minus.u, minus.v) == (9, 3)
    with pytest.raises(ValueError):
        SymbolIndex(5, 0, 0)
    with pytest.raises(ValueError):
        SymbolIndex(6, 2, 4)


def test_enumerate_symbols_counts():
    # order-N pairs: N^2 prod over p | N of (1 - p^-2)
    assert len(enumerate_symbols(5)) == 24
    assert len(enumerate_symbols(11)) == 120
    assert len(enumerate_symbols(13)) == 168
    assert len(enumerate_symbols(6)) == 24


def test_matrix_lift_properties():
    for x in enumerate_symbols(11):
        g = matrix_lift(x)
        assert g.a * g.d - g.b * g.c == 1
        assert (g.c % 11, g.d % 11) == (x.u, x.v)
        assert matrix_lift(x) == g


def test_sigma_tau_row_actions():
    assert SIGMA.row_action((3, 7), 11) == (7, 8)
    assert TAU_MAT.row_action((3, 7), 11) == (7, 1)
    for x in enumerate_symbols(11)[:20]:
        assert symbol_act(symbol_act(x, SIGMA), SIGMA) == symbol_negated(x)
        turned = symbol_act(symbol_act(x, TAU_MAT), TAU_MAT)
        assert symbol_act(turned, TAU_MAT) == x


def test_hecke_t2_four_terms():
    out = hecke_t2(SymbolVector.delta(11, (0, 1)))
    weights = {(x.u, x.v): c for x, c in out.items()}
    assert weights == {(0, 1): 2, (0, 2): 1, (1, 2): 1}


def test_hecke_t2_drops_small_order_pairs():
    out = hecke_t2(SymbolVector.delta(4, (1, 2)))
    assert sum(out.weights.values()) == 3
    assert all(math.gcd(math.gcd(x.u, x.v), 4) == 1 for x in out.weights)


def test_diamond_commutes_with_hecke():
    rng = random.Random(3)
    vec = SymbolVector(11, {(rng.randrange(11), rng.randrange(1, 11)): k
                           for k in (1, -2, 5)})
    assert diamond(4, hecke_t2(vec)) == hecke_t2(diamond(4, vec))
    assert diamond(1, vec) == vec
    with pytest.raises(ValueError):
        diamond(22, vec)


def test_cusp_classes_level_11():
    classes = cusp_classes(11)
    assert len(classes) == 10
    pairs = {c.pair for c in classes}
    assert pairs == ({(0, v) for v in (1, 2, 3, 4, 5)}
                     | {(v, 0) for v in (1, 2, 3, 4, 5)})
    widths = {c.pair: cusp_width(c) for c in classes}
    assert all(widths[(0, v)] == 1 for v in (1, 2, 3, 4, 5))
    assert all(widths[(v, 0)] == 11 for v in (1, 2, 3, 4, 5))
    # The cusp at infinity, the class of the symbol (0, 1).
    assert cusp_class_of(SymbolIndex(11, 0, 1)) == CuspClass(11, 0, 1)
    # widths add up to the index of the +-1 congruence subgroup
    for n in (5, 11, 13):
        assert sum(map(cusp_width, cusp_classes(n))) == (n * n - 1) // 2
        assert len(cusp_classes(n)) == n - 1


def test_cusp_classes_in_closed_form_match_the_shift_loop():
    # Composite levels too: at N = 60 a class can hold pairs with
    # gcd(u, N) = 1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30 or 60.
    for n in range(1, 61):
        symbols = enumerate_symbols(n)
        loop = [shifted_cusp_class(x) for x in symbols]
        assert [cusp_class_of(x) for x in symbols] == loop, n
        assert cusp_classes(n) == sorted(set(loop), key=lambda c: c.pair), n
    assert len(cusp_classes(997)) == 996


def test_boundary_of_closed_combination():
    b = boundary(SymbolVector.delta(11, (1, 5)))
    assert len(b) == 2 and sorted(b.values()) == [-1, 1]
    closed = (SymbolVector.delta(11, (1, 5))
              + SymbolVector.delta(11, SIGMA.row_action((1, 5), 11)))
    assert boundary(closed) == {}


def test_relation_quotient_dims_frozen():
    expected = {5: (3, 0), 11: (11, 2), 13: (15, 4)}
    for n, dims in expected.items():
        assert relation_quotient_dims(n) == dims
        genus = 1 + (n * n - 1) // 24 - (n - 1) // 2
        ncusps = len(cusp_classes(n))
        assert dims[1] == 2 * genus
        assert dims[0] == 2 * genus + ncusps - 1


def test_cuspidal_t2_eigenvalues():
    assert cuspidal_hecke_t2_matrix(5).shape == (0, 0)
    m11 = cuspidal_hecke_t2_matrix(11)
    assert m11.shape == (2, 2)
    assert m11.eigenvals() == {Rational(-2): 2}
    # characteristic polynomial is integral at any level
    coeffs = m11.charpoly().all_coeffs()
    assert all(c == int(c) for c in coeffs)
    assert coeffs == [1, 4, 4]


def test_reduced_eval_modular_invariance(form11):
    w = root_number(form11)
    z1 = 0.1 + 0.3j
    gamma = UnimodularMatrix(1, 0, 11, 1)
    z0 = mobius(gamma, z1)
    direct = (11 * z1 + 1) ** 2 * complex(q_expansions(form11.coefficients,
                                                        z1))
    assert abs(_reduced_eval(form11, z0, w) - direct) < 1e-12
    # level involution point, using real coefficients
    z2 = -1.0 / (11 * z1)
    fricke = w * 11 * z1 * z1 * complex(q_expansions(form11.coefficients,
                                                     z1))
    assert abs(_reduced_eval(form11, z2, w) - fricke) < 1e-12
    # high points evaluate directly
    assert _reduced_eval(form11, 0.2 + 2j, w) == complex(
        q_expansions(form11.coefficients, 0.2 + 2j))


@pytest.mark.parametrize("p", [2, 3, 5, 11, 17, 101, 997])
def test_line_index_is_the_scalar_inverse(p):
    # v / u mod p by Python's modular inverse, and p at u = 0: every pair
    # below 997, 10^4 random pairs (negatives too) at 997.
    if p < 997:
        u, v = np.divmod(np.arange(p * p), p)
    else:
        u, v = np.random.default_rng(p).integers(-3 * p, 3 * p, (2, 10**4))
    want = [p if a % p == 0 else b * pow(int(a), -1, p) % p
            for a, b in zip(u.tolist(), v.tolist())]
    assert line_index(u, v, p).tolist() == want


def test_xi_bridge_unit_relations(table11):
    p, xi = table11.level, _pair_lookup(table11)
    assert abs(xi((1, 1))) < 1e-9
    assert abs(xi((p - 1, 1))) < 1e-9
    for pair in ((1, 3), (2, 7), (0, 1), (1, 0), (4, 9)):
        two = xi(pair) + xi(SIGMA.row_action(pair, p))
        assert abs(two) < 1e-9
        turned = TAU_MAT.row_action(pair, p)
        three = (xi(pair) + xi(turned)
                 + xi(TAU_MAT.row_action(turned, p)))
        assert abs(three) < 1e-9


def test_xi_bridge_structure(table11):
    xi, lines = _pair_lookup(table11), table11.lines
    assert lines.shape == (12,)
    assert xi((0, 0)) == 0.0
    assert xi((3, 0)) == lines[0]
    assert xi((0, 4)) == lines[11] == -lines[0]
    assert xi((2, 6)) == xi((1, 3))
    # negation leaves the projective class unchanged
    assert xi((9, 5)) == xi((-9, -5))
    # plus() is the even part on every line: xi = xi^+ + xi^-.
    plus = table11.plus()
    for pair in ((2, 9), (-2, 9), (1, 0), (0, 1)):
        minus = 0.5 * (xi(pair) - xi((-pair[0], pair[1])))
        assert abs(plus[line_index(*pair, 11)] + minus - xi(pair)) < 1e-15
    assert plus[line_index(-2, 9, 11)] == plus[line_index(2, 9, 11)]
    assert xi((1, 0)) - xi((-1, 0)) == 0.0


def test_xi_bridge_hecke_recursion(form11, table11):
    # the pairing diagonalizes T_2 with the curve eigenvalue a_2 = -2
    xi = _pair_lookup(table11)
    for pair in ((1, 0), (1, 4), (3, 8), (0, 1)):
        image = hecke_t2(SymbolVector.delta(11, pair))
        acc = sum(c * xi((x.u, x.v)) for x, c in image.items())
        assert abs(acc - (-2) * xi(pair)) < 1e-9


def test_xi_infinity_against_central_value(form11, table11):
    w = root_number(form11)
    anchor = w * l_value(form11, 1.0) / (2 * math.pi)
    assert abs(_pair_lookup(table11)((1, 0)) - anchor) < 1e-13
    assert abs(anchor) > 1e-3


def test_period_oracle_matches_bridge(form11, table11):
    rng = random.Random(11)
    sample = [(x.u, x.v) for x in rng.sample(enumerate_symbols(11), 4)]
    sample.append((1, 0))
    xi = _pair_lookup(table11)
    for x in sample:
        (oracle,) = period_integral_oracle(form11, [x])
        ref = xi(x)
        scale = max(1.0, abs(ref))
        assert abs(oracle - ref) < 1e-7 * scale, (x, oracle, ref)


def test_period_oracle_path_reversal(form11):
    x = (2, 5)
    (forward,) = period_integral_oracle(form11, [x])
    (backward,) = period_integral_oracle(form11, [SIGMA.row_action(x, 11)])
    assert abs(forward + backward) < 1e-8
    (negated,) = period_integral_oracle(form11, [(-2, -5)])
    assert abs(forward - negated) < 1e-8


def test_petersson_positive_and_matches_residue(form11, table11):
    pet = petersson(table11, table11)
    assert pet.real > 0
    assert abs(pet.imag) < 1e-10 * pet.real
    res = residue_tensor_square(form11, twisted_lambda_table(form11))
    assert abs(12 * math.pi * pet.real - res) < 1e-6 * res


def test_petersson_sesquilinear(table11):
    s = 2.0 + 3.0j
    scaled = XiTable(table11.level, s * table11.lines)
    pet = petersson(table11, table11)
    assert abs(petersson(scaled, table11) - s * pet) < 1e-12 * abs(s * pet)
    assert abs(petersson(table11, scaled)
               - np.conj(s) * pet) < 1e-12 * abs(s * pet)


# The point reducer, as period_integral_oracle used it before the closed
# form: translations, bottom rows (kp, d) and the level involution push
# every node of a path up to Im z >= 0.7 / p, where the q-series is
# summed.  Kept here as the reference route for the closed form.
def _reduce_points(p, z, w, threshold, max_steps=40):
    """Push an array of points z upward until each has Im z >= threshold.

    The moves are translations, bottom rows (kp, d), and the level
    involution z -> -1/(pz), which trades f for w times the conjugate
    stream.  Returns the reduced points, the factors with f(z) = mult *
    g(z_reduced), the flags for g = conjugate partner, and the most
    moves any point took.
    """
    z = np.array(z, dtype=complex)
    mult = np.ones_like(z)
    conj = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    # Rows (kp, d) for k = 8 .. 1, d = round(-kpx) + 2 .. -2: the first with
    # the largest gain over 1.0001 wins.  (-kp, -d) is the same move.
    ks = np.repeat(np.arange(8, 0, -1), 5)
    cs, offsets = p * ks, np.tile(np.arange(2, -3, -1), 8)
    # p prime: gcd(kp, d) = 1 iff p does not divide d and gcd(k, d mod 840) = 1
    coprime = np.gcd(np.arange(9)[:, None], np.arange(840)) == 1
    for moves in range(max_steps):
        zl = z[live] - np.round(z[live].real)
        z[live] = zl
        keep = zl.imag < threshold
        live, zl = live[keep], zl[keep]
        if not live.size:
            return z, mult, conj, moves
        # No row gains more than 1 / (p Im z)^2, as |cz + d| >= p Im z.
        fricke_gain = 1.0 / (p * np.abs(zl) ** 2)
        fricke = fricke_gain > np.maximum(1.0001, 1.0 / (p * zl.imag) ** 2)
        s = np.flatnonzero(~fricke)
        picks = []
        for zb in np.array_split(zl[s], 8):  # 5 entries a point per temporary
            cx = cs * zb.real[:, None]
            d = np.round(-cx) + offsets
            gain = 1.0 / np.hypot(cx + d, cs * zb.imag[:, None]) ** 2
            d = d.astype(int)
            gain[(gain <= 1.0001) | (d % p == 0) | ~coprime[ks, d % 840]] = 0.0
            at = np.arange(zb.size), gain.argmax(axis=1)
            picks.append((gain[at], cs[at[1]], d[at]))
        best, c, d = map(np.concatenate, zip(*picks))
        fricke[s] = fricke_gain[s] > np.maximum(1.0001, best)
        stalled = ~fricke[s] & (best == 0.0)
        if stalled.any():
            raise RuntimeError("point reduction stalled at %r"
                               % (complex(zl[s[stalled][0]]),))
        # f(z) = (w / (p z^2)) fbar(-1/(pz)); fbar uses wbar
        i, zf = live[fricke], zl[fricke]
        mult[i] *= np.where(conj[i], w.conjugate(), w) / (p * zf * zf)
        z[i] = -1.0 / (p * zf)
        conj[i] = ~conj[i]
        # bottom row (c, d) = (kp, d), so the map is level-stable and
        # f((az+b)/(cz+d)) = (cz+d)^2 f(z)
        row = ~fricke[s]
        i, zm, c, d = live[~fricke], zl[~fricke], c[row], d[row]
        # Each distinct row completed once, keyed by (d, c) without a sort.
        low = int(d.min(initial=0))
        seen = np.bincount(key := (d - low) * 9 + c // p) > 0
        a, b = np.array([_complete_row(p * (u % 9), u // 9 + low)
                         for u in np.flatnonzero(seen).tolist()]
                        ).reshape(-1, 2)[np.cumsum(seen)[key] - 1].T
        mult[i] /= (c * zm + d) ** 2
        z[i] = (a * zm + b) / (c * zm + d)
    raise RuntimeError("point reduction exceeded %d steps" % max_steps)


def _reduced_eval(form, z, w, threshold=None, max_steps=40):
    """f(z) anywhere in the upper half plane, through _reduce_points."""
    if threshold is None:
        threshold = 0.7 / form.level
    zr, mult, conj, _ = _reduce_points(form.level, [complex(z)], w,
                                       threshold, max_steps)
    return complex(mult[0]) * complex(_eval_points(form, zr, conj)[0])


def _eval_points(form, z, conj):
    """f at each point, or its conjugate partner where conj is set.

    The partner, the conjugate stream, is conj(f(-conj z)) at z.
    """
    values = q_expansions(form.coefficients, np.where(conj, -z.conj(), z))
    return np.where(conj, values.conj(), values)


def _reducer_oracle(form, x, nodes=32, panel=3.0, quadrature=None):
    """period_integral_oracle for one pair x through the reducer: both
    halves of the path, g(it) and g(i/t), reduced node by node."""
    p = form.level
    w = root_number(form)
    g = matrix_lift(x, p)
    tmax = p * math.log(1.0 / ABS_TOL) / (2 * math.pi) + 4.0
    cuts = [1.0]
    while cuts[-1] < tmax:
        cuts.append(min(cuts[-1] + panel, tmax))
    ts, ws = map(np.concatenate, zip(*(gauss_legendre_nodes(nodes, t0, t1)
                                       for t0, t1 in zip(cuts, cuts[1:]))))
    # Both halves of the path: g(it), and g(i/t) with dt/t^2.
    it = np.concatenate([1j * ts, 1j / ts])
    jac = mobius_derivative(g, it) * np.concatenate([ws, ws / (ts * ts)])
    z, mult, conj, moves = _reduce_points(p, mobius(g, it), w, 0.7 / p)
    values = _eval_points(form, z, conj)
    if quadrature is not None:
        quadrature.update(nodes=int(z.size), panels=len(cuts) - 1,
                          tmax=tmax, max_reduction_steps=moves)
    # d(g(it)) = g'(it) i dt, and the overall -i of the pairing
    return complex(np.sum(jac * mult * values))


# Point reduction one point at a time, as period_integral_oracle did it
# before it reduced every node of a path at once.  Kept here as the
# reference for the batched reducer: returns the value, the reduced point,
# the multiplier and whether the conjugate stream was used.
def _scalar_reduced_eval(form, z, w, threshold=None, max_steps=40):
    p = form.level
    if threshold is None:
        threshold = 0.7 / p
    mult = 1.0 + 0.0j
    conjugated = False
    for _ in range(max_steps):
        shift = round(z.real)
        z -= shift
        if z.imag >= threshold:
            a = form.coefficients
            return (mult * complex(q_expansions(a.conj() if conjugated else a,
                                                z)), z, mult, conjugated)
        best = None
        for k in range(-8, 9):
            if k == 0:
                continue
            c = k * p
            for d in range(round(-c * z.real) - 2, round(-c * z.real) + 3):
                if math.gcd(c, d) != 1:
                    continue
                gain = 1.0 / abs(c * z + d) ** 2
                if gain > 1.0001 and (best is None or gain > best[0]):
                    best = (gain, c, d)
        fricke_gain = 1.0 / (p * abs(z) ** 2)
        if fricke_gain > 1.0001 and (best is None or fricke_gain > best[0]):
            mult *= (w if not conjugated else w.conjugate()) / (p * z * z)
            z = -1.0 / (p * z)
            conjugated = not conjugated
            continue
        if best is None:
            raise RuntimeError("point reduction stalled at %r" % (z,))
        _, c, d = best
        if c < 0:
            c, d = -c, -d
        a, b = _complete_row(c, d)
        mult /= (c * z + d) ** 2
        z = (a * z + b) / (c * z + d)
    raise RuntimeError("point reduction exceeded %d steps" % max_steps)


# The batched reducer's candidate scan as it was before it scanned only
# k > 0: every row (kp, d) for k = -8 .. -1, 1 .. 8 and the five d
# nearest -kpx, with np.gcd, a per-k pick, a sign normalisation and
# np.unique.  Kept here as the reference _reduce_points must match bit
# for bit.
def _reduce_points_reference(p, z, w, threshold, max_steps=40):
    z = np.array(z, dtype=complex)
    mult = np.ones_like(z)
    conj = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    offsets = np.arange(-2, 3)
    for moves in range(max_steps):
        zl = z[live] - np.round(z[live].real)
        z[live] = zl
        keep = zl.imag < threshold
        live, zl = live[keep], zl[keep]
        if not live.size:
            return z, mult, conj, moves
        x, y = zl.real[:, None], zl.imag[:, None]
        rows = np.arange(live.size)
        best = np.zeros((3, live.size))  # gain, c, d
        for k in (*range(-8, 0), *range(1, 9)):
            c = k * p
            d = np.round(-c * x) + offsets
            gain = 1.0 / np.hypot(c * x + d, c * y) ** 2
            gain[(gain <= 1.0001) | (np.gcd(c, d.astype(int)) != 1)] = 0.0
            j = gain.argmax(axis=1)
            pick = np.stack([gain[rows, j], np.full(rows.size, c), d[rows, j]])
            better = pick[0] > best[0]
            best[:, better] = pick[:, better]
        fricke_gain = 1.0 / (p * np.abs(zl) ** 2)
        fricke = (fricke_gain > 1.0001) & (fricke_gain > best[0])
        stalled = ~fricke & (best[0] == 0.0)
        if stalled.any():
            raise RuntimeError("point reduction stalled at %r"
                               % (complex(zl[stalled][0]),))
        i, zf = live[fricke], zl[fricke]
        mult[i] *= np.where(conj[i], w.conjugate(), w) / (p * zf * zf)
        z[i] = -1.0 / (p * zf)
        conj[i] = ~conj[i]
        i, zm = live[~fricke], zl[~fricke]
        c, d = (best[1:, ~fricke] * np.sign(best[1, ~fricke])).astype(int)
        pairs, where = np.unique(np.stack([c, d]), axis=1, return_inverse=True)
        a, b = np.array([_complete_row(*cd) for cd in pairs.T.tolist()]
                        ).reshape(-1, 2)[where.ravel()].T
        mult[i] /= (c * zm + d) ** 2
        z[i] = (a * zm + b) / (c * zm + d)
    raise RuntimeError("point reduction exceeded %d steps" % max_steps)


# The term-count rule one rate at a time, written out here as the
# reference for lseries._terms_for_rate.
def _scalar_terms_for_rate(rate, nmax, tol):
    k = 8
    while k <= nmax:
        if 4.0 * k ** 1.5 * math.exp(-rate * k) / (1.0 - math.exp(-rate)) < tol:
            return k
        k += 1 + k // 8
    raise TruncationError("need more coefficients")


def test_term_counts_match_the_scalar_rule_at_every_rate():
    rng = np.random.default_rng(3)
    heights = np.exp(rng.uniform(math.log(0.01), math.log(10.0), 2000))
    rates = 2 * math.pi * heights
    assert [_terms_for_rate(r, 4000) for r in rates.tolist()] == [
        _scalar_terms_for_rate(r, 4000, ABS_TOL) for r in rates]
    # A rate too slow for nmax terms: the message names it.
    with pytest.raises(TruncationError, match="decay rate 0.01 reaches"):
        _terms_for_rate(0.01, 500)


APPENDIX_SYMBOLS = [(0, 1), (1, 0), (2, 5), (1, 3), (4, 7)]
CURVE_37A = CurveModel(0, 0, 1, -1, 0, 37)


@pytest.fixture(scope="module", params=[11, 17, 37])
def oracle_paths(request):
    """Every node of the appendix symbols' paths, reduced one at a time.

    Per symbol: the nodes z, the scalar values, reduced points and
    conjugation flags, and the oracle total summed panel by panel in
    the order the scalar oracle used.
    """
    p = request.param
    curve = {11: CURVE_11A, 17: CURVE_17A, 37: CURVE_37A}[p]
    form = newform_from_curve(curve, nmax=4000)
    w = root_number(form)
    tmax = p * math.log(1.0 / ABS_TOL) / (2 * math.pi) + 4.0
    paths = []
    for x in APPENDIX_SYMBOLS:
        g = matrix_lift(x, p)
        points, refs, total, t0 = [], [], 0.0 + 0.0j, 1.0
        while t0 < tmax:
            t1 = min(t0 + 3.0, tmax)
            ts, ws = gauss_legendre_nodes(32, t0, t1)
            panel = []
            for tt, wt in zip(ts, ws):
                up, down = mobius(g, 1j * tt), mobius(g, 1j / tt)
                ref_up = _scalar_reduced_eval(form, up, w)
                ref_down = _scalar_reduced_eval(form, down, w)
                points += [up, down]
                refs += [ref_up, ref_down]
                panel.append(wt * (ref_up[0] * mobius_derivative(g, 1j * tt)
                                   + ref_down[0]
                                   * mobius_derivative(g, 1j / tt)
                                   / (tt * tt)))
            total += sum(panel)
            t0 = t1
        paths.append((x, np.array(points), refs, total))
    return form, w, paths


def test_batched_reduction_matches_scalar_on_every_node(oracle_paths):
    form, w, paths = oracle_paths
    p = form.level
    for x, points, refs, _ in paths:
        ref_value, ref_z, ref_mult, ref_conj = map(np.array, zip(*refs))
        z, mult, conj, moves = _reduce_points(p, points, w, 0.7 / p)
        assert np.array_equal(conj, ref_conj), x
        assert np.max(np.abs(z - ref_z)) < 1e-12, x
        assert np.max(np.abs(mult - ref_mult) / np.abs(ref_mult)) < 1e-13, x
        assert moves >= 1
        # The evaluation, on the reference's own reduced points: each
        # node gets the scalar term count, and the value agrees to 1e-13
        # relative.  (The two routes' reduced points differ by up to
        # 1e-13, and near a cusp, where |mult| reaches 1e4 and the value
        # 1e-14, that moves the value by up to 6e-13 relative.)
        rates = 2 * math.pi * ref_z.imag
        assert [_terms_for_rate(r, form.nmax) for r in rates.tolist()] == [
            _scalar_terms_for_rate(r, form.nmax, ABS_TOL) for r in rates]
        values = _eval_points(form, ref_z, ref_conj)
        err = np.abs(ref_mult * values - ref_value)
        big = ref_value != 0  # 0 where q^n underflows, high on the path
        assert np.all(err[big] <= 1e-13 * np.abs(ref_value[big])), x
        assert np.all(err[~big] == 0.0), x


def test_period_oracle_matches_scalar_total(oracle_paths):
    form, _, paths = oracle_paths
    p = form.level
    for x, _, _, total in paths:
        quad = {}
        (value,) = period_integral_oracle(form, [x], quadrature=quad)
        assert abs(value - total) < 1e-13, (x, value, total)
        assert quad["oracle_terms"] == _term_count(p * p, form.nmax)
        assert quad["max_reduction_steps"] >= 1


def test_scalar_entry_matches_reference_on_a_tie(form11):
    # At x = 1/2 the rows (11, -5) and (11, -6) give exactly the same
    # gain; the first one in (k, d) order must win, as it always did.
    w = root_number(form11)
    for z in (0.5 + 0.01j, 0.5 + 0.003j, -0.5 + 0.02j):
        ref, ref_z, _, ref_conj = _scalar_reduced_eval(form11, z, w)
        zr, _, conj, _ = _reduce_points(11, [z], w, 0.7 / 11)
        assert conj[0] == ref_conj
        assert abs(zr[0] - ref_z) < 1e-12, (z, zr[0], ref_z)
        assert abs(_reduced_eval(form11, z, w) - ref) <= 1e-13 * abs(ref)


def test_reduction_raises_like_the_scalar_loop(form11):
    w = root_number(form11)
    z = 0.2 + 0.0001j
    steps = _reduce_points(11, [z], w, 0.7 / 11)[3]
    assert steps >= 2
    _reduced_eval(form11, z, w, max_steps=steps + 1)
    for reduce in (_reduced_eval, _scalar_reduced_eval):
        with pytest.raises(RuntimeError, match="exceeded"):
            reduce(form11, z, w, max_steps=steps)
        # Nothing lifts 0.1 + i by more than 1.0001 at level 11.
        with pytest.raises(RuntimeError, match="stalled"):
            reduce(form11, 0.1 + 1j, w, threshold=10.0)
    with pytest.raises(RuntimeError, match="exceeded"):
        _reduce_points(11, [0.2 + 2j, z], w, 0.7 / 11, max_steps=steps)


def _same_bits(got, want):
    return (got[3] == want[3] and all(
        g.dtype == r.dtype and g.tobytes() == r.tobytes()
        for g, r in zip(got[:3], want[:3])))


@pytest.mark.parametrize("p", [11, 17, 37, 101])
def test_reduction_scan_matches_the_reference_bitwise(p):
    rng = np.random.default_rng(p)
    n = 20000
    random = rng.uniform(-1.0, 1.0, n) + 1j * np.exp(
        rng.uniform(math.log(1e-6), 0.0, n))
    # Exact ties between two offsets of one row (x = +-1/2, +-1/4), and
    # points near 0, where the involution wins without a scan.
    ties = [x + 1j * y for x in (0.5, -0.5, 0.25, -0.25)
            for y in (0.3 / p, 0.05 / p, 0.01 / p, 1e-4 / p)]
    near_zero = rng.uniform(-1e-3, 1e-3, 200) + 1j * np.exp(
        rng.uniform(math.log(1e-6), math.log(0.7 / p), 200))
    z = np.concatenate([random, ties, near_zero])
    for w in (1.0 + 0.0j, -1.0 + 0.0j, np.exp(0.3j)):
        want = _reduce_points_reference(p, z, w, 0.7 / p)
        assert _same_bits(_reduce_points(p, z, w, 0.7 / p), want)
        for point in ties:
            assert _same_bits(_reduce_points(p, [point], w, 0.7 / p),
                              _reduce_points_reference(p, [point], w, 0.7 / p))


def test_reduction_keeps_the_row_on_a_tie_with_the_involution():
    # At level 17, z = +-1/17 + i/68 has 17 |z|^2 = (17 Im z)^2 exactly, so
    # the row (17, -+1) gains exactly as much as the involution, and the
    # row must win, the involution needing a strictly larger gain.
    for x in (1 / 17, -1 / 17):
        z = np.array([complex(x, abs(x) / 4)])
        assert 1.0 / (17 * np.abs(z) ** 2) == 1.0 / (17 * z.imag) ** 2
        want = _reduce_points_reference(17, z, 1.0 + 0.0j, 0.7 / 17)
        assert _same_bits(_reduce_points(17, z, 1.0 + 0.0j, 0.7 / 17), want)


def test_reduction_raises_like_the_reference():
    w = 1.0 + 0.0j
    cases = [(11, [0.1 + 1j, 0.15 + 2j], 10.0, 40),  # nothing gains 1.0001
             (11, [0.2 + 2j, 0.2 + 0.0001j], 0.7 / 11, 2),
             (37, [0.3 + 1e-6j], 0.7 / 37, 1)]
    kinds = []
    for p, z, threshold, steps in cases:
        with pytest.raises(RuntimeError) as want:
            _reduce_points_reference(p, z, w, threshold, steps)
        with pytest.raises(RuntimeError) as got:
            _reduce_points(p, z, w, threshold, steps)
        assert str(got.value) == str(want.value)
        kinds.append(str(got.value).split()[2])
    assert kinds == ["stalled", "exceeded", "exceeded"]


ORACLE_CURVES = {11: CURVE_11A, 17: CURVE_17A, 37: CURVE_37A,
                 43: CurveModel(0, 1, 1, 0, 0, 43),
                 101: CurveModel(0, 1, 1, -1, -1, 101)}
# Curves checked on a newform of newform_terms(p) terms, the length verify
# builds: too short for the reducer, whose nodes sit at height 0.7 / p.
BRIDGE_CURVES = {389: CurveModel(0, 1, 1, -2, 0, 389),
                 997: CurveModel(0, -1, 1, -5, -3, 997)}


@pytest.fixture(scope="module",
                params=sorted(ORACLE_CURVES) + sorted(BRIDGE_CURVES))
def oracle_routes(request):
    """The five appendix symbols and 20 seeded random ones, with the
    closed-form oracle over all of them in one call, the reducer oracle
    symbol by symbol (None on BRIDGE_CURVES), and the bridge table's
    values."""
    p = request.param
    symbols = list(APPENDIX_SYMBOLS)
    if p in ORACLE_CURVES:
        form = newform_from_curve(ORACLE_CURVES[p], nmax=4000)
        symbols += [(x.u, x.v) for x in
                    random.Random(p).sample(enumerate_symbols(p), 20)]
    else:
        form = newform_from_curve(BRIDGE_CURVES[p], newform_terms(p))
        # Pairs (u, v) with u a unit have order p.
        rng = random.Random(p)
        symbols += [(rng.randrange(1, p), rng.randrange(p))
                    for _ in range(20)]
    closed = period_integral_oracle(form, symbols)
    reducer = (np.array([_reducer_oracle(form, x) for x in symbols])
               if p in ORACLE_CURVES else None)
    xi = xi_bridge_table(form, twisted_lambda_table(form))
    bridge = np.array(list(map(_pair_lookup(xi), symbols)))
    return form, symbols, closed, reducer, bridge


def test_closed_form_oracle_matches_the_reducer_and_the_bridge(
        oracle_routes):
    form, symbols, closed, reducer, bridge = oracle_routes
    assert closed.shape == (25,) and closed.dtype == complex
    # (0, 1) lies in Gamma_0(p), so its g half is f(it) itself; (1, 0)
    # has bottom row (1, 0) and takes the coset step S in its g half.
    assert symbols[0] == (0, 1) and symbols[1] == (1, 0)
    assert np.all(np.abs(closed - bridge) < 1e-15)
    if reducer is None:
        return
    assert np.all(np.abs(closed[:5] - reducer[:5]) < 1e-13)
    # On the random symbols the reducer itself drifts from 37 on, by up
    # to 2.7e-12 at 101, as its distance from the bridge table shows.
    # Wherever the two routes differ by 1e-13 or more, the reducer is
    # the one away from the bridge.
    apart = np.abs(closed - reducer) >= 1e-13
    assert form.level > 17 or not apart.any()
    assert np.all(np.abs(reducer - bridge)[apart]
                  > 2.0 * np.abs(closed - bridge)[apart])
    assert np.all(np.abs(closed - reducer) < 5e-12)


def test_one_symbol_alone_gives_the_bits_it_gets_in_a_batch(oracle_routes):
    form, symbols, closed, _, _ = oracle_routes
    for i in (0, 1, 2, 12):
        alone = period_integral_oracle(form, [symbols[i]])
        assert alone.tobytes() == closed[i:i + 1].tobytes()
    assert period_integral_oracle(form, []).shape == (0,)


def test_oracle_stream_is_cut_at_the_height_one_over_p_count():
    form = newform_from_curve(CURVE_37A, nmax=4000)
    k = _scalar_terms_for_rate(2 * math.pi / 37, form.nmax, ABS_TOL)
    enough = ModularFormData(37, form.coefficients[:k + 1])
    short = ModularFormData(37, form.coefficients[:k])
    full = period_integral_oracle(form, APPENDIX_SYMBOLS)
    cut = period_integral_oracle(enough, APPENDIX_SYMBOLS)
    assert cut.tobytes() == full.tobytes()
    with pytest.raises(TruncationError) as got:
        period_integral_oracle(short, APPENDIX_SYMBOLS)
    with pytest.raises(TruncationError) as want:
        q_expansions(short.coefficients, 1j / 37)
    assert str(got.value) == str(want.value)


def test_oracle_rejects_a_pair_of_smaller_order(form11):
    with pytest.raises(ValueError, match="order 11"):
        period_integral_oracle(form11, [(0, 0)])
    with pytest.raises(ValueError, match="order 11"):
        period_integral_oracle(form11, [(1, 2), (11, 22)])


@pytest.mark.parametrize("curve", [CURVE_11A, CurveModel(0, 0, 1, -1, 0, 37)],
                         ids=["11a", "37a"])
def test_xi_from_the_twisted_table_matches_per_twist_central_values(curve):
    form = newform_from_curve(curve, nmax=4000)
    p = curve.conductor
    table = twisted_lambda_table(form)
    xi = xi_bridge_table(form, lambda_table=table)
    # The central values summed one twist at a time.
    w = root_number(form)
    central = {chi: l_value(twist_by_character(form, chi), 1.0)
               for chi in enumerate_characters(p) if not chi.is_trivial}
    want = {x: w * sum(gauss_sum(chi.conjugate()) * complex(chi(x)).conjugate()
                       * value for chi, value in central.items())
            / (2 * math.pi * (p - 1)) for x in range(1, p)}
    scale = max(abs(v) for v in want.values())
    at = _pair_lookup(xi)  # the class x = u / v is read at (x, 1)
    assert max(abs(at((x, 1)) - want[x]) for x in want) <= 1e-14 * scale


# The period table as the scalar code looked it up one pair at a time,
# from the class u / v, and the pair loops it served.  Kept here as the
# reference for the line table, its closedness defects and the Petersson
# pairing, which now run over the p + 1 lines.
def _scalar_class_lookup(table, pair):
    """xi at (u, v) by its class, found with pow: v = 0 reads the line
    (1, 0), u / v = 0 the line (0, 1), and u / v = x the line (x, 1) =
    (1, 1 / x)."""
    p = table.level
    u, v = pair[0] % p, pair[1] % p
    if u == 0 and v == 0:
        return 0j
    if v == 0:
        return complex(table.lines[0])
    x = (u * pow(v, -1, p)) % p
    return complex(table.lines[p if x == 0 else pow(x, -1, p)])


def _scalar_plus(xi, pair):
    u, v = pair
    return 0.5 * (xi((u, v)) + xi((-u, v)))


def _loop_closedness(table, pairs=None):
    """The defects pair by pair, over every order-p pair or the given
    pairs."""
    n, xi = table.level, _pair_lookup(table)
    worst2 = worst3 = 0.0
    for x in pairs or [(y.u, y.v) for y in enumerate_symbols(n)]:
        xt = TAU_MAT.row_action(x, n)
        worst2 = max(worst2, abs(_scalar_plus(xi, x)
                                 + _scalar_plus(xi, SIGMA.row_action(x, n))))
        worst3 = max(worst3, abs(
            _scalar_plus(xi, x) + _scalar_plus(xi, xt)
            + _scalar_plus(xi, TAU_MAT.row_action(xt, n))))
    return worst2, worst3


def _line_rows(n):
    """The bottom rows of the lines: (1, v), then (0, 1)."""
    return [(1, v) for v in range(n)] + [(0, 1)]


def _pairing_terms(xi1, xi2, pairs=None):
    """The terms (left, right) of the Petersson sum, pair by pair, over
    every pair (u, v) or the given ones."""
    n = xi1.level
    a, b = _pair_lookup(xi1), _pair_lookup(xi2)
    for u, v in pairs or [(u, v) for u in range(n) for v in range(n)]:
        yield (a((u, v)) * np.conj(b((v, -u - v))),
               a((v, -u - v)) * np.conj(b((u, v))))


def _loop_petersson(xi1, xi2):
    acc = 0j
    for left, right in _pairing_terms(xi1, xi2):
        acc += left - right
    n = xi1.level
    return acc * 1j / (12.0 * (n * n - 1)), n


def _exact_petersson(xi1, xi2, on_lines=False):
    """The Petersson sum of the same table entries in exact arithmetic,
    over every pair, or over the lines' bottom rows, each standing for
    the n - 1 pairs of its line, which read the same entries."""
    n = xi1.level
    a, b = _pair_lookup(xi1), _pair_lookup(xi2)

    def exact(xi, pair):
        z = xi(pair)
        return Fraction(z.real), Fraction(z.imag)
    pairs = (_line_rows(n) if on_lines
             else [(u, v) for u in range(n) for v in range(n)])
    re = im = Fraction(0)
    for u, v in pairs:
        turned = (v, -u - v)
        (ar, ai), (br, bi) = exact(a, (u, v)), exact(a, turned)
        (cr, ci), (dr, di) = exact(b, turned), exact(b, (u, v))
        # a conj(c) - b conj(d)
        re += ar * cr + ai * ci - br * dr - bi * di
        im += ai * cr - ar * ci - bi * dr + br * di
    scale = Fraction(12 * (n * n - 1), n - 1 if on_lines else 1)
    return complex(float(-im / scale), float(re / scale))


@pytest.fixture(scope="module", params=[11, 17, 37, 101])
def bridge(request):
    curves = {11: CURVE_11A, 17: CURVE_17A,
              37: CurveModel(0, 0, 1, -1, 0, 37),
              101: CurveModel(0, 1, 1, -1, -1, 101)}
    form = newform_from_curve(curves[request.param], 4000)
    return form, xi_bridge_table(form, twisted_lambda_table(form))


def test_xi_table_array_matches_the_scalar_lookup_on_every_pair(bridge):
    _, xi = bridge
    p = xi.level
    assert xi.lines.shape == xi.plus().shape == (p + 1,)
    at = _pair_lookup(xi)
    for u in range(p):
        for v in range(p):
            want = _scalar_class_lookup(xi, (u, v))
            assert at((u, v)) == want, (u, v)
            assert at((u - p, v + 2 * p)) == want
    # plus() on the line of every pair but (0, 0) is that pair's even part.
    u, v = np.indices((p, p))
    got = xi.plus()[line_index(u, v, p)].ravel()[1:]
    want = [_scalar_plus(at, (a, b)) for a in range(p) for b in range(p)]
    assert got.tolist() == want[1:]
    assert at((0, 0)) == 0 and at((5, 0)) == xi.lines[0]
    assert at((0, 3)) == xi.lines[p] == -xi.lines[0]


def test_closedness_defects_match_the_pair_loop_bitwise(bridge):
    _, xi = bridge
    assert xi.closedness() == _loop_closedness(xi)
    assert max(xi.closedness()) < 1e-12


def test_bridge_units_match_the_character_loop(bridge):
    form, xi = bridge
    p = form.level
    table = twisted_lambda_table(form)
    w = root_number(form)
    central = {chi: (gauss_sum(chi.conjugate()),
                     (2 * math.pi / p) * complex(table[k]))
               for k, chi in enumerate(enumerate_characters(p)) if k}
    want = {}
    for x in range(1, p):
        acc = 0j
        for chi, (tau_bar, lval) in central.items():
            acc += tau_bar * complex(chi(x)).conjugate() * lval
        want[x] = w * acc / (2 * math.pi * (p - 1))
    scale = max(abs(v) for v in want.values())
    at = _pair_lookup(xi)  # the class x = u / v is read at (x, 1)
    assert max(abs(at((x, 1)) - want[x]) for x in want) <= 1e-15 * scale


def test_petersson_array_route_matches_the_pair_loop(bridge):
    _, xi = bridge
    p = xi.level
    rng = np.random.default_rng(p)
    draw = lambda: complex(*rng.normal(size=2))  # noqa: E731
    other = XiTable(p, [draw() for _ in range(p + 1)])
    for a, b in ((xi, xi), (xi, other)):
        got = petersson(a, b)
        loop, n = _loop_petersson(a, b)
        exact = _exact_petersson(a, b)
        size = sum(abs(left) + abs(right)
                   for left, right in _pairing_terms(a, b))
        size /= 12.0 * (n * n - 1)
        assert abs(got - exact) <= 1e-15 * size
        # The loop adds the n^2 terms one after another, so its rounding
        # may reach n^2 u times their size (3e-15 of it at 37).
        assert abs(loop - exact) <= n * n * 1.2e-16 * size
        if a is b:
            # The square norm, the value the appendix reads.
            assert abs(got - exact) <= 1e-15 * abs(exact)


def test_closedness_and_petersson_on_random_tables_at_389():
    # The pair loops would take O(p^2); a line's pairs all read its
    # entries, so the loops over the lines' bottom rows give the same
    # defects and the same exact sum.
    p = 389
    rng = np.random.default_rng(p)
    a, b = (XiTable(p, rng.normal(size=p + 1) + 1j * rng.normal(size=p + 1))
            for _ in range(2))
    assert a.closedness() == _loop_closedness(a, _line_rows(p))
    assert min(a.closedness()) > 0.1
    for x, y in ((a, a), (a, b)):
        got = petersson(x, y)
        exact = _exact_petersson(x, y, on_lines=True)
        size = sum(abs(left) + abs(right)
                   for left, right in _pairing_terms(x, y, _line_rows(p)))
        size /= 12.0 * (p + 1)
        assert abs(got - exact) <= 1e-15 * size
