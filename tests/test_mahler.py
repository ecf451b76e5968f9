"""Tests for the two-variable Mahler measure engine."""

import cmath
import math
import time

import numpy as np
import pytest

from ellreg import mahler
from ellreg.mahler import (
    BivariatePolynomial,
    _column_circle_arguments,
    _companion_roots,
    _crossing_indicators,
    _inner_measures,
    _unit_circle_crossings,
    curve_identity_polynomials,
    mahler_measure,
)
from ellreg.special import gauss_legendre_nodes
from ellreg.verify import VerifyConfig, run_mahler

from reference_routes import _trimmed, one_variable_measure

X = BivariatePolynomial([[0], [1]])
Y = BivariatePolynomial([[0, 1]])
ONE = BivariatePolynomial([[1]])


@pytest.fixture(scope="module")
def identity_report():
    """The verify rows of the three measures, by name, and L(E, 2)."""
    config = VerifyConfig()
    rows = {r.check: r for r in run_mahler(config)}
    return rows, config.context.l_two


def test_trivial_measures():
    assert abs(mahler_measure(X)) < 1e-12
    assert abs(mahler_measure(Y)) < 1e-12
    assert mahler_measure(BivariatePolynomial([[2]])) == pytest.approx(
        math.log(2.0), rel=1e-13)
    assert mahler_measure(BivariatePolynomial([[-3]])) == pytest.approx(
        math.log(3.0), rel=1e-13)
    five_xy = BivariatePolynomial([[0, 0], [0, 5]])
    assert mahler_measure(five_xy) == pytest.approx(math.log(5.0), rel=1e-12)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        BivariatePolynomial([[0]])
    with pytest.raises(ValueError):
        BivariatePolynomial(np.zeros((2, 3)))


def same(p, q):
    """Equal polynomials: the same trimmed coefficient matrix."""
    return np.array_equal(p.coeffs, q.coeffs)


def test_polynomial_algebra_and_trimming():
    prod = (X + ONE) * (Y + ONE)
    assert same(prod, BivariatePolynomial([[1, 1], [1, 1]]))
    assert prod.deg_x == 1 and prod.deg_y == 1
    padded = BivariatePolynomial([[1, 0, 0], [0, 0, 0]])
    assert padded.coeffs.shape == (1, 1)
    assert same(X.reciprocal_x(), ONE)
    first, _ = curve_identity_polynomials()
    assert same(first, BivariatePolynomial([[1, 2, 1], [2, 4, 1], [1, 1, 0]]))
    assert same(first.reciprocal_x(), BivariatePolynomial(
        [[1, 1, 0], [2, 4, 1], [1, 2, 1]]))


def test_sparse_parser():
    p = BivariatePolynomial.from_string("X Y: 1, Y^2: -3, 1: 2")
    assert same(p, BivariatePolynomial([[2, 0, -3], [0, 1, 0]]))
    assert same(BivariatePolynomial.from_string("X^2: 1"), X * X)
    accumulated = BivariatePolynomial.from_string("X: 1, X: 2")
    assert same(accumulated, BivariatePolynomial([[0], [3]]))
    for bad in ("", ": 3", "X^-2: 1", "Z: 1", "X^2 + Y", "X: 1.5"):
        with pytest.raises(ValueError):
            BivariatePolynomial.from_string(bad)


def test_string_roundtrip():
    for p in curve_identity_polynomials():
        assert same(BivariatePolynomial.from_string(str(p)), p)


def test_degenerate_inner_polynomial_is_loud():
    # (X - 1)(Y + 1) vanishes for every Y at X = 1, the node u = 0.  Its
    # inner measure there is refused; its crossing indicator reads 1.
    poly = BivariatePolynomial([[-1, -1], [1, 1]])
    with pytest.raises(RuntimeError, match="vanishes identically"):
        _inner_measures(poly, np.array([0.25, 0.0]))
    assert _crossing_indicators(poly, np.array([0.0, 0.25]))[0] == 1.0


def test_height_one_line_matches_dirichlet_value():
    # m(1 + X + Y) equals (3 sqrt(3) / 4 pi) L(chi, 2) for the odd
    # quadratic character mod 3; the right side by direct summation.
    n = np.arange(1.0, 3_000_001.0)
    chi = np.zeros_like(n)
    chi[0::3] = 1.0
    chi[1::3] = -1.0
    lval = float(np.sum(chi / (n * n)))
    target = 3.0 * math.sqrt(3.0) / (4.0 * math.pi) * lval
    got = mahler_measure(BivariatePolynomial([[1, 1], [1, 0]]))
    assert got == pytest.approx(target, abs=1e-10)


def test_torus_grid_oracle():
    first, _ = curve_identity_polynomials()
    m = 600
    angles = np.exp(2j * math.pi * (np.arange(m) + 0.5) / m)
    vx = np.vander(angles, first.deg_x + 1, increasing=True)
    vy = np.vander(angles, first.deg_y + 1, increasing=True)
    values = vx @ first.coeffs.astype(complex) @ vy.T
    brute = float(np.mean(np.log(np.abs(values))))
    assert mahler_measure(first) == pytest.approx(brute, abs=1e-3)


def test_multiplicativity():
    rng = np.random.default_rng(7)
    factors = [X + Y + ONE, BivariatePolynomial([[2], [1]])]
    while len(factors) < 5:
        mat = rng.integers(-3, 4, size=(2, 2))
        if mat.any():
            factors.append(BivariatePolynomial(mat))
    for k in range(len(factors) - 1):
        p, q = factors[k], factors[k + 1]
        lhs = mahler_measure(p * q)
        rhs = mahler_measure(p) + mahler_measure(q)
        assert abs(lhs - rhs) < 1e-8


def test_nonnegative_with_leading_coefficient_bound():
    rng = np.random.default_rng(11)
    polys = [curve_identity_polynomials()[0]]
    while len(polys) < 4:
        mat = rng.integers(-4, 5, size=(3, 2))
        if mat.any():
            polys.append(BivariatePolynomial(mat))
    for p in polys:
        m = mahler_measure(p)
        assert m > -1e-9
        lead_column = p.coeffs[:, p.deg_y]
        top = lead_column[np.nonzero(lead_column)[0].max()]
        assert m > math.log(abs(top)) - 1e-8


def test_doubling_outer_nodes_is_stable(monkeypatch):
    polys = curve_identity_polynomials()
    at_base = [mahler_measure(p) for p in polys]
    monkeypatch.setattr(mahler, "BASE_NODES", 2 * mahler.BASE_NODES)
    for p, m in zip(polys, at_base):
        assert abs(m - mahler_measure(p)) < 1e-9


def test_curve_identities(identity_report):
    rows, l_two = identity_report
    first, second = rows["mahler:first"], rows["mahler:second"]
    assert first.passed and first.error < 1e-6
    assert second.passed and second.error < 1e-6
    assert rows["mahler:reciprocal"].error < 1e-8
    assert first.seconds + second.seconds < 60.0
    assert first.left.real / l_two == pytest.approx(77.0 / (4 * math.pi**2),
                                                    rel=1e-10)
    assert second.left.real / l_two == pytest.approx(55.0 / (4 * math.pi**2),
                                                     rel=1e-10)


def _mahler_reference(poly, kinks):
    """m(poly) by mpmath.quad at 30 digits over Jensen's formula, with
    mpmath.polyroots at each node, split at the kinks.

    The coefficients are real, so the inner measure at u and 1 - u is the
    same, and twice the integral over [0, 1/2] is m.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def inner(u):
            x = mpmath.expjpi(2 * u)
            c = [sum(int(poly.coeffs[i, j]) * x ** i
                     for i in range(poly.deg_x + 1))
                 for j in range(poly.deg_y + 1)]
            roots = mpmath.polyroots(c[::-1], maxsteps=200, extraprec=60)
            return mpmath.log(abs(c[-1])) + sum(
                mpmath.log(max(1, abs(r))) for r in roots)

        half = mpmath.mpf(1) / 2
        cuts = sorted(mpmath.mpf(k) for k in kinks if 0 < k < 0.5)
        return 2 * mpmath.quad(inner, [0] + cuts + [half])


def test_identity_measures_match_a_30_digit_reference():
    # The second polynomial has the double root Y = -1 at X = 1, a
    # square-root kink at both ends of its one interval.
    for poly in curve_identity_polynomials():
        kinks = set()
        for j in range(poly.deg_y + 1):
            kinks.update(_column_circle_arguments(poly.coeffs[:, j]))
        kinks.update(_unit_circle_crossings(poly))
        quad = {}
        got = mahler_measure(poly, quadrature=quad)
        assert quad["cut_points"] == len(kinks - {0.0, 1.0})
        want = _mahler_reference(poly, kinks)
        assert abs(got - want) <= 1e-13 * abs(want)


def _scalar_inner_measure(poly, u):
    return one_variable_measure(poly.y_coefficients(cmath.exp(2j * math.pi * u)))


def test_batched_inner_measure_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for poly in curve_identity_polynomials():
        # The kinks of the integrand: where the Y-degree drops, where a
        # root crosses the unit circle, and u = 0 = 1, where the second
        # polynomial has the double root Y = -1.
        kinks = {0.0, 0.5, 1.0}
        for j in range(poly.deg_y + 1):
            kinks.update(_column_circle_arguments(poly.coeffs[:, j]))
        kinks.update(_unit_circle_crossings(poly))
        offsets = 10.0 ** rng.uniform(-9.0, -6.0, 16) * rng.choice([-1.0, 1.0], 16)
        near = [k + d for k in sorted(kinks) for d in offsets if 0.0 <= k + d <= 1.0]
        us = np.concatenate([near, rng.random(200 - len(near))])
        got = _inner_measures(poly, us)
        want = [_scalar_inner_measure(poly, u) for u in us]
        assert np.max(np.abs(got - want)) <= 1e-14


def test_batched_newton_step_keeps_the_acceptance_rule():
    # Within 1e-6 of the double root the Newton step divides a rounding
    # residual by a small slope.  At about 2% of such nodes the step
    # raises |P| and the rule rejects it; taking it there moves the
    # measure by up to 5e-13.
    _, second = curve_identity_polynomials()
    us = 10.0 ** np.random.default_rng(6).uniform(-9.0, -6.0, 2000)
    got = _inner_measures(second, us)
    want = [_scalar_inner_measure(second, u) for u in us]
    assert np.max(np.abs(got - want)) <= 1e-14


def _scalar_indicators(poly, us):
    """The crossing indicators one node at a time: the product of
    |root| - 1 over the companion roots of each trimmed row, or 1 for a
    row constant in Y.

    The nodes x are the batched route's, and y_coefficients rounds each
    row the same alone as in a batch.  Near a crossing the indicator's
    sign is that rounding, and the bisection follows the sign.
    """
    out = []
    for x in np.exp(2j * math.pi * us):
        c = _trimmed(poly.y_coefficients(x))
        out.append(1.0 if len(c) == 1 else
                   float(np.prod(np.abs(_companion_roots(c[None])) - 1.0)))
    return np.array(out)


def test_node_rows_do_not_depend_on_their_batch():
    # A product of the powers of x with the coefficient matrix rounded 196
    # of these 1,000 rows differently in one call than one at a time.
    poly = BivariatePolynomial([[2, 1, 1], [-1, 3, 0], [1, 0, -2]])
    xs = np.exp(2j * math.pi * np.random.default_rng(7).random(1000))
    rows = poly.y_coefficients(xs)
    assert np.array_equal(rows, [poly.y_coefficients(x) for x in xs])


SIX_CROSSINGS = BivariatePolynomial([[1, 1, 1], [1, 0, 0], [1, 0, 0]])


def test_batched_crossing_scan_matches_scalar_scan(monkeypatch):
    polys = [BivariatePolynomial([[1, 1], [1, 0]]),
             BivariatePolynomial([[1, -1], [0, 1]]),
             BivariatePolynomial([[2, 1, 1], [-1, 3, 0], [1, 0, -2]]),
             SIX_CROSSINGS, *curve_identity_polynomials()]
    batched = [_unit_circle_crossings(p) for p in polys]
    assert batched[0] and batched[2] and len(batched[3]) == 6
    monkeypatch.setattr(mahler, "_crossing_indicators", _scalar_indicators)
    assert [_unit_circle_crossings(p) for p in polys] == batched


def test_crossing_bisection_is_one_solve_per_step(monkeypatch):
    # One solve for the grid and one per bisection step.  A bisection of
    # one bracket at a time took 121 here, for two brackets, and 345 for
    # the six of 1 + X + X^2 + Y + Y^2.
    calls = []
    real_eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(len(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    poly = BivariatePolynomial([[2, 1, 1], [-1, 3, 0], [1, 0, -2]])
    assert len(_unit_circle_crossings(poly)) == 2
    assert len(calls) <= 61
    calls.clear()
    assert len(_unit_circle_crossings(SIX_CROSSINGS)) == 6
    assert len(calls) <= 61


def test_zero_leading_coefficient_row_is_cut_to_its_degree(monkeypatch):
    # (X - 1) Y + 1 loses its Y term at u = 0, a point of the crossing
    # grid: that row is cut to its constant, and the others go to _jensen
    # as one stack.
    poly = BivariatePolynomial([[1, -1], [0, 1]])
    calls = []
    real_jensen = mahler._jensen

    def counted(rows):
        calls.append(rows.shape)
        return real_jensen(rows)

    monkeypatch.setattr(mahler, "_jensen", counted)
    us = np.array([0.0, 0.25, 0.6])
    got = _inner_measures(poly, us)
    assert calls == [(2, 2)]
    assert got[0] == 0.0
    assert np.max(np.abs(got - [_scalar_inner_measure(poly, u) for u in us])) <= 1e-14
    assert _crossing_indicators(poly, np.array([0.0]))[0] == 1.0
    assert _scalar_indicators(poly, np.array([0.0]))[0] == 1.0
    # m(1 - Y + XY) = m(1 + X + Y) = 0.32306594721945051409... (mpmath,
    # 30 digits).
    m = mahler_measure(poly)
    assert m == pytest.approx(0.3230659472194505, abs=1e-13)
    assert abs(m - 0.32306594721945051409) <= 1e-15


def test_gauss_legendre_nodes_are_cached_and_read_only():
    x, w = gauss_legendre_nodes(24)
    assert gauss_legendre_nodes(24)[0] is x
    xs, ws = gauss_legendre_nodes(24, 0.25, 0.5)
    for arr in (x, w, xs, ws):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert np.allclose(xs, 0.375 + 0.125 * x) and np.allclose(ws, 0.125 * w)


def test_quadrature_stays_batched(monkeypatch):
    # A call count, not a timer: a return to one np.roots per node makes
    # about 9,600 calls on the second polynomial.
    counts = {"roots": 0, "eigvals": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np, "roots", counting("roots", np.roots))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    _, second = curve_identity_polynomials()
    mahler_measure(second)
    assert counts["roots"] <= 1000
    assert counts["eigvals"] >= 1


def test_identity_rows_report_the_quadrature_that_ran(identity_report):
    rows, _ = identity_report
    for key in ("first", "second", "reciprocal"):
        row = rows["mahler:" + key]
        assert row.truncation["abs_tol"] == 1e-13
        assert row.truncation["outer_nodes"] == 24
        assert row.truncation["cut_points"] >= 0
        assert row.truncation["outer_panels"] >= 1
        assert row.seconds > 0.0
    # The first polynomial loses its Y^2 term at X = -1 and its
    # reciprocal does too; the second keeps its degree on the circle.
    assert rows["mahler:first"].truncation["cut_points"] == 1
    assert rows["mahler:reciprocal"].truncation["cut_points"] == 1
    assert rows["mahler:second"].truncation["cut_points"] == 0


def test_identity_checks_use_the_given_l_value(monkeypatch):
    import ellreg.lseries as lseries
    import ellreg.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("the context holds the newform")

    # The three measures go through the public mahler_measure, where a
    # profiler or tracer that wraps it sees them.
    measured = []

    def counted(*args, **kwargs):
        measured.append(args[0])
        return mahler_measure(*args, **kwargs)

    config = VerifyConfig()
    config.context.form  # the one newform, built before the guard
    config.context.l_two = 2.0
    for module in (verify, lseries):
        monkeypatch.setattr(module, "newform_from_curve", refuse)
    monkeypatch.setattr(mahler, "mahler_measure", counted)
    rows = {r.check: r for r in run_mahler(config)}
    assert rows["mahler:first"].right == (77.0 / (4.0 * math.pi ** 2)) * 2.0
    assert rows["mahler:second"].right == (55.0 / (4.0 * math.pi ** 2)) * 2.0
    first, second = curve_identity_polynomials()
    assert [p.coeffs.tolist() for p in measured] == [
        p.coeffs.tolist() for p in (first, second, first.reciprocal_x())]


def test_power_of_y_is_divided_out(monkeypatch):
    # m(Y^k P) = m(P): Y^k is part of the content in X, which the
    # quadrature never sees.
    calls = []
    real_roots = np.roots

    def counting(*args, **kwargs):
        calls.append(1)
        return real_roots(*args, **kwargs)

    monkeypatch.setattr(np, "roots", counting)
    divisible = mahler_measure(Y + X * Y + Y * Y)
    assert len(calls) <= 1000
    assert abs(divisible - mahler_measure(ONE + X + Y)) <= 1e-15
    assert mahler_measure(Y * Y * (X + Y + ONE)) == divisible


def _adaptive_panel(f, a, b, nodes, tol, depth=0):
    """The depth-first reference: integral of the vectorized f over
    [a, b], the panels it took, one call of f per panel, and the sum of
    their |fine - coarse|."""
    xc, wc = gauss_legendre_nodes(nodes, a, b)
    xf, wf = gauss_legendre_nodes(2 * nodes, a, b)
    values = f(np.concatenate([xc, xf]))
    coarse = float(wc @ values[:nodes])
    fine = float(wf @ values[nodes:])
    if abs(fine - coarse) <= tol or (b - a) < 1e-9:
        return fine, 1, abs(fine - coarse)
    if depth >= 48:
        raise RuntimeError("outer quadrature failed to converge on [%g, %g]"
                           % (a, b))
    mid = 0.5 * (a + b)
    half = 0.5 * tol
    left, left_panels, left_gap = _adaptive_panel(f, a, mid, nodes, half,
                                                  depth + 1)
    right, right_panels, right_gap = _adaptive_panel(f, mid, b, nodes, half,
                                                     depth + 1)
    return left + right, left_panels + right_panels, left_gap + right_gap


def _depth_first_panels(f, intervals, nodes, tols):
    done = [_adaptive_panel(f, a, b, nodes, tol)
            for (a, b), tol in zip(intervals, tols)]
    return ([value for value, _, _ in done], sum(used for _, used, _ in done),
            sum(gap for _, _, gap in done))


def test_level_batched_panels_match_the_depth_first_recursion(monkeypatch):
    first, second = curve_identity_polynomials()
    polys = [first, second, first.reciprocal_x(), second.reciprocal_x(),
             BivariatePolynomial([[1, 1], [1, 0]]),
             BivariatePolynomial([[1, -1], [0, 1]]),
             BivariatePolynomial([[2, 1, 1], [-1, 3, 0], [1, 0, -2]])]
    calls = []
    real_inner = mahler._inner_measures

    def counted(poly, us):
        calls.append(len(us))
        return real_inner(poly, us)
    monkeypatch.setattr(mahler, "_inner_measures", counted)

    gaps = []

    def measured():
        out = []
        for poly in polys:
            quad = {}
            out.append((mahler_measure(poly, quadrature=quad),
                        quad["outer_panels"]))
            gaps.append(quad["outer_gap"])
        return out
    batched = measured()
    calls.clear()
    mahler_measure(second)
    # One call per refinement level: 3, against 7 for one per panel.
    assert len(calls) < 40
    monkeypatch.setattr(mahler, "_adaptive_panels", _depth_first_panels)
    assert measured() == batched
    # The two orders add the same panel gaps.
    n = len(polys)
    assert gaps[n:] == pytest.approx(gaps[:n], rel=1e-12, abs=0.0)
    assert [panels for _, panels in batched][:3] == [4, 4, 4]


def test_outer_work_is_bounded(monkeypatch):
    evaluated = []
    real_inner = mahler._inner_measures

    def counted(poly, us):
        evaluated.append(len(us))
        return real_inner(poly, us)
    monkeypatch.setattr(mahler, "_inner_measures", counted)
    # A double root on the unit circle inside a cut interval refines 31
    # levels deep, yet returns inside the budget, at the torus average.
    double = BivariatePolynomial.from_string(
        "Y: 1, X: 1, X Y: -3, X Y^2: 1, X^2 Y: 1")
    got = mahler_measure(double)
    # It takes 12,024 nodes, more than the budget tried below.
    assert 10_000 < sum(evaluated) <= mahler.MAX_OUTER_NODES
    m = 2000
    angles = np.exp(2j * math.pi * (np.arange(m) + 0.5) / m)
    vx = np.vander(angles, double.deg_x + 1, increasing=True)
    vy = np.vander(angles, double.deg_y + 1, increasing=True)
    brute = np.mean(np.log(np.abs(vx @ double.coeffs.astype(complex) @ vy.T)))
    assert got == pytest.approx(brute, abs=1e-5)
    # Below what it takes, the same quadrature stops at the budget,
    # without a value.
    monkeypatch.setattr(mahler, "MAX_OUTER_NODES", 10_000)
    evaluated.clear()
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="budget of 10000 nodes"):
        mahler_measure(double)
    assert sum(evaluated) <= 10_000
    assert time.perf_counter() - start < 30.0


def _reference(log_scale, smyth):
    """log_scale(mpmath) + smyth m(1 + X + Y) at 30 digits, where
    m(1 + X + Y) = (3 sqrt(3) / 4 pi) L(chi_-3, 2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        third = mpmath.mpf(1) / 3
        return log_scale(mpmath) + smyth * (
            3 * mpmath.sqrt(3) / (4 * mpmath.pi)
            * (mpmath.zeta(2, third) - mpmath.zeta(2, 2 * third)) / 9)


@pytest.mark.parametrize("text, log_scale, smyth", [
    ("X: 1, 1: 1", lambda mp: 0, 0),
    ("X Y: 1, X: 1, Y: 1, 1: 1", lambda mp: 0, 0),
    # (X + Y + 1) times X + 1, X - 1 and (X + 1)(Y + 1).
    ("X^2: 1, X Y: 1, X: 2, Y: 1, 1: 1", lambda mp: 0, 1),
    ("X^2: 1, X Y: 1, Y: -1, 1: -1", lambda mp: 0, 1),
    ("X^2 Y: 1, X^2: 1, X Y^2: 1, X Y: 3, X: 2, Y^2: 1, Y: 2, 1: 1",
     lambda mp: 0, 1),
    # (2X + 1)(3Y + 2) Y^2 (X + Y + 1): the contents 2X + 1 and 3Y + 2,
    # of measures log 2 and log 3, and Y^2.
    ("X^2 Y^3: 6, X^2 Y^2: 4, X Y^4: 6, X Y^3: 13, X Y^2: 6, Y^4: 3, "
     "Y^3: 5, Y^2: 2", lambda mp: mp.log(6), 1),
    # (X^2 + X + 1)(Y^2 - 3Y + 1)(X + Y + 1): contents of degree 2, one
    # with its roots on the unit circle, one with the root phi^2 outside.
    ("X^3 Y^2: 1, X^3 Y: -3, X^3: 1, X^2 Y^3: 1, X^2 Y^2: -1, X^2 Y: -5, "
     "X^2: 2, X Y^3: 1, X Y^2: -1, X Y: -5, X: 2, Y^3: 1, Y^2: -2, Y: -2, "
     "1: 1", lambda mp: 2 * mp.log(mp.phi), 1),
    # An integer content stays with the quadrature: 6 (X + Y + 1).
    ("X: 6, Y: 6, 1: 6", lambda mp: mp.log(6), 1),
])
def test_one_variable_factors_are_split_off(text, log_scale, smyth):
    # A factor of one variable with a root on the unit circle vanishes on
    # a whole line of the torus; left in the quadrature, (X+Y+1)(X+1)(Y+1)
    # refined until it stopped at the budget.
    poly = BivariatePolynomial.from_string(text)
    want = _reference(log_scale, smyth)
    assert abs(mahler_measure(poly) - want) <= 1e-15
