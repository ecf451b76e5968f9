"""Logarithmic Mahler measure of two-variable integer polynomials.

m(P) is the average of log |P| over the unit torus.  P's factors of one
variable, its contents in Y and in X, are measured by Jensen's formula.
For the rest, the inner average over Y is a one-variable Mahler measure
by Jensen's formula, with the roots of P(x, Y) at every node x from one
stacked companion solve; the outer average over x on the unit circle
uses Gauss-Legendre panels split wherever a root of P(x, .) crosses the
unit circle or the Y-degree drops, because the integrand has kinks
exactly at those points.  Each cut interval is graded toward both ends,
which makes a square-root kink there analytic.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .special import ABS_TOL, TWO_PI, gauss_legendre_nodes

CROSSING_GRID = 1024  # steps on [0, 1] of the crossing scan's sign test
BASE_NODES = 24  # nodes of each outer panel's coarse rule, half the fine's
# The most inner measures one outer quadrature evaluates: about 8 times
# what a double root on the unit circle inside a cut interval takes.
MAX_OUTER_NODES = 100_000

_TERM = re.compile(
    r"^\s*(?:(1)|(X(?:\^(\d+))?)?\s*\*?\s*(Y(?:\^(\d+))?)?)\s*:\s*([+-]?\d+)\s*$")


class BivariatePolynomial:
    """Integer polynomial sum c[i][j] X^i Y^j with a trimmed coefficient matrix."""

    def __init__(self, coeffs):
        try:
            arr = np.array(coeffs, dtype=np.int64)
        except OverflowError:
            raise ValueError("a coefficient does not fit in 64 bits") from None
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("coefficients must form a matrix")
        if not arr.any():
            raise ValueError("the zero polynomial has no Mahler measure")
        while arr.shape[0] > 1 and not arr[-1].any():
            arr = arr[:-1]
        while arr.shape[1] > 1 and not arr[:, -1].any():
            arr = arr[:, :-1]
        self.coeffs = arr

    @property
    def deg_x(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg_y(self) -> int:
        return self.coeffs.shape[1] - 1

    def y_coefficients(self, x) -> np.ndarray:
        """Coefficients of P(x, Y) in Y, ascending: a row for each point
        of an array x, by _horner in X, so that no row depends on the
        others."""
        x = np.asarray(x)
        rows = np.empty((self.deg_y + 1, x.size), dtype=complex)
        rows[:] = _horner(self.coeffs.T, x.reshape(1, -1))  # X-degree 0 too
        return rows.T.reshape(x.shape + (self.deg_y + 1,))

    def reciprocal_x(self) -> "BivariatePolynomial":
        """X^degX * P(1/X, Y), the reversal in the first variable."""
        return BivariatePolynomial(self.coeffs[::-1])

    def terms(self):
        for i, j in zip(*np.nonzero(self.coeffs)):
            yield (int(i), int(j)), int(self.coeffs[i, j])

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = np.zeros(np.maximum(self.coeffs.shape, other.coeffs.shape),
                       dtype=np.int64)
        out[:self.coeffs.shape[0], :self.coeffs.shape[1]] += self.coeffs
        out[:other.coeffs.shape[0], :other.coeffs.shape[1]] += other.coeffs
        return BivariatePolynomial(out)

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = np.zeros((self.deg_x + other.deg_x + 1,
                        self.deg_y + other.deg_y + 1), dtype=np.int64)
        for (i, j), c in self.terms():
            out[i:i + other.deg_x + 1, j:j + other.deg_y + 1] += c * other.coeffs
        return BivariatePolynomial(out)

    def __str__(self) -> str:
        def monomial(i, j):
            parts = []
            if i:
                parts.append("X" if i == 1 else "X^%d" % i)
            if j:
                parts.append("Y" if j == 1 else "Y^%d" % j)
            return " ".join(parts) if parts else "1"

        return ", ".join("%s: %d" % (monomial(i, j), c)
                         for (i, j), c in self.terms())

    @classmethod
    def from_string(cls, text: str) -> "BivariatePolynomial":
        """Parse comma-separated 'X^i Y^j: c' terms; '1: c' is the constant.

        Either variable factor may be omitted and '^1' may be dropped, so
        'X Y: 1, Y^2: -3, 1: 2' reads as XY - 3Y^2 + 2.  Repeated
        monomials accumulate.
        """
        parts = [p for p in re.split(r"[,;\n]", text) if p.strip()]
        if not parts:
            raise ValueError("empty polynomial specification")
        entries = {}
        for part in parts:
            mo = _TERM.match(part)
            if mo is None or (mo.group(1) is None and mo.group(2) is None
                              and mo.group(4) is None):
                raise ValueError("cannot parse term %r" % part)
            i = 0 if mo.group(2) is None else int(mo.group(3) or 1)
            j = 0 if mo.group(4) is None else int(mo.group(5) or 1)
            entries[(i, j)] = entries.get((i, j), 0) + int(mo.group(6))
        nx = max(i for i, _ in entries) + 1
        ny = max(j for _, j in entries) + 1
        out = np.zeros((nx, ny), dtype=object)
        for (i, j), c in entries.items():
            out[i, j] = c
        return cls(out)


def _column_circle_arguments(col: np.ndarray) -> list:
    """Arguments u of unit-circle roots of an ascending x-coefficient row."""
    c = np.trim_zeros(np.asarray(col, dtype=float), "b")
    return [(cmath.phase(r) / TWO_PI) % 1.0 for r in np.roots(c[::-1])
            if abs(abs(r) - 1.0) < 1e-9] if len(c) > 1 else []


def _companion_roots(rows: np.ndarray) -> np.ndarray:
    """Roots of every ascending coefficient row, one row of roots each.

    One eigenvalue solve over the stack of the companion matrices that
    np.roots builds, so each row gets the roots np.roots gives it.
    """
    count, width = rows.shape
    monic = rows / rows[:, -1:]
    companion = np.zeros((count, width - 1, width - 1), dtype=complex)
    companion[:, 0, :] = -monic[:, -2::-1] / monic[:, -1:]
    sub = np.arange(width - 2)
    companion[:, sub + 1, sub] = 1.0
    return np.linalg.eigvals(companion)


def _horner(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each ascending coefficient row evaluated at its own row of points.

    The complex products are spelled out in real arithmetic, the rounding
    of numpy's scalar complex product, which the tests' scalar reference
    route evaluates with; the vectorized complex product may fuse them.
    Near a double root the Newton step divides this residual by a small
    slope, so the two routes agree only if the residuals do.
    """
    xr, xi = x.real, x.imag
    accr, acci = rows[:, -1:].real, rows[:, -1:].imag
    for j in range(rows.shape[1] - 2, -1, -1):
        accr, acci = (rows[:, j:j + 1].real + (accr * xr - acci * xi),
                      rows[:, j:j + 1].imag + (accr * xi + acci * xr))
    return accr + 1j * acci


def _jensen(rows: np.ndarray) -> np.ndarray:
    """Jensen's formula, log |c_top| + sum log max(1, |root|), for every
    ascending coefficient row of a stack of Y-degree at least 1 with
    nonzero leading coefficients.

    The roots are the companion roots, each refined by one Newton step
    that is kept only where it lowers |P|.
    """
    roots = _companion_roots(rows)
    value = _horner(rows, roots)
    slope = _horner(rows[:, 1:] * np.arange(1, rows.shape[1]), roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = roots - value / slope
    better = (slope != 0) & (np.abs(_horner(rows, refined)) < np.abs(value))
    roots = np.where(better, refined, roots)
    return np.log(np.abs(rows[:, -1])) + np.sum(
        np.log(np.maximum(1.0, np.abs(roots))), axis=1)


def _by_degree(poly: BivariatePolynomial, us: np.ndarray, solve, constant):
    """A value for the Y-coefficient row of P(e^{2 pi i u}, Y) at every u:
    each row cut after its top nonzero entry, solve on the rows of each
    length from 2 up as one stack, and constant on the others' c_0."""
    rows = poly.y_coefficients(np.exp(2j * math.pi * us))
    lengths = np.max((rows != 0) * np.arange(1, rows.shape[1] + 1), axis=1)
    out = np.empty(len(us))
    for n in np.flatnonzero(np.bincount(lengths)):
        group = lengths == n
        out[group] = (solve(rows[group, :n]) if n > 1
                      else constant(rows[group, 0]))
    return out


def _inner_measures(poly: BivariatePolynomial, us: np.ndarray) -> np.ndarray:
    """The Mahler measure of P(e^{2 pi i u}, Y) at every node u."""
    def constant(c0):
        if not c0.all():
            raise RuntimeError(
                "polynomial vanishes identically at a quadrature node")
        return np.log(np.abs(c0))
    return _by_degree(poly, us, _jensen, constant)


def _crossing_indicators(poly: BivariatePolynomial, us: np.ndarray) -> np.ndarray:
    """prod(|y| - 1) over the roots y of P(e^{2 pi i u}, Y) at every u."""
    return _by_degree(poly, us, lambda rows: np.prod(
        np.abs(_companion_roots(rows)) - 1.0, axis=1), lambda c0: 1.0)


def _unit_circle_crossings(poly: BivariatePolynomial) -> list:
    """The u where a root of P(e^{2 pi i u}, Y) crosses the unit circle:
    the indicator's sign changes on a grid, bisected 60 times together."""
    us = np.linspace(0.0, 1.0, CROSSING_GRID + 1)
    vals = _crossing_indicators(poly, us)
    a, b = vals[:-1], vals[1:]
    skip = (np.minimum(np.abs(a), np.abs(b)) < 1e-13) | (a * b >= 0)
    m = np.flatnonzero(~skip)
    if not len(m):
        return []
    lo, hi, flo = us[m], us[m + 1], a[m]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _crossing_indicators(poly, mid)
        # An exact zero closes its bracket at mid.
        zero, low = fm == 0.0, (fm < 0.0) == (flo < 0.0)
        lo = np.where(low | zero, mid, lo)
        hi = np.where(low & ~zero, hi, mid)
        flo = np.where(low, fm, flo)
    return list(0.5 * (lo + hi))


def _adaptive_panels(f, intervals, nodes: int, tols):
    """Integral of the vectorized f over each interval (a, b) at its
    tolerance, the number of panels they took, and the sum of the
    accepted panels' |fine - coarse|.

    A panel is accepted when its coarse (nodes) and fine (2 nodes)
    Gauss-Legendre values differ by at most its tolerance; otherwise its
    halves, each at half the tolerance, are the next level's panels.  f
    takes the nodes of every open panel of a level, over all intervals,
    in one call, and a split panel's value is the sum of its halves',
    left + right, as a depth-first recursion adds them.  Raises before a
    level would take the nodes evaluated past MAX_OUTER_NODES.
    """
    level = [((i,), a, b, tol)
             for i, ((a, b), tol) in enumerate(zip(intervals, tols))]
    values, splits, panels, gap, depth, evaluated = {}, [], 0, 0.0, 0, 0
    while level:
        evaluated += 3 * nodes * len(level)
        if evaluated > MAX_OUTER_NODES:
            raise RuntimeError(
                "outer quadrature passed its budget of %d nodes with %d "
                "panels open" % (MAX_OUTER_NODES, len(level)))
        rules = [gauss_legendre_nodes(nodes, a, b)
                 + gauss_legendre_nodes(2 * nodes, a, b)
                 for _, a, b, _ in level]
        rows = f(np.concatenate([np.concatenate([xc, xf])
                                 for xc, _, xf, _ in rules]))
        rows = rows.reshape(len(level), 3 * nodes)
        opened = []
        for (key, a, b, tol), (_, wc, _, wf), row in zip(level, rules, rows):
            coarse = float(wc @ row[:nodes])
            fine = float(wf @ row[nodes:])
            # Width floor: near a repeated root on the unit circle the root
            # finder carries sqrt(machine-eps) noise, so refinement below
            # 1e-9 only chases noise while the remaining kink error is
            # already far below tolerance.
            if abs(fine - coarse) <= tol or (b - a) < 1e-9:
                values[key] = fine
                panels += 1
                gap += abs(fine - coarse)
                continue
            if depth >= 48:
                raise RuntimeError("outer quadrature failed to converge on "
                                   "[%g, %g]" % (a, b))
            mid = 0.5 * (a + b)
            splits.append(key)
            opened += [(key + (0,), a, mid, 0.5 * tol),
                       (key + (1,), mid, b, 0.5 * tol)]
        level, depth = opened, depth + 1
    # Deepest splits first, so that both halves are summed before their
    # parent is.
    for key in reversed(splits):
        values[key] = values[key + (0,)] + values[key + (1,)]
    return [values[(i,)] for i in range(len(intervals))], panels, gap


def _graded(f, intervals):
    """f(u) du pulled back, on each interval (a, b), through
    u = a + (b - a) h(t) with t = (s - a) / (b - a) and h(t) = 3t^2 - 2t^3.

    h' = 6t(1 - t) vanishes at both ends, so a square-root kink of f at
    an interval end becomes analytic in s (Davis and Rabinowitz, Methods
    of Numerical Integration, section 2.9), and the integral over s of
    the result over (a, b) is the integral of f over (a, b).
    """
    starts = np.array([a for a, _ in intervals])
    widths = np.array([b - a for a, b in intervals])

    def pulled(s):
        i = np.searchsorted(starts, s, side="right") - 1
        a, w = starts[i], widths[i]
        t = (s - a) / w
        return f(a + w * (t * t * (3.0 - 2.0 * t))) * (6.0 * t * (1.0 - t))

    return pulled


def _gcd(a: list, b: list) -> list:
    """The primitive gcd of integer polynomials a and b, lists of ascending
    ints, b not 0 and a trimmed, by the primitive remainder sequence."""
    while b:
        d = math.gcd(*b)
        b = [x // d for x in b]
        while not b[-1]:
            b.pop()
        while len(a) >= len(b):  # a's pseudo-remainder by b
            shift = len(a) - len(b)
            a = ([b[-1] * x for x in a[:shift]]
                 + [b[-1] * x - a[-1] * y for x, y in zip(a[shift:], b)])
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _divide_content(coeffs: np.ndarray):
    """m(c) by Jensen's formula and the coefficients of P / c, for c the
    content of P in Y: the gcd of its Y-coefficients as polynomials in X.
    Once the running gcd is a constant, c = 1 and P is returned."""
    columns = coeffs.T.tolist()
    c = []
    for col in filter(any, columns):
        c = _gcd(c, col)
        if len(c) == 1:
            return 0.0, coeffs
    quotient = np.zeros_like(coeffs[len(c) - 1:], dtype=object)
    for j, a in enumerate(columns):
        # Long division, exact over Z as c is primitive.
        for k in range(len(a) - len(c), -1, -1):
            quotient[k, j] = q = a[k + len(c) - 1] // c[-1]
            a[k:k + len(c)] = [x - q * y for x, y in zip(a[k:], c)]
    return float(_jensen(np.array([c], dtype=complex))[0]), quotient


def mahler_measure(poly: BivariatePolynomial,
                   quadrature: dict | None = None) -> float:
    """Logarithmic Mahler measure of an integer polynomial in X and Y.

    A dict passed as quadrature receives what the outer quadrature ran:
    outer_nodes and abs_tol, cut_points (the kinks inside (0, 1) that
    split the integral), outer_panels (the Gauss-Legendre panels the
    adaptive rule accepted) and outer_gap (the sum of their
    |fine - coarse|, the error the rule achieved).
    """
    # m(P) = m(c(X)) + m(d(Y)) + m(Q), c the content of P in Y and d that
    # of P / c in X: no factor of one variable reaches the quadrature.
    in_x, coeffs = _divide_content(poly.coeffs)
    in_y, coeffs = _divide_content(coeffs.T)
    poly = BivariatePolynomial(coeffs.T)
    cuts = {0.0, 1.0}
    for j in range(poly.deg_y + 1):
        cuts.update(_column_circle_arguments(poly.coeffs[:, j]))
    cuts.update(_unit_circle_crossings(poly))
    pts = sorted(cuts)
    intervals = [(a, b) for a, b in zip(pts, pts[1:]) if not b - a < 1e-12]
    values, panels, gap = _adaptive_panels(
        _graded(lambda us: _inner_measures(poly, us), intervals), intervals,
        BASE_NODES,
        [max(ABS_TOL * (b - a), ABS_TOL / 64.0) for a, b in intervals])
    total = in_x + in_y
    for value in values:
        total += value
    if quadrature is not None:
        quadrature.update(outer_nodes=BASE_NODES, abs_tol=ABS_TOL,
                          cut_points=len(pts) - 2, outer_panels=panels,
                          outer_gap=gap)
    return total


def curve_identity_polynomials():
    """The two level-11 polynomials whose measures are rational multiples of L(E, 2)."""
    x = BivariatePolynomial([[0], [1]])
    y = BivariatePolynomial([[0, 1]])
    one = BivariatePolynomial([[1]])
    first = (x + y + one) * (x + one) * (y + one) + x * y
    second = BivariatePolynomial([[0, -1, 1], [0, 2, 0], [0, 1, 0], [1, 0, 0]])
    return first, second
