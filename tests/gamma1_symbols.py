"""The Gamma_1 modular-symbol machinery that only the tests use.

Sparse combinations of order-N symbols, the T_2 and diamond actions on
them, the boundary map, and the two- and three-term relation quotient
with its cuspidal part and the T_2 matrix on it, by exact rational
linear algebra in sympy.  The verifier's own symbols are the period
tables of modsym; these stay here as the exact reference for the
symbol relations until the Gamma_0(p) integer elimination replaces
them.
"""

import math
from functools import lru_cache

from ellreg.modsym import SymbolIndex, cusp_class_of, cusp_classes

from reference_routes import SIGMA, TAU_MAT, enumerate_symbols, symbol_act


class SymbolVector:
    """Sparse formal combination of order-N symbols."""

    def __init__(self, level: int, weights: dict | None = None):
        self.level = level
        self.weights = {}
        for key, value in (weights or {}).items():
            if not isinstance(key, SymbolIndex):
                key = SymbolIndex(level, *key)
            if key.level != level:
                raise ValueError("mixed levels in symbol vector")
            if value != 0:
                self.weights[key] = self.weights.get(key, 0) + value

    @classmethod
    def delta(cls, level: int, pair) -> "SymbolVector":
        return cls(level, {pair: 1})

    def __add__(self, other: "SymbolVector") -> "SymbolVector":
        if other.level != self.level:
            raise ValueError("mixed levels")
        merged = dict(self.weights)
        for key, value in other.weights.items():
            merged[key] = merged.get(key, 0) + value
        return SymbolVector(self.level, merged)

    def scaled(self, s) -> "SymbolVector":
        return SymbolVector(self.level,
                            {k: s * v for k, v in self.weights.items()})

    def items(self):
        return sorted(self.weights.items(),
                      key=lambda kv: (kv[0].u, kv[0].v))

    def __eq__(self, other):
        return (isinstance(other, SymbolVector)
                and self.level == other.level
                and self.weights == other.weights)

    def __repr__(self):
        return "SymbolVector(%d, %r)" % (
            self.level, {(k.u, k.v): v for k, v in self.items()})


def _maybe_symbol(level: int, u: int, v: int):
    u %= level
    v %= level
    if math.gcd(math.gcd(u, v), level) != 1:
        return None
    return SymbolIndex(level, u, v)


def hecke_t2(vec: SymbolVector) -> SymbolVector:
    """Four-term T_2 image, with pairs of smaller order contributing 0."""
    n = vec.level
    out = {}
    for x, c in vec.weights.items():
        u, v = x.u, x.v
        for iu, iv in ((2 * u, v), (u, 2 * v), (2 * u, u + v),
                       (u + v, 2 * v)):
            image = _maybe_symbol(n, iu, iv)
            if image is not None:
                out[image] = out.get(image, 0) + c
    return SymbolVector(n, out)


def diamond(d: int, vec: SymbolVector) -> SymbolVector:
    """Diamond action [u, v] -> [du, dv] for a unit d."""
    n = vec.level
    if math.gcd(d, n) != 1:
        raise ValueError("%d is not a unit mod %d" % (d, n))
    return SymbolVector(
        n, {SymbolIndex(n, d * x.u, d * x.v): c
            for x, c in vec.weights.items()})


def boundary(vec: SymbolVector) -> dict:
    """Difference of end cusps, [x] - [x sigma], extended linearly."""
    out = {}
    for x, c in vec.weights.items():
        for cls, s in ((cusp_class_of(x), c),
                       (cusp_class_of(symbol_act(x, SIGMA)), -c)):
            out[cls] = out.get(cls, 0) + s
            if out[cls] == 0:
                del out[cls]
    return out


@lru_cache(maxsize=None)
def _symbol_space(level: int):
    from sympy import Matrix  # loaded only when exact algebra is asked for

    symbols = enumerate_symbols(level)
    reps = []
    rep_index = {}
    def key(x):  # the least of x and -x
        return min((x.u, x.v), (-x.u % level, -x.v % level))

    for x in symbols:
        if key(x) not in rep_index:
            rep_index[key(x)] = len(reps)
            reps.append(SymbolIndex(level, *key(x)))

    def idx(x):
        return rep_index[key(x)]

    rel_rows = []
    for x in reps:
        row = [0] * len(reps)
        row[idx(x)] += 1
        row[idx(symbol_act(x, SIGMA))] += 1
        rel_rows.append(row)
        row = [0] * len(reps)
        row[idx(x)] += 1
        row[idx(symbol_act(x, TAU_MAT))] += 1
        row[idx(symbol_act(symbol_act(x, TAU_MAT), TAU_MAT))] += 1
        rel_rows.append(row)

    classes = cusp_classes(level)
    class_index = {c.pair: i for i, c in enumerate(classes)}
    bnd_rows = []
    for x in reps:
        row = [0] * len(classes)
        row[class_index[cusp_class_of(x).pair]] += 1
        row[class_index[cusp_class_of(symbol_act(x, SIGMA)).pair]] -= 1
        bnd_rows.append(row)

    relations = Matrix(rel_rows)
    bnd = Matrix(bnd_rows)  # maps symbol coordinates to cusp coordinates
    if relations * bnd != Matrix.zeros(relations.rows, bnd.cols):
        raise RuntimeError("relation vectors do not stay in the kernel "
                           "of the boundary map")
    return symbols, reps, idx, relations, bnd, classes


def relation_quotient_dims(level: int):
    """(dimension of the relation quotient, cuspidal dimension)."""
    _, reps, _, relations, bnd, _ = _symbol_space(level)
    quotient = len(reps) - relations.rank()
    cuspidal = (len(reps) - bnd.rank()) - relations.rank()
    return quotient, cuspidal


def cuspidal_hecke_t2_matrix(level: int):
    """Exact sympy matrix of T_2 on the cuspidal relation quotient."""
    from sympy import Matrix

    _, reps, idx, relations, bnd, _ = _symbol_space(level)
    nreps = len(reps)

    # Coordinates on the quotient by the relation span: kill the pivot
    # coordinates of the row-reduced relation matrix.
    rref, pivots = relations.rref()
    free = [j for j in range(nreps) if j not in pivots]

    def reduce_vec(col: Matrix) -> Matrix:
        out = col[:, :]
        for r, j in enumerate(pivots):
            coeff = out[j, 0]
            if coeff != 0:
                out -= coeff * rref[r, :].T
        return Matrix([out[j, 0] for j in free])

    def t2_column(x: SymbolIndex) -> Matrix:
        col = [0] * nreps
        vec = hecke_t2(SymbolVector.delta(x.level, (x.u, x.v)))
        for y, c in vec.weights.items():
            col[idx(y)] += c
        return Matrix(col)

    t2_quotient = Matrix.hstack(
        *[reduce_vec(t2_column(reps[j])) for j in free])

    # Boundary map expressed on the quotient coordinates.
    bnd_quotient = Matrix.vstack(*[bnd[j, :] for j in free]).T
    kernel = bnd_quotient.nullspace()
    if not kernel:
        return Matrix.zeros(0, 0)
    basis = Matrix.hstack(*kernel)
    image = t2_quotient * basis
    # Solve basis * A = image exactly; the action preserves the kernel.
    sol = basis.solve_least_squares(image)
    if basis * sol != image:
        raise RuntimeError("T_2 did not preserve the cuspidal subspace")
    return sol
