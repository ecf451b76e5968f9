"""Verification suites tying L(E, 2) to geodesic Eisenstein integrals.

Every suite returns a list of CheckReport rows.  Each row compares two
independent evaluations of one identity at an explicit tolerance, so a
suite passes exactly when all of its rows do.  Reports serialize to
plain JSON and round-trip losslessly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .characters import (
    FiniteMap,
    _is_prime,
    character_label,
    character_table,
)
from .eisenstein import (
    ArcTable,
    arc_integral,
    eta_form,
    g_column,
    suggested_rmax,
)
from .elliptic import (
    CURVE_11A,
    CURVE_REGISTRY,
    CurveModel,
    a_p,
    elliptic_dilog,
    periods,
    torsion_coordinate,
)
from .lseries import (
    _term_count,
    l_value,
    newform_from_curve,
    residue_tensor_square,
    root_number,
    twisted_lambda_table,
)
from .mahler import mahler_identity_checks
from .modsym import period_integral_oracle, petersson, xi_bridge_table

TOL_SERIES = 1e-8     # checks that only consume rapidly convergent series
TOL_QUADRATURE = 1e-6  # checks that integrate along geodesics or tori


@dataclass
class CheckReport:
    """One verified identity: two evaluations, an error, a verdict."""

    check: str
    inputs: dict
    left: complex
    right: complex
    abs_err: float
    rel_err: float
    error_kind: str
    error: float
    tolerance: float
    passed: bool
    seconds: float
    truncation: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(asdict(self), left=[self.left.real, self.left.imag],
                    right=[self.right.real, self.right.imag])

    @staticmethod
    def from_dict(data: dict) -> "CheckReport":
        return CheckReport(**dict(
            data, left=complex(*data["left"]), right=complex(*data["right"]),
            inputs=dict(data["inputs"]), truncation=dict(data["truncation"])))


def make_report(check, inputs, left, right, tolerance, seconds,
                truncation=None, error_kind="rel", scale=None) -> CheckReport:
    """Build a report; pass iff error <= tolerance.

    When both sides are numerically zero against the supplied scale the
    relative error is meaningless (the identity degenerates to 0 = 0),
    so the row switches to the absolute error and records that.
    """
    left, right = complex(left), complex(right)
    truncation = dict(truncation or {})
    abs_err = abs(left - right)
    denom = max(abs(left), abs(right))
    rel_err = abs_err / denom if denom > 0.0 else 0.0
    if error_kind == "rel" and scale is not None and denom < 1e-10 * scale:
        error_kind = "abs"
        truncation["degenerate"] = True
    error = rel_err if error_kind == "rel" else abs_err
    return CheckReport(
        check=check, inputs=dict(inputs), left=left, right=right,
        abs_err=abs_err, rel_err=rel_err, error_kind=error_kind, error=error,
        tolerance=tolerance, passed=bool(error <= tolerance),
        seconds=seconds, truncation=truncation)


def reports_to_json(reports) -> str:
    """Serialize reports as a JSON array with stable field names."""
    return json.dumps([r.to_dict() for r in reports], indent=2,
                      sort_keys=True)


def reports_from_json(text: str):
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise ValueError("report file must hold a JSON array of checks")
    return [CheckReport.from_dict(d) for d in payload]


def summarize(reports, wall_s=None, cpu_s=None) -> str:
    """A line per row, then the count that passed and, if given, the
    run's wall and CPU seconds (the CPU of every thread)."""
    lines = ["%s  %-42s %s %.3e <= %.1e  (%.2fs)" % (
        "PASS" if r.passed else "FAIL", r.check, r.error_kind, r.error,
        r.tolerance, r.seconds) for r in reports]
    total = "%d/%d checks passed" % (sum(r.passed for r in reports),
                                     len(reports))
    if wall_s is not None:
        total += " in %.2f s wall, %.2f s CPU" % (wall_s, cpu_s)
    return "\n".join(lines + [total])


@dataclass
class VerifyConfig:
    """Shared knobs for the verification suites; all suites run on one
    config object share its context."""

    curve: CurveModel = CURVE_11A
    level: int = 11
    tolerance: float | None = None
    terms: int = 4000

    @cached_property
    def context(self) -> "CurveContext":
        return CurveContext(self)


def resolve_config(level=None, curve=None, tolerance=None,
                   terms=4000) -> VerifyConfig:
    """Resolve CLI-style arguments into a consistent VerifyConfig."""
    if curve is None:
        wanted = 11 if level is None else level
        by_conductor = {c.conductor: c for c in CURVE_REGISTRY.values()}
        if wanted not in by_conductor:
            raise ValueError(f"no registered curve of conductor {wanted}; "
                             f"known: {sorted(by_conductor)}")
        curve = by_conductor[wanted]
    elif level is not None and curve.conductor != level:
        raise ValueError(
            f"curve conductor {curve.conductor} does not match level {level}")
    disc = curve.discriminant
    if disc == 0:
        raise ValueError("the curve is singular: its discriminant is 0")
    n = curve.conductor
    if not _is_prime(n):
        raise ValueError(f"level {n} must be prime")
    if disc % n:
        raise ValueError(f"conductor {n} does not divide the "
                         f"discriminant {disc}")
    rest = abs(disc)
    while rest % n == 0:
        rest //= n
    if rest != 1:
        raise ValueError(f"discriminant {disc} is not +-{n}^k: the model "
                         f"has bad reduction at a prime other than {n}")
    # With the discriminant +-N^k, N not dividing c4 makes the reduction
    # at N multiplicative, so that the conductor is exactly N.
    c4 = curve.c_invariants[0]
    if c4 % n == 0:
        raise ValueError(f"{n} divides c4 = {c4}: the model has additive "
                         f"reduction at {n} or is not minimal there")
    if terms < 100:
        raise ValueError("need at least 100 series terms")
    if tolerance is not None and not (math.isfinite(tolerance)
                                      and tolerance > 0):
        raise ValueError("tolerance must be positive and finite")
    return VerifyConfig(curve=curve, level=n, tolerance=tolerance,
                        terms=terms)


class CurveContext:
    """The quantities the suites share for one configuration.

    Each is computed on first use and then kept, so a run of every
    suite builds the newform, the twisted table and the rest once.
    Characters are exponents: the arrays below are indexed by k in
    Z/(p - 1), the character chi_k of characters.character_table(p).
    """

    def __init__(self, config: VerifyConfig):
        self.curve, self.p = config.curve, config.level
        self.terms = config.terms
        # The exponents of the even nontrivial and of the odd characters.
        self.evens = np.arange(2, self.p - 1, 2)
        self.odds = np.arange(1, self.p - 1, 2)

    @cached_property
    def form(self):
        return newform_from_curve(self.curve, nmax=self.terms)

    @cached_property
    def w(self) -> complex:
        return root_number(self.form)

    @cached_property
    def lambda_table(self) -> np.ndarray:
        """Lambda(f (x) chi_k, 1) by exponent k; nan at k = 0."""
        return twisted_lambda_table(self.form)

    def lambda_terms(self, *levels) -> dict:
        """The terms lambda_value sums at each level, keyed by its string."""
        return {str(m): _term_count(m, self.form.nmax) for m in levels}

    @cached_property
    def l_one(self):
        """The twisted central values L(f, chi_k, 1); nan at k = 0."""
        return (2.0 * math.pi / self.p) * self.lambda_table

    @cached_property
    def l_two(self) -> float:
        return complex(l_value(self.form, 2.0)).real

    @cached_property
    def dilog(self) -> dict:
        """D_E(aP) for a = 1..4 at the five-torsion point P = (0, 0)."""
        lattice = periods(self.curve)
        point = torsion_coordinate(self.curve, (0, 0), 5)
        return {a: elliptic_dilog(lattice, point.scale(a))
                for a in range(1, 5)}

    @cached_property
    def xi(self):
        return xi_bridge_table(self.form, lambda_table=self.lambda_table)

    @cached_property
    def node_table(self) -> ArcTable:
        return ArcTable(self.p, suggested_rmax(self.p, math.sqrt(3) / 2))

    @cached_property
    def eta_arcs(self):
        """arcs[k, v], the integral of eta_chi_k over the standard arc
        g_v = g_column(v) for v = 0 .. p - 1 (g_0 is sigma) and over the
        identity's arc at v = p, for every even nontrivial k (0 at the
        other k), and the worst node gap among them."""
        p, evens = self.p, self.evens
        chi = character_table(p).values
        # eta_chi pairs chi(a) E*_(0,a) with conj chi(b) E*_(0,b).
        bottom = [(1, v) for v in range(p)] + [(0, 1)]
        values, gaps = self.node_table.integrals(
            bottom, chi[evens], chi[-evens])
        arcs = np.zeros((p - 1, p + 1), dtype=complex)
        arcs[evens] = values.T
        return arcs, gaps.max()

    @cached_property
    def arc_coefficients(self):
        """c[k, j] = tau(conj chi_j) sum_v conj chi_j(v) arcs[k, v].

        The weight is conj(chi_j)(v); this is the pairing that the
        quadrature-validated period bridge forces, and it makes the
        theorem hold at machine precision for every even character at
        p = 11 and 17.
        """
        _, values, tau = character_table(self.p)
        bar = (-np.arange(self.p - 1)) % (self.p - 1)
        arcs, _ = self.eta_arcs
        return tau[bar] * np.einsum("kv,jv->kj", arcs[:, :-1], values[bar])

    @cached_property
    def residue(self) -> float:
        """Res_{s=2} L(f (x) f, s), from the shared twisted table."""
        return residue_tensor_square(self.form,
                                     lambda_table=self.lambda_table)


def _tol(config, default):
    return default if config.tolerance is None else config.tolerance


def _base_inputs(config):
    c = config.curve
    return {"level": config.level, "curve": [c.a1, c.a2, c.a3, c.a4, c.a6],
            "terms": config.terms}


class NotApplicable(ValueError):
    """A suite that does not apply to the configured curve."""


def _require_conductor_11(config, what):
    if config.level != 11 or config.curve != CURVE_11A:
        raise NotApplicable(f"{what} is specific to the conductor-11 curve")


def run_thm8(config=None):
    """Quintic-character dilogarithm expansions of L(E, 2) at level 11."""
    config = config or VerifyConfig()
    _require_conductor_11(config, "the quintic dilogarithm identity")
    tol = _tol(config, TOL_SERIES)
    base = _base_inputs(config)
    trunc = {"lseries_terms": config.terms}
    reports = []

    t0 = time.perf_counter()
    ctx = config.context
    dilog, l_two = ctx.dilog, ctx.l_two
    prep = time.perf_counter() - t0

    p = config.level
    chars = character_table(p).characters
    values = {}
    for k in ctx.evens:
        chi = chars[k]
        t0 = time.perf_counter()
        zeta = complex(chi(3))
        ratio = (1.0 + 3.0 * (zeta + zeta.conjugate())) / (zeta - zeta.conjugate())
        # The a = 0 term drops out: D_E vanishes at the origin.
        rhs = (20.0 * math.pi / 121.0) * ratio * sum(
            zeta ** a * dilog[a] for a in range(1, 5))
        values[k] = rhs
        reports.append(make_report(
            f"thm8:identity:{character_label(chi)}",
            dict(base, character=character_label(chi)),
            l_two, rhs, tol, prep + time.perf_counter() - t0,
            dict(trunc, lambda_terms=ctx.lambda_terms(config.level))))
        prep = 0.0
    # One row per conjugate pair {chi_k, chi_-k}, at the smaller exponent.
    for k in ctx.evens[ctx.evens < (-ctx.evens) % (p - 1)]:
        label = character_label(chars[k])
        reports.append(make_report(
            f"thm8:conjugation:{label}", dict(base, character=label),
            values[k], values[(-k) % (p - 1)], _tol(config, 1e-10), 0.0,
            trunc, error_kind="abs"))
    return reports


def run_cor101(config=None):
    """L(E, 2) = (10 pi / 11) D_E(P) and the torsion-point relations."""
    config = config or VerifyConfig()
    _require_conductor_11(config, "the five-torsion dilogarithm identity")
    base = _base_inputs(config)
    trunc = {"lseries_terms": config.terms}
    reports = []

    t0 = time.perf_counter()
    dilog, l_two = config.context.dilog, config.context.l_two
    seconds = time.perf_counter() - t0

    first = (10.0 * math.pi / 11.0) * dilog[1]
    diag = dict(trunc, lambda_terms=config.context.lambda_terms(config.level))
    if abs(l_two / first + 1.0) < 1e-3:
        # A mismatch by exactly -1 means the period lattice orientation
        # (the sign of D_E) is reversed, not a convergence failure.
        diag["orientation_hint"] = "ratio is -1: elliptic dilogarithm sign reversed"
    reports.append(make_report(
        "cor101:first", base, l_two, first, _tol(config, TOL_SERIES),
        seconds, diag))
    reports.append(make_report(
        "cor101:exotic", base, dilog[2], 1.5 * dilog[1],
        _tol(config, 1e-10), 0.0, trunc))
    reports.append(make_report(
        "cor101:negation:4P", base, dilog[4], -dilog[1],
        _tol(config, 1e-10), 0.0, trunc))
    reports.append(make_report(
        "cor101:negation:3P", base, dilog[3], -dilog[2],
        _tol(config, 1e-10), 0.0, trunc))
    return reports


def _arc_truncation(gap):
    """The node counts of a row's table arcs and the worst gap between."""
    return {"arc_nodes": list(ArcTable.NODES), "arc_gap": gap}


def run_thm1(config=None):
    """L(E,2) L(E,chi,1) as a Gauss-sum combination of twisted L-values."""
    config = config or VerifyConfig()
    p = config.level
    base = _base_inputs(config)
    reports = []

    t0 = time.perf_counter()
    ctx = config.context
    l_one, l_two, w = ctx.l_one, ctx.l_two, ctx.w
    reports.append(make_report(
        "thm1:fricke-sign", base, w, -a_p(config.curve, p),
        _tol(config, TOL_SERIES), time.perf_counter() - t0,
        {"lseries_terms": config.terms}, error_kind="abs"))

    chars, _, tau = character_table(p)
    evens, odds = ctx.evens, ctx.odds
    t0 = time.perf_counter()
    arcs, gap = ctx.eta_arcs
    coef = ctx.arc_coefficients
    prefactor = p * w / (8j * math.pi * (p - 1))
    rhs = prefactor * tau[evens] * np.einsum(
        "kj,j->k", coef[np.ix_(evens, evens)], l_one[evens])
    sweep = np.abs(coef[np.ix_(evens, odds)]).max(axis=1)
    arc_seconds = time.perf_counter() - t0

    # The cusp arcs: the symbols (1, 0) and (0, 1) lift to g_0 = sigma
    # and the identity.
    label = character_label(chars[evens[0]])
    trunc = {"lseries_terms": config.terms, "eta_tol": 1e-13,
             "arc_count": len(evens) * (p - 1), **_arc_truncation(gap)}
    reports.append(make_report(
        f"thm1:cusp-arcs:{label}", dict(base, character=label),
        np.abs(arcs[evens[0], [0, p]]).max(), 0.0, _tol(config, 1e-9),
        0.0, trunc, error_kind="abs"))

    for i, k in enumerate(evens):
        label = character_label(chars[k])
        reports.append(make_report(
            f"thm1:identity:{label}", dict(base, character=label),
            l_two * l_one[k], rhs[i], _tol(config, TOL_QUADRATURE),
            arc_seconds, dict(trunc, lambda_terms=ctx.lambda_terms(p, p * p)),
            scale=l_two))
        arc_seconds = 0.0
        reports.append(make_report(
            f"thm1:odd-sweep:{label}", dict(base, character=label),
            sweep[i], 0.0, _tol(config, 1e-9), 0.0, trunc,
            error_kind="abs"))
    return reports


def run_thm2(config=None):
    """Residue-normalized and residue-free expansions of L(E, 2)."""
    config = config or VerifyConfig()
    p = config.level
    base = _base_inputs(config)
    trunc = {"lseries_terms": config.terms, "eta_tol": 1e-13}
    reports = []

    t0 = time.perf_counter()
    ctx = config.context
    l_one, l_two, w = ctx.l_one, ctx.l_two, ctx.w
    tau, evens, odds = character_table(p).tau, ctx.evens, ctx.odds
    _, gap = ctx.eta_arcs
    trunc.update(_arc_truncation(gap))
    trunc["lambda_terms"] = ctx.lambda_terms(p, p * p)

    # tau(chi_k chi_j) for even k and odd j; chi_k chi_j = chi_{k+j}.
    mixed = tau[np.add.outer(evens, odds) % (p - 1)]
    even_one, odd_one = l_one[evens], l_one[odds]
    # lam[k, j] = sum_m tau(chi_m) / tau(chi_m chi_j) c[m, k], m even.
    lam = np.einsum("mj,mk->kj", tau[evens, None] / mixed,
                    ctx.arc_coefficients[np.ix_(evens, evens)])
    weighted = np.einsum("kj,k,j->", lam, even_one, odd_one)
    prep = time.perf_counter() - t0

    t0 = time.perf_counter()
    residue = ctx.residue
    explicit = (p * p * 1j / ((p + 1) * (p - 1) ** 2 * math.pi)) * np.einsum(
        "k,j,kj->", even_one, odd_one, 1.0 / mixed)
    reports.append(make_report(
        "thm2:residue-consistency", base, residue, explicit,
        _tol(config, TOL_SERIES), time.perf_counter() - t0,
        dict(trunc, lambda_terms=ctx.lambda_terms(p * p))))

    rhs = (p ** 3 * w / (8.0 * (p + 1) * (p - 1) ** 3 * math.pi ** 2)
           ) * weighted / residue
    reports.append(make_report(
        "thm2:via-residue", base, l_two, rhs,
        _tol(config, TOL_QUADRATURE), prep, trunc))

    # Eliminating the residue against the same double sum conjugates the
    # central values in the denominator and drops one power of pi.
    t0 = time.perf_counter()
    denominator = np.einsum("kj,k,j->", mixed, even_one.conj(),
                            odd_one.conj())
    free = (p * p * 1j * w / (8.0 * (p - 1) * math.pi)
            ) * weighted / denominator
    reports.append(make_report(
        "thm2:residue-free", base, l_two, free,
        _tol(config, TOL_QUADRATURE), time.perf_counter() - t0, trunc))
    return reports


def run_thm3(config=None):
    """L(f,2) L(f,chi,1) through eta(1, chihat) paired with the symbols."""
    config = config or VerifyConfig()
    p = config.level
    base = _base_inputs(config)
    trunc = {"lseries_terms": config.terms, "eta_tol": 1e-13}
    reports = []

    t0 = time.perf_counter()
    ctx = config.context
    xi, l_one, l_two = ctx.xi, ctx.l_one, ctx.l_two
    prep = time.perf_counter() - t0
    terms = ctx.lambda_terms(p, p * p)

    t0 = time.perf_counter()
    reports.append(make_report(
        "thm3:closedness", base, max(xi.closedness()), 0.0,
        _tol(config, 1e-9), prep + time.perf_counter() - t0,
        dict(trunc, lambda_terms=terms), error_kind="abs"))

    chars, values, _ = character_table(p)
    evens = ctx.evens
    t0 = time.perf_counter()
    # One arc per class {x, -x} but that of (0, 0), over the lift with
    # bottom row x, weighted by xi^+(x) + xi^+(-x).
    keys = ctx.node_table.keys[1:]
    u, v = keys.T
    weight = xi.plus_values[u, v] + xi.plus_values[-u % p, -v % p]
    residues = np.arange(p)
    # chihat[i, b] = sum_v chi_k(v) e(-b v / p) for k = evens[i].
    chihat = np.einsum("kv,bv->kb", values[evens], np.exp(
        -2j * math.pi * (np.multiply.outer(residues, residues) % p) / p))
    delta_one = np.zeros((len(evens), p))
    delta_one[:, 1] = 1.0
    arcs, gaps = ctx.node_table.integrals(keys, delta_one, chihat)
    rhs = (p * 1j / 4.0) * np.einsum("s,sk->k", weight, arcs)
    seconds = time.perf_counter() - t0
    for i, k in enumerate(evens):
        label = character_label(chars[k])
        reports.append(make_report(
            f"thm3:identity:{label}", dict(base, character=label),
            l_two * l_one[k], rhs[i], _tol(config, TOL_QUADRATURE),
            seconds, dict(trunc, arc_count=len(keys), lambda_terms=terms,
                          **_arc_truncation(gaps[:, i].max())),
            scale=l_two))
        seconds = 0.0
        if i == 0:
            # The contraction's arc of eta(delta_1, chihat) over g_column(3)
            # must match the chihat-weighted sum of stream quadratures of
            # the elementary forms eta(delta_1, delta_b).
            t0 = time.perf_counter()
            s = np.flatnonzero((keys == (1, 3)).all(axis=1))[0]
            # All forms share level, rmax, path and delta_1's stream and
            # jets; each keeps its own right stream and doubling check.
            exps = {}
            assembled = sum(
                chihat[0, b] * arc_integral(
                    eta_form(FiniteMap.delta(p, 1), FiniteMap.delta(p, b)),
                    g_column(3), exps=exps)
                for b in range(p) if abs(chihat[0, b]) > 1e-15)
            reports.append(make_report(
                f"thm3:eta-linearity:{label}",
                dict(base, character=label), arcs[s, 0], assembled,
                _tol(config, 1e-9), time.perf_counter() - t0,
                dict(trunc, **_arc_truncation(gaps[s, 0])),
                error_kind="abs"))
    return reports


def run_appendix(config=None):
    """Petersson square norm against the tensor-square residue."""
    config = config or VerifyConfig()
    base = _base_inputs(config)
    trunc = {"lseries_terms": config.terms, "lambda_terms":
             config.context.lambda_terms(config.level, config.level ** 2)}
    reports = []

    t0 = time.perf_counter()
    form, xi = config.context.form, config.context.xi
    pairing = petersson(xi, xi)
    residue = config.context.residue
    seconds = time.perf_counter() - t0

    reports.append(make_report(
        "appendix:petersson-residue", base,
        12.0 * math.pi * pairing.real, residue,
        _tol(config, TOL_QUADRATURE), seconds, trunc))
    reports.append(make_report(
        "appendix:imag-part", base, pairing.imag, 0.0,
        _tol(config, TOL_SERIES), 0.0, trunc, error_kind="abs"))
    reports.append(make_report(
        "appendix:positivity", base,
        float(pairing.real > 0.0 and residue > 0.0), 1.0,
        0.5, 0.0, trunc, error_kind="abs"))

    p = config.level
    picks = [(0, 1), (1, 0), (2, 5), (1, 3), (4, 7)]
    for u, v in picks:
        t0 = time.perf_counter()
        quad = {}
        direct = period_integral_oracle(form, (u, v), quadrature=quad)
        reports.append(make_report(
            f"appendix:xi-oracle:{u},{v}", dict(base, symbol=[u, v]),
            xi.values[u % p, v % p], direct, _tol(config, 1e-7),
            time.perf_counter() - t0,
            dict(trunc, quadrature_nodes=32, **quad), error_kind="abs"))
    return reports


def run_mahler(config=None):
    """Mahler measures of the two conductor-11 polynomials."""
    config = config or VerifyConfig()
    _require_conductor_11(config, "each Mahler measure identity")
    base = _base_inputs(config)
    l_two = config.context.l_two
    data = mahler_identity_checks(lval=l_two)
    tol = _tol(config, TOL_QUADRATURE)
    terms = {"lambda_terms": config.context.lambda_terms(config.level)}
    return [
        make_report(
            "mahler:first", dict(base, ratio="77/4pi^2"),
            data["m_first"], (77.0 / (4.0 * math.pi ** 2)) * l_two, tol,
            data["seconds_first"], dict(data["quadrature_first"], **terms)),
        make_report(
            "mahler:second", dict(base, ratio="55/4pi^2"),
            data["m_second"], (55.0 / (4.0 * math.pi ** 2)) * l_two, tol,
            data["seconds_second"], dict(data["quadrature_second"], **terms)),
        make_report(
            "mahler:reciprocal", base, data["reciprocal_err"], 0.0,
            _tol(config, TOL_SERIES), data["seconds_reciprocal"],
            data["quadrature_reciprocal"], error_kind="abs"),
    ]


SUITES = {
    "thm8": run_thm8,
    "cor101": run_cor101,
    "thm1": run_thm1,
    "thm2": run_thm2,
    "thm3": run_thm3,
    "mahler": run_mahler,
    "appendix": run_appendix,
}


def run_all(config=None):
    """Run every suite in a fixed order on one shared context.

    A suite that does not apply to the curve is skipped, with one line
    on stdout that names it and gives the reason.
    """
    config = config or VerifyConfig()
    reports = []
    for name, suite in SUITES.items():
        try:
            reports.extend(suite(config))
        except NotApplicable as exc:
            print(f"SKIP  {name}: {exc}")
    return reports
