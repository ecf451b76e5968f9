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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .characters import (_is_prime, character_table, character_values,
                         exponent_label, pair_sum)
from .eisenstein import ARC_NODES, arc_integral, line_arcs
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
    newform_terms,
    residue_tensor_square,
    root_number,
    twisted_lambda_table,
)
from .modsym import (XiTable, line_index, period_integral_oracle, petersson,
                     xi_bridge_table)
from .special import ABS_TOL

TOL_SERIES = 1e-8     # checks that only consume rapidly convergent series
TOL_QUADRATURE = 1e-6  # checks that integrate along geodesics or tori


@dataclass
class CheckReport:
    """One verified identity: two evaluations, an error, a verdict.

    seconds is the wall time since the suite's previous row (its first
    row: since the suite started), so a suite's rows add up to its run.
    """

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
        # Not asdict: its recursive deep copy costs more than the dump.
        return dict(vars(self), left=[self.left.real, self.left.imag],
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
    so the row switches to the absolute error and records that.  A side
    that is not finite makes abs_err and rel_err so: the row fails.
    """
    left, right = complex(left), complex(right)
    truncation = dict(truncation or {})
    abs_err = abs(left - right)
    denom = max(abs(left), abs(right))
    # denom reads nan, or 0 beside a nan: 0 * abs_err is then nan.
    rel_err = abs_err / denom if denom > 0.0 else 0.0 * abs_err
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
    """What a run is asked for: the curve, whose conductor is the level,
    and a tolerance that, when given, replaces every row's.  All suites
    run on one config object share its context."""

    curve: CurveModel = CURVE_11A
    tolerance: float | None = None

    @property
    def level(self) -> int:
        return self.curve.conductor

    @cached_property
    def context(self) -> "CurveContext":
        return CurveContext(self)


def resolve_config(level=None, curve=None, tolerance=None) -> VerifyConfig:
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
    # Primality, by deterministic Miller-Rabin, is tested last.
    if n < 2:
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
    if not _is_prime(n):
        raise ValueError(f"level {n} must be prime")
    # With the discriminant +-N^k, N not dividing c4 makes the reduction
    # at N multiplicative, so that the conductor is exactly N.
    c4 = curve.c_invariants[0]
    if c4 % n == 0:
        raise ValueError(f"{n} divides c4 = {c4}: the model has additive "
                         f"reduction at {n} or is not minimal there")
    if tolerance is not None and not (math.isfinite(tolerance)
                                      and tolerance > 0):
        raise ValueError("tolerance must be positive and finite")
    return VerifyConfig(curve=curve, tolerance=tolerance)


class CurveContext:
    """The quantities the suites share for one configuration.

    Each is computed on first use and then kept, so a run of every
    suite builds the newform, the twisted table and the rest once.  The
    period table xi is the period oracle's on every line of P^1(F_p) and
    reads no L-value; the appendix builds the bridge table to check it.
    Characters are exponents: the arrays below are indexed by k in
    Z/(p - 1), the character chi_k of characters.character_table(p).
    """

    def __init__(self, config: VerifyConfig):
        self.curve, self.p = config.curve, config.level
        # The newform's length: the most terms that any of its sums reads.
        self.terms = newform_terms(self.p)
        # The exponents of the even nontrivial and of the odd characters.
        self.evens = np.arange(2, self.p - 1, 2)
        self.odds = np.arange(1, self.p - 1, 2)
        self.oracle = {}  # xi's oracle call: its terms and coset steps

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
        point = torsion_coordinate(self.curve, lattice, (0, 0), 5)
        return {a: elliptic_dilog(lattice, point.scale(a))
                for a in range(1, 5)}

    @cached_property
    def xi(self):
        return XiTable(self.p, period_integral_oracle(
            self.form, [(1, v) for v in range(self.p)] + [(0, 1)],
            quadrature=self.oracle))

    @cached_property
    def pairing(self) -> complex:
        """petersson(xi, xi): 12 pi times its real part is the residue."""
        return petersson(self.xi, self.xi)

    @cached_property
    def eta_arcs(self):
        """arcs[i, v], the integral of eta_chi_k, k = evens[i], over the
        arc rho -> rho^2 pulled back along the line (1, v) of P^1(F_p)
        for v = 0 .. p - 1 and (0, 1) at v = p, and the worst node gap
        among them: line_arcs, one complex row per even character, which
        BLAS reads in place."""
        values, gaps = line_arcs(self.p)
        return values.T.astype(complex), gaps.max()

    @cached_property
    def arc_sums(self) -> np.ndarray:
        """s[k] = tau_k sum_j c[k, j] L(f, chi_j, 1), j even nontrivial, for
        c[k, j] = tau(conj chi_j) sum_v conj chi_j(v) arcs[k, v], the pairing
        the period bridge forces.  Summed over j first, that is one DFT of
        tau_-j L_j, read at v = g^i: O(p) beyond the arcs; 0 at odd k."""
        powers, _, tau = character_table(self.p)
        central = np.zeros(self.p - 1, dtype=complex)
        central[self.evens] = tau[-self.evens] * self.l_one[self.evens]
        weights = np.zeros(self.p + 1, dtype=complex)
        weights[powers] = np.fft.fft(central)
        sums = np.zeros(self.p - 1, dtype=complex)
        sums[self.evens] = tau[self.evens] * (self.eta_arcs[0] @ weights)
        return sums

    @cached_property
    def residue(self) -> float:
        """Res_{s=2} L(f (x) f, s), from the shared twisted table."""
        return residue_tensor_square(self.form, self.lambda_table)


class _Rows:
    """The rows of one suite, made as its first statement.

    Every row is stamped with the wall time since the suite's previous
    row, or since the builder was made, so a suite's row seconds add up
    to its run.  Its inputs are the config's level and curve plus
    the keywords given with the row, its truncation the suite's shared
    keys (self.truncation) plus the row's own, and --tolerance, when
    given, replaces the row's tolerance.
    """

    def __init__(self, config, **truncation):
        c = config.curve
        self.inputs = {"level": config.level,
                       "curve": [c.a1, c.a2, c.a3, c.a4, c.a6]}
        self.truncation = truncation
        self.tolerance = config.tolerance
        self.reports = []
        self.clock = time.perf_counter()

    def add(self, check, left, right, tolerance, truncation=None,
            error_kind="rel", scale=None, **inputs):
        now = time.perf_counter()
        self.reports.append(make_report(
            check, dict(self.inputs, **inputs), left, right,
            tolerance if self.tolerance is None else self.tolerance,
            now - self.clock, dict(self.truncation, **(truncation or {})),
            error_kind, scale))
        self.clock = now

    def holds(self, check, condition):
        """A predicate row at the tolerance t, 0.5 or --tolerance: 2 t
        against 2 t if condition holds, else 0 against 2 t.  So it passes,
        error <= t, exactly when condition holds, and a failure reads
        error = 2 t whatever t is."""
        t = 0.5 if self.tolerance is None else self.tolerance
        self.add(check, 2.0 * t * float(condition), 2.0 * t, t,
                 error_kind="abs")


class NotApplicable(ValueError):
    """A suite that does not apply to the configured curve."""


def _require_conductor_11(config, what):
    if config.curve != CURVE_11A:
        raise NotApplicable(f"{what} is specific to the conductor-11 curve")


def run_thm8(config=None):
    """Quintic-character dilogarithm expansions of L(E, 2) at level 11."""
    config = config or VerifyConfig()
    rows = _Rows(config)
    _require_conductor_11(config, "the quintic dilogarithm identity")
    ctx = config.context
    rows.truncation["lseries_terms"] = ctx.form.nmax
    dilog, l_two = ctx.dilog, ctx.l_two
    p = config.level
    terms = {"lambda_terms": ctx.lambda_terms(p)}
    values = {}
    for k, zeta in zip(ctx.evens,
                       character_values(p, ctx.evens)[:, 3].tolist()):
        ratio = (1.0 + 3.0 * (zeta + zeta.conjugate())) / (zeta - zeta.conjugate())
        # The a = 0 term drops out: D_E vanishes at the origin.
        values[k] = (20.0 * math.pi / 121.0) * ratio * sum(
            zeta ** a * dilog[a] for a in range(1, 5))
        label = exponent_label(p, k)
        rows.add(f"thm8:identity:{label}", l_two, values[k], TOL_SERIES,
                 terms, character=label)
    # One row per conjugate pair {chi_k, chi_-k}, at the smaller exponent.
    for k in ctx.evens[ctx.evens < (-ctx.evens) % (p - 1)]:
        label = exponent_label(p, k)
        rows.add(f"thm8:conjugation:{label}", values[k],
                 values[(-k) % (p - 1)], 1e-10, error_kind="abs",
                 character=label)
    return rows.reports


def run_cor101(config=None):
    """L(E, 2) = (10 pi / 11) D_E(P) and the torsion-point relations."""
    config = config or VerifyConfig()
    rows = _Rows(config)
    _require_conductor_11(config, "the five-torsion dilogarithm identity")
    ctx = config.context
    rows.truncation["lseries_terms"] = ctx.form.nmax
    dilog, l_two = ctx.dilog, ctx.l_two
    first = (10.0 * math.pi / 11.0) * dilog[1]
    diag = {"lambda_terms": ctx.lambda_terms(config.level)}
    if abs(l_two / first + 1.0) < 1e-3:
        # A mismatch by exactly -1 means the period lattice orientation
        # (the sign of D_E) is reversed, not a convergence failure.
        diag["orientation_hint"] = "ratio is -1: elliptic dilogarithm sign reversed"
    rows.add("cor101:first", l_two, first, TOL_SERIES, diag)
    rows.add("cor101:exotic", dilog[2], 1.5 * dilog[1], 1e-10)
    rows.add("cor101:negation:4P", dilog[4], -dilog[1], 1e-10)
    rows.add("cor101:negation:3P", dilog[3], -dilog[2], 1e-10)
    return rows.reports


def _arc_truncation(gap):
    """The node counts of a row's shared arcs and the worst gap between."""
    return {"arc_nodes": list(ARC_NODES), "arc_gap": gap}


def run_thm1(config=None):
    """L(E,2) L(E,chi,1) as a Gauss-sum combination of twisted L-values."""
    config = config or VerifyConfig()
    rows = _Rows(config)
    p = config.level
    ctx = config.context
    rows.truncation["lseries_terms"] = ctx.form.nmax
    l_one, l_two, w = ctx.l_one, ctx.l_two, ctx.w
    rows.add("thm1:fricke-sign", w, -a_p(config.curve, p), TOL_SERIES,
             error_kind="abs")

    powers, _, tau = character_table(p)
    evens, odds = ctx.evens, ctx.odds
    arcs, gap = ctx.eta_arcs
    rhs = p * w / (8j * math.pi * (p - 1)) * ctx.arc_sums[evens]
    # The odd columns of c[k, j] = tau_-j fft(arcs[k, powers])[j] vanish.
    odd = np.fft.fft(arcs[:, powers], axis=1)[:, odds]
    sweep = np.abs(tau[-odds] * odd).max(axis=1)

    # The cusp arcs: the symbols (1, 0) and (0, 1) lift to g_0 = sigma
    # and the identity.
    rows.truncation.update(eta_tol=ABS_TOL, arc_count=len(evens) * (p - 1),
                           **_arc_truncation(gap))
    label = exponent_label(p, evens[0])
    rows.add(f"thm1:cusp-arcs:{label}", np.abs(arcs[0, [0, p]]).max(),
             0.0, 1e-9, error_kind="abs", character=label)
    terms = {"lambda_terms": ctx.lambda_terms(p, p * p)}
    for i, k in enumerate(evens):
        label = exponent_label(p, k)
        rows.add(f"thm1:identity:{label}", l_two * l_one[k], rhs[i],
                 TOL_QUADRATURE, terms, scale=l_two, character=label)
        rows.add(f"thm1:odd-sweep:{label}", sweep[i], 0.0, 1e-9,
                 error_kind="abs", character=label)
    return rows.reports


def run_thm2(config=None):
    """Residue-normalized and residue-free expansions of L(E, 2)."""
    config = config or VerifyConfig()
    rows = _Rows(config, eta_tol=ABS_TOL)
    p = config.level
    ctx = config.context
    rows.truncation["lseries_terms"] = ctx.form.nmax
    l_one, l_two, w = ctx.l_one, ctx.l_two, ctx.w
    tau, evens, odds = character_table(p).tau, ctx.evens, ctx.odds
    _, gap = ctx.eta_arcs
    rows.truncation.update(_arc_truncation(gap),
                           lambda_terms=ctx.lambda_terms(p, p * p))

    # Double sums over even nontrivial k and odd j, weighted on tau_{k+j}.
    # weighted is sum_{k, j} lam[k, j] L_k L_j, lam[k, j] = sum_m tau_m /
    # tau_{m+j} c[m, k] over even m: the arc sums (over k) against L_j.
    even_one, odd_one = np.zeros((2, p - 1), dtype=complex)
    even_one[evens], odd_one[odds] = l_one[evens], l_one[odds]
    weighted = pair_sum(ctx.arc_sums, odd_one, 1.0 / tau)

    # The residue against xi's Petersson norm, which reads no L-value.
    residue = ctx.residue
    rows.add("thm2:residue-consistency", residue,
             12.0 * math.pi * ctx.pairing.real, TOL_SERIES,
             {"lambda_terms": ctx.lambda_terms(p * p)})

    rhs = (p ** 3 * w / (8.0 * (p + 1) * (p - 1) ** 3 * math.pi ** 2)
           ) * weighted / residue
    rows.add("thm2:via-residue", l_two, rhs, TOL_QUADRATURE)

    # Eliminating the residue against the same double sum conjugates the
    # central values in the denominator and drops one power of pi.
    denominator = pair_sum(even_one.conj(), odd_one.conj(), tau)
    free = (p * p * 1j * w / (8.0 * (p - 1) * math.pi)
            ) * weighted / denominator
    rows.add("thm2:residue-free", l_two, free, TOL_QUADRATURE)
    return rows.reports


def run_thm3(config=None):
    """L(f,2) L(f,chi,1) through eta(1, chihat) paired with the symbols.

    The right side is (p i / 4) sum_{x != 0} xi(x) A_k(x), A_k(x) the arc
    of eta(delta_1, chihat_k) over a lift with bottom row x.  chihat_k(b)
    is tau_k conj chi_k(b) at b != 0, so A_k(a x) = tau_k chi_k(a) sum_c
    conj chi_k(c) J[a x, c x] for a unit a, J[x, y] the arc of
    eta(delta_x, delta_y), and the A_k on a line l add up to tau_k
    arcs[k, l], the shared arc of eta_chi_k.  xi is a function on
    P^1(F_p), as the form has trivial character: one value xi_l on line
    l, and xi.plus() holds xi^+ on the lines in the arcs' order.  So the
    right side is (p i / 4) tau_k sum_l xi_l arcs[k, l].
    """
    config = config or VerifyConfig()
    rows = _Rows(config, eta_tol=ABS_TOL)
    p = config.level
    ctx = config.context
    rows.truncation["lseries_terms"] = ctx.form.nmax
    xi, l_one, l_two = ctx.xi, ctx.l_one, ctx.l_two
    terms = ctx.lambda_terms(p, p * p)
    rows.add("thm3:closedness", max(xi.closedness()), 0.0, 1e-9,
             error_kind="abs")

    tau, evens = character_table(p).tau, ctx.evens
    arcs, gap = ctx.eta_arcs
    rhs = (p * 1j / 4.0) * tau[evens] * (arcs @ xi.plus())
    # The right side's single-pair arcs: every x != 0, up to sign.
    truncation = dict(arc_count=(p * p - 1) // 2, lambda_terms=terms,
                      **_arc_truncation(gap))
    for i, k in enumerate(evens):
        label = exponent_label(p, k)
        rows.add(f"thm3:identity:{label}", l_two * l_one[k], rhs[i],
                 TOL_QUADRATURE, truncation, scale=l_two, character=label)
        if i == 0:
            # The shared arc of eta_chi on line 3, from the closed-form
            # transforms, against one stream quadrature of the form
            # summed from its divisors.
            quad = _arc_truncation(gap)
            stream = arc_integral(p, k, 3, quad)
            rows.add(f"thm3:eta-linearity:{label}", arcs[0, 3], stream,
                     1e-9, quad, error_kind="abs", character=label)
    return rows.reports


def run_appendix(config=None):
    """Petersson square norm against the tensor-square residue."""
    config = config or VerifyConfig()
    rows = _Rows(config)
    p = config.level
    ctx = config.context
    rows.truncation["lseries_terms"] = ctx.form.nmax
    rows.truncation["lambda_terms"] = ctx.lambda_terms(p, p * p)
    xi, pairing, residue = ctx.xi, ctx.pairing, ctx.residue
    rows.add("appendix:petersson-residue", 12.0 * math.pi * pairing.real,
             residue, TOL_QUADRATURE)
    rows.add("appendix:imag-part", pairing.imag, 0.0, TOL_SERIES,
             error_kind="abs")
    rows.holds("appendix:positivity", pairing.real > 0.0 and residue > 0.0)

    # The bridge through the twisted table, against the oracle's lines.
    bridge = xi_bridge_table(ctx.form, ctx.lambda_table).lines
    symbols = [(0, 1), (1, 0), (2, 5), (1, 3), (4, 7)]
    quad = dict(ctx.oracle, bridge_gap=float(np.abs(bridge - xi.lines).max()))
    at = line_index(*zip(*symbols), p)
    for (u, v), left, right in zip(symbols, bridge[at], xi.lines[at]):
        rows.add(f"appendix:xi-oracle:{u},{v}", left, right, 1e-7, quad,
                 error_kind="abs", symbol=[u, v])
    return rows.reports


def run_mahler(config=None):
    """Mahler measures of the two conductor-11 polynomials, and of the
    first one's reversal in X, which has the same measure."""
    config = config or VerifyConfig()
    rows = _Rows(config)
    _require_conductor_11(config, "each Mahler measure identity")
    from .mahler import curve_identity_polynomials, mahler_measure

    l_two = config.context.l_two
    terms = {"lambda_terms": config.context.lambda_terms(config.level),
             "lseries_terms": config.context.form.nmax}
    first, second = curve_identity_polynomials()
    measured = {}
    for name, poly, ratio in (("first", first, 77), ("second", second, 55)):
        quad = {}
        measured[name] = mahler_measure(poly, quadrature=quad)
        rows.add(f"mahler:{name}", measured[name],
                 (ratio / (4.0 * math.pi ** 2)) * l_two, TOL_QUADRATURE,
                 dict(quad, **terms), ratio=f"{ratio}/4pi^2")
    quad = {}
    reciprocal = mahler_measure(first.reciprocal_x(), quadrature=quad)
    rows.add("mahler:reciprocal", abs(reciprocal - measured["first"]), 0.0,
             TOL_SERIES, quad, error_kind="abs")
    return rows.reports


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
