import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from ellreg.characters import (
    DirichletCharacter,
    character_table,
    character_values,
    enumerate_characters,
)
from ellreg.eisenstein import ARC_NODES, line_arcs, on_evens, suggested_rmax
from ellreg.elliptic import CURVE_11A, CURVE_17A, CURVE_REGISTRY, CurveModel
from ellreg.lseries import _term_count, residue_tensor_square
from ellreg.mahler import curve_identity_polynomials
from ellreg.modsym import line_index, petersson, xi_bridge_table
from ellreg.special import ABS_TOL
from ellreg.verify import (
    SUITES,
    VerifyConfig,
    make_report,
    reports_from_json,
    reports_to_json,
    resolve_config,
    run_all,
    run_cor101,
    run_mahler,
    run_thm1,
    run_thm2,
    run_thm3,
    run_thm8,
    summarize,
)

from reference_routes import (
    ArcTable,
    _pairings_on_every_line,
    arc_coefficients_einsum,
    character_label,
    gauss_sums_mpmath,
    thm2_weighted_einsum,
    xi_bridge_lines_einsum,
)

REPORT_KEYS = {
    "check", "inputs", "left", "right", "abs_err", "rel_err", "error_kind",
    "error", "tolerance", "passed", "seconds", "truncation",
}


@pytest.fixture(scope="module")
def thm8_reports():
    return run_thm8()


def test_report_rows_satisfy_invariants(thm8_reports):
    assert thm8_reports
    for r in thm8_reports:
        assert r.passed == (r.error <= r.tolerance)
        assert r.error == (r.rel_err if r.error_kind == "rel" else r.abs_err)
        assert abs(r.abs_err - abs(r.left - r.right)) < 1e-15
        assert r.inputs["level"] == 11
        assert r.inputs["curve"] == [0, -1, 1, 0, 0]
        assert r.seconds >= 0.0
        assert r.check.startswith("thm8:")


def test_json_round_trip(thm8_reports):
    text = reports_to_json(thm8_reports)
    payload = json.loads(text)
    assert isinstance(payload, list)
    assert all(set(entry) == REPORT_KEYS for entry in payload)
    back = reports_from_json(text)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in thm8_reports]
    with pytest.raises(ValueError):
        reports_from_json('{"not": "a list"}')


def test_make_report_degenerate_switch():
    # 0 = 0 rows must not be scored by relative error.
    r = make_report("x", {}, 1e-14, -2e-14, 1e-6, 0.0, scale=1.0)
    assert r.error_kind == "abs" and r.truncation["degenerate"] and r.passed
    r = make_report("x", {}, 1.0, 1.0 + 1e-9, 1e-6, 0.0, scale=1.0)
    assert r.error_kind == "rel" and r.passed
    r = make_report("x", {}, 0.0, 0.0, 1e-8, 0.0)
    assert r.rel_err == 0.0 and r.passed


@pytest.mark.parametrize("left, right", [
    (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
    (math.nan, 0.0), (0.0, math.nan), (complex(1.0, math.nan), 1.0),
    (math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf),
])
@pytest.mark.parametrize("error_kind, scale", [
    ("rel", None), ("rel", 1.0), ("abs", None)])
def test_make_report_fails_a_side_that_is_not_finite(left, right,
                                                     error_kind, scale):
    # l_one[0] is nan by design: a row that reads it must fail, never
    # score 0 against a denominator that compares false.
    r = make_report("x", {}, left, right, 1e-6, 0.0, error_kind=error_kind,
                    scale=scale)
    assert not r.passed
    assert not math.isfinite(r.error) and not math.isfinite(r.rel_err)


def test_resolve_config():
    cfg = resolve_config()
    assert cfg.curve == CURVE_11A and cfg.level == 11
    assert resolve_config(level=17).curve == CURVE_REGISTRY["17a"]
    custom = CurveModel(0, -1, 1, 0, 0, 11)
    assert resolve_config(curve=custom).level == 11
    with pytest.raises(ValueError):
        resolve_config(level=12)
    with pytest.raises(ValueError):
        resolve_config(curve=custom, level=17)
    # The level is the curve's conductor, so the two cannot disagree.
    with pytest.raises(TypeError):
        VerifyConfig(level=17)
    with pytest.raises(AttributeError):
        cfg.level = 17
    with pytest.raises(ValueError):
        resolve_config(tolerance=-1.0)


# The registered curves and Cremona's models 19a to 101a: prime
# conductor N, discriminant +-N^k.
PRIME_CONDUCTOR_MODELS = [
    (0, -1, 1, 0, 0, 11), (1, -1, 1, -1, -14, 17), (0, 1, 1, -9, -15, 19),
    (0, 0, 1, -1, 0, 37), (0, 1, 1, 0, 0, 43), (1, -1, 1, 0, 0, 53),
    (1, 0, 0, -2, 1, 61), (0, 1, 1, -12, -21, 67), (1, -1, 0, 4, -3, 73),
    (1, 1, 1, -2, 0, 79), (1, 1, 1, 1, 0, 83), (1, 1, 1, -1, 0, 89),
    (0, 1, 1, -1, -1, 101),
]


@pytest.mark.parametrize("coeffs", PRIME_CONDUCTOR_MODELS)
def test_prime_conductor_models_resolve(coeffs):
    assert resolve_config(curve=CurveModel(*coeffs)).level == coeffs[-1]


def test_the_level_is_the_curves_conductor():
    config = VerifyConfig(curve=CURVE_17A)
    assert config.level == 17
    reports = run_thm1(config)
    assert reports and all(r.passed for r in reports)
    assert {r.inputs["level"] for r in reports} == {17}


def test_tolerance_override_applies_everywhere():
    reports = run_cor101(resolve_config(tolerance=1e-16))
    assert all(r.tolerance == 1e-16 for r in reports)
    assert all(r.passed == (r.error <= 1e-16) for r in reports)
    assert not all(r.passed for r in reports)


@pytest.fixture(scope="module")
def builder_runs():
    """run_all at 11, then thm1, thm2, thm3 and appendix at 17, each on a
    fresh config with --tolerance 1e-16: every suite's rows and its own
    wall time by (level, suite), and the polynomials mahler_measure got."""
    import ellreg.mahler as mahler

    suites, measured = {}, []
    with pytest.MonkeyPatch.context() as mp:
        for name, suite in SUITES.items():
            def timed(config, name=name, suite=suite):
                t0 = time.perf_counter()
                rows = suite(config)
                suites[config.level, name] = rows, time.perf_counter() - t0
                return rows
            mp.setitem(SUITES, name, timed)
        real_measure = mahler.mahler_measure

        def counted(poly, *args, **kwargs):
            measured.append(poly)
            return real_measure(poly, *args, **kwargs)
        mp.setattr(mahler, "mahler_measure", counted)
        run_all(resolve_config(tolerance=1e-16))
        for name in ("thm1", "thm2", "thm3", "appendix"):
            SUITES[name](resolve_config(level=17, tolerance=1e-16))
    assert len(suites) == len(SUITES) + 4
    return suites, measured


def test_tolerance_override_reaches_every_row(builder_runs):
    suites, _ = builder_runs
    for key, (rows, _) in suites.items():
        assert rows and all(r.tolerance == 1e-16 for r in rows), key


def test_every_row_carries_the_config_inputs(builder_runs):
    suites, _ = builder_runs
    curves = {11: [0, -1, 1, 0, 0], 17: [1, -1, 1, -1, -14]}
    for (level, _), (rows, _) in suites.items():
        for r in rows:
            assert r.inputs["level"] == level, r.check
            assert r.inputs["curve"] == curves[level], r.check
            # The newform's length is the lseries_terms truncation key.
            assert "terms" not in r.inputs, r.check


def test_row_seconds_add_up_to_the_suite_wall_time(builder_runs):
    # The clock starts before the suite's first context read, so no
    # suite does work that none of its rows is charged for.
    suites, _ = builder_runs
    for key, (rows, wall) in suites.items():
        assert all(r.seconds >= 0.0 for r in rows), key
        assert abs(sum(r.seconds for r in rows) - wall) <= 5e-3, key


def test_rows_record_the_series_tolerance_that_ran(builder_runs):
    # eta_tol is the tail at which suggested_rmax cuts the Eisenstein
    # streams, abs_tol the Mahler panels' tolerance: both ABS_TOL.  Every
    # thm1-thm3 row but the Fricke sign reads the streams.
    suites, _ = builder_runs
    for (_, name), (rows, _) in suites.items():
        for r in rows:
            if name == "mahler":
                assert r.truncation["abs_tol"] == ABS_TOL, r.check
            elif name in ("thm1", "thm2", "thm3"):
                if r.check != "thm1:fricke-sign":
                    assert r.truncation["eta_tol"] == ABS_TOL, r.check


def test_run_all_measures_each_polynomial_once(builder_runs):
    _, measured = builder_runs
    first, second = curve_identity_polynomials()
    assert [p.coeffs.tolist() for p in measured] == [
        p.coeffs.tolist() for p in (first, second, first.reciprocal_x())]


def test_conductor_guard():
    cfg = resolve_config(level=17)
    for suite in (run_thm8, run_cor101, run_mahler):
        with pytest.raises(ValueError):
            suite(cfg)


def test_run_all_order_and_verdict():
    reports = run_all(VerifyConfig())
    assert all(r.passed for r in reports)
    suites = []
    for r in reports:
        name = r.check.split(":", 1)[0]
        if not suites or suites[-1] != name:
            suites.append(name)
    # Fixed assembly order: the order of SUITES.
    assert suites == ["thm8", "cor101", "thm1", "thm2", "thm3", "mahler",
                      "appendix"]
    assert set(SUITES) == set(suites)
    # The JSON is byte for byte what dataclasses.asdict gave.
    assert reports_to_json(reports) == json.dumps(
        [dict(dataclasses.asdict(r), left=[r.left.real, r.left.imag],
              right=[r.right.real, r.right.imag]) for r in reports],
        indent=2, sort_keys=True)


def test_run_all_at_11_keeps_five_digits_of_margin():
    # The rows at 11 read kernels summed to double precision: the worst,
    # cor101:exotic, is 5.8e-16 against its 1e-10.
    for r in run_all(VerifyConfig()):
        assert r.error <= 1e-5 * r.tolerance, (r.check, r.error)


def test_thm1_cross_prime_handles_vanishing_twist():
    reports = run_thm1(resolve_config(level=17))
    assert all(r.passed for r in reports)
    degenerate = [r for r in reports if r.truncation.get("degenerate")]
    # The quadratic twist of 17a has vanishing central value, so exactly
    # one identity row degenerates to 0 = 0 and is scored absolutely.
    assert len(degenerate) == 1 and degenerate[0].error_kind == "abs"
    live = [r for r in reports if r.check.startswith("thm1:identity")
            and not r.truncation.get("degenerate")]
    assert len(live) == 6
    assert max(r.error for r in live) < 1e-9


def test_arc_rows_record_nodes_and_gap():
    rows = run_thm1() + run_thm2() + run_thm3()
    arc_rows = [r for r in rows if "arc_nodes" in r.truncation]
    # Every row but thm1's Fricke sign and thm3's closedness shares its
    # suite's closed-form arcs.
    assert len(arc_rows) == len(rows) - 2
    # Each records the rule's node count and line_arcs' largest tail.
    gap = line_arcs(11)[1]
    for r in arc_rows:
        assert r.truncation["arc_nodes"] == ARC_NODES
        assert r.truncation["arc_gap"] == gap and 0.0 < gap < 1e-14
    # The linearity row's stream quadrature records the same rule and
    # arc_integral's tail of the same estimate.
    (linearity,) = [r for r in rows if "eta-linearity" in r.check]
    assert linearity.truncation["stream_nodes"] == ARC_NODES
    assert 0.0 < linearity.truncation["stream_gap"] < 1e-14


def test_mahler_rows_record_the_lseries_terms_beside_the_lambda_terms(
        builder_runs):
    suites, _ = builder_runs
    rows = {r.check: r for r in suites[11, "mahler"][0]}
    for name in ("mahler:first", "mahler:second"):
        # The length built at 11, the most terms any sum there reads.
        assert rows[name].truncation["lseries_terms"] == 73
        assert set(rows[name].truncation["lambda_terms"]) == {"11"}
    assert "lseries_terms" not in rows["mahler:reciprocal"].truncation
    assert "lambda_terms" not in rows["mahler:reciprocal"].truncation


def test_appendix_calls_the_period_oracle_once(monkeypatch):
    import ellreg.verify as verify

    calls = []
    real_oracle = verify.period_integral_oracle

    def counted(form, symbols, *args, **kwargs):
        calls.append(list(symbols))
        return real_oracle(form, symbols, *args, **kwargs)
    monkeypatch.setattr(verify, "period_integral_oracle", counted)
    config = resolve_config(level=17)
    rows = [r for r in verify.run_appendix(config)
            if r.check.startswith("appendix:xi-oracle:")]
    # Once, on the lines, for the context's xi: the five symbols that the
    # bridge is checked at read their lines of xi.
    assert calls == [[(1, v) for v in range(17)] + [(0, 1)]]
    assert [r.check.rsplit(":", 1)[1] for r in rows] == [
        "0,1", "1,0", "2,5", "1,3", "4,7"]
    for r in rows:
        assert r.passed, r.check
        # The one coset step, and the terms the oracle summed: the count
        # at height 1 / p.
        assert r.truncation["max_reduction_steps"] == 1
        assert r.truncation["oracle_terms"] == _term_count(
            17 * 17, config.context.form.nmax)


def test_mahler_rows_report_what_ran(monkeypatch):
    import ellreg.verify as verify

    built = []

    def newform(curve, nmax):
        built.append(nmax)
        return real_newform(curve, nmax)

    real_newform = verify.newform_from_curve
    monkeypatch.setattr(verify, "newform_from_curve", newform)
    rows = {r.check: r for r in run_mahler(resolve_config())}
    # L(E, 2) comes from the configured curve, once, built to the 73
    # terms that the sums at 11 read.
    assert built == [73]
    assert set(rows) == {"mahler:first", "mahler:second", "mahler:reciprocal"}
    for r in rows.values():
        assert r.passed
        assert r.truncation["abs_tol"] == 1e-13
        assert r.truncation["outer_nodes"] == 24
        assert r.truncation["outer_panels"] >= 1
        # The error the outer rule achieved, not the one it was asked for.
        assert 0.0 < r.truncation["outer_gap"] < 1e-13
        assert r.seconds > 0.0
    assert rows["mahler:first"].truncation["cut_points"] == 1
    assert rows["mahler:second"].truncation["cut_points"] == 0
    assert rows["mahler:second"].truncation["outer_panels"] <= 8


def test_summarize_readable(thm8_reports):
    text = summarize(thm8_reports)
    lines = text.splitlines()
    assert len(lines) == len(thm8_reports) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert "6/6 checks passed" in lines[-1]


def test_run_all_builds_each_quantity_once(monkeypatch):
    import ellreg.verify as verify

    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("newform_from_curve", "twisted_lambda_table", "periods",
                 "xi_bridge_table", "line_arcs"):
        counting(verify, name)
    rows = run_all()
    assert len(rows) == 40 and all(r.passed for r in rows)
    assert calls == {"newform_from_curve": 1, "twisted_lambda_table": 1,
                     "periods": 1, "xi_bridge_table": 1, "line_arcs": 1}


def test_context_belongs_to_its_config():
    cfg = VerifyConfig()
    assert cfg.context is cfg.context
    assert VerifyConfig().context is not cfg.context
    assert [f.name for f in dataclasses.fields(VerifyConfig)] == [
        "curve", "tolerance"]


def test_shared_context_gives_the_rows_of_fresh_ones():
    def rows(reports):
        return [dict(r.to_dict(), seconds=None) for r in reports]

    names = ["thm1", "thm2", "thm3", "appendix"]
    fresh = {name: rows(SUITES[name](resolve_config(level=17)))
             for name in names}
    shared = resolve_config(level=17)
    for name in reversed(names):
        assert rows(SUITES[name](shared)) == fresh[name], name


def test_thm1_and_thm2_pass_every_row_above_conductor_40():
    # 43a: L(E, 2) takes the series branch of E_1 = Gamma(0, x) here.
    config = resolve_config(curve=CurveModel(0, 1, 1, 0, 0, 43))
    rows = run_thm1(config) + run_thm2(config)
    assert len(rows) == 42 + 3
    assert all(r.passed for r in rows), [r.check for r in rows
                                          if not r.passed]


def test_odd_sweep_stays_at_rounding_level():
    rows = run_thm1(resolve_config(curve=CurveModel(0, 0, 1, -1, 0, 37)))
    sweep = [r for r in rows if r.check.startswith("thm1:odd-sweep")]
    assert len(sweep) == 17
    assert max(r.error for r in sweep) <= 1e-14


def test_odd_sweep_reads_every_odd_coefficient():
    # The column of the pair {chi_6, chi_10} plus eps Re chi_j(v), j odd,
    # moves c[k, j] = tau_-j sum_v conj chi_j(v) a_k(v) at k = 6 and 10 by
    # tau_-j eps (p - 1) / 2 up to sign, at j and -j, and no other
    # coefficient, so the sweeps of both fail and the identity rows, which
    # read the even coefficients, hold.
    config = resolve_config(level=17)
    ctx = config.context
    arcs, gap = ctx.eta_arcs
    labels = [character_label(enumerate_characters(17)[k]) for k in (6, 10)]
    for j in ctx.odds:
        moved = arcs.copy()
        moved[:17, 6 // 2 - 1] += 1e-5 * character_values(17, j).real
        ctx.eta_arcs = moved, gap
        ctx.__dict__.pop("arc_sums", None)
        failed = [r.check for r in run_thm1(config) if not r.passed]
        assert failed == [f"thm1:odd-sweep:{label}" for label in labels], j


def test_suites_make_no_character_products_or_per_arc_calls(monkeypatch):
    import ellreg.eisenstein as eisenstein
    import ellreg.verify as verify

    # src/ holds no character product (the tests' character_product), so
    # the suites can make none; they count the arc routes.
    counts = {"line_arcs": 0, "arc_integral": 0, "integrate_one_form": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    counting(verify, "line_arcs")
    counting(verify, "arc_integral")
    counting(eisenstein, "integrate_one_form")
    config = resolve_config(level=17)
    calls = {}
    # thm2 first, so that it builds the shared context, residue included.
    for name in ("thm2", "thm1", "thm3"):
        before = dict(counts)
        SUITES[name](config)
        calls[name] = {k: counts[k] - before[k] for k in counts}
    # One closed form for the context's eta_chi arcs, cusp arcs included,
    # which thm3 reads as well.  Only thm3's linearity row integrates an
    # arc on its own, one stream quadrature of eta_chi, and it goes
    # through integrate_one_form, so the quadrature's cost is charged to
    # the functions that do it.
    none = {"arc_integral": 0, "integrate_one_form": 0}
    assert calls == {"thm2": {"line_arcs": 1, **none},
                     "thm1": {"line_arcs": 0, **none},
                     "thm3": {"line_arcs": 0,
                              "arc_integral": 1, "integrate_one_form": 1}}


@pytest.mark.parametrize("k, shifts", [
    (6, {5: 1e-8}),
    # The quadratic character's arcs are 0, which on_evens gives with no
    # column to read: there is nothing to shift, and its sweep reads 0.
    (8, {}),
])
def test_odd_sweep_fails_when_one_arc_moves(k, shifts):
    # A shift of 1e-8 in the column of k's pair is far above the sweep's
    # 1e-9 and far below what the identity rows notice, so the sweeps of
    # k and of its conjugate fail.
    config = resolve_config(level=17)
    ctx = config.context
    before = run_thm1(config)
    assert all(r.passed for r in before)
    arcs, gap = ctx.eta_arcs
    assert arcs.shape[1] == 3
    arcs = arcs.copy()
    for v, shift in shifts.items():
        arcs[v, k // 2 - 1] += shift
    ctx.eta_arcs = arcs, gap
    # The identity rows read the moved arcs too.
    del ctx.arc_sums
    after = run_thm1(config)
    failed = [r.check for r in after if not r.passed]
    chars, pair = enumerate_characters(17), sorted({k, 16 - k} - {8})
    assert failed == [f"thm1:odd-sweep:{character_label(chars[j])}"
                      for j in pair]
    if not pair:
        (sweep,) = [r for r in before if r.check
                    == f"thm1:odd-sweep:{character_label(chars[k])}"]
        assert sweep.left == 0.0
        assert ([(r.left, r.right) for r in after]
                == [(r.left, r.right) for r in before])


def test_context_arrays_are_indexed_by_exponent():
    ctx = resolve_config(level=17).context
    chars, tau = enumerate_characters(17), character_table(17).tau
    assert list(ctx.evens) == [k for k, c in enumerate(chars)
                               if c.is_even and not c.is_trivial]
    assert list(ctx.odds) == [k for k, c in enumerate(chars)
                              if not c.is_even]
    # tau against 30-digit Gauss sums, the values against the objects'.
    assert np.abs(tau - gauss_sums_mpmath(17, range(16))).max() <= 1e-13
    values = character_values(17, np.arange(16))
    for k, chi in enumerate(chars):
        assert np.abs(values[k] - [chi(a) for a in range(17)]).max() <= 1e-15
        if k:
            assert ctx.l_one[k] == (2 * math.pi / 17) * ctx.lambda_table[k]
    assert math.isnan(ctx.l_one[0].real)
    arcs, gap = ctx.eta_arcs
    assert arcs.shape == (18, 3) and 0.0 <= gap < 1e-10
    assert on_evens(arcs, 17).shape == (18, 7)


CURVE_37A = CurveModel(0, 0, 1, -1, 0, 37)
CURVE_101A = CurveModel(0, 1, 1, -1, -1, 101)


@pytest.mark.parametrize("curve", [CURVE_11A, CURVE_REGISTRY["17a"],
                                   CURVE_37A, CURVE_101A],
                         ids=lambda c: "%da" % c.conductor)
def test_transforms_match_the_einsums_over_the_value_table(curve):
    # The arc sums, the bridge's xi and thm2's double sums are each made
    # of transforms over the discrete logs; the einsums over the
    # characters' value table give them to rounding, relative to the
    # largest entry.
    config = resolve_config(curve=curve)
    ctx = config.context

    def close(got, want):
        return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    p, w, evens, odds = ctx.p, ctx.w, ctx.evens, ctx.odds
    arcs = np.zeros((p - 1, p + 1), dtype=complex)
    arcs[evens] = on_evens(ctx.eta_arcs[0], p).T
    tau = character_table(p).tau
    coef = arc_coefficients_einsum(arcs)
    assert close(ctx.arc_sums, tau * (coef[:, evens] @ ctx.l_one[evens]))
    assert close(xi_bridge_table(ctx.form, ctx.lambda_table).lines,
                 xi_bridge_lines_einsum(ctx.form, ctx.lambda_table))
    # thm2's rows against the double sums over the (p - 1) / 2 x
    # (p - 1) / 2 array of tau(chi_k chi_j), k even and j odd: the
    # residue-consistency row's left side is one of them, and its right
    # side is the Petersson norm of xi.
    rows = {r.check: r for r in run_thm2(config)}
    mixed = tau[np.add.outer(evens, odds) % (p - 1)]
    even_one, odd_one = ctx.l_one[evens], ctx.l_one[odds]
    explicit = (p * p * 1j / ((p + 1) * (p - 1) ** 2 * math.pi)) * np.einsum(
        "kj,k,j->", 1.0 / mixed, even_one, odd_one)
    assert close(rows["thm2:residue-consistency"].left, explicit)
    assert rows["thm2:residue-consistency"].right == (
        12.0 * math.pi * petersson(ctx.xi, ctx.xi).real)
    weighted = thm2_weighted_einsum(coef, ctx.l_one)
    via = (p ** 3 * w / (8.0 * (p + 1) * (p - 1) ** 3 * math.pi ** 2)
           ) * weighted / ctx.residue
    assert close(rows["thm2:via-residue"].right, via)
    denominator = np.einsum("kj,k,j->", mixed, even_one.conj(),
                            odd_one.conj())
    free = (p * p * 1j * w / (8.0 * (p - 1) * math.pi)) * weighted / denominator
    assert close(rows["thm2:residue-free"].right, free)


def test_pair_sums_hold_no_array_over_the_pairs():
    # At 389a one (p - 1) x (p - 1) complex array is 2.4 MB.  With the
    # newform, the twisted table and the arcs built, the residue and
    # thm2, its arc sums included, hold a few arrays of length p.
    config = resolve_config(curve=CurveModel(0, 1, 1, -2, 0, 389))
    ctx = config.context
    for name in ("form", "w", "l_one", "l_two", "eta_arcs", "xi"):
        getattr(ctx, name)
    for run in (lambda: residue_tensor_square(ctx.form, ctx.lambda_table),
                lambda: run_thm2(config)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 16 * 389


@pytest.mark.parametrize("curve", [CURVE_REGISTRY["17a"], CURVE_37A],
                         ids=lambda c: "%da" % c.conductor)
def test_context_keeps_the_arcs_line_arcs_returns(curve, monkeypatch):
    # One real column per conjugate pair, the array itself: no copy, no
    # complex cast and no row per even character.
    import ellreg.verify as verify

    made = []
    monkeypatch.setattr(verify, "line_arcs",
                        lambda p: made.append(line_arcs(p)) or made[-1])
    p = curve.conductor
    arcs, gap = resolve_config(curve=curve).context.eta_arcs
    assert arcs is made[0][0] and gap == made[0][1]
    assert arcs.dtype == np.float64 and arcs.shape == (p + 1, (p - 3) // 4)


def test_thm1_holds_no_array_over_the_character_pairs():
    # At 389a the arcs are 303 KB and one (p - 1) / 2 x (p - 1) complex
    # array 1.2 MB.  With every context field built, thm1's odd sweep
    # reads the arcs one pair's column at a time.
    config = resolve_config(curve=CurveModel(0, 1, 1, -2, 0, 389))
    ctx = config.context
    for name in ("form", "w", "l_one", "l_two", "eta_arcs", "arc_sums"):
        getattr(ctx, name)
    tracemalloc.start()
    try:
        run_thm1(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


@pytest.mark.parametrize("curve", [CURVE_11A, CURVE_REGISTRY["17a"],
                                   CURVE_37A, CURVE_101A],
                         ids=lambda c: "%da" % c.conductor)
def test_xi_is_constant_on_every_line_of_the_node_table(curve):
    # thm3 reads xi^+ once per line, in the arcs' order: (1, v) at l = v,
    # then (0, 1) at l = p.  line_index sends every point a (1, v) and
    # a (0, 1) of line l to l, so xi is a function on P^1(F_p).
    ctx, p = resolve_config(curve=curve).context, curve.conductor
    lines = np.array([(1, v) for v in range(p)] + [(0, 1)])
    pairs = np.multiply.outer(lines, np.arange(1, p)).transpose(0, 2, 1) % p
    index = line_index(pairs[..., 0], pairs[..., 1], p)
    assert index.tolist() == [[l] * (p - 1) for l in range(p + 1)]
    xi = ctx.xi.plus()[index]
    assert xi.tobytes() == np.repeat(xi[:, :1], xi.shape[1], 1).tobytes()


@pytest.mark.parametrize("curve", [CURVE_11A, CURVE_REGISTRY["17a"],
                                   CURVE_37A, CURVE_101A,
                                   CurveModel(0, 1, 1, -2, 0, 389)],
                         ids=lambda c: "%da" % c.conductor)
def test_xi_is_the_period_oracle_and_reads_no_l_value(curve, monkeypatch):
    import ellreg.lseries as lseries
    import ellreg.modsym as modsym
    import ellreg.verify as verify

    config = resolve_config(curve=curve)
    ctx = config.context
    read = []
    for owner, name in ((lseries, "lambda_value"),
                        (lseries, "twisted_lambda_table"),
                        (verify, "twisted_lambda_table"),
                        (modsym, "xi_bridge_table"),
                        (verify, "xi_bridge_table")):
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, **kwargs:
                            read.append(name))
    xi = ctx.xi
    assert read == []
    monkeypatch.undo()
    # On every line, within 5e-15 of the bridge through the twisted
    # central values (|xi| <= 1.32 here; the gap reads 1.1e-15 at 389a),
    # and that gap is what the appendix's oracle rows record.
    gap = np.abs(xi.lines - xi_bridge_table(ctx.form, ctx.lambda_table).lines
                 ).max()
    assert gap <= 5e-15
    rows = [r for r in verify.run_appendix(config)
            if r.check.startswith("appendix:xi-oracle:")]
    assert {r.truncation["bridge_gap"] for r in rows} == {gap}


@pytest.mark.parametrize("curve", [CURVE_11A, CURVE_REGISTRY["17a"],
                                   CURVE_37A],
                         ids=lambda c: "%da" % c.conductor)
def test_thm3_right_side_matches_the_xi_weighted_pairings(curve):
    config = resolve_config(curve=curve)
    ctx, p = config.context, config.level
    rhs = np.array([r.right for r in run_thm3(config)
                    if r.check.startswith("thm3:identity")])
    # sum_x xi(x) times the arc of eta(delta_1, chihat_k) over the lift
    # with bottom row x: the row of x also holds -x, so it weighs
    # xi(x) + xi(-x), and the pairing counts each x twice.
    table = ArcTable(p, suggested_rmax(p, math.sqrt(3) / 2))
    u, v = np.moveaxis(table.pairs, -1, 0)
    plus = ctx.xi.plus()
    values, _ = _pairings_on_every_line(
        table, ctx.evens,
        plus[line_index(u, v, p)] + plus[line_index(-u, -v, p)])
    tau = character_table(p).tau[ctx.evens]
    weighted = (p * 1j / 4.0) * tau / 2.0 * values.sum(axis=0)
    assert np.abs(rhs - weighted).max() <= 2e-15 * np.abs(rhs).max()


@pytest.fixture(scope="module")
def c37_run():
    """thm1, thm2 and appendix on one 37a config, as the scaling case
    runs them, with every E_1 call counted and the length of every
    weight vector the L-values sum recorded by level."""
    import ellreg.lseries as lseries

    calls = [0]
    summed = set()
    with pytest.MonkeyPatch.context() as mp:
        real_e1 = lseries.exp_integral_e1

        def counting(x):
            calls[0] += 1
            return real_e1(x)
        mp.setattr(lseries, "exp_integral_e1", counting)
        real_weights = lseries._weights

        def recording(s, level, k):
            summed.add((level, k))
            return real_weights(s, level, k)
        mp.setattr(lseries, "_weights", recording)
        config = resolve_config(curve=CURVE_37A)
        rows = [r for name in ("thm1", "thm2", "appendix")
                for r in SUITES[name](config)]
    return rows, calls[0], summed


def test_c37_context_makes_few_incomplete_gamma_calls(c37_run):
    rows, calls, _ = c37_run
    assert all(r.passed for r in rows)
    # E_1 only for the terms of L(E, 2)'s dual half; 35,012
    # incomplete-gamma calls when every twist and every term had its own.
    assert 0 < calls < 1000


def test_rows_record_the_lambda_terms_actually_summed(c37_run):
    rows, _, summed = c37_run
    both = {"37": 38, "1369": 249}
    assert summed == {(37, 38), (1369, 249)}
    want = {"thm1:identity": both, "thm2:residue-consistency":
            {"1369": 249}, "thm2:via-residue": both,
            "thm2:residue-free": both, "appendix": both}
    for r in rows:
        key = next((k for k in want if r.check.startswith(k)), None)
        assert r.truncation.get("lambda_terms") == want.get(key), r.check
        assert r.truncation["lseries_terms"] == 249


def test_lambda_terms_counts_each_level_once():
    ctx = resolve_config(level=11).context
    _term_count.cache_clear()
    both = ctx.lambda_terms(11, 121)
    assert ctx.lambda_terms(121) == {"121": both["121"]}
    assert ctx.lambda_terms(11, 121) == both == {
        "11": _term_count.__wrapped__(11, 4000),
        "121": _term_count.__wrapped__(121, 4000)}
    assert _term_count.cache_info().misses == 2


def test_l_two_rows_record_the_level_p_terms(thm8_reports):
    for r in thm8_reports:
        if r.check.startswith("thm8:identity"):
            assert r.truncation["lambda_terms"] == {"11": 19}
        else:
            assert "lambda_terms" not in r.truncation


def test_xi_after_the_twisted_table_sums_no_twist_again(monkeypatch):
    import ellreg.lseries as lseries

    # xi_bridge_table takes the context's twisted table; modsym cannot
    # build one of its own.
    calls = []

    def recording(module, name, tag):
        real = getattr(module, name)

        def wrapped(form, *args, **kwargs):
            calls.append((tag, form.level))
            return real(form, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    recording(lseries, "lambda_value", "lambda_value")
    ctx = resolve_config(curve=CURVE_37A).context
    ctx.lambda_table
    del calls[:]
    xi_bridge_table(ctx.form, ctx.lambda_table)
    # Only xi(infinity) = (w / 2 pi) L(f, 1) is summed, at level 37.
    assert calls == [("lambda_value", 37)]


def test_twisted_table_does_not_depend_on_the_call_path():
    # run_appendix reads lambda_terms(p, p^2), and with it the cached
    # term counts, before the twisted table; on 101a the table has the
    # same bits with that read and without it.
    import ellreg.lseries as lseries

    curve = CurveModel(0, 1, 1, -1, -1, 101)
    lseries._term_count.cache_clear()
    direct = resolve_config(curve=curve).context.lambda_table
    lseries._term_count.cache_clear()
    ctx = resolve_config(curve=curve).context
    ctx.lambda_terms(101, 101 * 101)
    assert ctx.lambda_table.tobytes() == direct.tobytes()


def test_level_generic_suites_read_arrays_not_objects(monkeypatch):
    import ellreg.characters as characters
    import ellreg.modsym as modsym

    config = resolve_config(level=17)
    config.context
    # A cold character table, so that its build is counted too.
    characters.character_table.cache_clear()
    characters._unit_logs.cache_clear()
    counts = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[owner.__name__, name] = counts.get(
                (owner.__name__, name), 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("__init__", "__eq__", "__hash__"):
        counting(DirichletCharacter, name)
    counting(modsym.XiTable, "plus")
    counting(modsym.SymbolIndex, "__init__")
    rows = [r for name in ("thm1", "thm2", "thm3", "appendix")
            for r in SUITES[name](config)]
    assert len(rows) == 36 and all(r.passed for r in rows)
    # xi^+ on the whole line table, once for thm3's closedness row and
    # once for its right side.
    assert counts == {("XiTable", "plus"): 2}


def test_suites_build_one_form_and_no_twist(monkeypatch):
    import ellreg.lseries as lseries

    counts = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    counting(lseries.ModularFormData, "__post_init__")
    assert all(r.passed for r in run_all())
    assert counts == {"__post_init__": 1}
    counts.clear()
    config = resolve_config(curve=CURVE_37A)
    rows = [r for name in ("thm1", "thm2", "appendix")
            for r in SUITES[name](config)]
    assert all(r.passed for r in rows)
    assert counts == {"__post_init__": 1}


def _rows_but_length(reports):
    # Every field but the wall time and the built length.
    rows = []
    for r in reports:
        row = dict(r.to_dict(), seconds=None)
        row["truncation"] = {k: v for k, v in row["truncation"].items()
                             if k != "lseries_terms"}
        rows.append(row)
    return rows


@pytest.mark.parametrize("curve, names", [
    (CURVE_11A, None), (CURVE_37A, ["thm1", "thm2", "thm3", "appendix"])])
def test_rows_match_a_newform_built_to_the_terms_limit(curve, names):
    from ellreg.lseries import newform_from_curve

    def run(config):
        if names is None:
            return run_all(config)
        return [r for name in names for r in SUITES[name](config)]

    built = resolve_config(curve=curve)
    full = resolve_config(curve=curve)
    full.context.form = newform_from_curve(curve, 4000)
    rows = run(built)
    assert built.context.form.nmax == {11: 73, 37: 249}[curve.conductor]
    assert _rows_but_length(rows) == _rows_but_length(run(full))
    assert {r.truncation.get("lseries_terms") for r in rows} <= {
        built.context.form.nmax, None}


def test_each_run_sums_the_coefficients_once_to_the_built_length(
        monkeypatch):
    import ellreg.lseries as lseries

    calls = []
    real = lseries.an_coefficients

    def recording(curve, nmax):
        calls.append(nmax)
        return real(curve, nmax)
    monkeypatch.setattr(lseries, "an_coefficients", recording)
    config = resolve_config()
    assert all(r.passed for r in run_all(config))
    assert calls == [config.context.form.nmax] == [73]
    calls.clear()
    config = resolve_config(curve=CURVE_37A)
    for name in ("thm1", "thm2", "appendix"):
        SUITES[name](config)
    assert calls == [249]


def test_positivity_is_a_predicate_no_tolerance_can_pass(monkeypatch):
    import ellreg.verify as verify

    def positivity(tolerance):
        rows = verify.run_appendix(resolve_config(tolerance=tolerance))
        return next(r for r in rows if r.check == "appendix:positivity")

    # The row's tolerance is --tolerance, and a failure reads error =
    # 2 tolerance, so the verdict is error <= tolerance at every value.
    for tolerance, shown in ((None, 0.5), (2.0, 2.0), (1e-16, 1e-16)):
        row = positivity(tolerance)
        assert row.passed and row.error == 0.0 and row.tolerance == shown
    real = verify.petersson
    monkeypatch.setattr(verify, "petersson", lambda a, b: -real(a, b))
    for tolerance, shown in ((None, 0.5), (2.0, 2.0), (1e-16, 1e-16)):
        row = positivity(tolerance)
        assert not row.passed and row.tolerance == shown
        assert row.error == 2.0 * shown
