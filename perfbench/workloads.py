"""The benchmark's workloads and the layers its traced run instruments.

Every workload is one fresh process that runs ellreg from the source
tree of the checkout; ``child.py`` runs it.  This module holds what
``run.py`` and ``child.py`` must agree on: the workloads, the traced
boundaries and how the per-layer metrics derive from the spans.
"""

from __future__ import annotations

import random

# Curve 37a as a1,a2,a3,a4,a6,N.  It is not registered, so it goes
# through --curve.
CURVE_37A = "0,0,1,-1,0,37"

WORKLOADS = {
    # The paper's headline run, exactly as a user types it: all seven
    # suites on the default thread pool.  The only workload that runs the
    # Mahler quadrature and the pool, and it builds the newform 7 times.
    "l11-all": {"cli": ["verify", "all"]},
    # The level-generic suites at the next registered level.  thm3 is the
    # bulk: 1,025 arcs of the sparse form eta(delta_1, chihat).
    "l17-generic": {"level": 17,
                    "suites": ["thm1", "thm2", "thm3", "appendix"]},
    # The scaling case through --curve: Eisenstein stream builds and
    # gauss_sum dominate.  thm3 is left out, at about 5 minutes a run.
    "c37-scaling": {"curve": CURVE_37A,
                    "suites": ["thm1", "thm2", "appendix"]},
}


SUITE_NAMES = ["thm8", "cor101", "thm1", "thm2", "thm3", "mahler", "appendix"]


def suite_order(workload, seed):
    """The seed's permutation of an in-process workload's suites.

    The suites are independent, so every order must give the same rows;
    the seed varies the order a user might ask for them in.  ``l11-all``
    is the fixed CLI command and has no order to vary.
    """
    suites = list(WORKLOADS[workload].get("suites", []))
    random.Random(seed).shuffle(suites)
    return suites


def _eta_nodes(tracer, args, kwargs):
    # EtaForm.coefficients(self, z): z is a scalar or an array of nodes.
    z = args[1] if len(args) > 1 else kwargs["z"]
    tracer.count("eisenstein.eta_nodes", getattr(z, "size", 1))


def _roots_in_mahler(tracer, args, kwargs):
    if tracer.inside("mahler."):
        tracer.count("mahler.roots_calls")


def layer_targets(ellreg_modules, numpy_module):
    """(owner, attribute, span name, counter) for every traced boundary."""
    mod = {m.__name__.rsplit(".", 1)[-1]: m for m in ellreg_modules}
    eis, ell, ls = mod["eisenstein"], mod["elliptic"], mod["lseries"]
    ms, ch, mh, vf = mod["modsym"], mod["characters"], mod["mahler"], mod["verify"]
    targets = [
        (eis, "arc_integral", "eisenstein.arc_integral", None),
        (eis.EisensteinStream, "__init__", "eisenstein.stream_build", None),
        (eis.EtaForm, "coefficients", "eisenstein.eta_eval", _eta_nodes),
        (eis, "integrate_one_form", "eisenstein.quad", None),
        (mh, "mahler_measure", "mahler.mahler_measure", None),
        (numpy_module, "roots", None, _roots_in_mahler),
        (ls, "newform_from_curve", "lseries.newform_from_curve", None),
        (ell, "an_coefficients", "elliptic.an_coefficients", None),
        (ls, "lambda_value", "lseries.lambda_value", None),
        (ls, "root_number", "lseries.root_number", None),
        (ls, "twisted_lambda_table", "lseries.twisted_lambda_table", None),
        (ls, "residue_tensor_square", "lseries.residue_tensor_square", None),
        (ell, "periods", "elliptic.periods", None),
        (ell, "elliptic_dilog", "elliptic.elliptic_dilog", None),
        (ms, "xi_bridge_table", "modsym.xi_bridge_table", None),
        (ms.XiTable, "plus", "modsym.xi_plus", None),
        (ms, "period_integral_oracle", "modsym.period_integral_oracle", None),
        (ms, "petersson", "modsym.petersson", None),
        (ch, "gauss_sum", "characters.gauss_sum", None),
        (ch, "enumerate_characters", "characters.enumerate_characters", None),
    ]
    for suite in SUITE_NAMES:
        targets.append((vf, "run_" + suite, "verify." + suite, None))
    return targets

# Per-layer metrics of the traced run: name -> (span name, statistic).
# "calls" and the self times come from tracer.aggregate.
SPAN_METRICS = {
    "eisenstein.arc_integral.calls": ("eisenstein.arc_integral", "calls"),
    "eisenstein.arc_integral.busy_s": ("eisenstein.arc_integral", "busy_s"),
    "eisenstein.arc_integral.wait_s": ("eisenstein.arc_integral", "wait_s"),
    "eisenstein.stream_builds": ("eisenstein.stream_build", "calls"),
    "eisenstein.stream_build.busy_s": ("eisenstein.stream_build", "busy_s"),
    "eisenstein.eta_eval.busy_s": ("eisenstein.eta_eval", "busy_s"),
    "eisenstein.quad.busy_s": ("eisenstein.quad", "busy_s"),
    "mahler.mahler_measure.calls": ("mahler.mahler_measure", "calls"),
    "mahler.mahler_measure.busy_s": ("mahler.mahler_measure", "busy_s"),
    "lseries.newform_from_curve.calls": ("lseries.newform_from_curve", "calls"),
    "elliptic.an_coefficients.calls": ("elliptic.an_coefficients", "calls"),
    "elliptic.an_coefficients.busy_s": ("elliptic.an_coefficients", "busy_s"),
    "lseries.lambda_value.calls": ("lseries.lambda_value", "calls"),
    "lseries.lambda_value.busy_s": ("lseries.lambda_value", "busy_s"),
    "lseries.root_number.calls": ("lseries.root_number", "calls"),
    "lseries.twisted_lambda_table.calls": ("lseries.twisted_lambda_table", "calls"),
    "lseries.residue_tensor_square.calls": ("lseries.residue_tensor_square", "calls"),
    "elliptic.periods.calls": ("elliptic.periods", "calls"),
    "elliptic.elliptic_dilog.calls": ("elliptic.elliptic_dilog", "calls"),
    "elliptic.elliptic_dilog.busy_s": ("elliptic.elliptic_dilog", "busy_s"),
    "modsym.xi_bridge_table.calls": ("modsym.xi_bridge_table", "calls"),
    "modsym.xi_plus.calls": ("modsym.xi_plus", "calls"),
    "modsym.period_integral_oracle.busy_s": ("modsym.period_integral_oracle", "busy_s"),
    "modsym.petersson.busy_s": ("modsym.petersson", "busy_s"),
    "characters.gauss_sum.calls": ("characters.gauss_sum", "calls"),
    "characters.enumerate_characters.calls": ("characters.enumerate_characters", "calls"),
}
for _suite in SUITE_NAMES:
    SPAN_METRICS["verify.%s.s" % _suite] = ("verify." + _suite, "wall_s")


def layer_metrics(table, counts):
    """Per-layer metric values from an aggregated span table and counts."""
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        out[metric] = table.get(span, {}).get(stat, 0)
    # The suite spans are the roots of every traced call, so the verify
    # layer reports totals: busy is the suites' thread CPU time, and wait
    # is the time a suite's thread was not running, the interpreter-lock
    # waits under the thread pool.
    suites = [table.get("verify." + s, {}) for s in SUITE_NAMES]
    out["verify.busy_s"] = sum(s.get("incl_busy_s", 0.0) for s in suites)
    out["verify.wait_s"] = sum(s.get("wall_s", 0.0) - s.get("incl_busy_s", 0.0)
                               for s in suites)
    out["eisenstein.eta_nodes"] = counts.get("eisenstein.eta_nodes", 0)
    out["mahler.roots_calls"] = counts.get("mahler.roots_calls", 0)
    arcs = out["eisenstein.arc_integral.calls"]
    out["eisenstein.streams_per_arc"] = (
        out["eisenstein.stream_builds"] / arcs if arcs else 0.0)
    out["eisenstein.nodes_per_arc"] = (
        out["eisenstein.eta_nodes"] / arcs if arcs else 0.0)
    return out
