"""Run one benchmark workload in this process and write its report rows.

Usage: python3 perfbench/child.py WORKLOAD --seed N --out ROWS.json
       [--trace SPANS.json]

``run.py`` starts this script as a fresh process with the checkout's
``src`` on PYTHONPATH.  The exit code is the one ``ellreg verify``
would give: 0 when every row passes, 1 when one fails.  With --trace
the public functions of each layer are wrapped by ``tracer.Tracer``
before the workload starts, and the spans are written after it ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, layer_targets, suite_order  # noqa: E402


def install_tracer():
    import numpy

    from tracer import Tracer

    # Every module of the package, so that each name-imported reference
    # to a traced function is patched, including modules added later.
    package = importlib.import_module("ellreg")
    modules = [importlib.import_module("ellreg." + info.name)
               for info in pkgutil.iter_modules(package.__path__)]
    tracer = Tracer()
    for owner, attr, name, counter in layer_targets(modules, numpy):
        tracer.patch(owner, attr, name, [package] + modules, counter)
    return tracer


def run_workload(name, seed, out):
    spec = WORKLOADS[name]
    if "cli" in spec:
        from ellreg.cli import main
        return main(spec["cli"] + ["--out", out])

    from ellreg.elliptic import CurveModel
    from ellreg.verify import SUITES, reports_to_json, resolve_config

    curve = None
    if "curve" in spec:
        curve = CurveModel(*(int(t) for t in spec["curve"].split(",")))
    config = resolve_config(level=spec.get("level"), curve=curve)
    reports = []
    for suite in suite_order(name, seed):
        reports.extend(SUITES[suite](config))
    with open(out, "w") as handle:
        handle.write(reports_to_json(reports))
    return 0 if all(r.passed for r in reports) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    import ellreg
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(ellreg.__file__).startswith(src):
        sys.exit("child: ellreg was imported from %s, not from %s"
                 % (ellreg.__file__, src))

    tracer = install_tracer() if args.trace else None
    code = run_workload(args.workload, args.seed, args.out)
    if tracer is not None:
        tracer.restore()
        with open(args.trace, "w") as handle:
            json.dump({"spans": tracer.spans(), "counts": tracer.counts()},
                      handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
