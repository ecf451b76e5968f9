"""Time and measure the layers of a verify run, in one process.

    python3 tools/layer_profile.py [--level N | --curve a1,a2,a3,a4,a6,N] [SUITE ...]

Imports the ``src/`` beside this script and prints one JSON object:

- ``header``: Python, numpy and its BLAS, the CPU count and the curve;
- ``fields``: each ``verify.CurveContext`` field (``dilog`` only at 11),
  built alone in a fresh context, so that its figures include the fields
  it reads first;
- ``suites``: each SUITE (default: every suite), run on one context with
  every field prebuilt, with its rows' seconds from the untraced run
  summed by row family (the first two ':' fields of a check name),
  where the bridge table shows as ``appendix:xi-oracle``; a suite
  that does not apply to the curve gets ``{"skipped": reason}``.

Each build and each run is made twice: once untraced, for its wall
seconds (``s``), and once under tracemalloc, for its peak in MB of 10^6
bytes (``peak_mb``).  Module-level caches, such as the character
tables, are warm after the first field, as they are in a verify run.
"""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from collections import defaultdict
from functools import cached_property

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import numpy  # noqa: E402

from ellreg.cli import _parse_curve  # noqa: E402
from ellreg.verify import (SUITES, CurveContext, NotApplicable,  # noqa: E402
                           resolve_config)


def _measure(make):
    """make() run untraced for its wall seconds and result, then again,
    on fresh state, under tracemalloc for its peak."""
    start = time.perf_counter()
    result = make()
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"s": seconds, "peak_mb": peak / 1e6}, result


def _header(config):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    curve = config.curve
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "cpu_count": os.cpu_count(),
            "curve": [curve.a1, curve.a2, curve.a3, curve.a4, curve.a6,
                      curve.conductor]}


def _field_names(level):
    return [name for name, item in vars(CurveContext).items()
            if isinstance(item, cached_property)
            and (name != "dilog" or level == 11)]


def _run_suite(suite, config):
    rows = suite(config)
    families = defaultdict(float)
    for row in rows:
        families[":".join(row.check.split(":")[:2])] += row.seconds
    return dict(families)


def profile(config, suites):
    """The JSON object described in the module docstring."""
    fields = {}
    for name in _field_names(config.level):
        fields[name], _ = _measure(
            lambda: getattr(CurveContext(config), name))
    for name in fields:
        getattr(config.context, name)
    runs = {}
    for name in suites:
        try:
            figures, families = _measure(
                lambda: _run_suite(SUITES[name], config))
        except NotApplicable as exc:
            runs[name] = {"skipped": str(exc)}
        else:
            runs[name] = dict(figures, families=families)
    return {"header": _header(config), "fields": fields, "suites": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time each CurveContext field and suite in process.")
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--level", type=int, default=None)
    where.add_argument("--curve", default=None,
                       help="a1,a2,a3,a4,a6,N Weierstrass coefficients")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help="one of %s (default: all)" % ", ".join(SUITES))
    args = parser.parse_args(argv)
    unknown = sorted(set(args.suites) - set(SUITES))
    if unknown:
        parser.error("unknown suite %s" % ", ".join(unknown))
    curve = _parse_curve(args.curve) if args.curve else None
    config = resolve_config(level=args.level, curve=curve)
    print(json.dumps(profile(config, args.suites or list(SUITES)),
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
