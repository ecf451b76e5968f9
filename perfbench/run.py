"""End-to-end benchmark of the ellreg verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--save FILE]

With --trace 0 (the default) each workload is timed from outside: the
benchmark starts fresh ``perfbench/child.py`` processes, one at a time,
until --seconds have passed (at least one), and reads wall time, CPU
time and peak RSS of each from ``wait4``.  Set-up time is the median of
several fresh ``import ellreg.cli`` processes.  With --trace 1 it runs
the workload once untraced and once under the outside-in tracer and
reports the per-layer table and the tracing overhead.

Every process's report rows are checked against the rows frozen in
``expected_rows.json``.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it,
each starting with "#", are the run header and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import aggregate  # noqa: E402
from workloads import WORKLOADS, layer_metrics  # noqa: E402

SETUP_SAMPLES = 15
# Imports before the timed ones, so that the file cache is warm.
SETUP_WARMUP = 2
# Every child is killed once a workload has used this much time, so that
# a run ends within 180 seconds even if ellreg hangs.
WORKLOAD_LIMIT_S = 170.0


def run_header():
    """Where and on what the run was measured."""
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ellreg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": _version("sympy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist):
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version(dist)
    except PackageNotFoundError:
        return None


class Runner:
    """Starts child processes inside the checkout under a shared deadline."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.deadline = time.monotonic() + WORKLOAD_LIMIT_S
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self._serial = 0

    def path(self, suffix):
        self._serial += 1
        return os.path.join(self.work_dir, "%03d%s" % (self._serial, suffix))

    def launch(self, argv):
        """Run argv to completion; wall, CPU and peak RSS from wait4."""
        err_path = self.path(".err")
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(
                max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path) as handle:
            stderr_tail = handle.read()[-2000:]
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "code": proc.returncode, "stderr": stderr_tail}

    def setup_sample(self):
        return self.launch([sys.executable, "-c", "import ellreg.cli"])

    def workload(self, name, seed, trace=False):
        """One fresh workload process, with its rows checked."""
        out = self.path(".rows.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), name,
                "--seed", str(seed), "--out", out]
        spans = self.path(".spans.json") if trace else None
        if spans:
            argv += ["--trace", spans]
        proc = self.launch(argv)
        proc.update(check_rows(name, out, proc["code"]))
        if spans and os.path.exists(spans):
            with open(spans) as handle:
                proc["trace"] = json.load(handle)
        return proc


def expected_rows():
    with open(os.path.join(HERE, "expected_rows.json")) as handle:
        return json.load(handle)


def check_rows(workload, out, code):
    """Rows failed against the frozen row names: a missing, unexpected or
    failed row counts one, and so does a nonzero exit code."""
    want = Counter(expected_rows()[workload])
    rows = []
    if os.path.exists(out):
        with open(out) as handle:
            rows = json.load(handle)
    got = Counter(row["check"] for row in rows)
    mismatched = sum(((want - got) + (got - want)).values())
    failed = sum(1 for row in rows
                 if not row["passed"] and row["check"] in want)
    failures = mismatched + failed + (code != 0)
    ratios = [row["error"] / row["tolerance"] for row in rows]
    worst = max(ratios, default=1.0)  # no rows: no margin
    return {"rows_expected": sum(want.values()), "rows_failed": failures,
            "err_margin_digits": -math.log10(worst) if worst > 0 else 300.0}


def measure(runner, name, seed, seconds):
    """End-to-end metrics of one workload, traced off."""
    for _ in range(SETUP_WARMUP):
        runner.setup_sample()
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    procs = []
    start = time.perf_counter()
    while not procs or time.perf_counter() - start < seconds:
        procs.append(runner.workload(name, seed))
    med = {k: statistics.median(p[k] for p in procs)
           for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics = {
        "wall_s": med["wall_s"],
        "cpu_s": med["cpu_s"],
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "peak_rss_mb": med["peak_rss_mb"],
        "err_margin_digits": min(p["err_margin_digits"] for p in procs),
    }
    return metrics, procs


def measure_traced(runner, name, seed):
    """Per-layer metrics from one traced run, plus the tracing overhead."""
    plain = runner.workload(name, seed)
    traced = runner.workload(name, seed, trace=True)
    trace = traced.pop("trace", {"spans": [], "counts": {}})
    metrics = layer_metrics(aggregate(trace["spans"]), trace["counts"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, [plain, traced]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the ellreg verifier end to end.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", default=None,
                        help="append one JSON record per workload here")
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so Runner.launch kills and reaps
    # the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "ellreg", "verify.py")):
        print("perfbench: no ellreg source under %s" % ROOT, file=sys.stderr)
        return 2

    bench = load_benchmark()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]
    header = run_header()
    print("# header " + json.dumps(header, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work_dir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            runner = Runner(work_dir)
            load_before = os.getloadavg()
            if args.trace:
                metrics, procs = measure_traced(runner, name, args.seed)
            else:
                metrics, procs = measure(runner, name, args.seed, seconds)
            load_after = os.getloadavg()
            attempted = sum(p["rows_expected"] for p in procs)
            failed = sum(p["rows_failed"] for p in procs)
            result = {"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}
            print_table(name, procs, result, load_before, load_after)
            if args.save:
                record = {"workload": name, "seed": args.seed,
                          "seconds": seconds, "trace": args.trace,
                          "header": header, "load_before": load_before,
                          "load_after": load_after, "result": result,
                          "processes": [{k: p[k] for k in (
                              "wall_s", "cpu_s", "peak_rss_mb", "code",
                              "rows_failed")} for p in procs]}
                with open(args.save, "a") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            total["correct"] &= result["correct"]
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(names) == 1 else name + "."
            for key, value in result["metrics"].items():
                total["metrics"][prefix + key] = value
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(total))
    return 0


def print_table(name, procs, result, load_before, load_after):
    print("# %s: %d process(es), load average %.2f before, %.2f after"
          % (name, len(procs), load_before[0], load_after[0]))
    for key, metric in sorted(result["metrics"].items()):
        print("#   %-40s %14.6g %s" % (key, metric["value"], metric["unit"]))
    frac = result["failed"] / result["attempted"]
    print("#   %-40s %14.6g (%d of %d rows)" % (
        "rows_failed_frac", frac, result["failed"], result["attempted"]))
    for p in procs:
        if p["rows_failed"]:
            print("#   process exit %d, stderr: %s" % (
                p["code"], p["stderr"].strip().replace("\n", " | ")[-500:]))


if __name__ == "__main__":
    sys.exit(main())
