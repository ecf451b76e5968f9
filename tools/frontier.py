"""Time and measure fresh ``ellreg verify all`` runs on large models.

    python3 tools/frontier.py [--large] [--curve a1,a2,a3,a4,a6,N ...] OUT.json

Runs ``verify all --curve ... --out ...`` of the ``src/`` beside this
script, one fresh process per model and one after another, on 389a, the
997 model and the 2017 model; ``--large`` adds 5077a and the 10061
model, and ``--curve`` (repeatable) runs the given models instead.  It
writes one JSON object to OUT.json (as ``BENCH_<n>.json``):

- ``header``: the commit (and whether ``src/`` has uncommitted changes),
  the CPU model, the core count, Python, numpy and its BLAS, the
  environment's ``PYTHONDONTWRITEBYTECODE`` and ``OPENBLAS_NUM_THREADS``,
  the load average (1, 5 and 15 minutes) before the first run and after
  the last, and ``bare_child``, the figures of a ``python3 -c pass``
  child started the same way, the floor under every model's peak;
- ``models``: per model its label and curve; ``wall_s``, ``cpu_s``
  (user and system) and ``peak_rss_mb`` (``ru_maxrss`` in MiB), from
  ``os.wait4``; the exit ``code``; and, from its report, the row count
  ``rows``, the ``failed`` check names, each row family's worst error
  (``worst_error``, families as ``report_diff.family`` names them) and
  the margin (``margin_digits`` and ``margin_check``, as report_diff's
  margin line reads them).  A run that wrote no report has these
  report fields null and keeps its last 2,000 characters of stderr.

A child's ``ru_maxrss`` starts at its launcher's resident size, so the
launcher imports neither numpy nor ``ellreg`` until its last child has
exited; it reads the reports and numpy's build only then.  It exits 0
when every run passes every row, else 1, and 2 on bad arguments.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)  # for report_diff, imported after the children

MODELS = {"389a": "0,1,1,-2,0,389",
          "997 model": "0,-1,1,-5,-3,997",
          "2017 model": "1,1,0,-10,9,2017"}
LARGE = {"5077a": "0,0,1,-7,6,5077",
         "10061 model": "0,0,1,-8,7,10061"}


def launch(argv, env):
    """Run argv to completion: wall and CPU seconds, peak RSS in MiB, the
    exit code and the tail of stderr, from os.wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()  # the child ends once it closes its stderr
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return {"wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "stderr": stderr.decode(errors="replace")[-2000:]}


def _git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _read_report(path):
    """rows, failed, worst_error, margin_digits and margin_check of one
    report, all None if there is none; imports ellreg, so only after the
    last child."""
    if not os.path.exists(path):
        return dict.fromkeys(("rows", "failed", "worst_error",
                              "margin_digits", "margin_check"))
    import report_diff
    rows = report_diff._rows(path)
    digits, check = report_diff.margin_digits(rows)
    return {"rows": len(rows),
            "failed": sorted(c for c, r in rows.items() if not r.passed),
            "worst_error": dict(sorted(report_diff.worst_errors(
                rows.values()).items())),
            "margin_digits": digits if digits < float("inf") else None,
            "margin_check": check}


def _numpy_header():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", metavar="OUT.json")
    parser.add_argument("--large", action="store_true",
                        help="add 5077a and the 10061 model")
    parser.add_argument("--curve", action="append", metavar="SPEC",
                        help="run this model instead of the defaults")
    args = parser.parse_args(argv)
    models = ({spec: spec for spec in args.curve} if args.curve
              else {**MODELS, **(LARGE if args.large else {})})
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    header = {"commit": _git("rev-parse", "HEAD"),
              "dirty": bool(_git("status", "--porcelain", "--", "src")),
              "cpu_model": _cpu_model(),
              "cpu_count": os.cpu_count(),
              "python": platform.python_version(),
              "PYTHONDONTWRITEBYTECODE":
                  os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
              "load_before": os.getloadavg()}
    bare = launch([sys.executable, "-c", "pass"], env)
    del bare["stderr"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, spec) in enumerate(models.items()):
            path = os.path.join(tmp, "%d.json" % i)
            run = launch([sys.executable, "-m", "ellreg.cli", "verify", "all",
                          "--curve", spec, "--out", path], env)
            runs.append((dict(model=label, curve=spec, **run), path))
        header["load_after"] = os.getloadavg()
        header.update(_numpy_header(), bare_child=bare)
        models = []
        for run, path in runs:
            models.append(dict(run, **_read_report(path)))
            if models[-1]["rows"] is not None:
                del models[-1]["stderr"]
    with open(args.out, "w") as handle:
        json.dump({"header": header, "models": models}, handle, indent=1)
        handle.write("\n")
    return 0 if all(m["code"] == 0 and m["rows"] and not m["failed"]
                    for m in models) else 1


if __name__ == "__main__":
    sys.exit(main())
