"""Write the fingerprint of the standard set of ``ellreg verify`` reports.

    python3 tools/report_fingerprint.py [OUT.json]

Runs tools/report_set.py's 17 reports in one process, in a temporary
directory, and writes to OUT.json (default
tests/data/report_fingerprint.json) one entry per report, by its name
(as ``11-all``): ``rows``, each row's verdict and check name in order
(as ``PASS thm1:fricke-sign``); ``families``, each row family's worst
error (the first two ':' fields of a check name, as report_diff groups
rows); and ``margin``, report_diff's margin line.  When OUT.json already
exists, it first prints what ``compare`` finds between that file and
the new fingerprint, one line each: the moves a change that regenerates
the file declares.  It exits 0, and 2 on more than one argument.

A tier-1 test rebuilds the reports and checks them against the
committed file with ``compare``.  Rows move at rounding level across
BLAS builds and CPUs; the bitwise comparison of two report sets stays
with report_diff.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report_diff  # noqa: E402
import report_set  # noqa: E402

DEFAULT_OUT = os.path.join(HERE, os.pardir, "tests", "data",
                           "report_fingerprint.json")
GROWTH = 10.0  # how far a family's worst error may rise over its record
# The error a family may reach whatever its record: families that read
# exactly 0 on one machine move at rounding level on another BLAS.
FLOOR = 1e-15


def family(check):
    return ":".join(check.split(":")[:2])


def fingerprint_of(rows):
    """The fingerprint of one report, a list of CheckReport rows."""
    worst = {}
    for r in rows:
        # A nan error counts as the worst, as in report_diff's margin.
        error = math.inf if math.isnan(r.error) else r.error
        worst[family(r.check)] = max(worst.get(family(r.check), 0.0), error)
    return {"rows": ["%s %s" % ("PASS" if r.passed else "FAIL", r.check)
                     for r in rows],
            "families": worst,
            "margin": report_diff.margin({r.check: r for r in rows})}


def build():
    """The fingerprints of tools/report_set.py's 17 reports, by name,
    built in this process with the run summaries silenced."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            report_set.main([out])
        prints = {}
        for name, _ in report_set.RUNS:
            with open(os.path.join(out, name + ".json")) as handle:
                prints[name] = fingerprint_of(
                    report_diff.reports_from_json(handle.read()))
    return prints


def compare(recorded, current):
    """One line per departure of current from recorded: a report on one
    side only, row names or order that differ, a flipped verdict, and a
    family whose worst error exceeds GROWTH times its record and FLOOR
    (or that is new).  [] when current keeps the record."""
    lines = ["only in the recorded fingerprint: " + name
             for name in sorted(recorded.keys() - current.keys())]
    lines += ["only in the new fingerprint: " + name
              for name in sorted(current.keys() - recorded.keys())]
    for name in sorted(recorded.keys() & current.keys()):
        old, new = recorded[name], current[name]
        old_rows, new_rows = ([row.split(" ", 1) for row in fp["rows"]]
                              for fp in (old, new))
        if [c for _, c in old_rows] != [c for _, c in new_rows]:
            lines.append("%s: the row names or their order differ" % name)
        else:
            lines += ["%s: flipped: %s %s -> %s" % (name, check, was, now)
                      for (was, check), (now, _) in zip(old_rows, new_rows)
                      if was != now]
        for fam, error in sorted(new["families"].items()):
            bound = max(GROWTH * old["families"].get(fam, math.nan), FLOOR)
            if not error <= bound:
                lines.append("%s: %s: worst error %.3e -> %.3e" % (
                    name, fam, old["families"].get(fam, math.nan), error))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python3 tools/report_fingerprint.py [OUT.json]",
              file=sys.stderr)
        return 2
    out = argv[0] if argv else DEFAULT_OUT
    current = build()
    if os.path.exists(out):
        with open(out) as handle:
            for line in compare(json.load(handle), current):
                print(line)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(current, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
