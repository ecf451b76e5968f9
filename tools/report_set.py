"""Write the standard set of ``ellreg verify --out`` reports.

    python3 tools/report_set.py OUT_DIR

Runs, in one process through ``cli.main`` of the ``src/`` beside this
script, ``verify all`` at level 11 and thm1, thm2, thm3 and appendix on
17a, 37a, 101a and 389a: 17 reports, written to OUT_DIR (made if
missing) as LABEL-SUITE.json, as 11-all.json and 37a-thm1.json.  Two
such directories, one from each side of a change, compare file by file
with ``python3 tools/report_diff.py PARENT_DIR CHANGE_DIR``.  It exits
with the largest exit code of its runs (0 when every check passes) and
2 on a wrong number of arguments.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from ellreg import cli  # noqa: E402

CURVES = {"17a": ["--level", "17"],
          "37a": ["--curve", "0,0,1,-1,0,37"],
          "101a": ["--curve", "0,1,1,-1,-1,101"],
          "389a": ["--curve", "0,1,1,-2,0,389"]}
RUNS = [("11-all", ["all", "--level", "11"])] + [
    ("%s-%s" % (label, suite), [suite] + flags)
    for label, flags in CURVES.items()
    for suite in ("thm1", "thm2", "thm3", "appendix")]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/report_set.py OUT_DIR", file=sys.stderr)
        return 2
    os.makedirs(argv[0], exist_ok=True)
    return max(cli.main(["verify"] + args + [
        "--out", os.path.join(argv[0], name + ".json")])
        for name, args in RUNS)


if __name__ == "__main__":
    sys.exit(main())
