"""Compare two ``ellreg verify --out`` reports row by row.

    python3 tools/report_diff.py PARENT.json CHANGE.json

Rows are matched by their check name, and ``seconds`` is ignored.  When
every other field of every row agrees bit for bit, this prints
"identical" and exits 0.  Otherwise it prints, for each row family (the
first two ':' fields of a check name) with a row that differs, the
largest move of either side and the worst error before and after; then
every flipped verdict and every row present on one side only.  It then
exits 1, and exits 2 on a wrong number of arguments.
"""

import json
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from ellreg.verify import reports_from_json  # noqa: E402


def _rows(path):
    with open(path) as handle:
        return {r.check: r for r in reports_from_json(handle.read())}


def _fields(report):
    """The row as JSON text without its timing: floats print by repr, so
    equal text is equal bits (and nan equals nan)."""
    data = report.to_dict()
    del data["seconds"]
    return json.dumps(data, sort_keys=True)


def diff(before, after):
    """The report lines for two {check: CheckReport} maps, [] when they
    are identical."""
    families = defaultdict(list)
    flipped = []
    for check in before.keys() & after.keys():
        old, new = before[check], after[check]
        if _fields(old) != _fields(new):
            families[":".join(check.split(":")[:2])].append((old, new))
        if old.passed != new.passed:
            flipped.append("flipped: %s %s -> %s" % (
                check, *("PASS" if r.passed else "FAIL" for r in (old, new))))
    lines = []
    for family, pairs in sorted(families.items()):
        moved = max(max(abs(new.left - old.left), abs(new.right - old.right))
                    for old, new in pairs)
        lines.append("%s: %d rows differ, largest side move %.3e, worst "
                     "error %.3e -> %.3e" % (
                         family, len(pairs), moved,
                         max(old.error for old, _ in pairs),
                         max(new.error for _, new in pairs)))
    lines += sorted(flipped)
    lines += ["only in the first report: " + c
              for c in sorted(before.keys() - after.keys())]
    lines += ["only in the second report: " + c
              for c in sorted(after.keys() - before.keys())]
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    lines = diff(*map(_rows, argv))
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
