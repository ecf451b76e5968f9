"""Compare two ``ellreg verify --out`` reports row by row.

    python3 tools/report_diff.py PARENT.json CHANGE.json
    python3 tools/report_diff.py PARENT_DIR CHANGE_DIR

Rows are matched by their check name, and ``seconds`` is ignored.  When
every other field of every row agrees bit for bit, this prints
"identical".  Otherwise it prints, for each row family (the first two
':' fields of a check name) with a row that differs, the fields that
differ (a dict field by its key, as ``truncation.arc_gap``), the
largest move of either side and the worst error before and after; then
every flipped verdict and every row present on one side only.  Last
comes one line per report, ``margin: D digits (CHECK)``, with D = -log10
of the largest error / tolerance, the figure perfbench's
``err_margin_digits`` reads, and CHECK the row that sets it.  Given two
directories (as tools/report_set.py writes), it compares each JSON file
they share by name, under a line ``== NAME``, and lists the files found
in one directory only.  It exits 0 when the reports are identical, 1
when they differ (or a file is on one side only) and 2 on a wrong
number of arguments or a file against a directory.
"""

import json
import math
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
    """The row's fields by name as JSON text, without its timing: floats
    print by repr, so equal text is equal bits (and nan equals nan).  The
    inputs and truncation dicts give one entry per key, as
    truncation.arc_gap."""
    data = report.to_dict()
    del data["seconds"]
    for name in ("inputs", "truncation"):
        data.update(("%s.%s" % (name, key), item)
                    for key, item in data.pop(name).items())
    return {name: json.dumps(value, sort_keys=True)
            for name, value in data.items()}


def margin(rows):
    """The line "margin: D digits (CHECK)" for a {check: CheckReport} map:
    D = -log10 max(error / tolerance), as perfbench reads it (a nan error
    counts as the worst), and CHECK the row with that maximum."""
    def ratio(check):
        value = rows[check].error / rows[check].tolerance
        return math.inf if math.isnan(value) else value
    worst = max(sorted(rows), key=ratio)
    digits = -math.log10(ratio(worst)) if ratio(worst) > 0 else math.inf
    return "margin: %.3f digits (%s)" % (digits, worst)


def diff(before, after):
    """The report lines for two {check: CheckReport} maps, [] when they
    are identical."""
    families = defaultdict(list)
    fields = defaultdict(set)  # the fields that differ, by family
    flipped = []
    for check in before.keys() & after.keys():
        old, new = before[check], after[check]
        old_fields, new_fields = _fields(old), _fields(new)
        moved = {name for name in old_fields.keys() | new_fields.keys()
                 if old_fields.get(name) != new_fields.get(name)}
        if moved:
            family = ":".join(check.split(":")[:2])
            families[family].append((old, new))
            fields[family] |= moved
        if old.passed != new.passed:
            flipped.append("flipped: %s %s -> %s" % (
                check, *("PASS" if r.passed else "FAIL" for r in (old, new))))
    lines = []
    for family, pairs in sorted(families.items()):
        moved = max(max(abs(new.left - old.left), abs(new.right - old.right))
                    for old, new in pairs)
        lines.append("%s: %d rows differ in %s, largest side move %.3e, "
                     "worst error %.3e -> %.3e" % (
                         family, len(pairs), ", ".join(sorted(fields[family])),
                         moved, max(old.error for old, _ in pairs),
                         max(new.error for _, new in pairs)))
    lines += sorted(flipped)
    lines += ["only in the first report: " + c
              for c in sorted(before.keys() - after.keys())]
    lines += ["only in the second report: " + c
              for c in sorted(after.keys() - before.keys())]
    return lines


def compare(paths):
    """The report lines for two report files and 1 if they differ, else 0."""
    reports = [_rows(path) for path in paths]
    lines = diff(*reports)
    return ((lines or ["identical"]) + [margin(rows) for rows in reports
                                        if rows], 1 if lines else 0)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or os.path.isdir(argv[0]) != os.path.isdir(argv[1]):
        print("usage: python3 tools/report_diff.py PARENT.json CHANGE.json"
              "\n   or: python3 tools/report_diff.py PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    if not os.path.isdir(argv[0]):
        lines, code = compare(argv)
        print("\n".join(lines))
        return code
    first, second = ({name for name in os.listdir(path)
                      if name.endswith(".json")} for path in argv)
    lines, code = [], 0
    for name in sorted(first & second):
        report, moved = compare([os.path.join(path, name) for path in argv])
        lines += ["== " + name] + report
        code = max(code, moved)
    lines += ["only in the first directory: " + n
              for n in sorted(first - second)]
    lines += ["only in the second directory: " + n
              for n in sorted(second - first)]
    print("\n".join(lines))
    return 1 if first ^ second else code


if __name__ == "__main__":
    sys.exit(main())
