"""tools/report_diff.py on small synthetic reports."""

import importlib.util
import os

import pytest

from ellreg.verify import make_report, reports_to_json

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "report_diff.py")


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(identity_right=1.0 + 1e-12, seconds=0.5, drop=None, gap=1e-14):
    rows = [
        make_report("thm1:identity:11:a", {}, 1.0, identity_right, 1e-9,
                    seconds, truncation={"arc_gap": gap}),
        make_report("thm1:identity:11:b", {}, 2.0, 2.0, 1e-9, seconds),
        make_report("thm3:closedness", {}, 0.0, 0.0, 1e-9, seconds,
                    error_kind="abs"),
    ]
    return [r for r in rows if r.check != drop]


def _run(report_diff, tmp_path, capsys, before, after):
    paths = []
    for name, rows in (("parent.json", before), ("change.json", after)):
        path = tmp_path / name
        path.write_text(reports_to_json(rows))
        paths.append(str(path))
    code = report_diff.main(paths)
    return code, capsys.readouterr().out.splitlines()


# thm1:identity:11:a sets each report's margin: error 1e-12 against 1e-9.
MARGIN = "margin: 3.000 digits (thm1:identity:11:a)"


def test_reports_that_differ_only_in_seconds_are_identical(
        report_diff, tmp_path, capsys):
    code, out = _run(report_diff, tmp_path, capsys, _rows(),
                     _rows(seconds=7.0))
    assert (code, out) == (0, ["identical", MARGIN, MARGIN])


def test_a_moved_side_is_reported_by_family(report_diff, tmp_path, capsys):
    code, out = _run(report_diff, tmp_path, capsys, _rows(),
                     _rows(identity_right=1.0 + 3e-12))
    assert code == 1
    assert out == ["thm1:identity: 1 rows differ in abs_err, error, "
                   "rel_err, right, largest side move 2.000e-12, worst "
                   "error 1.000e-12 -> 3.000e-12",
                   MARGIN, "margin: 2.523 digits (thm1:identity:11:a)"]


def test_a_moved_truncation_field_is_named_by_its_key(
        report_diff, tmp_path, capsys):
    # Bitwise sides with only the gap moved: the family names the field.
    code, out = _run(report_diff, tmp_path, capsys, _rows(),
                     _rows(gap=2e-14))
    assert (code, out) == (1, [
        "thm1:identity: 1 rows differ in truncation.arc_gap, largest side "
        "move 0.000e+00, worst error 1.000e-12 -> 1.000e-12",
        MARGIN, MARGIN])


def test_the_margin_names_the_row_that_sets_it(report_diff, tmp_path,
                                               capsys):
    # Moving row b past row a moves the margin to b.
    after = _rows()
    after[1] = make_report("thm1:identity:11:b", {}, 2.0, 2.0 + 1e-10, 1e-9,
                           0.5)
    code, out = _run(report_diff, tmp_path, capsys, _rows(), after)
    assert code == 1
    assert out[-2:] == [MARGIN, "margin: 1.301 digits (thm1:identity:11:b)"]


def test_a_flipped_verdict_is_listed(report_diff, tmp_path, capsys):
    code, out = _run(report_diff, tmp_path, capsys, _rows(),
                     _rows(identity_right=1.1))
    assert code == 1
    assert out[0].startswith("thm1:identity: 1 rows differ")
    assert out[1:] == ["flipped: thm1:identity:11:a PASS -> FAIL", MARGIN,
                       "margin: -7.959 digits (thm1:identity:11:a)"]


def test_a_row_on_one_side_only_is_listed(report_diff, tmp_path, capsys):
    code, out = _run(report_diff, tmp_path, capsys, _rows(),
                     _rows(drop="thm3:closedness"))
    assert (code, out) == (1, ["only in the first report: thm3:closedness",
                               MARGIN, MARGIN])
    code, out = _run(report_diff, tmp_path, capsys,
                     _rows(drop="thm1:identity:11:b"), _rows())
    assert (code, out) == (1, ["only in the second report: "
                               "thm1:identity:11:b", MARGIN, MARGIN])
