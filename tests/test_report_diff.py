"""tools/report_diff.py on small synthetic reports, the run list of
tools/report_set.py, and the keys tools/layer_profile.py prints."""

import importlib.util
import json
import os

import pytest

from ellreg.verify import make_report, reports_to_json

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report_diff():
    return _load("report_diff")


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


def test_directories_compare_each_report_they_share(report_diff, tmp_path,
                                                    capsys):
    # a.json identical, b.json with a moved side, c.json on one side only.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for path, rows in ((parent, _rows()), (change, _rows())):
        path.mkdir()
        (path / "a.json").write_text(reports_to_json(rows))
    (parent / "b.json").write_text(reports_to_json(_rows()))
    (change / "b.json").write_text(reports_to_json(
        _rows(identity_right=1.0 + 3e-12)))
    (parent / "c.json").write_text(reports_to_json(_rows()))
    (parent / "notes.txt").write_text("not a report")
    code = report_diff.main([str(parent), str(change)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == ["== a.json", "identical", MARGIN, MARGIN,
                   "== b.json",
                   "thm1:identity: 1 rows differ in abs_err, error, "
                   "rel_err, right, largest side move 2.000e-12, worst "
                   "error 1.000e-12 -> 3.000e-12",
                   MARGIN, "margin: 2.523 digits (thm1:identity:11:a)",
                   "only in the first directory: c.json"]
    # Identical shared reports and no file on one side only exit 0.
    (parent / "c.json").unlink()
    (change / "b.json").write_text(reports_to_json(_rows()))
    assert report_diff.main([str(parent), str(change)]) == 0
    capsys.readouterr()
    # A report file against a directory is a usage error.
    assert report_diff.main([str(parent / "a.json"), str(change)]) == 2


def test_report_set_writes_the_seventeen_standard_reports(tmp_path,
                                                          monkeypatch):
    report_set = _load("report_set")
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return 1 if "389" in argv[-3] else 0
    monkeypatch.setattr(report_set.cli, "main", fake_main)
    out = tmp_path / "reports"
    assert report_set.main([str(out)]) == 1
    assert out.is_dir() and len(calls) == 17
    assert calls[0] == ["verify", "all", "--level", "11", "--out",
                        str(out / "11-all.json")]
    assert calls[-1] == ["verify", "appendix", "--curve", "0,1,1,-2,0,389",
                         "--out", str(out / "389a-appendix.json")]
    names = sorted(os.path.basename(argv[-1]) for argv in calls)
    assert names == sorted(
        ["11-all.json"] + ["%s-%s.json" % (label, suite)
                           for label in ("17a", "37a", "101a", "389a")
                           for suite in ("thm1", "thm2", "thm3", "appendix")])
    assert report_set.main([]) == 2


def test_layer_profile_prints_every_field_and_suite_at_11(capsys):
    layer_profile = _load("layer_profile")
    assert layer_profile.main(["--level", "11", "appendix", "thm1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"header", "fields", "suites"}
    assert set(out["header"]) == {"python", "numpy", "blas", "cpu_count",
                                  "curve"}
    assert out["header"]["curve"] == [0, -1, 1, 0, 0, 11]
    assert list(out["fields"]) == [
        "form", "w", "lambda_table", "l_one", "l_two", "dilog", "xi",
        "pairing", "eta_arcs", "arc_sums", "residue"]
    assert list(out["suites"]) == ["appendix", "thm1"]
    for figures in [*out["fields"].values(), *out["suites"].values()]:
        assert figures["s"] > 0.0 and figures["peak_mb"] > 0.0
    assert set(out["suites"]["appendix"]["families"]) == {
        "appendix:petersson-residue", "appendix:imag-part",
        "appendix:positivity", "appendix:xi-oracle"}
    # Away from 11 the dilogarithm is not built, and a suite for 11 alone
    # is skipped.
    assert layer_profile.main(["--level", "17", "thm8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "dilog" not in out["fields"]
    assert set(out["suites"]["thm8"]) == {"skipped"}


def test_the_standard_reports_keep_their_fingerprint():
    # The 17 reports, rebuilt here, against the fingerprint committed in
    # tests/data: the same rows in the same order, the same verdicts, and
    # no family's worst error above 10x its record (or 1e-15).
    report_fingerprint = _load("report_fingerprint")
    with open(report_fingerprint.DEFAULT_OUT) as handle:
        recorded = json.load(handle)
    assert list(recorded) == [name for name, _ in
                              report_fingerprint.report_set.RUNS]
    assert report_fingerprint.compare(recorded,
                                      report_fingerprint.build()) == []


def test_fingerprint_compare_names_every_departure():
    report_fingerprint = _load("report_fingerprint")
    record = {"r": {"rows": ["PASS a:x:1", "PASS a:x:2", "PASS b:y"],
                    "families": {"a:x": 1e-12, "b:y": 0.0}, "margin": ""}}
    compare = report_fingerprint.compare

    def moved(rows=None, **families):
        entry = dict(record["r"], families=dict(record["r"]["families"],
                                                **families))
        if rows is not None:
            entry["rows"] = rows
        return {"r": entry}
    # A tenfold rise, and a rounding-level move off an exact 0, pass.
    assert compare(record, moved(**{"a:x": 1e-11, "b:y": 1e-15})) == []
    assert compare(record, moved(**{"a:x": 1.1e-11, "b:y": 2e-15})) == [
        "r: a:x: worst error 1.000e-12 -> 1.100e-11",
        "r: b:y: worst error 0.000e+00 -> 2.000e-15"]
    assert compare(record, moved(["PASS a:x:1", "FAIL a:x:2", "PASS b:y"])
                   ) == ["r: flipped: a:x:2 PASS -> FAIL"]
    assert compare(record, moved(["PASS a:x:2", "PASS a:x:1", "PASS b:y"])
                   ) == ["r: the row names or their order differ"]
    assert compare(record, {}) == ["only in the recorded fingerprint: r"]
