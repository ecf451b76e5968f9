import json
import os
import re
import subprocess
import sys

import pytest

from ellreg.cli import main


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "thm8", "--out", str(out)]) == 0
    assert "6/6 checks passed" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert isinstance(data, list) and len(data) == 6
    keys = {"check", "inputs", "left", "right", "abs_err", "rel_err",
            "error_kind", "error", "tolerance", "passed", "seconds",
            "truncation"}
    assert all(set(entry) == keys for entry in data)
    assert all(entry["passed"] for entry in data)


def test_verify_exit_codes(capsys):
    assert main(["verify", "thm1", "--level", "12"]) == 2
    assert "conductor 12" in capsys.readouterr().err
    assert main(["verify", "cor101", "--tolerance", "1e-16"]) == 1
    assert main(["verify", "cor101", "--tolerance", "1e-3"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9"])
    assert exc.value.code == 2


def test_units_divisor_table(capsys):
    assert main(["units", "--level", "11", "--char", "11:g=2,zeta5^1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["level"] == 11 and data["character"] == "11:g=2,zeta5^1"
    orders = {tuple(row["cusp"]): complex(*row["order"])
              for row in data["divisor"]}
    assert len(orders) == 10
    # Character units only meet the cusps lying over zero.
    assert all(abs(orders[(u, 0)]) < 1e-12 for u in range(1, 6))
    assert max(abs(v) for v in orders.values()) > 0.05
    assert abs(sum(orders.values())) < 1e-12


def test_units_rejects_bad_requests(capsys):
    assert main(["units", "--level", "13", "--char", "11:g=2,zeta5^1"]) == 2
    assert main(["units", "--level", "11", "--char", "11:g=2,zeta10^1"]) == 2
    capsys.readouterr()


def test_mahler_subcommand(capsys):
    assert main(["mahler", "--poly", "1: 1, X: 1, Y: 1"]) == 0
    data = json.loads(capsys.readouterr().out)
    # Smyth's height-one line value, frozen independently in test_mahler.
    assert abs(data["mahler_measure"] - 0.3230659472194505) < 1e-10
    assert main(["mahler", "--poly", "Z: 1"]) == 2


def test_verify_all_skips_suites_that_need_conductor_11(capsys):
    assert main(["verify", "all", "--level", "17"]) == 0
    out = capsys.readouterr().out.splitlines()
    skipped = [line.split()[1].rstrip(":") for line in out
               if line.startswith("SKIP")]
    assert skipped == ["thm8", "cor101", "mahler"]
    assert all("conductor-11" in line for line in out
               if line.startswith("SKIP"))
    ran = {line.split()[1].split(":")[0] for line in out
           if line.startswith(("PASS", "FAIL"))}
    assert ran == {"thm1", "thm2", "thm3", "appendix"}
    assert out[-1].startswith("36/36 checks passed")


@pytest.mark.parametrize("argv, code, words", [
    (["--curve", "0,0,0,0,0,11"], 2, "singular"),
    (["--curve", "0,-1,1,0,0,13"], 2, "does not divide the discriminant"),
    (["--terms", "100"], 3, "need more coefficients"),
    (["--tolerance", "nan"], 2, "positive and finite"),
    (["--tolerance", "inf"], 2, "positive and finite"),
    # Conductors 32 and 27, with discriminants 2^6 and -3^3.
    (["--curve", "0,0,0,-1,0,2"], 2, "additive reduction at 2"),
    (["--curve", "0,0,1,0,0,3"], 2, "additive reduction at 3"),
])
def test_bad_inputs_give_one_line(argv, code, words, capsys):
    assert main(["verify", "thm1"] + argv) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellreg: ")
    assert words in lines[0]
    assert captured.out == ""


def test_unwritable_out_file_gives_one_line(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "r.json"
    assert main(["verify", "cor101", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellreg: ")
    assert "No such file or directory" in lines[0]


def test_unwritable_out_file_fails_before_any_suite_runs(tmp_path, capsys,
                                                        monkeypatch):
    import ellreg.cli as cli

    ran = []
    monkeypatch.setitem(cli.SUITES, "cor101", lambda config: ran.append(1))
    out = tmp_path / "missing-dir" / "r.json"
    assert main(["verify", "cor101", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_wrong_conductor_is_rejected_up_front(capsys):
    # Curve 14a given conductor 7: 7 divides its discriminant -21952 =
    # -2^6 7^3, but so does 2.
    assert main(["verify", "thm1", "--curve", "1,0,1,4,-6,7"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellreg: ")
    assert "other than 7" in lines[0]
    assert captured.out == ""


def test_cli_import_loads_no_sympy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, ellreg.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('sympy', 'mpmath')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["verify", "all"],
                                  ["verify", "appendix", "--level", "17"]])
def test_verify_leaves_numpy_ma_unloaded(argv):
    # numpy.ma costs about 17 ms to import; a 1-d np.unique loads it.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys; from ellreg.cli import main; code = main(%r); "
            "print('numpy.ma' in sys.modules, code)" % (argv,))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False 0"


def test_summary_reports_the_runs_wall_and_cpu_time(capsys):
    assert main(["verify", "thm8"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(
        r"6/6 checks passed in \d+\.\d\d s wall, \d+\.\d\d s CPU", last), last
