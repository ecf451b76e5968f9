import json
import os
import re
import subprocess
import sys
import time

import pytest

from ellreg.cli import main
from ellreg.elliptic import CurveModel
from ellreg.lseries import newform_terms
from ellreg.verify import resolve_config


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


@pytest.mark.parametrize("argv, words", [
    (["--level", "11", "--char", "11:g=2,zeta0^1"], "root order"),
    (["--level", "0", "--char", "0:g=1,zeta1^0"], "modulus"),
    (["--level=-7", "--char=-7:g=3,zeta6^1"], "modulus"),
    (["--level", "12", "--char", "12:g=5,zeta2^1"], "(Z/12)* is not cyclic"),
    # The trivial character mod 1 parses; its unit does not exist.
    (["--level", "1", "--char", "1:g=1,zeta1^0"], "even nontrivial"),
])
def test_units_bad_labels_give_one_line(argv, words, capsys):
    assert main(["units"] + argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellreg: ")
    assert words in lines[0]
    assert captured.out == ""


def test_units_compares_the_modulus_before_building_the_character(
        monkeypatch, capsys):
    import ellreg.characters as characters

    def refuse(n):
        raise AssertionError("the log table of %d was built" % n)
    monkeypatch.setattr(characters, "_unit_logs", refuse)
    argv = ["units", "--level", "11", "--char", "1000003:g=2,zeta500001^1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "ellreg: character modulus 1000003 does not match level 11"]
    assert captured.out == ""


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
    (["thm1", "--curve", "0,0,0,0,0,11"], 2, "singular"),
    (["thm1", "--curve", "0,-1,1,0,0,13"], 2,
     "does not divide the discriminant"),
    # The level is the curve's conductor; a --level beside it must agree.
    (["thm1", "--level", "17", "--curve", "0,-1,1,0,0,11"], 2,
     "conductor 11 does not match level 17"),
    (["thm1", "--tolerance", "nan"], 2, "positive and finite"),
    (["thm1", "--tolerance", "inf"], 2, "positive and finite"),
    # Conductors 32 and 27, with discriminants 2^6 and -3^3.
    (["thm1", "--curve", "0,0,0,-1,0,2"], 2, "additive reduction at 2"),
    (["thm1", "--curve", "0,0,1,0,0,3"], 2, "additive reduction at 3"),
    # Discriminant 37: the divisibility test answers before a primality
    # test of N would trial-divide up to sqrt(N), 3e11.
    (["thm1", "--curve", "0,0,1,-1,0,99999999999999999999999"], 2,
     "does not divide the discriminant 37"),
    # A prime conductor of 17 digits, with discriminant -N: the primality
    # test answers before thm8 turns the curve away.  Trial division up to
    # sqrt(N), 2e8, took about 22 s.
    (["thm8", "--curve", "0,0,1,-1,10000000,43200002159999963"], 2,
     "specific to the conductor-11 curve"),
])
def test_bad_inputs_give_one_line(argv, code, words, capsys):
    start = time.perf_counter()
    assert main(["verify"] + argv) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellreg: ")
    assert words in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("poly", ["X^1000000000000000: 1, 1: 1",
                                  "Y^1000000000000000: 1, 1: 1",
                                  "X: 99999999999999999999999, 1: 1"])
def test_polynomials_too_large_to_hold_give_one_line(poly, capsys):
    # The coefficient grid of either of the first two would take 7.11
    # PiB; the third's coefficient does not fit in 64 bits.
    assert main(["mahler", "--poly", poly]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellreg: ")
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


def test_cli_runs_without_sympy():
    # A None entry in sys.modules makes every import of sympy fail, as on
    # an install without the test extra.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argvs = [["verify", "all"],
             ["units", "--level", "11", "--char", "11:g=2,zeta5^1"],
             ["mahler", "--poly", "X^2 Y: 1, X: -3, 1: 1"]]
    code = ("import sys; sys.modules['sympy'] = None; "
            "from ellreg.cli import main; print([main(a) for a in %r])"
            % (argvs,))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0]"


@pytest.mark.parametrize("argv", [["verify", "all"],
                                  ["verify", "appendix", "--level", "17"]])
def test_verify_leaves_numpy_ma_unloaded(argv):
    # numpy.ma costs about 17 ms to import; a 1-d np.unique loads it.
    # Away from level 11 no Mahler measure runs: mahler, units and
    # numpy.polynomial stay unloaded, and no np.linalg routine is called.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    unloaded = ["numpy.ma"]
    code = "import sys; from ellreg.cli import main; "
    if "--level" in argv:
        unloaded += ["numpy.polynomial", "ellreg.mahler", "ellreg.units"]
        code += ("import numpy.linalg as la\n"
                 "def refuse(*args, **kwargs):\n"
                 "    raise AssertionError('np.linalg was called')\n"
                 "for name in la.__all__: setattr(la, name, refuse)\n")
    code += ("code = main(%r); print([m for m in %r if m in sys.modules], "
             "code)" % (argv, unloaded))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[] 0"


def test_import_leaves_fractions_unloaded():
    # fractions, and decimal with it, cost about 3 ms to import; only
    # the tests' j_invariant needs it.  The mahler and units commands
    # import their modules, and no command imports numpy.polynomial.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    modules = ["fractions", "ellreg.mahler", "ellreg.units",
               "numpy.polynomial"]
    code = ("import sys, ellreg.cli; print([m for m in %r if m in "
            "sys.modules])" % (modules,))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_public_names_resolve_to_their_home_modules():
    import importlib

    import ellreg

    for name in ellreg.__all__:
        home = importlib.import_module("ellreg." + ellreg._HOME[name])
        assert getattr(ellreg, name) is getattr(home, name), name
    namespace = {}
    exec("from ellreg import *", namespace)
    assert all(namespace[name] is getattr(ellreg, name)
               for name in ellreg.__all__)
    assert set(ellreg.__all__) <= set(dir(ellreg))
    with pytest.raises(AttributeError, match="no_such_name"):
        ellreg.no_such_name


def test_summary_reports_the_runs_wall_and_cpu_time(capsys):
    assert main(["verify", "thm8"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(
        r"6/6 checks passed in \d+\.\d\d s wall, \d+\.\d\d s CPU", last), last


def test_default_flags_reach_the_389_newform():
    # The curve alone sizes the newform: 389a builds the 3,000 terms its
    # sums read.
    config = resolve_config(curve=CurveModel(0, 1, 1, -2, 0, 389))
    assert config.context.form.nmax == newform_terms(389) == 3000


def test_terms_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm1", "--terms", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --terms 100" in capsys.readouterr().err


def test_the_997_model_builds_the_newform_its_sums_read(monkeypatch,
                                                         capsys):
    import ellreg.verify as verify

    built = []

    def stop(curve, nmax):
        built.append(nmax)
        raise RuntimeError("stopped at the newform build")

    def unreachable(*args, **kwargs):
        raise AssertionError("a suite started work")
    monkeypatch.setattr(verify, "newform_from_curve", stop)
    monkeypatch.setattr(verify, "character_table", unreachable)
    # At default flags a model of conductor 997 builds the 8,671 terms
    # that its sums read.
    for suite in ("all", "thm1", "thm2", "thm3", "appendix"):
        argv = ["verify", suite, "--curve", "0,-1,1,-5,-3,997"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "ellreg: stopped at the newform build\n")
    assert built == [newform_terms(997)] * 5 == [8671] * 5
