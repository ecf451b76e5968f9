"""src/ellreg holds what the command line runs.

A fresh interpreter runs ``ellreg.cli.main`` on COMMANDS under a profile
hook and reports every module-level function of the package, and every
method of a class the package defines (plain methods, properties,
classmethods, staticmethods and cached properties), that it never
entered.  Code that the module's own file does not hold, such as the
methods that ``dataclass`` and ``NamedTuple`` generate, is not counted.
The process is fresh so that cached bodies such as ``character_table``
really run.  A route that only the tests use belongs in tests/
(reference_routes.py, gamma1_symbols.py); what stays unreached in src/
is named in ALLOWED with its reason.  Every module-level constant is
read by src/ellreg code as well: a value that only the tests read belongs
in tests/.
"""

import ast
import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"))

COMMANDS = [
    ["verify", "all"],
    ["units", "--level", "11", "--char", "11:g=2,zeta5^1"],
    ["units", "--level", "37", "--char", "37:g=2,zeta3^1"],
    # A character of conductor 5 mod 25: _primitive_part lifts 5's primitive
    # root.
    ["units", "--level", "25", "--char", "25:g=2,zeta2^1"],
    # The closed-form cusp classes at a size where the O(N^3) shift loop
    # over all N^2 pairs took about 25 s.
    ["units", "--level", "389", "--char", "389:g=2,zeta2^1"],
    # An imprimitive character mod 2 q: _l2_even's Euler factor at 2.
    ["units", "--level", "10", "--char", "10:g=3,zeta2^1"],
    ["mahler", "--poly", "X^2 Y: 1, X: -3, 1: 1"],
    # Y-degree 0: Jensen's formula takes the content X - 3, and every node
    # row of the quotient 1 is the constant log |c_0|.
    ["mahler", "--poly", "X: 1, 1: -3"],
    # A content with a root on the unit circle, which the quadrature
    # never sees.
    ["mahler", "--poly", "X: 1, 1: 1"],
    # --curve parses a model.  At 101, Lambda(f, 2)'s dual half needs
    # G_0 = E_1 at x = 2 pi n / sqrt(101), below 1 for n = 1: the series
    # branch of special.exp_integral_e1.
    ["verify", "thm1", "--curve", "0,1,1,-1,-1,101", "--out", "{out}"],
]

# DirichletCharacter's three dunder methods give a public class its value
# semantics: characters compare, hash and print by what they are.
VALUE_SEMANTICS = ("equal characters are the same exponent table; a "
                   "character is a value, whatever the commands compare")

ALLOWED = {
    "characters.DirichletCharacter.__eq__": VALUE_SEMANTICS,
    "characters.DirichletCharacter.__hash__": VALUE_SEMANTICS,
    "characters.DirichletCharacter.__repr__": VALUE_SEMANTICS,
    "characters.enumerate_characters":
        "lists every chi_k mod N for the tests and perfbench; a command "
        "builds only the one character its label solves for",
    "verify.reports_from_json":
        "reads an --out report back, for tools that post-process reports",
    "verify.CheckReport.from_dict":
        "reads one row of an --out report back, for reports_from_json",
}

SCRIPT = """
import contextlib, importlib, inspect, io, json, pkgutil, sys, threading
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
threading.setprofile(hook)
import ellreg
from ellreg.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
threading.setprofile(None)
missed = []

def check(name, obj, module):
    # A property's getter, a classmethod's or staticmethod's function, a
    # cached property's function, or the object itself; counted only if
    # the module's own file holds its code.
    for fn in (getattr(obj, "fget", None), getattr(obj, "__func__", None),
               getattr(obj, "func", None), obj):
        if callable(fn):
            fn = inspect.unwrap(fn)
        if inspect.isfunction(fn):
            break
    else:
        return
    code = fn.__code__
    if code.co_filename == module.__file__ and code not in entered:
        missed.append(name)

for info in pkgutil.iter_modules(ellreg.__path__):
    module = importlib.import_module("ellreg." + info.name)
    for name, obj in vars(module).items():
        label = info.name + "." + name
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                check(label + "." + attr, member, module)
        else:
            check(label, obj, module)
print(json.dumps({"codes": codes, "missed": missed}))
"""


def test_every_module_function_is_run_by_a_command(tmp_path):
    out = str(tmp_path / "thm1.json")
    commands = [[arg.format(out=out) for arg in argv] for argv in COMMANDS]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env,
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(commands)
    missed = result["missed"]
    assert [name for name in missed if name not in ALLOWED] == []
    # An entry that a command now reaches leaves the list.
    assert [name for name in ALLOWED if name not in missed] == []


def test_every_module_constant_is_read_by_the_package():
    # A constant is a name bound at module level by an assignment, dunders
    # aside.  It is read where its module loads it, or where another
    # module imports it (from .module import NAME [as ALIAS]) and loads
    # the name it bound.
    package = os.path.join(SRC, "ellreg")
    trees = {name[:-3]: ast.parse(open(os.path.join(package, name)).read())
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    loads = {module: {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
             for module, tree in trees.items()}
    read = {(module, name) for module in trees for name in loads[module]}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((node.module, alias.name) for alias in node.names
                            if (alias.asname or alias.name) in loads[module])
    constants = [(module, target.id) for module, tree in trees.items()
                 for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name)
                 and not target.id.startswith("__")]
    assert len(constants) >= 20  # the walk finds the constants
    assert [".".join(c) for c in constants if c not in read] == []
