"""ellreg runs on one thread: importing it pins OpenBLAS's pool to one
thread unless the caller chose a size first.

Each case starts a fresh interpreter, because the pool is sized once,
when numpy loads.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# Import ellreg, then run the two BLAS-backed builds of curve 37a.
CODE = """
import json, os
import ellreg
from ellreg.elliptic import CurveModel
from ellreg.verify import resolve_config
ctx = resolve_config(curve=CurveModel(0, 0, 1, -1, 0, 37)).context
ctx.node_table, ctx.lambda_table
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir("/proc/self/task"))]))
"""


def _numpy_blas():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict form
        return "openblas"
    return config["Build Dependencies"]["blas"]["name"]


pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                       reason="needs /proc/self/task to count threads"),
    pytest.mark.skipif("openblas" not in _numpy_blas().lower(),
                       reason="numpy is not built on OpenBLAS"),
]


def _run(**preset):
    # OpenBLAS also reads GOTO_NUM_THREADS and OMP_NUM_THREADS when its
    # own variable is unset; drop them too, so only the import decides.
    env = {k: v for k, v in os.environ.items() if k not in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", CODE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_pins_openblas_to_one_thread():
    assert _run() == ["1", 1]


def test_a_size_the_caller_set_wins():
    value, threads = _run(OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    if (os.cpu_count() or 1) >= 2:
        # The pool is there, so the thread count above can tell.
        assert threads > 1
