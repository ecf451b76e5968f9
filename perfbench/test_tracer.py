"""Self-time arithmetic and patching of the benchmark's tracer.

The clocks are fakes advanced by the synthetic calls themselves, so no
assertion depends on how fast anything runs.  Run with
``python3 -m pytest perfbench/test_tracer.py``.
"""

import os
import sys
import threading
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, aggregate  # noqa: E402


class FakeClocks:
    """Per-thread wall and busy clocks that only move when told to."""

    def __init__(self):
        self._local = threading.local()

    def _get(self):
        if not hasattr(self._local, "t"):
            self._local.t = [0.0, 0.0]
        return self._local.t

    def wall(self):
        return self._get()[0]

    def busy(self):
        return self._get()[1]

    def run(self, seconds, busy_share=1.0):
        t = self._get()
        t[0] += seconds
        t[1] += seconds * busy_share


def _tracer():
    clocks = FakeClocks()
    return Tracer(wall=clocks.wall, busy=clocks.busy), clocks


def test_nested_self_time():
    tracer, clocks = _tracer()

    def inner():
        clocks.run(2.0)

    def outer():
        clocks.run(1.0)
        traced_inner()
        clocks.run(0.5, busy_share=0.0)  # waiting, not computing
        traced_inner()
        clocks.run(1.0)

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    table = aggregate(tracer.spans())

    assert table["inner"]["calls"] == 2
    assert table["inner"]["busy_s"] == 4.0
    assert table["inner"]["wait_s"] == 0.0
    assert table["outer"]["calls"] == 1
    assert table["outer"]["wall_s"] == 6.5
    assert table["outer"]["incl_busy_s"] == 6.0
    assert table["outer"]["self_wall_s"] == 2.5
    assert table["outer"]["busy_s"] == 2.0
    assert table["outer"]["wait_s"] == 0.5


def test_recursion_charges_each_level_its_own_time():
    tracer, clocks = _tracer()

    def down(n):
        clocks.run(1.0)
        if n:
            traced(n - 1)

    traced = tracer.wrap("down", down)
    traced(3)
    row = aggregate(tracer.spans())["down"]
    assert row["calls"] == 4
    assert row["self_wall_s"] == 4.0
    assert row["wall_s"] == 4.0 + 3.0 + 2.0 + 1.0


def test_threads_keep_separate_stacks():
    tracer, clocks = _tracer()
    start = threading.Barrier(4)

    def leaf():
        clocks.run(1.0, busy_share=0.25)

    def suite():
        start.wait(timeout=10)
        for _ in range(3):
            clocks.run(0.5)
            traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_suite = tracer.wrap("suite", suite)
    workers = [threading.Thread(target=traced_suite) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)

    spans = tracer.spans()
    by_id = {r[0]: r for r in spans}
    for r in spans:
        if r[2] == "leaf":
            parent = by_id[r[1]]
            assert parent[2] == "suite" and parent[3] == r[3]
    table = aggregate(spans)
    assert table["suite"]["calls"] == 4
    assert table["leaf"]["calls"] == 12
    assert table["suite"]["self_wall_s"] == 4 * 1.5
    assert table["suite"]["wait_s"] == 0.0
    assert table["leaf"]["busy_s"] == 12 * 0.25
    assert table["leaf"]["wait_s"] == 12 * 0.75


def test_exception_still_closes_the_span():
    tracer, clocks = _tracer()

    def boom():
        clocks.run(1.0)
        raise ValueError("bad")

    traced = tracer.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    traced_outer = tracer.wrap("outer", lambda: clocks.run(2.0))
    traced_outer()
    table = aggregate(tracer.spans())
    assert table["boom"]["wall_s"] == 1.0
    assert table["outer"]["self_wall_s"] == 2.0
    assert all(r[1] == -1 for r in tracer.spans())


def test_patch_reaches_consumers_dicts_and_methods():
    lib = types.ModuleType("lib")
    exec("def work(x):\n    return 2 * x\n"
         "def caller(x):\n    return work(x) + 1\n"
         "class Box:\n    def get(self):\n        return 7\n", vars(lib))
    user = types.ModuleType("user")
    user.work = lib.work  # "from lib import work"
    user.TABLE = {"w": lib.work, "other": len}
    original = lib.work

    tracer, _ = _tracer()
    tracer.patch(lib, "work", "lib.work", [lib, user],
                 counter=lambda t, args, kwargs: t.count("lib.items", args[0]))
    tracer.patch(lib.Box, "get", "lib.box_get", [lib, user])
    assert lib.caller(3) == 7
    assert user.work(4) == 8
    assert user.TABLE["w"](5) == 10
    assert lib.Box().get() == 7

    table = aggregate(tracer.spans())
    assert table["lib.work"]["calls"] == 3
    assert table["lib.box_get"]["calls"] == 1
    assert tracer.counts() == {"lib.items": 12}

    tracer.restore()
    assert lib.work is original and user.work is original
    assert user.TABLE == {"w": original, "other": len}
    assert lib.Box.get.__name__ == "get" and "get" in vars(lib.Box)
    lib.Box().get()
    assert len(tracer.spans()) == 4


def test_inside_sees_only_this_threads_open_spans():
    tracer, _ = _tracer()
    seen = {}

    def probe(key):
        seen[key] = tracer.inside("mahler.")

    outer = tracer.wrap("mahler.measure", lambda: probe("main"))
    outer()
    probe("after")
    worker = threading.Thread(target=probe, args=("thread",))
    tracer.wrap("mahler.measure", worker.start)()
    worker.join(timeout=10)
    assert seen == {"main": True, "after": False, "thread": False}
