"""Outside-in span tracer for the ellreg benchmark.

The tracer never edits the program: it wraps public functions and
methods at run time.  A function imported by name into another module
(``from .eisenstein import arc_integral``) is a second reference, so
``patch`` replaces the original in every module given to it, including
values held in module-level dicts such as ``verify.SUITES``.  Methods
are wrapped on their class.

Each thread keeps its own span stack, so spans opened by suites running
on a thread pool nest correctly.  Spans stay in memory as plain lists
and are written out once, after the traced work has finished.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

# Span record layout: [id, parent id or -1, name, thread, wall0, busy0,
# wall1, busy1].  Lists, not objects, keep the per-call cost small.
ID, PARENT, NAME, THREAD, WALL0, BUSY0, WALL1, BUSY1 = range(8)


class Tracer:
    """Records spans and counters; clocks are injectable for tests."""

    def __init__(self, wall=time.perf_counter, busy=time.thread_time):
        self._wall = wall
        self._busy = busy
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []  # the _state() tuple of every thread
        self._patches = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], {})  # open-span stack, finished spans, counts
            self._local.state = state
            with self._lock:
                self._per_thread.append(state)
        return state

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack, done, _ = self._state()
        record = [next(self._ids), stack[-1][ID] if stack else -1, name,
                  threading.get_ident(), self._wall(), self._busy(), 0.0, 0.0]
        stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[BUSY1] = self._busy()
            record[WALL1] = self._wall()
            stack.pop()
            done.append(record)

    def count(self, name, n=1):
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + n

    def inside(self, prefix):
        """True when an open span of this thread starts with prefix."""
        return any(r[NAME].startswith(prefix) for r in self._state()[0])

    def wrap(self, name, fn, counter=None):
        """A wrapper of fn that opens a span and, if given, calls
        counter(tracer, args, kwargs) to add counts at the same boundary."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)
        return traced

    def patch(self, owner, attr, name, modules=(), counter=None):
        """Wrap owner.attr, and every reference to the same object held
        as a module attribute or a module-level dict value in modules."""
        original = owner.__dict__[attr]
        wrapper = self.wrap(name, original, counter)
        self._swap(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._swap(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, v, True))
                            value[k] = wrapper
        return wrapper

    def _swap(self, holder, key, value):
        self._patches.append((holder, key, getattr(holder, key), False))
        setattr(holder, key, value)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            holder, key, value, is_dict = self._patches.pop()
            if is_dict:
                holder[key] = value
            else:
                setattr(holder, key, value)

    def spans(self):
        """Finished spans of every thread, ordered by id."""
        with self._lock:
            states = list(self._per_thread)
        return sorted((r for _, done, _ in states for r in done),
                      key=lambda r: r[ID])

    def counts(self):
        total = {}
        with self._lock:
            states = list(self._per_thread)
        for _, _, counts in states:
            for k, v in counts.items():
                total[k] = total.get(k, 0) + v
        return total


def aggregate(spans):
    """Per span name: calls, inclusive wall and busy, self wall/busy/wait.

    Self time is a span's duration minus the part its direct children
    cover; wait is self wall time minus self busy (thread CPU) time.
    """
    child_wall = {}
    child_busy = {}
    for r in spans:
        if r[PARENT] >= 0:
            child_wall[r[PARENT]] = (child_wall.get(r[PARENT], 0.0)
                                     + r[WALL1] - r[WALL0])
            child_busy[r[PARENT]] = (child_busy.get(r[PARENT], 0.0)
                                     + r[BUSY1] - r[BUSY0])
    table = {}
    for r in spans:
        wall = r[WALL1] - r[WALL0]
        self_wall = wall - child_wall.get(r[ID], 0.0)
        self_busy = (r[BUSY1] - r[BUSY0]) - child_busy.get(r[ID], 0.0)
        row = table.setdefault(r[NAME], {
            "calls": 0, "wall_s": 0.0, "incl_busy_s": 0.0,
            "self_wall_s": 0.0, "busy_s": 0.0, "wait_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += wall
        row["incl_busy_s"] += r[BUSY1] - r[BUSY0]
        row["self_wall_s"] += self_wall
        row["busy_s"] += self_busy
        row["wait_s"] += self_wall - self_busy
    return table
