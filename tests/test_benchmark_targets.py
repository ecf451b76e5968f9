"""The benchmark's traced boundaries must name attributes that exist.

``perfbench/tracer.py`` patches ``owner.__dict__[attr]`` for every
target that ``perfbench/workloads.py`` lists, so a renamed or deleted
function would only show up as a KeyError in a traced benchmark run.
"""

import importlib
import importlib.util
import os
import pkgutil

import numpy as np

import ellreg

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "workloads.py")


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    modules = [importlib.import_module("ellreg." + info.name)
               for info in pkgutil.iter_modules(ellreg.__path__)]
    targets = workloads.layer_targets(modules, np)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
