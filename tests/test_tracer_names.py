"""The names the benchmark's tracer wraps exist in the library.

`perfbench/tracer.py` patches `tsnet` from the outside: it looks up each
function of its `LIBRARY` table with `getattr` in its `tsnet` module,
and wraps the harness hooks by name.  Removing or renaming any of them
breaks every traced benchmark run, so this test reads the table from the
tracer's source (without importing the benchmark) and checks each name.
A function the experiments never call through a name the tracer wraps
reads 0 calls in every workload, so another test counts the calls.
"""

import ast
import collections
import dataclasses
import functools
import importlib
import sys
from pathlib import Path

import tsnet
from tsnet import cli, mc

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _library_table() -> dict:
    for node in ast.parse(_TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LIBRARY"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LIBRARY table")


def test_every_traced_library_name_exists():
    table = _library_table()
    assert table
    missing = [f"{modname}.{fn}" for modname, fns in table.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"tsnet.{modname}"), fn, None))]
    assert missing == []


def test_the_traced_harness_hooks_exist():
    assert {"setup", "rep", "summarize"} <= {f.name for f in dataclasses.fields(mc.Experiment)}
    assert callable(mc.run_experiment) and callable(mc.ProcessPoolExecutor)
    assert callable(cli.main)
    # the garch_qmle hook counts iterations and non-converged fits
    assert {"n_iter", "converged"} <= {f.name for f in dataclasses.fields(tsnet.GarchFit)}


def test_every_traced_kernel_runs_in_some_experiment(monkeypatch, tmp_path):
    # the tracer's wrapping, with a counter for a timer: every tsnet
    # namespace that binds a LIBRARY function gets the counted one
    from test_golden import RUNS

    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    table = _library_table()
    modules = [m for key, m in sys.modules.items() if key == "tsnet" or key.startswith("tsnet.")]
    for modname, fns in table.items():
        for fn in fns:
            orig = getattr(importlib.import_module(f"tsnet.{modname}"), fn)
            wrapped = counted(f"{modname}.{fn}", orig)
            for module in modules:
                for attr, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, attr, wrapped)
    for name, seed, reps, params in RUNS:
        mc.run_experiment(mc.ExperimentConfig(experiment=name, seed=seed, reps=reps,
                                              params=params), out=tmp_path)
    # but the dense distance oracle, which only tests call
    unseen = [f"{modname}.{fn}" for modname, fns in table.items() for fn in fns
              if not calls[f"{modname}.{fn}"]]
    assert [name for name in unseen if name != "netdep.graph_distance"] == []
