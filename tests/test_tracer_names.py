"""The names the benchmark's tracer wraps exist in the library.

`perfbench/tracer.py` patches `tsnet` from the outside: it looks up each
function of its `LIBRARY` table with `getattr` in its `tsnet` module,
and wraps the harness hooks by name.  Removing or renaming any of them
breaks every traced benchmark run, so this test reads the table from the
tracer's source (without importing the benchmark) and checks each name.
"""

import ast
import dataclasses
import importlib
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
