"""In-memory span recorder and the wrappers that feed it.

Everything here patches `tsnet` from the outside: library functions are
replaced by timing wrappers in every `tsnet.*` namespace that holds
them, and the harness hooks (experiment setup, rep and summarize, the
process pool, CSV writing, the CLI entry point) are wrapped the same
way.  Nothing under `src/` is changed.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span in the same process or -1.  Times are `time.perf_counter`
readings, which on Linux share the system-wide monotonic clock, so the
spans of the workload process and of the CLI processes it starts line up.

Setup phases are always timed, because `setup_s` is an end-to-end
metric; the rest is installed only in traced runs.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import math
import os
import pickle
import sys
import time
import warnings
from pathlib import Path

# the per-layer functions, by tsnet module
LIBRARY = {
    "series": ("simulate_lur_ar", "simulate_predictive_system",
               "simulate_linear_process"),
    "garch": ("simulate_garch", "garch_qmle"),
    "lrv": ("hac_lrv",),
    "unitroot": ("phillips_z", "df_limit_mc"),
    "coint": ("fmols",),
    "predreg": ("ivx_estimate", "ivx_instrument"),
    "breaks": ("sup_wald", "split_wald", "nbb_sup_mc"),
    "netdep": ("graph_distance", "simulate_graph_ma", "network_hac"),
    "bootstrap": ("residual_unitroot_bootstrap",),
    "randmat": ("sample_cov_spectrum",),
    "mc": ("nested_forecast_test", "write_csv"),
}


class Recorder:
    """Spans, counters and setup timings of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self.setup_s: list[float] = []
        self.enabled = True
        # pool workers forked from a traced parent must not record: their
        # spans would be lost with the worker anyway
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def wrap(self, name, fn, after=None):
        """Return `fn` timed as span `name`; `after(out)` sees the result."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = [name, time.perf_counter(), 0.0,
                    rec.stack[-1] if rec.stack else -1]
            rec.spans.append(span)
            rec.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(out)
            return out

        return traced

    def current_module(self) -> str | None:
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else None

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "setup_s": self.setup_s}


def _replace_everywhere(orig, new):
    """Point every `tsnet.*` module attribute bound to `orig` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "tsnet" or modname.startswith("tsnet."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def _time_setup(rec: Recorder, setup):
    @functools.wraps(setup)
    def timed(cfg):
        t0 = time.perf_counter()
        try:
            return setup(cfg)
        finally:
            rec.setup_s.append(time.perf_counter() - t0)
    return timed


def instrument(rec: Recorder, trace: bool) -> None:
    """Install setup timers, and with `trace` every span and counter."""
    import tsnet  # noqa: F401  (loads every tsnet module)
    from tsnet import mc

    for name, exp in list(mc.EXPERIMENTS.items()):
        setup = _time_setup(rec, exp.setup)
        if trace:
            mc.EXPERIMENTS[name] = dataclasses.replace(
                exp, setup=rec.wrap("mc.setup", setup),
                rep=rec.wrap("mc.rep", exp.rep),
                summarize=rec.wrap("mc.summarize", exp.summarize))
        else:
            mc.EXPERIMENTS[name] = dataclasses.replace(exp, setup=setup)
    if not trace:
        return

    hooks = {
        "garch.garch_qmle": lambda fit: rec.counters.update({
            "garch.garch_qmle.iterations": fit.n_iter,
            "garch.garch_qmle.nonconverged": int(not fit.converged)}),
        "mc.write_csv": lambda path: rec.counters.update({
            "mc.write_csv.bytes": Path(path).stat().st_size}),
    }
    for modname, fns in LIBRARY.items():
        mod = sys.modules[f"tsnet.{modname}"]
        for fn in fns:
            orig = getattr(mod, fn)
            name = f"{modname}.{fn}"
            _replace_everywhere(orig, rec.wrap(name, orig, hooks.get(name)))
    _replace_everywhere(mc.run_experiment,
                        rec.wrap("mc.run_experiment", mc.run_experiment))
    mc.ProcessPoolExecutor = _traced_pool(rec, mc.ProcessPoolExecutor)
    if "tsnet.cli" in sys.modules:
        cli = sys.modules["tsnet.cli"]
        cli.main = rec.wrap("cli.main", cli.main)


def _traced_pool(rec: Recorder, base):
    class TracedPool(base):
        """Counts pool starts, the bytes shipped per chunk, and the wait."""

        def __init__(self, *args, **kwargs):
            rec.counters["mc.pool.starts"] += 1
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            chunks = math.ceil(len(iterables[0]) / chunksize)
            rec.counters["mc.pool.pickled_bytes"] += len(pickle.dumps(fn)) * chunks
            # drained inside the span, so it covers the whole wait
            wait = rec.wrap("mc.pool.wait", lambda: list(super(TracedPool, self).map(
                fn, *iterables, timeout=timeout, chunksize=chunksize)))
            return iter(wait())

    return TracedPool


@contextlib.contextmanager
def count_warnings(rec: Recorder):
    """Count every warning under `<module>.warnings`, printing none.

    A warning is charged to the tsnet module of the innermost open span,
    or else to the tsnet file that raised it.
    """
    def show(message, category, filename, lineno, file=None, line=None):
        module = rec.current_module()
        if module is None:
            path = Path(filename)
            module = path.stem if "tsnet" in path.parts else "other"
        rec.counters[f"{module}.warnings"] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield
