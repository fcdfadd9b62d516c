"""Monte Carlo harness: experiment registry, config files, CSV output.

An experiment is a named (setup, rep, summarize) triple plus the
parameters it reads, each declared once as a (default, domain) pair.  `setup`
builds shared context once (critical-value tables, graph shells), `rep`
gets a batch of rep indices and returns one row of statistics per rep,
and `summarize` reduces the stacked rows to a flat dict of scalars,
which the harness opens with the experiment's echoed parameters.
Replication r always draws from stream `cfg.stream + r` (mod 2**64),
so results are invariant to `jobs` and to how the reps are batched;
auxiliary simulations (limit tables and the like) use streams at
`cfg.stream + cfg.reps` and beyond.  `_rep_streams` yields each rep's
generator: one Philox per batch, re-keyed to (seed, stream + r) for
rep r, whose draws equal those of `RngSpec(seed, stream + r).generator()`.

Two adapters turn a rep hook into the batch protocol, and they alone
touch the rep streams.  `_per_rep` hands each rep its generator, for
unitroot-boot, which also draws its bootstrap indices from it.  `_panel`
serves the other eleven, whose hooks get an (R, ...) array of standard
normals, row i from one rep's stream.  They pass the whole sub-panel to
the library's simulators, which take a panel of draws in place of an rng
(`series._simulate`), and the simulated panel to its statistics, which
take one rep or a panel of reps (`_panel.as_reps`), or else loop over
the reps; both work on the leading rep axis with bit-identical per-rep
results.  `_panel` draws a batch in `_panel.chunks` of `_BLOCK_BYTES`
and hands the hook sub-panels of `_panel._PANEL_BYTES`.

`run_experiment` (one cell) and `size_power_grid` (one cell per grid
point) both go through `_run`.  It runs every cell's setup in the
calling process, then cuts the reps of all cells into (cell, batch)
tasks, about 8 per worker and at most `_BATCH` reps each.  With
`jobs > 1` the calling process runs the tasks itself, in order, and
times them; it starts one process pool, for the tasks left, only once
it has spent `_POOL_START_S` (a pool's start-up cost) on them and
splitting the tasks left over the workers would, at the mean time per
task so far, save more than that cost (`_pool_repays`).  So a call
whose reps take less than a pool start never forks, and its bytes are
those of a pooled run, since a row does not depend on which process
computes it.  The pool has min(jobs, tasks left, usable CPUs) workers,
counting the CPUs in the process's affinity set; each worker receives
the (cfg, ctx) pairs once, through the pool initializer, and each task
travels as a cell index and a rep range.

Config files are line oriented::

    # size of the instrumented predictive test
    experiment = ivx-null
    reps = 5000
    seed = 7
    n = 1000
    c = -5
    grid.c = 0, -5, -20

Keys other than `experiment` and the harness's (reps, seed, stream,
jobs, level) are parameters the experiment must declare.  Values stay
text tokens until `resolve` reads harness keys and parameters alike,
each in its default's type (so `deterministic = none` is the string
"none", `bandwidth = none` an unset number) and domain (reps at least
1, seed in [0, 2**64 - 1], a stationary root in (-1, 1), n at least 8,
...), fills in the defaults, and rejects any other key, before any
setup runs.  Setup hooks only build shared context, raising nothing.
`grid.<name>` lines declare sweep axes for `size_power_grid`, which
runs the cartesian product and moves each cell onto its own stream
range, mod 2**64.

CSV output starts with a `#schema=` line and a `#config=` line, then a
header row.  The `#config=` line of a run holds the effective values of
every declared parameter, defaults included.  Floats are written with
`repr`, so identical configs give byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from scipy import special

from ._checks import _MIN_OBS
from ._panel import _MIN_REPS, _PANEL_BYTES, chunks, ols_coef, rowdot
from .bootstrap import BlockSpec, residual_unitroot_bootstrap
from .breaks import (_break_dates, _grid_points, nbb_sup_mc, nested_forecast_test, split_wald,
                     sup_wald)
from .coint import fmols
from .garch import _MIN_QMLE_N, GarchSpec, garch_qmle, simulate_garch
from .lrv import _COMPACT_FAMILIES, KERNEL_FAMILIES, KernelSpec, hac_lrv
from .netdep import (_MIN_CYCLE, cycle_graph, graph_shells, network_hac, network_hac_radius,
                     simulate_graph_ma)
from .predreg import IvxSpec, ivx_estimate
from .randmat import mp_support, sample_cov_spectrum
from .series import (LinearProcessSpec, LurSpec, RngSpec, SystemSpec, _rekey,
                     simulate_linear_process, simulate_lur_ar, simulate_predictive_system)
from .unitroot import _MIN_T, _PHILLIPS_DETERMINISTICS, _ar_fit, df_limit_mc, phillips_z

__all__ = [
    "ExperimentConfig",
    "Experiment",
    "McResult",
    "EXPERIMENTS",
    "parse_config",
    "parse_config_file",
    "resolve",
    "run_experiment",
    "size_power_grid",
    "write_csv",
    "read_csv",
]

_SCHEMA_VERSION = "v1"
# the default `level`, the only one an experiment that does not read it takes
_LEVEL = 0.05
# reps per `rep` call: enough to amortize the per-call overhead, while a
# 64-rep panel of n = 2000 series stays near 2 MB
_BATCH = 64
# bytes of normals `_panel` draws at once (a block), cut into sub-panels
# of `_panel._PANEL_BYTES` for the hook.  A sub-panel's simulation and
# kernels take a few times its normals, so the working set stays near the
# block's size and glibc's allocator reuses its pages instead of faulting
# in fresh ones.  One level is slower: feeding hooks one chunk straight
# from a buffer of that chunk's size gave the benchmark's serial-light
# 6450-6720 reps/s against 7435-7707 with these two levels, with chunks
# of 256 KB, 512 KB or 2 MB (2-core x86-64 host, one BLAS thread); the
# CSVs were the same.
_BLOCK_BYTES = 2**21
# wall time a process pool of two workers costs a call: forking them,
# shipping the cells, waiting for the first block and shutting down.
# Measured at 13-27 ms on a 2-core x86-64 host (one BLAS thread) with the
# IVX and 1500-node network-HAC grids of the benchmark's grid-parallel.
_POOL_START_S = 0.025


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Settings for one experiment run.

    `params` holds what the experiment itself interprets, and reps, seed,
    stream, jobs and level control the harness: text tokens from
    `parse_config`, each in its declared type after `resolve`.  `grid`
    maps parameter names to value tuples for sweeps and is ignored by
    `run_experiment`.
    """

    experiment: str
    reps: int = 1000
    seed: int = 0
    stream: int = 0
    jobs: int = 1
    level: float = _LEVEL
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)


_KINDS = {int: "an integer", float: "a number", str: "a string",
          tuple: "one or more comma-separated numbers", type(None): "a number or none"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines into an ExperimentConfig.

    Blank lines and lines starting with `#` are skipped, and a key set
    twice raises.  Every value stays a text token (a tuple of them when
    comma-separated) until `resolve` reads the harness keys and the
    parameters, each in its declared type.
    """
    cfg = ExperimentConfig(experiment="")
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in seen:
            raise ValueError(f"line {lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        parsed = tuple(v.strip() for v in value.split(",")) if "," in value else value.strip()
        if key == "experiment" or key in _HARNESS:
            setattr(cfg, key, parsed)
        elif key.startswith("grid."):
            vals = parsed if isinstance(parsed, tuple) else (parsed,)
            cfg.grid[key[len("grid."):]] = vals
        else:
            cfg.params[key] = parsed
    if not cfg.experiment:
        raise ValueError("config must set 'experiment'")
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# CSV I/O


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _config_comment(cfg: ExperimentConfig) -> str:
    # jobs is omitted on purpose: output must not depend on parallelism
    head = [f"experiment={cfg.experiment}", f"reps={cfg.reps}",
            f"seed={cfg.seed}", f"stream={cfg.stream}", f"level={_fmt(cfg.level)}"]
    tail = []
    for key in sorted(cfg.params):
        val = cfg.params[key]
        if isinstance(val, tuple):
            text = " ".join(_fmt(v) for v in val)
        else:
            text = _fmt(val)
        tail.append(f"{key}={text}")
    return "#config=" + ";".join(head + tail)


def _csv_lines(columns, rows):
    """The header line, then one line per row, as `write_csv` writes them."""
    yield ",".join(columns)
    for row in rows:
        yield ",".join(_fmt(v) for v in row)


def write_csv(path, schema: str, columns, rows, comments=()) -> Path:
    """Write a CSV with a #schema line, optional #-comments, and a header."""
    path = Path(path)
    lines = [f"#schema={schema}", *comments, *_csv_lines(columns, rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path):
    """Read a CSV written by `write_csv`.

    Returns (schema, columns, data) where data is a float ndarray with
    one row per record (possibly empty).  A column named twice, a row
    whose fields do not match the header's, or a field that is not a
    number raises ValueError, starting "<path>:<lineno>:".
    """
    schema = ""
    columns: list[str] = []
    body: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#schema="):
                schema = line[len("#schema="):]
            continue
        fields = line.split(",")
        if not columns:
            columns = fields
            if len(set(columns)) < len(columns):
                twice = next(c for i, c in enumerate(columns) if c in columns[:i])
                raise ValueError(f"{path}:{lineno}: column {twice!r} is named twice")
            continue
        if len(fields) != len(columns):
            raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields as in the "
                             f"header, got {len(fields)}")
        row = []
        for name, tok in zip(columns, fields):
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: column {name!r}: expected a number, "
                                 f"got {tok!r}") from None
        body.append(row)
    data = np.asarray(body, dtype=float) if body else np.empty((0, len(columns)))
    return schema, columns, data


# ---------------------------------------------------------------------------
# experiment protocol


@dataclass(frozen=True)
class Experiment:
    """Registered experiment: declared parameters, per-rep statistics, summary.

    `params` maps each parameter name to a pair (default, domain).  The
    default's type is the parameter's type: int, float, str, or a tuple
    of floats; a None default makes an optional number.  The domain is a
    pair (text, test): `test(value, params)` of the resolved value and
    parameters is true exactly on the set `text` names, such as "at
    least 8", "in [1, n - 1]" or "one of ['const', 'none']".  A test
    may read the parameters declared before its own.  The hooks read
    `cfg.params[key]` of a resolved config.  `rep(cfg, ctx, rs)` takes a
    range of rep indices and returns a (len(rs), len(columns)) float
    array, row i for rep rs[i].  The summary is the `echo` parameters
    (or "level", for exactly the experiments that read it), then the
    fields `summarize(cfg, ctx, draws)` computes.
    """

    name: str
    columns: tuple[str, ...]
    setup: Callable
    rep: Callable
    summarize: Callable
    params: dict
    echo: tuple[str, ...]


EXPERIMENTS: dict[str, Experiment] = {}


def _register(name, columns, rep, summarize, params, echo, setup=None):
    EXPERIMENTS[name] = Experiment(
        name=name, columns=tuple(columns),
        setup=setup if setup is not None else (lambda cfg: {}),
        rep=rep, summarize=summarize, params=params, echo=echo)


def _minimum(floor):
    """The domain of a parameter of at least `floor`."""
    return f"at least {floor}", lambda v, p: v >= floor


def _one_of(choices):
    """The domain of a string parameter that takes one of `choices`."""
    return f"one of {sorted(choices)}", lambda v, p: v in choices


# the draw starts an AR(1) in its stationary law, so its root needs |phi| < 1
_ROOT = ("a stationary root in (-1, 1)", lambda v, p: abs(v) < 1.0)
_CORR = ("a correlation in (-1, 1)", lambda v, p: abs(v) < 1.0)
# a number, or each number of a tuple
_FINITE = ("finite", lambda v, p: bool(np.all(np.isfinite(v))))
_POSITIVE = ("finite and > 0", lambda v, p: np.isfinite(v) and v > 0.0)
_UNIT = ("in (0, 1]", lambda v, p: 0.0 < v <= 1.0)
_UINT64 = ("in [0, 2**64 - 1]", lambda v, p: 0 <= v < 2**64)
# the harness's own keys, declared as parameters are, with ExperimentConfig's defaults
_HARNESS = {key: (getattr(ExperimentConfig, key), domain) for key, domain in (
    ("reps", _minimum(1)), ("seed", _UINT64), ("stream", _UINT64), ("jobs", _minimum(1)),
    ("level", ("in (0, 1)", lambda v, p: 0.0 < v < 1.0)))}


def _read(default, value):
    """A config token, or a tuple of them, read for a parameter whose default
    is `default`: verbatim for a string parameter, else as an int or float
    if it reads as one and None if `none`.  Non-tokens come back as they are.
    """
    def number(v):
        if not isinstance(v, str) or isinstance(default, str):
            return v
        if v.lower() == "none":
            return None
        for kind in (int, float):
            try:
                return kind(v)
            except ValueError:
                pass
        return v

    return tuple(map(number, value)) if isinstance(value, tuple) else number(value)


def _typed(default, value, name: str):
    """`value`, a config token or not, in the type of `default`, key `name`."""
    def real(v):
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    value = _read(default, value)
    if default is None and (value is None or real(value)):
        return value
    if isinstance(default, int) and isinstance(value, numbers.Integral) and real(value):
        return int(value)
    if isinstance(default, float) and real(value):
        return float(value)
    if isinstance(default, str) and isinstance(value, str):
        return value
    if isinstance(default, tuple):
        values = value if isinstance(value, tuple) else (value,)
        if all(real(v) for v in values):
            return tuple(float(v) for v in values)
    raise ValueError(f"{name} must be {_KINDS[type(default)]}, got {value!r}")


def _checked(table: dict, given: dict, name) -> dict:
    """Each key of `table`, a dict of (default, domain) pairs, read from
    `given` or else its default, in the default's type, and checked against
    its domain, in declaration order; `name(key)` names the key in an error."""
    out = {}
    for key, (default, (text, test)) in table.items():
        value = out[key] = _typed(default, given.get(key, default), name(key))
        if not test(value, out):
            raise ValueError(f"{name(key)} must be {text}, got {value!r}")
    return out


def resolve(cfg: ExperimentConfig) -> ExperimentConfig:
    """A copy of `cfg` holding the harness keys and every declared
    parameter, each in its declared type.

    Parameters the config leaves out take their defaults.  A key the
    experiment does not declare, a value of the wrong type or outside its
    declared domain, harness key or parameter, and a `level` other than
    the default for an experiment that does not read it raise ValueError,
    however they were set.
    Resolving a resolved config gives it back unchanged.
    """
    if cfg.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {cfg.experiment!r}; have: {known}")
    exp = EXPERIMENTS[cfg.experiment]
    declared = exp.params
    unknown = sorted(set(cfg.params) - set(declared))
    if unknown:
        raise ValueError(f"experiment {cfg.experiment!r} has no parameter "
                         f"{', '.join(map(repr, unknown))}; it accepts: "
                         f"{', '.join(sorted(declared))}")
    where = f"experiment {cfg.experiment!r}: "
    harness = _checked(_HARNESS, vars(cfg), lambda key: where + key)
    if "level" not in exp.echo and harness["level"] != _LEVEL:
        raise ValueError(f"experiment {cfg.experiment!r} does not read level; "
                         f"leave it at {_LEVEL}, got {harness['level']!r}")
    params = _checked(declared, cfg.params, lambda key: f"{where}parameter {key!r}")
    return replace(cfg, params=params, **harness)


def _rep_streams(cfg: ExperimentConfig, rs):
    """One generator per rep r in rs, positioned at the start of r's stream.

    Rep r's stream is keyed (seed, (stream + r) mod 2**64), and its draws
    equal those of `RngSpec(seed, stream + r).generator()`.  One generator
    is built per call and re-keyed for each rep (`series._rekey`), so every
    rep gets the same object: a rep must be done with it before the next.
    """
    gen = RngSpec(cfg.seed, cfg.stream).generator()
    for r in rs:
        _rekey(gen.bit_generator, cfg.seed, (cfg.stream + r) % 2**64)
        yield gen


def _per_rep(rep):
    """Batch `rep` for an experiment whose `rep(cfg, ctx, gen)` gives one row
    from its rep's generator."""
    return lambda cfg, ctx, rs: np.array([rep(cfg, ctx, gen) for gen in _rep_streams(cfg, rs)],
                                         dtype=float)


def _panel(draw, rep):
    """Batch `rep` for an experiment whose `rep(cfg, ctx, z)` gives the rows of
    a sub-panel z of standard normals of shape (R, *draw(cfg.params)), row
    i from its rep's stream.  The batch is drawn block by block into one
    reused buffer, so no row of a hook's result may be a view of z.
    """
    def batch(cfg, ctx, rs):
        shape = draw(cfg.params)
        sub = max(1, _PANEL_BYTES // (8 * math.prod(shape)))
        streams, rows = _rep_streams(cfg, rs), []
        for _, z in chunks(len(rs), shape, _BLOCK_BYTES):
            for out, gen in zip(z, streams):
                gen.standard_normal(out=out)
            rows += [rep(cfg, ctx, z[i:i + sub]) for i in range(0, len(z), sub)]
        return np.concatenate(rows)

    return batch


def _aux_rng(cfg: ExperimentConfig) -> RngSpec:
    return RngSpec(cfg.seed, cfg.stream).substream(cfg.reps)


@dataclass
class McResult:
    """Stacked replication draws of the resolved config, plus the summary
    dict and written files.  Column j of draws is the experiment's
    `columns[j]` (`EXPERIMENTS[experiment].columns`)."""

    experiment: str
    config: ExperimentConfig
    draws: np.ndarray
    summary: dict
    files: tuple[Path, ...] = ()


# the (cfg, ctx) pairs of the running call, installed once in each pool worker
_CELLS: tuple = ()


def _install(cells) -> None:
    global _CELLS
    _CELLS = cells


def _rep_block(cells, task) -> np.ndarray:
    k, rs = task
    cfg, ctx = cells[k]
    return EXPERIMENTS[cfg.experiment].rep(cfg, ctx, rs)


def _pooled_block(task) -> np.ndarray:
    return _rep_block(_CELLS, task)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_repays(spent: float, done: int, left: int, workers: int) -> bool:
    """Whether to hand the `left` tasks to a pool, `done` having taken `spent` s here.

    Only once the caller has itself spent one `_POOL_START_S` on tasks, so
    a short call never forks and a long one runs about that long before it
    does; and only if, at the mean task time so far, splitting the tasks
    left over the workers saves more time than the pool costs.
    """
    workers = min(workers, left)
    return (spent >= _POOL_START_S
            and spent * left * (workers - 1) >= _POOL_START_S * done * workers)


def _run(cells: list[ExperimentConfig], jobs: int) -> list[tuple[dict, np.ndarray]]:
    """Set up and run every rep of resolved `cells`; (ctx, draws) per cell.

    Setups run here, in order; the reps run as (cell, rep range) tasks,
    with `jobs` > 1 handed to one process pool once it repays its start
    (see the module docstring).
    """
    cells = tuple((cfg, EXPERIMENTS[cfg.experiment].setup(cfg)) for cfg in cells)
    workers = min(jobs, _usable_cpus())
    total = sum(cfg.reps for cfg, _ in cells)
    size = min(_BATCH, max(1, total // (workers * 8))) if jobs > 1 else _BATCH
    tasks = [(k, range(lo, min(lo + size, cfg.reps)))
             for k, (cfg, _) in enumerate(cells) for lo in range(0, cfg.reps, size)]
    blocks = []
    start = perf_counter()
    for task in tasks:
        if jobs > 1 and _pool_repays(perf_counter() - start, len(blocks),
                                     len(tasks) - len(blocks), workers):
            break
        blocks.append(_rep_block(cells, task))
    if rest := tasks[len(blocks):]:
        with ProcessPoolExecutor(max_workers=min(workers, len(rest)),
                                 initializer=_install, initargs=(cells,)) as pool:
            blocks += pool.map(_pooled_block, rest)
    # the tasks run cell by cell, so each cell's draws are one slice of the stack
    draws = np.split(np.concatenate(blocks), np.cumsum([cfg.reps for cfg, _ in cells])[:-1])
    return [(ctx, d) for (_, ctx), d in zip(cells, draws)]


def _result(cfg: ExperimentConfig, ctx: dict, draws: np.ndarray, out=None) -> McResult:
    """Summarize the draws of resolved `cfg`, writing the CSVs when `out` is given."""
    exp = EXPERIMENTS[cfg.experiment]
    summary = {key: cfg.level if key == "level" else cfg.params[key] for key in exp.echo}
    summary.update(exp.summarize(cfg, ctx, draws))

    files = ()
    if out is not None:
        out = Path(out)
        if out.is_dir():
            out = out / f"{cfg.experiment}.csv"
        comment = _config_comment(cfg)
        rep_rows = ((r, *draws[r]) for r in range(cfg.reps))
        per_rep = write_csv(out, f"{cfg.experiment}/{_SCHEMA_VERSION}",
                            ("rep",) + exp.columns, rep_rows, comments=[comment])
        summ_path = out.with_name(out.stem + "-summary" + out.suffix)
        summ = write_csv(summ_path, f"{cfg.experiment}-summary/{_SCHEMA_VERSION}",
                         tuple(summary), [tuple(summary.values())],
                         comments=[comment])
        files = (per_rep, summ)
    return McResult(experiment=cfg.experiment, config=cfg, draws=draws, summary=summary,
                    files=files)


def run_experiment(cfg: ExperimentConfig, out=None) -> McResult:
    """Run all replications of a registered experiment.

    out, when given, is the per-replication CSV path (or a directory,
    in which case <experiment>.csv inside it); the summary goes next to
    it with a -summary suffix.  The config is resolved first, so a bad
    parameter fails before any work or output.
    """
    cfg = resolve(cfg)
    (ctx, draws), = _run([cfg], cfg.jobs)
    return _result(cfg, ctx, draws, out)


def size_power_grid(cfg: ExperimentConfig, out=None):
    """Run the experiment over the cartesian product of cfg.grid.

    Cell i starts at stream `stream + i * (reps + 64)` (mod 2**64), past
    cell i - 1's reps and a reserve of 64 auxiliary streams, so cells are
    independent and reproducible in isolation.  Every cell is resolved,
    and an axis taking a value that is not a number raises ValueError,
    before the first cell is set up; the reps of all cells share one
    process pool.  Returns (columns, rows, results, files) and optionally
    writes one summary CSV, whose `#config=` line holds the resolved
    harness keys and the parameters as given.
    """
    if not cfg.grid:
        raise ValueError("size_power_grid needs at least one grid.<name> axis")
    axes = sorted(cfg.grid)
    combos = list(itertools.product(*(cfg.grid[a] for a in axes)))
    cells = [resolve(replace(cfg, grid={}, params={**cfg.params, **dict(zip(axes, combo))}))
             for combo in combos]
    cells = [replace(cell, stream=(cell.stream + i * (cell.reps + 64)) % 2**64)
             for i, cell in enumerate(cells)]
    # each axis is a column of the grid CSV, and `read_csv` reads numbers only
    for a, cell in itertools.product(axes, cells):
        if not isinstance(cell.params[a], (int, float)):
            raise ValueError(f"experiment {cfg.experiment!r}: grid axis {a!r} takes "
                             f"{cell.params[a]!r}, not a number; a grid CSV column holds "
                             f"numbers only")
    results = [_result(cell, ctx, draws)
               for cell, (ctx, draws) in zip(cells, _run(cells, cells[0].jobs))]
    # the file shows cell 0's harness keys and the parameters as given, read but not cast
    declared = EXPERIMENTS[cfg.experiment].params
    given = replace(cells[0], params={k: _read(declared[k][0], v) for k, v in cfg.params.items()})
    columns = [f"grid_{a}" for a in axes] + list(results[0].summary)
    rows = [tuple(_read(declared[a][0], v) for a, v in zip(axes, combo))
            + tuple(res.summary.values()) for combo, res in zip(combos, results)]
    files = ()
    if out is not None:
        out = Path(out)
        if out.is_dir():
            out = out / f"{cfg.experiment}-grid.csv"
        files = (write_csv(out, f"{cfg.experiment}-grid/{_SCHEMA_VERSION}",
                           columns, rows, comments=[_config_comment(given)]),)
    return columns, rows, results, files


# ---------------------------------------------------------------------------
# experiments

# the long-run variance kernel of hac-lrv and phillips-size
_KERNEL = {"family": ("bartlett", _one_of(KERNEL_FAMILIES)),
           "bandwidth": (None, ("none or finite and > 0",
                                lambda v, p: v is None or (np.isfinite(v) and v > 0.0)))}


def _kernel_from(cfg: ExperimentConfig) -> KernelSpec:
    return KernelSpec(family=cfg.params["family"], bandwidth=cfg.params["bandwidth"])


def _stationary_ar1(z: np.ndarray, phi: float) -> np.ndarray:
    """(R, n) paths x_t = phi x_{t-1} + v_t started in the stationary law.

    Each row of the (R, n + 1) normals z is one rep's draws: first the
    start, x_0 = z_0 / sqrt(1 - phi^2), then the n innovations.
    """
    n = z.shape[1] - 1
    return simulate_lur_ar(LurSpec(c=(phi - 1.0) * n, gamma=1.0), n, z[:, 1:],
                           x0=z[:, 0] / np.sqrt(1.0 - phi**2))


def _ar1_clt_rep(cfg, ctx, z):
    n, rho = cfg.params["n"], cfg.params["rho"]
    x = _stationary_ar1(z, rho)
    rho_hat = _ar_fit(x, "none", fit=ols_coef)[0].coef[:, 0]
    return np.column_stack([rho_hat, np.sqrt(n) * (rho_hat - rho)])


def _ks_normal(z, scale):
    """Kolmogorov-Smirnov distance of the sample z from N(0, scale^2)."""
    n = z.shape[0]
    cdf = special.ndtr(np.sort(z) / scale)
    return float(max(np.max(np.arange(1.0, n + 1) / n - cdf),
                     np.max(cdf - np.arange(0.0, n) / n)))


def _ar1_clt_summarize(cfg, ctx, draws):
    z = draws[:, 1]
    var_target = 1.0 - cfg.params["rho"] ** 2
    return {
        "mean_z": float(z.mean()),
        "var_z": float(z.var()),
        "var_target": var_target,
        "var_rel_err": float(abs(z.var() - var_target) / var_target),
        "ks_stat": _ks_normal(z, np.sqrt(var_target)),
    }


# the AR(1) fit of n points keeps n - 2 residual degrees of freedom
_register("ar1-clt", ("rho_hat", "z"), _panel(lambda p: (p["n"] + 1,), _ar1_clt_rep),
          _ar1_clt_summarize, params={"n": (5000, _minimum(3)), "rho": (0.5, _ROOT)},
          echo=("n", "rho"))


def _hac_lrv_rep(cfg, ctx, z):
    est = hac_lrv(_stationary_ar1(z, cfg.params["phi"])[:, :, None], kernel=_kernel_from(cfg))
    return np.column_stack([est.omega[:, 0, 0], np.full(len(z), est.bandwidth)])


def _hac_lrv_summarize(cfg, ctx, draws):
    omega_true = 1.0 / (1.0 - cfg.params["phi"]) ** 2
    mean_omega = float(draws[:, 0].mean())
    return {
        "bandwidth": float(draws[0, 1]),
        "mean_omega": mean_omega,
        "omega_true": omega_true,
        "rel_err": float(abs(mean_omega - omega_true) / omega_true),
    }


# the estimator needs two observations
_register("hac-lrv", ("omega_hat", "bandwidth"), _panel(lambda p: (p["n"] + 1,), _hac_lrv_rep),
          _hac_lrv_summarize,
          params={"n": (100000, _minimum(2)), "phi": (0.5, _ROOT), **_KERNEL}, echo=("n", "phi"))


def _phillips_setup(cfg):
    p = cfg.params
    kernel = _kernel_from(cfg)
    tables = df_limit_mc(p["n"], deterministic=p["deterministic"], reps=p["cv_reps"],
                         rng=_aux_rng(cfg))
    return {"kernel": kernel, "cv_coef": float(np.quantile(tables.coef, cfg.level)),
            "cv_t": float(np.quantile(tables.t, cfg.level))}


def _phillips_rep(cfg, ctx, z):
    p = cfg.params
    u = simulate_linear_process(LinearProcessSpec((1.0, p["theta"])), p["n"], z)
    y = np.cumsum(u, axis=1)
    res = phillips_z(y, kernel=ctx["kernel"], deterministic=p["deterministic"])
    raw = res.nobs * (res.alpha_hat - 1.0)
    return np.column_stack([res.stat_coef, res.stat_t, raw])


def _phillips_summarize(cfg, ctx, draws):
    return {
        "cv_coef": ctx["cv_coef"],
        "cv_t": ctx["cv_t"],
        "size_zalpha": float((draws[:, 0] < ctx["cv_coef"]).mean()),
        "size_zt": float((draws[:, 1] < ctx["cv_t"]).mean()),
        "size_raw": float((draws[:, 2] < ctx["cv_coef"]).mean()),
    }


# each rep draws the presample innovation, then n more
_register("phillips-size", ("z_alpha", "z_t", "raw_coef"),
          _panel(lambda p: (p["n"] + 1,), _phillips_rep),
          _phillips_summarize, setup=_phillips_setup,
          params={"n": (1000, _minimum(_MIN_T)), "theta": (0.5, _FINITE),
                  "deterministic": ("none", _one_of(_PHILLIPS_DETERMINISTICS)),
                  "cv_reps": (20000, _minimum(_MIN_REPS)), **_KERNEL},
          echo=("n", "theta", "level"))


def _fmols_rep(cfg, ctx, z):
    p = cfg.params
    corr, beta = p["corr"], p["beta"]
    chol = np.linalg.cholesky(np.array([[1.0, corr], [corr, 1.0]]))
    shocks = z @ chol.T
    x = np.cumsum(shocks[:, :, 1], axis=1)
    y = p["intercept"] + beta * x + shocks[:, :, 0]
    res = fmols(y, x)
    t_plus = (res.beta_plus[:, 1] - beta) / res.se[:, 1]
    # textbook iid-error OLS t for contrast
    s2 = rowdot(res.residuals_ols, res.residuals_ols) / (res.nobs - 2)
    t_ols = (res.beta_ols[:, 1] - beta) / np.sqrt(s2 * res.zz_inv[:, 1, 1])
    return np.column_stack([t_plus, t_ols])


def _fmols_summarize(cfg, ctx, draws):
    crit = special.ndtri(1.0 - cfg.level / 2.0)
    return {"size_fm": float((np.abs(draws[:, 0]) > crit).mean()),
            "size_ols": float((np.abs(draws[:, 1]) > crit).mean())}


# no family or bandwidth: FM-OLS runs with the library's default kernel
_register("fmols-size", ("t_fm", "t_ols"), _panel(lambda p: (p["n"], 2), _fmols_rep),
          _fmols_summarize, params={"n": (1000, _minimum(_MIN_OBS)), "corr": (0.9, _CORR),
                                    "beta": (2.0, _FINITE), "intercept": (1.0, _FINITE)},
          echo=("n", "corr", "level"))


def _system(c, gamma, corr, beta):
    """The parameters `_system_spec` reads, with these defaults and intercept 0."""
    return {"c": (c, _FINITE), "gamma": (gamma, _UNIT), "corr": (corr, _CORR),
            "beta": (beta, _FINITE), "intercept": (0.0, _FINITE)}


def _system_spec(cfg) -> SystemSpec:
    """The one-regressor predictive system of ivx-null and supwald-nbb."""
    p = cfg.params
    return SystemSpec(beta=(p["beta"],), lur=(LurSpec(c=p["c"], gamma=p["gamma"]),),
                      intercept=p["intercept"],
                      sigma_ue=((1.0, p["corr"]), (p["corr"], 1.0)))


def _ivx_rep(cfg, ctx, z):
    y, x = simulate_predictive_system(_system_spec(cfg), cfg.params["n"], z)
    res = ivx_estimate(y, x, spec=IvxSpec(c_z=cfg.params["c_z"], beta_z=cfg.params["beta_z"]))
    return np.column_stack([res.wald, res.pvalue, res.beta[:, 0]])


def _ivx_summarize(cfg, ctx, draws):
    return {"rejection_rate": float((draws[:, 1] < cfg.level).mean()),
            "mean_beta_hat": float(draws[:, 2].mean())}


_register("ivx-null", ("wald", "pvalue", "beta_hat"), _panel(lambda p: (p["n"], 2), _ivx_rep),
          _ivx_summarize,
          params={"n": (1000, _minimum(_MIN_OBS)), **_system(0.0, 1.0, 0.9, 0.0),
                  "c_z": (-1.0, ("finite and < 0", lambda v, p: np.isfinite(v) and v < 0.0)),
                  "beta_z": (0.95, _UNIT)},
          echo=("n", "c", "gamma", "corr", "beta", "level"))


def _supwald_setup(cfg):
    p = cfg.params
    draws = nbb_sup_mc(p=1, trim=p["trim"], reps=p["nbb_reps"], rng=_aux_rng(cfg),
                       grid=p["nbb_grid"])
    # the critical value alone: the limit draws need not ship to pool workers
    return {"q95_nbb": float(np.quantile(draws, 0.95))}


def _supwald_rep(cfg, ctx, z):
    y, x = simulate_predictive_system(_system_spec(cfg), cfg.params["n"], z)
    res = sup_wald(y, x, trim=cfg.params["trim"])
    return np.column_stack([res.stat, res.pi_star])


def _supwald_summarize(cfg, ctx, draws):
    q95_emp = float(np.quantile(draws[:, 0], 0.95))
    q95_nbb = ctx["q95_nbb"]
    return {
        "q95_empirical": q95_emp,
        "q95_limit": q95_nbb,
        "rel_diff": float(abs(q95_emp - q95_nbb) / q95_nbb),
        "rejection_rate": float((draws[:, 0] > q95_nbb).mean()),
    }


_register("supwald-nbb", ("sup_wald", "pi_star"), _panel(lambda p: (p["n"], 2), _supwald_rep),
          _supwald_summarize, setup=_supwald_setup,
          params={"n": (2000, _minimum(_MIN_OBS)), **_system(-5.0, 0.75, 0.5, 0.25),
                  "nbb_reps": (50000, _minimum(_MIN_REPS)), "nbb_grid": (1000, _minimum(1)),
                  # a break date of sup_wald on the n - 1 (y_t, x_{t-1}) pairs, two
                  # coefficients a regime, and a point of nbb_sup_mc's grid
                  "trim": ((0.15, 0.85),
                           ("two fractions 0 < lo < hi < 1 holding a break date of n - 1 pairs "
                            "and a point i / nbb_grid",
                            lambda v, p: len(v) == 2 and 0.0 < v[0] < v[1] < 1.0
                            and _break_dates(v, p["n"] - 1, 2).size > 0
                            and _grid_points(v, p["nbb_grid"]).size > 0))},
          echo=("n", "c", "gamma"))


def _fixed_wald_rep(cfg, ctx, z):
    p = cfg.params
    n, phi = p["n"], p["phi_x"]
    x = _stationary_ar1(z[:, :n + 1], phi)
    y = np.zeros((len(z), n))
    y[:, 1:] = 1.0 + p["beta"] * x[:, :-1] + z[:, n + 1:]
    res = split_wald(y, x, pi0=p["pi0"])
    return res.stat[:, None]


def _fixed_wald_summarize(cfg, ctx, draws):
    dof = 1
    q95 = float(np.quantile(draws[:, 0], 0.95))
    chi2_q95 = float(2.0 * special.gammaincinv(dof / 2.0, 0.95))
    return {
        "q95_empirical": q95,
        "q95_chi2": chi2_q95,
        "rel_err": float(abs(q95 - chi2_q95) / chi2_q95),
        "rejection_rate": float((draws[:, 0] > chi2_q95).mean()),
    }


# each rep draws x0, then the n innovations of x, then n - 1 errors
_register("fixed-wald", ("wald",), _panel(lambda p: (2 * p["n"],), _fixed_wald_rep),
          _fixed_wald_summarize, echo=("n", "pi0"),
          # the split at pair floor(pi0 (n - 1)) leaves two pairs or more to each regime
          params={"n": (1000, _minimum(_MIN_OBS)),
                  "pi0": (0.5, ("in (0, 1) with 2 <= floor(pi0 * (n - 1)) <= n - 3",
                                lambda v, p: 0.0 < v < 1.0
                                and 2 <= math.floor(v * (p["n"] - 1)) <= p["n"] - 3)),
                  "phi_x": (0.5, _ROOT), "beta": (0.3, _FINITE)})


def _nethac_setup(cfg):
    p = cfg.params
    n_nodes = p["n_nodes"]
    kernels = (KernelSpec(p["family"], p["bandwidth"]),
               KernelSpec(p["family"], p["low_bandwidth"]))
    # both HAC bandwidths, and distance 1 for the graph MA weights (1, w1)
    radius = max(*(network_hac_radius(k, n_nodes) for k in kernels), 1)
    shells = graph_shells(cycle_graph(n_nodes), radius)
    # on a cycle the MA(1-in-distance) mean has long-run variance
    # (sum of coefficients)^2 by translation invariance
    true_lrv = (1.0 + 2.0 * p["w1"]) ** 2
    crit = special.ndtri(1.0 - cfg.level / 2.0)
    return {"shells": shells, "kernels": kernels, "true_lrv": true_lrv, "crit": crit}


def _nethac_rep(cfg, ctx, z):
    shells = ctx["shells"]
    n = shells.n
    y = simulate_graph_ma(shells, (1.0, cfg.params["w1"]), z)
    ybar = y.mean(axis=1)
    v_full, v_low = (network_hac(shells, y[:, :, None], k)[:, 0, 0]
                     for k in ctx["kernels"])
    bound = ctx["crit"] * np.sqrt(np.maximum(np.stack([v_full, v_low]), 0.0) / n)
    cover_full, cover_low = np.abs(ybar) <= bound
    return np.column_stack([ybar, v_full, v_low, cover_full, cover_low])


def _nethac_summarize(cfg, ctx, draws):
    return {
        "true_lrv": ctx["true_lrv"],
        "mean_v": float(draws[:, 1].mean()),
        "coverage": float(draws[:, 3].mean()),
        "coverage_low_bw": float(draws[:, 4].mean()),
    }


_register("nethac-coverage", ("ybar", "v_hac", "v_hac_low", "cover", "cover_low"),
          _panel(lambda p: (p["n_nodes"],), _nethac_rep), _nethac_summarize, setup=_nethac_setup,
          # the mean's long-run variance (1 + 2 w1)^2 is 0 at w1 = -1/2, leaving no
          # interval to cover, and past the largest float beyond |w1| = 6.7e153
          params={"n_nodes": (200, _minimum(_MIN_CYCLE)),
                  "w1": (0.1, ("such that (1 + 2 * w1)^2 is finite and > 0",
                               lambda v, p: 0.0 < (1.0 + 2.0 * v) * (1.0 + 2.0 * v) < math.inf)),
                  "bandwidth": (3.0, _POSITIVE), "low_bandwidth": (0.5, _POSITIVE),
                  "family": ("bartlett", _one_of(_COMPACT_FAMILIES))},
          echo=("n_nodes", "w1", "bandwidth", "low_bandwidth", "level"))


def _urboot_setup(cfg):
    tables = df_limit_mc(cfg.params["n"], deterministic="none", reps=cfg.params["cv_reps"],
                         rng=_aux_rng(cfg))
    return {"q05_limit": float(np.quantile(tables.coef, 0.05))}


def _urboot_rep(cfg, ctx, gen):
    p = cfg.params
    y = np.cumsum(gen.standard_normal(p["n"]))
    res = residual_unitroot_bootstrap(y, B=p["B"], rng=gen,
                                      block=BlockSpec(length=p["block"]))
    return (float(np.quantile(res.stats, 0.05)), float(res.observed))


def _urboot_summarize(cfg, ctx, draws):
    mean_q05 = float(draws[:, 0].mean())
    q05_limit = ctx["q05_limit"]
    return {
        "mean_q05_boot": mean_q05,
        "q05_limit": q05_limit,
        "rel_err": float(abs(mean_q05 - q05_limit) / abs(q05_limit)),
    }


# blocks resample the n - 1 residuals of the AR(1) fit
_register("unitroot-boot", ("q05_boot", "observed"), _per_rep(_urboot_rep),
          _urboot_summarize, setup=_urboot_setup, echo=("n", "B", "block"),
          params={"n": (1000, _minimum(_MIN_T)), "cv_reps": (20000, _minimum(_MIN_REPS)),
                  "B": (2000, _minimum(1)),
                  "block": (10, ("in [1, n - 1]", lambda v, p: 1 <= v <= p["n"] - 1))})


def _garch_spec(cfg) -> GarchSpec:
    p = cfg.params
    return GarchSpec(omega=p["omega"], alpha=p["alpha"], beta=p["beta"])


def _garch_rep(cfg, ctx, z):
    spec = _garch_spec(cfg)
    y, _ = simulate_garch(spec, cfg.params["n"], z, burn=cfg.params["burn"])
    fits = [garch_qmle(y_r) for y_r in y]
    est = np.array([(f.spec.omega, f.spec.alpha, f.spec.beta) for f in fits])
    err = np.max(np.abs(est - (spec.omega, spec.alpha, spec.beta)), axis=1)
    return np.column_stack([est, err, [f.sigma2.mean() for f in fits], [f.converged for f in fits]])


def _garch_summarize(cfg, ctx, draws):
    var_true = _garch_spec(cfg).unconditional_variance
    mean_filter = float(draws[:, 4].mean())
    return {
        "median_max_abs_err": float(np.median(draws[:, 3])),
        "mean_filter_var": mean_filter,
        "var_true": var_true,
        "filter_rel_err": float(abs(mean_filter - var_true) / var_true),
        "frac_converged": float(draws[:, 5].mean()),
    }


_register("garch-recovery",
          ("omega_hat", "alpha_hat", "beta_hat", "max_abs_err",
           "filter_mean", "converged"),
          _panel(lambda p: (p["n"] + p["burn"],), _garch_rep), _garch_summarize,
          echo=("n", "omega", "alpha", "beta"),
          params={"n": (20000, _minimum(_MIN_QMLE_N)), "omega": (0.1, _POSITIVE),
                  "alpha": (0.1, ("finite and >= 0", lambda v, p: np.isfinite(v) and v >= 0.0)),
                  "beta": (0.8, ("finite and >= 0 with alpha + beta < 1",
                                 lambda v, p: np.isfinite(v) and v >= 0.0
                                 and p["alpha"] + v < 1.0)),
                  "burn": (500, _minimum(0))})


def _mp_dims(params):
    """(p, n): each rep draws a p x n matrix, p = round(gamma n)."""
    return round(params["gamma"] * params["n"]), params["n"]


def _mp_rep(cfg, ctx, z):
    res = sample_cov_spectrum(z.shape[2], z.shape[1], z)
    return np.column_stack([res.lambda_min, res.lambda_max, np.abs(res.trace - res.trace_gram)])


def _mp_summarize(cfg, ctx, draws):
    p, n = _mp_dims(cfg.params)
    lo, hi = mp_support(p / n)
    med_min = float(np.median(draws[:, 0]))
    med_max = float(np.median(draws[:, 1]))
    return {
        "median_lambda_min": med_min,
        "median_lambda_max": med_max,
        "edge_lower": lo,
        "edge_upper": hi,
        "err_min": float(abs(med_min - lo)),
        "err_max": float(abs(med_max - hi)),
        "max_trace_gap": float(draws[:, 2].max()),
    }


_register("mp-edges", ("lambda_min", "lambda_max", "trace_gap"),
          _panel(_mp_dims, _mp_rep), _mp_summarize, echo=("n", "gamma"),
          params={"n": (4000, _minimum(1)),
                  "gamma": (0.25, ("in (0, 1] with round(gamma * n) >= 1",
                                   lambda v, p: 0.0 < v <= 1.0 and round(v * p["n"]) >= 1))})


def _nested_rep(cfg, ctx, z):
    p = cfg.params
    n, q = p["n"], p["n_small"]
    spec = SystemSpec(beta=p["beta"], lur=tuple(LurSpec(c=c, gamma=1.0) for c in p["c"]),
                      intercept=p["intercept"], v_ar=p["v_ar"])
    k0 = n // 4 if p["k0"] is None else p["k0"]
    stat = np.array([nested_forecast_test(y, x[:, :q], x[:, q:], k0=k0).stat
                     for y, x in zip(*simulate_predictive_system(spec, n, z))])
    return np.column_stack([stat, stat > 0])


def _nested_summarize(cfg, ctx, draws):
    return {
        "mean_stat": float(draws[:, 0].mean()),
        "median_stat": float(np.median(draws[:, 0])),
        "frac_positive": float(draws[:, 1].mean()),
    }


# k0 (the first forecast origin, in pairs) defaults to n // 4; the small
# model keeps the first n_small regressors, and the large one adds the rest
_register("nested-forecast", ("t_n", "positive"),
          _panel(lambda p: (p["n"], len(p["beta"]) + 1), _nested_rep),
          _nested_summarize, echo=("n", "n_small"),
          params={"n": (1000, _minimum(_MIN_OBS)), "beta": ((0.1, 0.1, -0.05), _FINITE),
                  "n_small": (1, ("in [0, len(beta) - 1]",
                                  lambda v, p: 0 <= v <= len(p["beta"]) - 1)),
                  "k0": (None, ("none or an integer in [1, n - 2]",
                                lambda v, p: v is None
                                or (float(v).is_integer() and 1 <= v <= p["n"] - 2))),
                  "c": ((-2.0, -5.0, -10.0),
                        ("finite, one per beta",
                         lambda v, p: len(v) == len(p["beta"]) and np.all(np.isfinite(v)))),
                  "v_ar": ((0.28, 0.32, -0.14),
                           ("in (-1, 1), one per beta",
                            lambda v, p: len(v) == len(p["beta"])
                            and all(abs(a) < 1.0 for a in v))),
                  "intercept": (0.0, _FINITE)})
