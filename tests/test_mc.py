"""Tests for the Monte Carlo harness: config, parameters, CSV, runners, nested test."""

import ast
import itertools
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tsnet as T
from tsnet import mc
from tsnet.mc import (EXPERIMENTS, ExperimentConfig, parse_config,
                      parse_config_file, read_csv, resolve, run_experiment,
                      size_power_grid, write_csv)


CFG_TEXT = """\
# comment line

experiment = fixed-wald
reps = 6
seed = 3
stream = 2
jobs = 2
level = 0.1
n = 120
pi0 = 0.4
family = bartlett
flags = true,false,none
label = plain-text
grid.n = 100,150
"""


def test_parse_config_full():
    cfg = parse_config(CFG_TEXT)
    assert cfg.experiment == "fixed-wald"
    # every value, harness key or parameter, stays text until resolve reads it
    assert cfg.reps == "6" and cfg.seed == "3" and cfg.stream == "2"
    assert cfg.jobs == "2" and cfg.level == "0.1"
    assert cfg.params["n"] == "120"
    assert cfg.params["pi0"] == "0.4"
    assert cfg.params["flags"] == ("true", "false", "none")
    assert cfg.params["label"] == "plain-text"
    assert cfg.grid == {"n": ("100", "150")}


def test_resolve_reads_config_tokens_in_declared_types():
    cfg = resolve(parse_config("experiment = phillips-size\nn = 120\ntheta = 1\n"
                               "deterministic = none\nbandwidth = 3\n"))
    assert cfg.params["n"] == 120 and type(cfg.params["n"]) is int
    assert cfg.params["theta"] == 1.0 and type(cfg.params["theta"]) is float
    assert cfg.params["deterministic"] == "none"  # a string parameter: verbatim
    assert cfg.params["bandwidth"] == 3 and type(cfg.params["bandwidth"]) is int
    assert resolve(parse_config("experiment = hac-lrv\nbandwidth = none\n")
                   ).params["bandwidth"] is None
    assert resolve(parse_config("experiment = supwald-nbb\ntrim = 0.2, 0.8\n")
                   ).params["trim"] == (0.2, 0.8)
    with pytest.raises(ValueError, match="'n' must be an integer, got 120.7"):
        resolve(parse_config("experiment = ivx-null\nn = 120.7\n"))
    with pytest.raises(ValueError, match="'deterministic' must be a string"):
        resolve(parse_config("experiment = phillips-size\ndeterministic = a, b\n"))
    cfg = resolve(parse_config("experiment = ivx-null\nreps = 7\nseed = 3\nstream = 4\n"
                               "jobs = 2\nlevel = 0.1\n"))
    assert (cfg.reps, cfg.seed, cfg.stream, cfg.jobs, cfg.level) == (7, 3, 4, 2, 0.1)
    assert [type(v) for v in (cfg.reps, cfg.seed, cfg.stream, cfg.jobs, cfg.level)] == [
        int, int, int, int, float]
    with pytest.raises(ValueError, match="^experiment 'ivx-null': seed must be an integer, "
                                         "got 1.5$"):
        resolve(parse_config("experiment = ivx-null\nseed = 1.5\n"))
    with pytest.raises(ValueError, match="^experiment 'ivx-null': reps must be an integer, "
                                         "got 'abc'$"):
        resolve(parse_config("experiment = ivx-null\nreps = abc\n"))


def test_parse_config_errors():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("experiment = fixed-wald\nnot a pair\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config("= 3\n")
    with pytest.raises(ValueError, match="must set 'experiment'"):
        parse_config("reps = 10\n")
    # a value outside its domain is left to resolve
    cfg = parse_config("experiment = fixed-wald\nreps = 0\n")
    assert cfg.reps == "0"
    with pytest.raises(ValueError, match="^experiment 'fixed-wald': reps must be at least 1, "
                                         "got 0$"):
        resolve(cfg)
    # a key set twice: a parameter, a harness key, a grid axis, even at one value
    for text, message in [
            ("experiment = ivx-null\nn = 100\nc = -5\nn = 200\n",
             "line 4: 'n' is already set on line 2"),
            ("experiment = ivx-null\nreps = 10\n\n# again\nreps = 20\n",
             "line 5: 'reps' is already set on line 2"),
            ("experiment = ivx-null\nexperiment = hac-lrv\n",
             "line 2: 'experiment' is already set on line 1"),
            ("experiment = ivx-null\ngrid.c = 0, -5\nc = -1\ngrid.c = -20\n",
             "line 4: 'grid.c' is already set on line 2"),
            ("experiment = ivx-null\nn=100\n  n =  100\n",
             "line 3: 'n' is already set on line 2")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(text)


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("experiment = fixed-wald\nreps = 4\nn = 100\n")
    cfg = parse_config_file(p)
    assert cfg.experiment == "fixed-wald"
    assert cfg.reps == "4"
    assert resolve(cfg).reps == 4


def test_csv_round_trip_exact(tmp_path):
    cols = ("rep", "value", "flag")
    rows = [(0, 0.1 + 0.2, True), (1, -1.5e-17, False), (2, 3.0, True)]
    path = write_csv(tmp_path / "t.csv", "demo/1", cols, rows,
                     comments=["#note=hello"])
    schema, columns, data = read_csv(path)
    assert schema == "demo/1"
    assert columns == list(cols)
    # repr-based float formatting survives the round trip bit for bit
    assert data[0, 1] == 0.1 + 0.2
    assert data[1, 1] == -1.5e-17
    assert data[:, 0].tolist() == [0.0, 1.0, 2.0]
    assert data[:, 2].tolist() == [1.0, 0.0, 1.0]


def test_csv_empty_body(tmp_path):
    path = write_csv(tmp_path / "e.csv", "demo/1", ("a", "b"), [])
    schema, columns, data = read_csv(path)
    assert schema == "demo/1" and columns == ["a", "b"]
    assert data.shape == (0, 2)


def test_unknown_experiment_lists_names():
    with pytest.raises(ValueError, match="unknown experiment") as exc:
        run_experiment(ExperimentConfig(experiment="nope", reps=2))
    assert "ar1-clt" in str(exc.value)
    assert "fixed-wald" in str(exc.value)


def test_run_experiment_deterministic_files(tmp_path):
    text = "experiment = fixed-wald\nreps = 5\nseed = 11\nn = 120\n"
    files = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        res = run_experiment(parse_config(text), out=d)
        files.append([p.read_bytes() for p in res.files])
    assert files[0] == files[1]


def test_run_experiment_jobs_invariance(monkeypatch, tmp_path):
    monkeypatch.setattr(mc, "_POOL_START_S", 0.0)  # pool every task of jobs = 2
    base = "experiment = fixed-wald\nreps = 6\nseed = 3\nn = 120\n"
    r1 = run_experiment(parse_config(base + "jobs = 1\n"))
    r2 = run_experiment(parse_config(base + "jobs = 2\n"))
    np.testing.assert_array_equal(r1.draws, r2.draws)
    assert r1.summary == r2.summary
    # written outputs must not record the parallelism level
    d1, d2 = tmp_path / "j1", tmp_path / "j2"
    d1.mkdir(), d2.mkdir()
    f1 = run_experiment(parse_config(base + "jobs = 1\n"), out=d1).files
    f2 = run_experiment(parse_config(base + "jobs = 2\n"), out=d2).files
    assert [p.read_bytes() for p in f1] == [p.read_bytes() for p in f2]


@pytest.mark.parametrize("name,reps,seed,params", [
    # criterion 12 sizes and seeds of all twelve experiments
    ("ivx-null", 5, 105, {"n": 150}),
    ("garch-recovery", 2, 110, {"n": 800}),
    ("nested-forecast", 3, 112, {"n": 150}),
    ("nethac-coverage", 5, 108, {"n_nodes": 30}),
    ("fixed-wald", 5, 107, {"n": 120}),
    ("fmols-size", 5, 104, {"n": 150}),
    ("phillips-size", 5, 103, {"n": 120, "cv_reps": 500}),
    ("supwald-nbb", 5, 106, {"n": 150, "nbb_reps": 200, "nbb_grid": 100}),
    ("ar1-clt", 5, 101, {"n": 200}),
    ("hac-lrv", 3, 102, {"n": 2000}),
    ("unitroot-boot", 3, 109, {"n": 150, "B": 50, "cv_reps": 500}),
    ("mp-edges", 3, 111, {"n": 200}),
])
def test_vectorized_experiments_jobs_invariant_bytes(monkeypatch, tmp_path, name, reps,
                                                     seed, params):
    monkeypatch.setattr(mc, "_POOL_START_S", 0.0)  # pool every task of jobs = 2
    files = []
    for jobs in (1, 2):
        d = tmp_path / f"jobs{jobs}"
        d.mkdir()
        cfg = ExperimentConfig(experiment=name, reps=reps, seed=seed,
                               jobs=jobs, params=dict(params))
        files.append([p.read_bytes() for p in run_experiment(cfg, out=d).files])
    assert len(files[0]) == 2
    assert files[0] == files[1]


class _InProcessPool:
    """Stands in for `ProcessPoolExecutor`: records `max_workers` and runs
    the tasks here, after the initializer, starting no process."""

    made: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,cpus,workers", [
    (100_000, 64, 16),  # 16 one-rep tasks: one worker each, not 100 000
    (100_000, 3, 3),    # no more workers than CPUs
    (2, 64, 2),
])
def test_workers_never_outnumber_the_tasks_or_cpus(monkeypatch, tmp_path, jobs, cpus,
                                                   workers):
    monkeypatch.setattr(mc, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(mc, "_CELLS", ())  # the fake installs the cells here
    monkeypatch.setattr(mc, "_POOL_START_S", 0.0)
    # the CPUs the process may run on, not the machine's
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 10**6)
    files = []
    for j in (1, jobs):
        cfg = ExperimentConfig(experiment="nethac-coverage", reps=8, seed=108, jobs=j,
                               params={"n_nodes": 30}, grid={"w1": (0.04, 0.1)})
        files.append(size_power_grid(cfg, out=tmp_path / f"j{j}.csv")[3][0].read_bytes())
    assert _InProcessPool.made == [workers]
    assert files[0] == files[1]


@pytest.mark.parametrize("name,reps,seed,params,grid", [
    # reps of 11 and 17: no multiple of the batch size, so every cell ends
    # in a short batch
    ("ivx-null", 11, 105, {"n": 150}, {"c": (0.0, -5.0, -20.0)}),
    ("nethac-coverage", 17, 108, {"n_nodes": 30}, {"w1": (0.04, 0.1)}),
])
def test_grid_runs_in_one_pool_with_jobs_invariant_bytes(monkeypatch, tmp_path, name,
                                                         reps, seed, params, grid):
    starts = []

    class CountingPool(mc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(mc, "_POOL_START_S", 0.0)
    files = []
    for jobs in (1, 2):
        cfg = ExperimentConfig(experiment=name, reps=reps, seed=seed, jobs=jobs,
                               params=dict(params), grid=dict(grid))
        files.append(size_power_grid(cfg, out=tmp_path / f"j{jobs}.csv")[3][0].read_bytes())
    assert len(starts) == 1
    assert files[0] == files[1]


@pytest.mark.parametrize("spent,done,left,workers,pooled", [
    (0.02, 5, 100, 2, False),  # the lead-in is not yet spent
    (0.03, 3, 100, 2, True),
    (0.03, 3, 4, 2, False),    # 40 ms left saves 20 ms over two workers: < 25
    (0.03, 3, 6, 2, True),     # 60 ms left saves 30 ms
    (0.03, 3, 100, 1, False),  # one worker saves nothing
    (0.03, 3, 1, 2, False),    # neither does one task
])
def test_pool_starts_only_when_the_tasks_left_repay_it(monkeypatch, spent, done, left,
                                                        workers, pooled):
    monkeypatch.setattr(mc, "_POOL_START_S", 0.025)
    assert mc._pool_repays(spent, done, left, workers) is pooled


def test_pool_takes_over_after_the_lead_in_with_jobs_invariant_bytes(monkeypatch,
                                                                      tmp_path):
    pooled = []

    class RecordingPool(mc.ProcessPoolExecutor):
        def map(self, fn, tasks):
            pooled.append(list(tasks))
            return super().map(fn, tasks)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mc, "_POOL_START_S", 0.025)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    files = []
    for jobs in (1, 2):
        # a clock that reads 10 ms later at each look: the caller has spent
        # 30 ms, over 25, after its first 2 tasks, and the 16 left repay a pool
        ticks = itertools.count()
        monkeypatch.setattr(mc, "perf_counter", lambda: next(ticks) * 0.01)
        # 33 reps in tasks of 33 // 16 = 2: each cell ends in a one-rep task
        cfg = ExperimentConfig(experiment="ivx-null", reps=11, seed=105, jobs=jobs,
                               params={"n": 150}, grid={"c": (0.0, -5.0, -20.0)})
        files.append(size_power_grid(cfg, out=tmp_path / f"j{jobs}.csv")[3][0].read_bytes())
    tasks = [(k, range(lo, min(lo + 2, 11))) for k in range(3) for lo in range(0, 11, 2)]
    assert pooled == [tasks[2:]]
    assert files[0] == files[1]


def test_tiny_cli_grid_with_two_jobs_starts_no_pool(monkeypatch, tmp_path):
    from tsnet.cli import main

    def no_pool(**kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(mc, "ProcessPoolExecutor", no_pool)
    # the two calls of the benchmark's grid-parallel workload at its tiny size
    configs = {
        "ivx": "experiment = ivx-null\nreps = 6\nseed = 105\nn = 150\ncorr = 0.9\n"
               "grid.c = 0.0, -5.0, -20.0\n",
        "nethac": "experiment = nethac-coverage\nreps = 6\nseed = 108\nn_nodes = 30\n"
                  "grid.w1 = 0.04, 0.1\n",
    }
    for name, text in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert main(["mc", "grid", str(cfg), "--out", str(tmp_path), "--jobs", "2"]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "ivx-null-grid.csv", "nethac-coverage-grid.csv"]


def _pool_constructions(source: str) -> list[str]:
    """Calls of `ProcessPoolExecutor(...)` in `source`, however it is reached."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "ProcessPoolExecutor"
                 or getattr(node.func, "attr", None) == "ProcessPoolExecutor")]


def test_guard_flags_each_pool_construction():
    forms = ["ProcessPoolExecutor(max_workers=2)",
             "with futures.ProcessPoolExecutor(jobs) as pool:\n    pass",
             "pool = concurrent.futures.ProcessPoolExecutor()"]
    for src in forms:
        assert len(_pool_constructions(src)) == 1, src
    assert _pool_constructions("from concurrent.futures import ProcessPoolExecutor\n"
                               "ThreadPoolExecutor(2)\n") == []


def test_one_process_pool_construction_in_the_library():
    found = {path.name: calls for path in sorted(Path(mc.__file__).parent.glob("*.py"))
             if (calls := _pool_constructions(path.read_text()))}
    assert list(found) == ["mc.py"] and len(found["mc.py"]) == 1, found


@pytest.mark.parametrize("stream", [5, 2**64 - 1])
def test_rep_streams_draw_as_fresh_generators(stream):
    cfg = ExperimentConfig(experiment="ar1-clt", seed=11, stream=stream)
    rs = range(3, 7)
    for r, gen in zip(rs, mc._rep_streams(cfg, rs)):
        want = T.RngSpec(11, (stream + r) % 2**64).generator()
        # integers leave half a 64-bit word buffered (has_uint32) for the next rep
        assert gen.integers(0, 2**31, size=3).tolist() == want.integers(0, 2**31, size=3).tolist()
        assert gen.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert gen.random(2).tobytes() == want.random(2).tobytes()
        assert gen.bit_generator.state["has_uint32"] == want.bit_generator.state["has_uint32"]


def _generator_calls(source: str) -> list[str]:
    """Names of the functions in `source` that call some `.generator()`."""
    return sorted({func.name for func in ast.walk(ast.parse(source))
                   if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "generator"})


def test_reps_build_no_generator_of_their_own():
    # every rep stream comes from `_rep_streams`, which builds one generator per batch
    assert _generator_calls("def hook(cfg, r):\n    RngSpec(0, r).generator()\n") == ["hook"]
    assert _generator_calls(Path(mc.__file__).read_text()) == ["_rep_streams"]


# the names a rep hook would draw its own normals or generators by
_STREAM_SOURCES = {"_rep_streams", "_rekey", "RngSpec"}


def _stream_users(source: str):
    """({experiment: adapter}, experiments whose rep hook reaches a stream source).

    The adapter is `_panel` or `_per_rep` when `_register` gets the hook
    through one, else None.  A hook reaches a source when it, or a
    module-level function it names (transitively), names one of
    `_STREAM_SOURCES`; the adapters themselves are not searched.
    """
    tree = ast.parse(source)
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    adapters, found = {}, set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_register"):
            continue
        name, rep = node.args[0].value, node.args[2]
        adapter = getattr(rep.func, "id", None) if isinstance(rep, ast.Call) else None
        adapters[name] = adapter if adapter in ("_panel", "_per_rep") else None
        todo, seen = (list(rep.args) if adapters[name] else [rep]), set()
        while todo:
            for sub in ast.walk(todo.pop()):
                if isinstance(sub, ast.Name) and sub.id in _STREAM_SOURCES:
                    found.add(name)
                elif isinstance(sub, ast.Name) and sub.id in funcs and sub.id not in seen:
                    seen.add(sub.id)
                    todo.append(funcs[sub.id])
    return adapters, sorted(found)


def test_stream_guard_flags_a_hook_that_draws_for_itself():
    src = ("def _normals(cfg, rs):\n"
           "    return [g.standard_normal(3) for g in _rep_streams(cfg, rs)]\n"
           "def _hook(cfg, ctx, rs):\n    return _normals(cfg, rs)\n"
           "def _gen_hook(cfg, ctx, gen):\n    return RngSpec(0).generator()\n"
           "def _fine(cfg, ctx, z):\n    return z * 2.0\n"
           '_register("a", ("x",), _hook, None, params={}, echo=())\n'
           '_register("b", ("x",), _per_rep(_gen_hook), None, params={}, echo=())\n'
           '_register("c", ("x",), _panel(lambda p: (3,), _normals), None, params={}, echo=())\n'
           '_register("d", ("x",), _panel(lambda p: (3,), _fine), None, params={}, echo=())\n')
    adapters, found = _stream_users(src)
    assert adapters == {"a": None, "b": "_per_rep", "c": "_panel", "d": "_panel"}
    assert found == ["a", "b", "c"]


def test_only_the_two_adapters_touch_rep_streams():
    adapters, found = _stream_users(Path(mc.__file__).read_text())
    assert found == []
    assert set(adapters) == set(EXPERIMENTS)
    assert sorted(k for k, a in adapters.items() if a == "_per_rep") == [
        "garch-recovery", "mp-edges", "nested-forecast", "unitroot-boot"]
    assert sorted(k for k, a in adapters.items() if a == "_panel") == [
        "ar1-clt", "fixed-wald", "fmols-size", "hac-lrv", "ivx-null", "nethac-coverage",
        "phillips-size", "supwald-nbb"]


@pytest.mark.parametrize("params,radius", [
    ({}, 3),  # bandwidth 3 reaches distance 3
    ({"bandwidth": 5.0, "family": "truncated"}, 5),
    ({"bandwidth": 0.5, "low_bandwidth": 0.25}, 1),  # the MA weights reach 1
])
def test_nethac_setup_builds_shells_to_the_radius_read(params, radius):
    cfg = ExperimentConfig(experiment="nethac-coverage", reps=2, seed=108,
                           params={"n_nodes": 40, **params})
    ctx = EXPERIMENTS["nethac-coverage"].setup(resolve(cfg))
    assert isinstance(ctx["shells"], T.Shells)
    assert ctx["shells"].radius == radius
    res = run_experiment(cfg)
    g = T.cycle_graph(40)
    y = T.simulate_graph_ma(g, (1.0, 0.1), T.RngSpec(108, 1))
    spec = T.KernelSpec(params.get("family", "bartlett"),
                        params.get("bandwidth", 3.0))
    v = T.network_hac(g, y, spec)[0, 0]
    assert res.draws[1, 1] == v


def test_run_experiment_stream_shift_consistency():
    # rep r of a stream-s config equals rep s+r of a stream-0 config:
    # replications are keyed by absolute stream, not loop index
    base = ExperimentConfig(experiment="ar1-clt", reps=8, seed=21,
                            params={"n": 150})
    shifted = ExperimentConfig(experiment="ar1-clt", reps=3, seed=21,
                               stream=5, params={"n": 150})
    r_base = run_experiment(base)
    r_shift = run_experiment(shifted)
    np.testing.assert_array_equal(r_shift.draws, r_base.draws[5:8])


def test_run_experiment_single_rep(tmp_path):
    cfg = ExperimentConfig(experiment="mp-edges", reps=1, seed=2,
                           params={"n": 300, "gamma": 0.25})
    res = run_experiment(cfg, out=tmp_path / "mp.csv")
    assert res.draws.shape == (1, 3)
    schema, columns, data = read_csv(res.files[0])
    assert columns == ["rep", "lambda_min", "lambda_max", "trace_gap"]
    np.testing.assert_array_equal(data[:, 1:], res.draws)


def test_summary_recomputable_from_per_rep_csv(tmp_path):
    cfg = ExperimentConfig(experiment="ar1-clt", reps=50, seed=13,
                           params={"n": 200})
    res = run_experiment(cfg, out=tmp_path)
    schema, columns, data = read_csv(res.files[0])
    assert schema.startswith("ar1-clt/")
    z = data[:, columns.index("z")]
    assert res.summary["mean_z"] == pytest.approx(float(z.mean()), rel=1e-12)
    assert res.summary["var_z"] == pytest.approx(float(z.var()), rel=1e-12)
    _, scols, sdata = read_csv(res.files[1])
    assert sdata.shape == (1, len(res.summary))
    for j, name in enumerate(scols):
        assert sdata[0, j] == pytest.approx(res.summary[name], rel=1e-15)


def test_size_power_grid_matches_cellwise_runs(tmp_path):
    cfg = parse_config(
        "experiment = fixed-wald\nreps = 4\nseed = 5\nn = 120\n"
        "grid.pi0 = 0.3,0.5\ngrid.phi_x = 0.2,0.6\n"
    )
    columns, rows, results, files = size_power_grid(cfg, out=tmp_path)
    assert columns[:2] == ["grid_phi_x", "grid_pi0"]
    assert len(rows) == 4
    # cell 0 rerun in isolation must match exactly
    cell = ExperimentConfig(experiment="fixed-wald", reps=4, seed=5, stream=0,
                            params={"n": 120, "phi_x": 0.2, "pi0": 0.3})
    res0 = run_experiment(cell)
    np.testing.assert_array_equal(results[0].draws, res0.draws)
    schema, gcols, gdata = read_csv(files[0])
    assert gcols == columns
    assert gdata.shape == (4, len(columns))

    with pytest.raises(ValueError, match="grid"):
        size_power_grid(ExperimentConfig(experiment="fixed-wald", reps=2))


def test_size_power_grid_streams_wrap_mod_2_64():
    # cell i starts at stream + i * (reps + 64), mod 2**64 as a rep's stream does
    cfg = parse_config(f"experiment = phillips-size\nreps = 3\nseed = 2\nstream = {2**64 - 6}\n"
                       "n = 60\ncv_reps = 100\ngrid.theta = 0.3, 0.5\n")
    results = size_power_grid(cfg)[2]
    for i, (theta, res) in enumerate(zip((0.3, 0.5), results)):
        stream = (2**64 - 6 + i * (3 + 64)) % 2**64
        assert res.config.stream == stream
        cell = run_experiment(ExperimentConfig(
            experiment="phillips-size", reps=3, seed=2, stream=stream,
            params={"n": 60, "cv_reps": 100, "theta": theta}))
        np.testing.assert_array_equal(res.draws, cell.draws)
        assert res.summary == cell.summary
    assert results[1].config.stream == 61


def test_nethac_bandwidth_past_the_cycle_builds_shells_to_n_minus_1(monkeypatch):
    # no two of 30 nodes lie farther apart than 29, so a wider bandwidth reads no more
    radii = []

    def shells(g, radius):
        radii.append(radius)
        return graph_shells(g, radius)

    graph_shells = mc.graph_shells
    monkeypatch.setattr(mc, "graph_shells", shells)
    res = run_experiment(ExperimentConfig(experiment="nethac-coverage", reps=2,
                                          params={"n_nodes": 30, "bandwidth": 1e9}))
    assert radii == [29]
    assert np.isfinite(res.draws).all()


def test_experiment_registry_complete():
    expected = {"ar1-clt", "hac-lrv", "phillips-size", "fmols-size",
                "ivx-null", "supwald-nbb", "fixed-wald", "nethac-coverage",
                "unitroot-boot", "garch-recovery", "mp-edges",
                "nested-forecast"}
    assert expected <= set(EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        assert exp.columns, exp.name
        assert set(exp.echo) <= set(exp.params) | {"level"}, exp.name


@pytest.mark.parametrize("counts", [{"reps": 0}, {"reps": -3}, {"jobs": 0}])
def test_programmatic_counts_are_checked(tmp_path, counts):
    cfg = replace(ExperimentConfig(experiment="fixed-wald", reps=4, params={"n": 120}),
                  **counts)
    (key, value), = counts.items()
    message = f"^experiment 'fixed-wald': {key} must be at least 1, got {value}$"
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, out=tmp_path)
    with pytest.raises(ValueError, match=message):
        size_power_grid(replace(cfg, grid={"pi0": (0.3, 0.5)}), out=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unknown_key_fails_before_any_output(tmp_path):
    cfg = parse_config("experiment = ivx-null\nreps = 2\nn = 150\ncorrr = 0.99\n")
    with pytest.raises(ValueError, match="'corrr'") as exc:
        run_experiment(cfg, out=tmp_path)
    assert "corr, " in str(exc.value)  # the keys the experiment accepts
    assert list(tmp_path.iterdir()) == []


# values outside each declared domain, by (experiment, parameter)
_OUTSIDE = {
    ("ar1-clt", "n"): (2,),
    ("ar1-clt", "rho"): (1.0, -1.5, float("nan")),  # a stationary root lies in (-1, 1)
    ("hac-lrv", "n"): (1,),
    ("hac-lrv", "phi"): (1,),
    ("hac-lrv", "bandwidth"): (0.0, float("nan")),
    ("phillips-size", "n"): (9,),
    ("phillips-size", "cv_reps"): (99,),
    ("phillips-size", "deterministic"): ("trend", "foo"),  # Z_alpha, Z_t take none or const
    ("phillips-size", "theta"): (float("nan"), float("inf")),
    ("phillips-size", "bandwidth"): (-2.0, float("inf")),
    ("fmols-size", "n"): (7,),
    ("fmols-size", "corr"): (-1.0,),  # a correlation lies in (-1, 1)
    ("fmols-size", "beta"): (float("inf"),),
    ("fmols-size", "intercept"): (float("nan"),),
    ("ivx-null", "n"): (7,),
    ("ivx-null", "corr"): (1.5,),
    ("ivx-null", "c"): (float("nan"),),
    ("ivx-null", "gamma"): (0.0, 1.5),
    ("ivx-null", "beta"): (float("-inf"),),
    ("ivx-null", "intercept"): (float("inf"),),
    ("ivx-null", "c_z"): (0.0, 1.0, float("-inf")),  # the instrument's root lies below 1
    ("ivx-null", "beta_z"): (0.0, 1.5),
    ("supwald-nbb", "n"): (7,),
    ("supwald-nbb", "corr"): (1.0,),
    ("supwald-nbb", "nbb_reps"): (99,),
    ("supwald-nbb", "nbb_grid"): (0,),
    ("supwald-nbb", "c"): (float("nan"),),
    ("supwald-nbb", "intercept"): (float("-inf"),),
    ("supwald-nbb", "beta"): (float("inf"),),
    ("supwald-nbb", "gamma"): (0.0, 1.5, float("nan")),
    ("supwald-nbb", "trim"): ((0.0, 0.5), (0.5, 0.2), (0.3,), (0.1, 0.5, 0.9)),
    ("fixed-wald", "n"): (7,),
    ("fixed-wald", "phi_x"): (-1.0,),
    ("fixed-wald", "beta"): (float("nan"),),
    # at n = 1000 the split falls at pair 0 or 998 of 999
    ("fixed-wald", "pi0"): (0.0, 1.0, 0.001, 0.999, float("nan")),
    ("nethac-coverage", "n_nodes"): (2,),
    ("nethac-coverage", "w1"): (-0.5, float("nan")),  # -0.5 leaves a zero long-run variance
    ("nethac-coverage", "bandwidth"): (0.0,),
    ("nethac-coverage", "low_bandwidth"): (-0.5, float("inf")),
    ("unitroot-boot", "n"): (9,),
    ("unitroot-boot", "cv_reps"): (99,),
    ("unitroot-boot", "block"): (1000,),
    ("unitroot-boot", "B"): (0, -3),
    ("garch-recovery", "n"): (49,),
    ("garch-recovery", "omega"): (0.0, float("nan")),
    ("garch-recovery", "alpha"): (-0.1,),
    ("garch-recovery", "beta"): (0.9, -0.1),  # alpha + beta < 1 at alpha = 0.1
    ("garch-recovery", "burn"): (-1,),
    ("mp-edges", "n"): (0,),
    ("mp-edges", "gamma"): (0.0001,),  # rounds gamma * n to 0 at n = 4000
    ("nested-forecast", "n"): (7,),
    ("nested-forecast", "n_small"): (3,),
    ("nested-forecast", "k0"): (0, -3, 999, 2.5),  # n = 1000 leaves 999 pairs
    ("nested-forecast", "beta"): ((0.1, float("nan"), 0.0),),
    ("nested-forecast", "c"): ((-2.0, -5.0), (float("inf"), -5.0, -10.0)),
    ("nested-forecast", "v_ar"): ((0.28, 0.32, 1.0), (0.5,)),
    ("nested-forecast", "intercept"): (float("inf"),),
    ("hac-lrv", "family"): ("foo",),
    ("phillips-size", "family"): ("Bartlett",),
    # network HAC reads a kernel only as far as its weights reach: one bandwidth
    ("nethac-coverage", "family"): ("quadratic-spectral", "foo"),
    # the harness keys, whose domains are the same for every experiment
    ("fixed-wald", "reps"): (0,),
    ("fixed-wald", "jobs"): (0,),
    ("fixed-wald", "seed"): (-1, 2**64),
    ("fixed-wald", "stream"): (2**64,),
    ("fixed-wald", "level"): (0, 1, float("nan")),
}


def test_each_domain_has_an_outside_row_and_holds_its_default():
    assert set(_OUTSIDE) == {(name, key) for name, exp in EXPERIMENTS.items()
                             for key in exp.params} | {("fixed-wald", key) for key in mc._HARNESS}
    for name in EXPERIMENTS:
        resolve(ExperimentConfig(experiment=name))


@pytest.mark.parametrize("experiment,key,value", [
    ("fixed-wald", "n", 120.7),        # an int parameter takes only ints
    ("fixed-wald", "pi0", "half"),
    ("fixed-wald", "n", True),
    ("hac-lrv", "bandwidth", "wide"),  # optional number
    ("nested-forecast", "c", (-2.0, "x")),
    ("phillips-size", "deterministic", 1),
    ("fmols-size", "family", "parzen"),  # fmols-size has no kernel to set
] + [(name, key, value) for (name, key), values in _OUTSIDE.items() for value in values])
def test_resolve_rejects_bad_parameters(experiment, key, value):
    cfg = ExperimentConfig(experiment=experiment, reps=2)
    harness = key in mc._HARNESS
    cfg = replace(cfg, **{key: value}) if harness else replace(cfg, params={key: value})
    name = key if harness else f"parameter {key!r}"
    with pytest.raises(ValueError, match=re.escape(name)) as exc:
        resolve(cfg)
    # `in` finds the nan row by identity
    if value in _OUTSIDE.get((experiment, key), ()):
        default, (text, _) = (mc._HARNESS if harness else EXPERIMENTS[experiment].params)[key]
        typed = mc._typed(default, value, name)
        assert str(exc.value) == f"experiment {experiment!r}: {name} must be {text}, got {typed!r}"


def _setup_raises(source: str) -> dict:
    """{setup hook given to `_register` in `source`: whether it raises}.

    A hook raises when it, or a module-level function it names
    (transitively), holds a `raise` statement.
    """
    tree = ast.parse(source)
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    hooks = {kw.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_register"
             for kw in node.keywords if kw.arg == "setup"}
    found = {}
    for hook in hooks:
        todo, seen, found[hook] = [funcs[hook]], {hook}, False
        while todo:
            for sub in ast.walk(todo.pop()):
                found[hook] |= isinstance(sub, ast.Raise)
                if isinstance(sub, ast.Name) and sub.id in funcs and sub.id not in seen:
                    seen.add(sub.id)
                    todo.append(funcs[sub.id])
    return found


def test_guard_flags_a_setup_hook_that_raises():
    src = ("def _setup(cfg):\n    raise ValueError(cfg)\n"
           '_register("a", ("x",), None, None, params={}, echo=(), setup=_setup)\n')
    assert _setup_raises(src) == {"_setup": True}
    assert _setup_raises(src.replace("raise ValueError(cfg)", "return {}")) == {"_setup": False}


def test_setup_hooks_leave_parameter_checks_to_resolve():
    # a parameter's domain is declared with it and checked by `resolve`, before any setup
    found = _setup_raises(Path(mc.__file__).read_text())
    assert sorted(found) == ["_mp_setup", "_nethac_setup", "_phillips_setup",
                             "_supwald_setup", "_urboot_setup"]
    assert not any(found.values()), found


def test_resolve_takes_a_level_only_where_it_is_read():
    reads = {name for name, exp in EXPERIMENTS.items() if "level" in exp.echo}
    assert reads == {"phillips-size", "fmols-size", "ivx-null", "nethac-coverage"}
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=name, level=0.1)
        if name in reads:
            assert resolve(cfg).level == 0.1
        else:
            with pytest.raises(ValueError, match=f"experiment {name!r} does not read level; "
                                                 f"leave it at 0.05, got 0.1"):
                resolve(cfg)
            assert resolve(replace(cfg, level=0.05)).level == 0.05


def test_resolve_fills_defaults_in_declared_types():
    cfg = resolve(ExperimentConfig(experiment="supwald-nbb", reps=2,
                                   params={"c": -5, "n": np.int64(150)}))
    assert list(cfg.params) == list(EXPERIMENTS["supwald-nbb"].params)
    assert cfg.params["c"] == -5.0 and isinstance(cfg.params["c"], float)
    assert cfg.params["n"] == 150 and type(cfg.params["n"]) is int
    assert cfg.params["nbb_reps"] == 50000
    assert resolve(cfg) == cfg
    # a scalar is a one-entry tuple
    one = resolve(ExperimentConfig(experiment="nested-forecast",
                                   params={"beta": 0.2, "c": -5, "v_ar": 0.3, "n_small": 0}))
    assert (one.params["beta"], one.params["c"], one.params["v_ar"]) == ((0.2,), (-5.0,), (0.3,))
    assert resolve(ExperimentConfig(experiment="hac-lrv", params={"bandwidth": 4})
                   ).params["bandwidth"] == 4


def test_grid_file_shows_the_config_as_given(tmp_path):
    # numeric tokens are read as numbers, not cast to the declared type
    cfg = parse_config("experiment = hac-lrv\nreps = 2\nn = 200\nbandwidth = none\n"
                       "family = parzen\ngrid.phi = 0.30, 1e-1\ngrid.n = 150, 200\n")
    columns, rows, results, files = size_power_grid(cfg, out=tmp_path)
    lines = files[0].read_text().splitlines()
    assert lines[1] == ("#config=experiment=hac-lrv;reps=2;seed=0;stream=0;level=0.05;"
                        "bandwidth=None;family=parzen;n=200")
    assert lines[2].startswith("grid_n,grid_phi,")
    assert [line.split(",")[:2] for line in lines[3:]] == [
        ["150", "0.3"], ["150", "0.1"], ["200", "0.3"], ["200", "0.1"]]
    assert [res.config.params["phi"] for res in results] == [0.3, 0.1, 0.3, 0.1]


def test_grid_checks_every_cell_before_the_first_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(EXPERIMENTS, "ivx-null",
                        replace(EXPERIMENTS["ivx-null"], setup=ran.append))
    for axis in ("grid.corrr = 0.5, 0.99\n", "grid.n = 120, 120.7\n"):
        cfg = parse_config("experiment = ivx-null\nreps = 2\nn = 150\n" + axis)
        with pytest.raises(ValueError, match="'corrr'|'n'"):
            size_power_grid(cfg)
    assert ran == []


def test_config_line_records_every_declared_parameter(tmp_path):
    cfg = ExperimentConfig(experiment="fixed-wald", reps=3, seed=7,
                           params={"n": 120, "pi0": 0.4})
    res = run_experiment(cfg, out=tmp_path)
    want = ("#config=experiment=fixed-wald;reps=3;seed=7;stream=0;level=0.05;"
            "beta=0.3;n=120;phi_x=0.5;pi0=0.4")
    for path in res.files:
        assert path.read_text().splitlines()[1] == want
    assert res.config.params == {"n": 120, "pi0": 0.4, "phi_x": 0.5, "beta": 0.3}
    assert list(res.summary)[:2] == ["n", "pi0"]


def test_nested_forecast_fields_consistent():
    spec = T.SystemSpec(beta=(0.1, 0.8),
                        lur=(T.LurSpec(-2.0, 1.0), T.LurSpec(-5.0, 1.0)),
                        intercept=0.0)
    y, x = T.simulate_predictive_system(spec, 400, T.RngSpec(90, 0))
    res = T.nested_forecast_test(y, x[:, :1], x[:, 1:], k0=100)
    # the nesting model's full-sample residual variance scales the losses
    z = np.column_stack([np.ones(399), x[:-1]])
    resid = y[1:] - z @ np.linalg.lstsq(z, y[1:], rcond=None)[0]
    diffs = (res.errors_small**2 - res.errors_big**2) / (resid @ resid / (399 - 3))
    np.testing.assert_allclose(res.path, np.cumsum(diffs), rtol=1e-12)
    assert res.stat == res.path[-1]
    assert res.start == 100
    assert res.errors_small.shape == res.errors_big.shape


def test_nested_forecast_prefers_true_big_model():
    pos = 0
    for i in range(30):
        spec = T.SystemSpec(beta=(0.1, 0.8),
                            lur=(T.LurSpec(-2.0, 1.0), T.LurSpec(-5.0, 1.0)),
                            intercept=0.0)
        y, x = T.simulate_predictive_system(spec, 400, T.RngSpec(90, i))
        res = T.nested_forecast_test(y, x[:, :1], x[:, 1:], k0=100)
        pos += res.stat > 0
    assert pos >= 27


def test_nested_forecast_postpones_short_history():
    spec = T.SystemSpec(beta=(0.1, 0.1, -0.05),
                        lur=tuple(T.LurSpec(c, 1.0) for c in (-2.0, -5.0, -10.0)),
                        intercept=0.0)
    y, x = T.simulate_predictive_system(spec, 200, T.RngSpec(90, 100))
    with pytest.warns(UserWarning, match="postponed"):
        res = T.nested_forecast_test(y, x[:, :1], x[:, 1:], k0=2)
    assert res.start > 2


def test_nested_forecast_degenerate_and_invalid():
    gen = T.RngSpec(90, 101).generator()
    x = gen.standard_normal((100, 2))
    y = np.r_[0.0, 1.0 + 2.0 * x[:-1, 0]]  # exact fit, zero variance
    with pytest.raises(ValueError,
                       match="residuals of the nesting-model fit are numerically zero"):
        T.nested_forecast_test(y, x[:, :1], x[:, 1:], k0=30)
    y2 = gen.standard_normal(100)
    with pytest.raises(ValueError, match="equal length"):
        T.nested_forecast_test(y2, x[:50, :1], x[:, 1:], k0=30)
    with pytest.raises(ValueError, match="k0"):
        T.nested_forecast_test(y2, x[:, :1], x[:, 1:], k0=99)
    # an identically zero extra regressor never yields a usable origin
    with pytest.raises(ValueError, match="well-conditioned"):
        T.nested_forecast_test(y2, x[:, :1], np.zeros((100, 1)), k0=30)
    # no extra regressor: the two models coincide and every loss difference is 0
    with pytest.raises(ValueError, match="x_extra has no columns"):
        T.nested_forecast_test(y2, x, x[:, 2:], k0=30)
