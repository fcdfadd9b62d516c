"""One pass of one workload, in a fresh process started by `run.py`.

    python3 perfbench/workload.py WORKLOAD SEED SIZE TRACE JOBS PASS_DIR RESULT CORES

Serial workloads import tsnet here and call `tsnet.mc.run_experiment`
with CSV output for each entry.  The grid workload writes one config
file per entry and runs `cli_shim.py` (the `tsnet` CLI) on each with
`mc grid --jobs JOBS`.  The pass ends when the last CSV is written; the
checks that follow are outside the timed part.  RESULT receives the
timings, spans, counters, CSV digests and check outcomes as JSON.  The
process and the processes it starts run on CORES (comma-separated CPU
numbers), where `run.py` probes the cores' speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from tracer import Recorder, count_warnings, instrument
from workloads import WORKLOADS, config_text, experiment_seed

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 170


def versions() -> dict:
    """Python, numpy, scipy and BLAS of this interpreter."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _roundtrip_ok(res, read_csv) -> bool:
    """The CSVs read back to exactly the draws and summary in memory."""
    import numpy as np

    _, _, per_rep = read_csv(res.files[0])
    _, columns, summary = read_csv(res.files[1])
    want = np.array([list(res.summary.values())], dtype=float)
    return (per_rep.shape == (res.draws.shape[0], res.draws.shape[1] + 1)
            and np.array_equal(per_rep[:, 1:], res.draws, equal_nan=True)
            and columns == list(res.summary)
            and np.array_equal(summary, want, equal_nan=True))


def _gates(experiment, summary) -> list:
    """Acceptance gates that do not depend on the number of reps."""
    if experiment == "mp-edges":
        p = round(summary["gamma"] * summary["n"])
        return [("mp-edges trace identity gap < 1e-8 relative",
                 summary["max_trace_gap"] < 1e-8 * p)]
    return []


def run_serial(entries, seed, trace, pass_dir: Path) -> dict:
    t0 = time.perf_counter()
    import tsnet  # noqa: F401
    from tsnet import mc
    import_s = time.perf_counter() - t0

    rec = Recorder()
    instrument(rec, trace)
    results = []
    with count_warnings(rec) if trace else contextlib.nullcontext():
        for experiment, reps, params, _ in entries:
            cfg = mc.ExperimentConfig(experiment=experiment, reps=reps,
                                      seed=experiment_seed(experiment, seed),
                                      params=dict(params))
            out = pass_dir / f"{experiment}.csv"
            results.append(mc.run_experiment(cfg, out=out))
    t_done = time.perf_counter()

    checks = []
    for res in results:
        checks.append((f"{res.experiment} CSVs read back exactly",
                       _roundtrip_ok(res, mc.read_csv)))
        checks += _gates(res.experiment, res.summary)
    return {"processes": [{"import_s": import_s, **rec.dump()}],
            "t_done": t_done, "checks": checks, "versions": versions(),
            "files": {p.name: sha256(p) for res in results for p in res.files}}


def run_grid(entries, seed, trace, jobs, pass_dir: Path) -> dict:
    processes = []
    grid_files = []
    for experiment, reps, params, grid in entries:
        cfg = pass_dir / f"{experiment}.cfg"
        cfg.write_text(config_text(experiment, reps, params, grid,
                                   experiment_seed(experiment, seed)))
        result = pass_dir / f"{experiment}-cli.json"
        with open(pass_dir / f"{experiment}.stdout", "w") as stdout:
            subprocess.run(
                [sys.executable, str(HERE / "cli_shim.py"), str(result),
                 str(int(trace)), "mc", "grid", str(cfg), "--jobs", str(jobs),
                 "--out", str(pass_dir)],
                stdout=stdout, check=True, timeout=CLI_TIMEOUT_S)
        processes.append(json.loads(result.read_text()))
        grid_files.append(pass_dir / f"{experiment}-grid.csv")
    return {"processes": processes, "t_done": processes[-1]["t_done"],
            "checks": [], "versions": processes[0]["versions"],
            "files": {p.name: sha256(p) for p in grid_files}}


def main(argv) -> int:
    name, seed, size, trace, jobs, pass_dir, result, cores = argv
    os.sched_setaffinity(0, {int(c) for c in cores.split(",")})
    workload = WORKLOADS[name]
    entries = workload.sizes[size]
    pass_dir = Path(pass_dir)
    if workload.kind == "serial":
        out = run_serial(entries, int(seed), trace == "1", pass_dir)
    else:
        out = run_grid(entries, int(seed), trace == "1", int(jobs), pass_dir)
    # ru_maxrss is in KiB on Linux; CHILDREN covers the CLI processes and
    # the pool workers they reaped
    out["maxrss_kb"] = max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["reps"] = sum(reps * math.prod(len(v) for v in grid.values())
                      for _, reps, _, grid in entries)
    Path(result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
