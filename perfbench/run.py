"""Monte Carlo benchmark for tsnet: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload serial-light --seed 0 --seconds 30 --trace 0

Run from the root of a source tree (it needs `src/tsnet`).  Each pass of
a workload runs in a fresh process (`workload.py`), pinned to one core
(serial workloads) or to one core per job (grid); passes repeat until
`--seconds` is spent, and every metric is the median over passes.

Timings are scaled to an uncontended core.  The cores of a shared host
change speed by tens of percent every few seconds, independently of
each other, so raw wall times of the same code spread too widely to
bound a regression.  A speed probe (`calibrate.py`) runs on the pass's
cores throughout the pass, and each time of the pass is multiplied by
its `scale`, the probe's nominal time over its mean time in the pass.
The unscaled medians and the median scale are printed after the metrics
and kept in the result record.

With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json:

- wall_s: workload process start to the last CSV written, scaled
- setup_s: `import tsnet` plus every experiment's setup phase (summed
  over CLI calls for grid-parallel), scaled
- reps_per_s: replications / (wall_s - setup_s), both scaled
- peak_rss_mb: peak resident set of the largest process of the pass

With `--trace 1` it alternates untraced and traced passes and prints
the per-layer metrics: calls and self time of each wrapped function
(`tracer.LIBRARY`), harness spans and counters, and
`trace.overhead_frac`, the traced over the untraced median wall time,
minus one.  Self times are scaled like the end-to-end times; the spans,
unscaled, go to `.perfbench_out/trace-<workload>-seed<n>.json`.

Correctness checks count as attempts; a failed one counts in `failed`:
the CSVs of every pass are byte-identical (SHA-256) to the first pass,
they read back exactly to the in-memory draws and summary, reps-count
independent acceptance gates hold, and for grid-parallel the jobs=2 grid
CSVs equal a jobs=1 reference made once, before the timed passes.
`failed_frac` (failed / attempted) is printed with the metrics.

The last stdout line is the JSON result; an environment header and a
readable table come before it, and the full record (header, per-pass
figures, checks) goes to `.perfbench_out/result-*.json`.

`--workload all` runs the three workloads in turn and prints them
together.  `--size tiny` shrinks every input so a pass takes about a
second; `smoke.py` uses it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the speed probe imports numpy here; one BLAS thread, as in the passes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import SpeedProbe  # noqa: E402
from tracer import LIBRARY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PASS_TIMEOUT_S = 170
MIN_PASSES = 2
# passes stop starting once this much of the run has gone, whatever --seconds
# says, so that a run ends within three minutes
MAX_RUN_S = 140.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("reps_per_s", "reps/s"),
              ("peak_rss_mb", "MB"))


def _per_layer():
    names = []
    for mod, fns in LIBRARY.items():
        for fn in fns:
            names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    names += [
        ("garch.garch_qmle.iterations", "count"),
        ("garch.garch_qmle.nonconverged", "count"),
        ("mc.run_experiment.calls", "count"),
        ("mc.setup.self_s", "s"),
        ("mc.rep.calls", "count"),
        ("mc.rep.self_s", "s"),
        ("mc.summarize.self_s", "s"),
        ("mc.write_csv.bytes", "bytes"),
        ("mc.pool.starts", "count"),
        ("mc.pool.wait_s", "s"),
        ("mc.pool.pickled_bytes", "bytes"),
    ]
    names += [(f"{mod}.warnings", "count") for mod in LIBRARY]
    names += [("cli.import_s", "s"), ("cli.main.self_s", "s"),
              ("trace.overhead_frac", "ratio")]
    return tuple(names)


PER_LAYER = _per_layer()


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# passes


def _child_env(workload, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workload.blas_threads)
    return env


def run_pass(workload, seed, size, trace, jobs, run_dir: Path, index,
             cores, probe) -> dict:
    """One pass in a fresh process pinned to `cores`; returns its timings,
    scaled by the speed `probe` saw on those cores during the pass, and
    its outputs."""
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir()
    result = run_dir / f"pass{index}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), workload.name,
           str(seed), size, str(int(trace)), str(jobs), str(pass_dir), str(result),
           ",".join(map(str, cores))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_child_env(workload, run_dir),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        # CLI processes and pool workers of the pass share its session; none
        # may outlive it, also when the pass failed or timed out
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{workload.name} pass {index} exited with "
                         f"{proc.returncode}:\n{stderr[-2000:]}")
    out = json.loads(result.read_text())
    shutil.rmtree(pass_dir)
    procs = out["processes"]
    wall = out["t_done"] - t0
    setup = sum(p["import_s"] + sum(p["setup_s"]) for p in procs)
    scale = probe.scale(t0, out["t_done"])
    return {"index": index, "traced": trace, "elapsed_s": elapsed,
            "scale": scale, "raw_wall_s": wall, "raw_setup_s": setup,
            "wall_s": wall * scale, "setup_s": setup * scale,
            "reps_per_s": out["reps"] / ((wall - setup) * scale),
            "peak_rss_mb": out["maxrss_kb"] / 1024.0,
            "reps": out["reps"], "files": out["files"], "checks": out["checks"],
            "versions": out["versions"], "processes": procs}


def rollup(processes, scale) -> collections.Counter:
    """Calls and self time per span name, plus counters, for one pass.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, as each process
    records from one thread.  Times are multiplied by the pass's speed
    `scale`, as its end-to-end timings are.
    """
    m = collections.Counter()
    for proc in processes:
        spans = proc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += (end - start - child) * scale
        m.update(proc["counters"])
        m["cli.import_s"] += proc["import_s"] * scale
    m["mc.pool.wait_s"] = m.pop("mc.pool.wait.self_s", 0.0)
    return m


def self_total(m) -> float:
    return sum(v for k, v in m.items() if k.endswith(".self_s")) + m["mc.pool.wait_s"]


def run_workload(name, seed, seconds, trace, size) -> dict:
    workload = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # compile bytecode and fill the page cache before anything is timed
    subprocess.run([sys.executable, "-c", "import tsnet.cli"], check=True,
                   env=_child_env(workload, run_dir), timeout=PASS_TIMEOUT_S)
    t_begin = time.perf_counter()
    # a serial pass gets one core, a grid pass one per job; the probe
    # watches the same cores
    cores = sorted(os.sched_getaffinity(0))[:workload.jobs]

    with SpeedProbe(cores) as probe:
        reference = None
        if workload.kind == "grid":
            ref = run_pass(workload, seed, size, False, 1, run_dir, "-ref", cores, probe)
            reference = ref["files"]

        modes = (False, True) if trace else (False,)
        passes = []
        while True:
            passes.append(run_pass(workload, seed, size,
                                   modes[len(passes) % len(modes)], workload.jobs,
                                   run_dir, len(passes), cores, probe))
            elapsed = time.perf_counter() - t_begin
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if len(passes) >= MIN_PASSES * len(modes) and elapsed + typical > seconds:
                break
            if len(passes) >= len(modes) and elapsed + typical > MAX_RUN_S:
                break

    checks = []
    first = passes[0]["files"]
    for p in passes:
        checks += [(f"pass {p['index']}: {c}", ok) for c, ok in p["checks"]]
        if p is not passes[0]:
            checks += [(f"pass {p['index']}: {f} identical to pass 0",
                        p["files"].get(f) == digest) for f, digest in first.items()]
        if reference is not None:
            checks += [(f"pass {p['index']}: {f} (jobs={workload.jobs}) equals "
                        "the jobs=1 reference", p["files"].get(f) == digest)
                       for f, digest in reference.items()]

    untraced = [p for p in passes if not p["traced"]]
    metrics = {k: statistics.median(p[k] for p in untraced) for k, _ in END_TO_END}
    raw = {k: statistics.median(p[k] for p in untraced)
           for k in ("raw_wall_s", "raw_setup_s", "scale")}
    layers = {}
    traced = [p for p in passes if p["traced"]]
    if traced:
        rolled = [rollup(p["processes"], p["scale"]) for p in traced]
        for p, m in zip(traced, rolled):
            p["self_total_s"] = self_total(m)
        layers = {k: statistics.median(m[k] for m in rolled)
                  for k, _ in PER_LAYER if k != "trace.overhead_frac"}
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / metrics["wall_s"] - 1.0)
        _write_trace(run_dir.parent / f"trace-{name}-seed{seed}.json", name, traced)
    return {"workload": name, "metrics": metrics, "raw": raw, "per_layer": layers,
            "checks": checks, "passes": passes,
            "threads": {"processes": workload.jobs,
                        "blas_threads": workload.blas_threads}}


def _write_trace(path: Path, workload, traced):
    spans = []
    for p in traced:
        for proc_index, proc in enumerate(p["processes"]):
            for i, (name, start, end, parent) in enumerate(proc["spans"]):
                spans.append({"name": name, "start": start, "end": end,
                              "parent": parent, "id": i, "process": proc_index,
                              "workload": workload, "run": p["index"]})
    path.write_text(json.dumps({"workload": workload, "spans": spans}))


# ---------------------------------------------------------------------------
# environment header


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, size, seconds, results) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **results[0]["passes"][0]["versions"],
        "threads": {r["workload"]: r["threads"] for r in results},
        "workload_seed": seed,
        "size": size,
        "run_seconds": seconds,
    }


# ---------------------------------------------------------------------------
# main


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 gives the acceptance seeds")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tsnet" / "__init__.py").is_file():
        print(f"run.py: no tsnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run.py: --seed must be nonnegative", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                args.size) for n in names]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed, args.size, args.seconds, results)
    print("# env " + json.dumps(env))
    attempted = sum(len(r["checks"]) for r in results)
    failed = sum(1 for r in results for _, ok in r["checks"] if not ok)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    out = {}
    for r in results:
        fails = [c for c, ok in r["checks"] if not ok]
        for c in fails:
            print(f"# FAILED {r['workload']}: {c}")
        rows = dict(r["per_layer"] if args.trace else r["metrics"])
        n_pass = sum(1 for p in r["passes"] if not p["traced"])
        print(f"# {r['workload']}: {n_pass} untraced passes, "
              f"{len(r['passes']) - n_pass} traced")
        for k, v in rows.items():
            print(f"{r['workload']:14s} {k:42s} {_fmt(v):>14s} {units[k]}")
        frac = len(fails) / len(r["checks"]) if r["checks"] else 0.0
        print(f"{r['workload']:14s} {'failed_frac':42s} {_fmt(frac):>14s} ratio")
        for k, v in r["raw"].items():
            unit = "ratio" if k == "scale" else "s"
            print(f"{r['workload']:14s} {k:42s} {_fmt(v):>14s} {unit}")
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        out.update({prefix + k: {"value": v, "unit": units[k]} for k, v in rows.items()})
        r["env"] = env
        record = OUT / f"result-{r['workload']}-seed{args.seed}-trace{args.trace}.json"
        for p in r["passes"]:
            del p["processes"]
        record.write_text(json.dumps(r, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
