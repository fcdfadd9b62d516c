"""The benchmark's workloads: which experiments each runs, at what size.

Every entry is `(experiment, reps, params, grid)`.  Parameters are the
acceptance parameters of `tests/test_acceptance.py`; reps are cut so a
pass takes a few seconds.  The experiment seed is the acceptance seed
plus the workload seed, so workload seed 0 reproduces the acceptance
seeds (101-112) and any other value moves every experiment together.

Why each workload (see also `BENCHMARK.json`):

- serial-light: reps cost 0.15-2 ms, so per-rep harness glue and
  small-n kernels dominate.  `ivx_instrument` is about a fifth of it.
  This is the workload where batching replications or the IVX fix show.
- serial-heavy: reps cost 10-180 ms, so it is bound by kernels (GARCH,
  nested forecasts, bootstrap, eigenvalues, dense network HAC) and
  harness overhead is under 1%.  Batching should not move it.
- grid-parallel: `tsnet mc grid --jobs 2` in fresh CLI processes.  It
  pays the CLI import on each call, starts one process pool per grid
  cell and pickles the 1500-node distance matrix into every chunk, so a
  change that coarsens chunks or grows the shared context shows here.
"""

from __future__ import annotations

from dataclasses import dataclass

UINT64_MAX = 2**64 - 1

# tests/test_acceptance.py SEEDS
ACCEPTANCE_SEEDS = {
    "ar1-clt": 101,
    "hac-lrv": 102,
    "phillips-size": 103,
    "fmols-size": 104,
    "ivx-null": 105,
    "supwald-nbb": 106,
    "fixed-wald": 107,
    "nethac-coverage": 108,
    "unitroot-boot": 109,
    "garch-recovery": 110,
    "mp-edges": 111,
    "nested-forecast": 112,
}

_NETHAC = {"w1": 0.04, "bandwidth": 3.0, "low_bandwidth": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "serial": in-process run_experiment; "grid": CLI mc grid
    jobs: int
    blas_threads: int
    sizes: dict  # size name -> tuple of (experiment, reps, params, grid)


WORKLOADS = {w.name: w for w in (
    Workload("serial-light", "serial", jobs=1, blas_threads=1, sizes={
        "full": (
            ("ar1-clt", 1000, {"n": 5000, "rho": 0.5}, {}),
            ("fixed-wald", 1000, {"n": 1000, "pi0": 0.5}, {}),
            ("fmols-size", 500, {"n": 1000, "corr": 0.9}, {}),
            ("phillips-size", 500, {"n": 1000, "theta": 0.5, "cv_reps": 20000}, {}),
            ("ivx-null", 300, {"n": 1000, "c": -5.0, "corr": 0.9}, {}),
            ("supwald-nbb", 500, {"n": 2000, "c": -20.0, "gamma": 0.75,
                                   "nbb_reps": 5000}, {}),
            ("nethac-coverage", 500, {"n_nodes": 200, **_NETHAC}, {}),
        ),
        "tiny": (
            ("ar1-clt", 5, {"n": 200}, {}),
            ("fixed-wald", 5, {"n": 120}, {}),
            ("fmols-size", 5, {"n": 150}, {}),
            ("phillips-size", 5, {"n": 120, "cv_reps": 500}, {}),
            ("ivx-null", 5, {"n": 150, "c": -5.0}, {}),
            ("supwald-nbb", 5, {"n": 150, "nbb_reps": 200, "nbb_grid": 100}, {}),
            ("nethac-coverage", 5, {"n_nodes": 30}, {}),
        ),
    }),
    Workload("serial-heavy", "serial", jobs=1, blas_threads=1, sizes={
        "full": (
            ("hac-lrv", 5, {"n": 100000, "phi": 0.5}, {}),
            ("unitroot-boot", 5, {"n": 1000, "B": 2000, "block": 10,
                                   "cv_reps": 20000}, {}),
            ("garch-recovery", 10, {"n": 20000, "omega": 0.1, "alpha": 0.1,
                                    "beta": 0.8}, {}),
            ("mp-edges", 3, {"n": 4000, "gamma": 0.25}, {}),
            ("nested-forecast", 20, {"n": 1000}, {}),
            ("nethac-coverage", 3, {"n_nodes": 3000, **_NETHAC}, {}),
        ),
        "tiny": (
            ("hac-lrv", 3, {"n": 2000}, {}),
            ("unitroot-boot", 3, {"n": 150, "B": 50, "cv_reps": 500}, {}),
            ("garch-recovery", 2, {"n": 800}, {}),
            ("mp-edges", 3, {"n": 200}, {}),
            ("nested-forecast", 3, {"n": 150}, {}),
            ("nethac-coverage", 5, {"n_nodes": 30}, {}),
        ),
    }),
    Workload("grid-parallel", "grid", jobs=2, blas_threads=1, sizes={
        "full": (
            ("ivx-null", 100, {"n": 1000, "corr": 0.9}, {"c": (0.0, -5.0, -20.0)}),
            # 16 reps in chunks of max(1, 16 // 16) = 1: the context ships 16 times
            ("nethac-coverage", 16, {"n_nodes": 1500, "bandwidth": 3.0,
                                     "low_bandwidth": 0.5},
             {"w1": (0.04, 0.1)}),
        ),
        "tiny": (
            ("ivx-null", 6, {"n": 150, "corr": 0.9}, {"c": (0.0, -5.0, -20.0)}),
            ("nethac-coverage", 6, {"n_nodes": 30}, {"w1": (0.04, 0.1)}),
        ),
    }),
)}


def experiment_seed(experiment: str, workload_seed: int) -> int:
    seed = ACCEPTANCE_SEEDS[experiment] + workload_seed
    if not 0 <= seed <= UINT64_MAX:
        raise ValueError(f"workload seed {workload_seed} moves {experiment} "
                         "out of the unsigned 64-bit seed range")
    return seed


def config_text(experiment, reps, params, grid, seed) -> str:
    """An `mc` config file for one entry."""
    lines = [f"experiment = {experiment}", f"reps = {reps}", f"seed = {seed}"]
    lines += [f"{k} = {v!r}" for k, v in params.items()]
    lines += [f"grid.{k} = " + ", ".join(repr(v) for v in vals)
              for k, vals in grid.items()]
    return "\n".join(lines) + "\n"
