"""The byte contract: the CSVs of every experiment keep their SHA-256.

One fresh process, with one BLAS thread, runs each registered experiment
at a small size, the experiments with a reused workspace at a size that
crosses its every boundary, and a two-cell `tsnet mc grid` in the caller
and in a forced process pool, and hashes every per-rep, summary and grid
CSV it writes.  The hashes must equal the ones in
`golden_hashes.json`, which also records the numpy, scipy and BLAS builds
they were made with: floating-point output may change with those, so a
mismatch names both sets.  A second process repeats every run under each
workspace geometry of `GEOMETRIES`, which bounds workspaces and never a
result, so its hashes must be the same.  To regenerate the file after a
change that is meant to move the numbers:

    python tests/test_golden.py --write

which prints each key whose hash changed, as `key: old -> new`, for the
change's notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_hashes.json"
SRC = HERE.parent / "src"

# (experiment, seed, reps, params): the small sizes of the benchmark's
# workloads at its seeds, copied here so the contract does not move with them
RUNS = (
    ("ar1-clt", 101, 5, {"n": 200}),
    ("hac-lrv", 102, 3, {"n": 2000}),
    ("phillips-size", 103, 5, {"n": 120, "cv_reps": 500}),
    ("fmols-size", 104, 5, {"n": 150}),
    ("ivx-null", 105, 5, {"n": 150, "c": -5.0}),
    ("supwald-nbb", 106, 5, {"n": 150, "nbb_reps": 200, "nbb_grid": 100}),
    ("fixed-wald", 107, 5, {"n": 120}),
    ("nethac-coverage", 108, 5, {"n_nodes": 30}),
    ("unitroot-boot", 109, 3, {"n": 150, "B": 50, "cv_reps": 500}),
    ("garch-recovery", 110, 2, {"n": 800}),
    ("mp-edges", 111, 3, {"n": 200}),
    ("nested-forecast", 112, 3, {"n": 150}),
)
# sizes past every workspace boundary, each run's files in boundary/:
# ar1-clt crosses `mc._BATCH`, a 2 MB block and its 6-rep sub-panels;
# hac-lrv has one-rep sub-panels; phillips-size's limit table and
# supwald-nbb's bridge table fill several batches; unitroot-boot's
# bootstrap fills several chunks; nethac-coverage's bandwidth runs past the
# 30-cycle's farthest distance, 15
BOUNDARY_RUNS = (
    ("ar1-clt", 101, 70, {"n": 5000}),
    ("hac-lrv", 102, 8, {"n": 40000}),
    ("phillips-size", 103, 5, {"n": 120, "cv_reps": 1200}),
    ("supwald-nbb", 106, 5, {"n": 150, "nbb_reps": 1500, "nbb_grid": 100}),
    ("unitroot-boot", 109, 2, {"n": 150, "B": 2000, "cv_reps": 500}),
    ("nethac-coverage", 108, 3, {"n_nodes": 30, "bandwidth": 100}),
)
# (_PANEL_BYTES, _BLOCK_BYTES, _BATCH) of `mc`, the first also the default
# budget of `_panel.chunks`: one row at a time, and an odd geometry whose
# blocks, sub-panels and batches cut no run evenly
GEOMETRIES = ((8, 8, 1), (3000, 10000, 7))
GRID = ("experiment = ivx-null\nreps = {reps}\nseed = 105\nn = 150\ncorr = 0.9\n"
        "grid.c = 0.0, -5.0\n")


def _versions() -> dict:
    import numpy
    import scipy

    def blas(module):
        dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"numpy: {blas(numpy)}; scipy: {blas(scipy)}"}


def _grid(out: Path, reps: int, *flags: str) -> None:
    from tsnet.cli import main

    out.mkdir(exist_ok=True)
    config = out / "grid.cfg"
    config.write_text(GRID.format(reps=reps))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mc", "grid", str(config), "--out", str(out), *flags]) == 0


def _hashes() -> dict:
    """Run every experiment and the grids here; the SHA-256 of each CSV by
    its path under the output directory."""
    from tsnet import mc

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for sub, runs in (("", RUNS), ("boundary", BOUNDARY_RUNS)):
            (out / sub).mkdir(exist_ok=True)
            for name, seed, reps, params in runs:
                mc.run_experiment(mc.ExperimentConfig(experiment=name, reps=reps, seed=seed,
                                                      params=params), out=out / sub)
        _grid(out, 6)
        # a pool from the first task on
        mc._POOL_START_S = 0.0
        _grid(out / "pool", 130, "--jobs", "2")
        return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.rglob("*.csv"))}


def _geometry_hashes() -> dict:
    """`_hashes` under each of `GEOMETRIES`, by the geometry as "panel,block,batch"."""
    from tsnet import _panel, mc

    out = {}
    for panel, block, batch in GEOMETRIES:
        mc._PANEL_BYTES, mc._BLOCK_BYTES, mc._BATCH = panel, block, batch
        # the default budget is bound when `chunks` is defined
        _panel.chunks.__defaults__ = (panel,)
        out[f"{panel},{block},{batch}"] = _hashes()
    return out


def _measure(child: str = "--child") -> dict:
    """The output of a fresh `child` process with one BLAS thread."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, child], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_every_csv_keeps_its_bytes():
    golden = json.loads(GOLDEN.read_text())
    now = _measure()
    assert len(golden["hashes"]) == 2 * (len(RUNS) + len(BOUNDARY_RUNS)) + 2
    changed = sorted(name for name in golden["hashes"].keys() | now["hashes"].keys()
                     if golden["hashes"].get(name) != now["hashes"].get(name))
    assert changed == [], (f"CSV bytes changed in {changed}; recorded with "
                           f"{golden['versions']}, this run has {now['versions']}")


def test_workspace_geometry_moves_no_byte():
    golden = json.loads(GOLDEN.read_text())["hashes"]
    for geometry, hashes in _measure("--child-geometries").items():
        changed = sorted(name for name in golden.keys() | hashes.keys()
                         if golden.get(name) != hashes.get(name))
        assert changed == [], f"CSV bytes changed in {changed} at geometry {geometry}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps({"hashes": _hashes(), "versions": _versions()}))
    elif sys.argv[1:] == ["--child-geometries"]:
        print(json.dumps(_geometry_hashes()))
    elif sys.argv[1:] == ["--write"]:
        old = json.loads(GOLDEN.read_text())["hashes"]
        now = _measure()
        for key in sorted(old.keys() | now["hashes"].keys()):
            if old.get(key) != now["hashes"].get(key):
                print(f"{key}: {old.get(key)} -> {now['hashes'].get(key)}")
        GOLDEN.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
    else:
        sys.exit(f"usage: python {Path(__file__).name} --write")
