"""Smoke check of the benchmark at tiny sizes; takes one to two minutes.

    python3 perfbench/smoke.py

Runs all three workloads with `--size tiny`, untraced and traced, and
asserts that every metric named in BENCHMARK.json is printed with its
unit for every workload, that no correctness check failed, and that in
every traced pass the self times sum to no more than the pass's wall
time.  Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, OUT, PER_LAYER, ROOT
from workloads import WORKLOADS


def _run(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--size", "tiny", "--seconds", "1", "--seed", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"smoke: run.py --trace {trace} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    return proc.stdout.splitlines()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert declared["end_to_end"] == dict(END_TO_END), "end_to_end differs from run.py"
    assert declared["per_layer"] == dict(PER_LAYER), "per_layer differs from run.py"
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines = _run(trace)
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, result
        for workload in WORKLOADS:
            for name, unit in declared[kind].items():
                got = result["metrics"][f"{workload}.{name}"]
                assert got["unit"] == unit, (workload, name, got)
            frac = [ln.split() for ln in lines
                    if ln.split()[:2] == [workload, "failed_frac"]]
            assert frac == [[workload, "failed_frac", "0", "ratio"]], frac
            if trace:
                record = json.loads(
                    (OUT / f"result-{workload}-seed0-trace1.json").read_text())
                for p in record["passes"]:
                    if p["traced"]:
                        assert p["self_total_s"] <= p["wall_s"], (workload, p)
        print(f"smoke: trace={trace}: {len(declared[kind])} metrics x "
              f"{len(WORKLOADS)} workloads printed, {result['attempted']} checks, "
              "0 failed")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
