"""A speed probe that runs beside a pass and gauges the cores it runs on.

The benchmark runs on shared machines whose cores change speed by tens of
percent every few seconds, each core on its own, as other tenants load
the host.  While a pass runs, `SpeedProbe` keeps one thread on each core
the pass is pinned to; every `PERIOD_S` it runs a fixed work item and
records the thread CPU time it took.  `run.py` scales the pass timings
by `NOMINAL_MS / mean probe time` over the pass, so that a pass on a
slowed core reads like one on an uncontended core.  The probe does not
touch tsnet, so a change to the program moves the pass timings and not
the probe; but it shares its cores and their caches with the pass, so a
change in how hard the pass uses the caches can move it a little, which
is why `run.py` prints the unscaled times too.  It takes about 2% of
each core it watches.

The work item mixes interpreted Python with small numpy operations, as
the workloads do.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# probe time of the work item alone on an uncontended core of a 2-core
# Intel Xeon (family 6, model 207) KVM guest, numpy 2.4; fixed, so that scaled
# timings read about as seconds of that core
NOMINAL_MS = 0.85
PERIOD_S = 0.05

_X = np.arange(64.0)


def work_item() -> float:
    acc = 0.0
    for i in range(3000):
        acc += (i * i) % 7
    for _ in range(150):
        acc += float(np.cumsum(_X) @ _X)
    return acc


class SpeedProbe:
    """Probe threads pinned one to each of `cores`, sampling until closed."""

    def __init__(self, cores):
        self.samples: list[tuple[float, float]] = []  # (time, probe ms)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(c,), daemon=True)
                         for c in cores]

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    def _loop(self, core):
        os.sched_setaffinity(0, {core})  # 0: this thread
        work_item()
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            work_item()
            self.samples.append((time.perf_counter(), 1e3 * (time.thread_time() - c0)))

    def scale(self, start, end) -> float:
        """`NOMINAL_MS` over the mean probe time between `start` and `end`."""
        window = [ms for t, ms in self.samples if start <= t <= end]
        if not window:
            raise ValueError(f"no speed probe sample in a {end - start:.3f} s pass")
        return NOMINAL_MS / statistics.fmean(window)
