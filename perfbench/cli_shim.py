"""Run the tsnet CLI in this fresh interpreter, timing it from outside.

    python3 perfbench/cli_shim.py RESULT TRACE <tsnet cli arguments...>

Does what `python -m tsnet.cli <arguments>` does: imports `tsnet.cli`
and calls its `main`.  Around that it times the import, times every
experiment's setup phase, and with TRACE=1 records the parent-side
spans (CLI, harness, pool, CSV writing; pool workers record nothing).
RESULT receives these as JSON.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    result, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    t0 = time.perf_counter()
    import tsnet.cli
    import_s = time.perf_counter() - t0

    from tracer import Recorder, count_warnings, instrument
    from workload import versions

    rec = Recorder()
    instrument(rec, trace)
    with count_warnings(rec) if trace else contextlib.nullcontext():
        rc = tsnet.cli.main(cli_args)
    t_done = time.perf_counter()
    Path(result).write_text(json.dumps({
        "import_s": import_s, "t_done": t_done, "versions": versions(),
        **rec.dump()}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
