"""The README's shell examples, run line by line as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import tsnet
from tsnet.mc import read_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _shell_lines(section):
    """argv of every command line of the section's `sh` block."""
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv for argv in lines if argv]


def _run_lines(lines, cwd):
    """Run each line in cwd, `tsnet` through this interpreter; all must exit 0."""
    env = dict(os.environ)
    src = str(Path(tsnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in lines:
        if argv[0] == "tsnet":
            argv = [sys.executable, "-m", "tsnet.cli", *argv[1:]]
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_readme_quick_start_runs(tmp_path):
    lines = _shell_lines(_section("Command line"))
    commands = {tuple(argv[1:3]) for argv in lines}
    # the network commands run end to end on the sparse-shell path
    assert {("netdep", "make"), ("simulate", "graph-ma"), ("netdep", "stats"),
            ("netdep", "hac")} <= commands
    _run_lines(lines, tmp_path)


def test_readme_monte_carlo_example_runs(tmp_path):
    section = _section("Monte Carlo experiments")
    assert "save this one as `ivx.cfg`" in section
    config = re.search(r"```\n(.*?)```", section, re.S).group(1)
    (tmp_path / "ivx.cfg").write_text(config)
    lines = _shell_lines(section)
    assert [argv[1:3] for argv in lines if argv[0] == "tsnet"] == [
        ["mc", "run"], ["mc", "grid"]]
    # mc grid runs with a process pool, so batches go through the workers
    assert "--jobs" in lines[-1]
    _run_lines(lines, tmp_path)
    results = tmp_path / "results"
    assert {p.name for p in results.iterdir()} == {
        "ivx-null.csv", "ivx-null-summary.csv", "ivx-null-grid.csv"}
    _, columns, data = read_csv(results / "ivx-null-grid.csv")
    assert columns[0] == "grid_c" and data[:, 0].tolist() == [0.0, -5.0, -20.0]
    _, _, per_rep = read_csv(results / "ivx-null.csv")
    assert per_rep.shape == (5000, 4)
