"""The README's command-line quick start, run line by line as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import tsnet

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("tsnet ")]


def test_readme_quick_start_runs(tmp_path):
    lines = _quick_start_lines()
    commands = {tuple(argv[1:3]) for argv in lines}
    # the network commands run end to end on the sparse-shell path
    assert {("netdep", "make"), ("simulate", "graph-ma"), ("netdep", "stats"),
            ("netdep", "hac")} <= commands
    env = dict(os.environ)
    src = str(Path(tsnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in lines:
        proc = subprocess.run([sys.executable, "-m", "tsnet.cli", *argv[1:]],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
