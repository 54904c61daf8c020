"""tools/paths.py: the benchmark's jobs replayed in one process, counted."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "paths.py"


def _replay(*argv, prelude=""):
    # The tool in a fresh interpreter, after prelude has run there.
    code = "\n".join(["import runpy, sys", prelude, "sys.argv[:1] = []",
                      "runpy.run_path(sys.argv[0], run_name='__main__')"])
    return subprocess.run(
        [sys.executable, "-c", code, str(_TOOL), *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )


def test_one_cli_round_counts_calls_and_lines():
    done = _replay("--workload", "cli", "--rounds", "1", "--lines",
                   "expr._product_sum", "forms.merge_indices")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:4] == [
        "# calls per workload, seed 1, rounds 0-0",
        "                        cli",
        "expr._product_sum        32",
        "forms.merge_indices     134",
    ]
    assert lines[-1] == "# 0 failed jobs"
    # The def line counts calls; the early return for a shared index ran,
    # and no line of merge_indices went unreached.
    source = lines[lines.index("forms.merge_indices (src/folicalc/forms.py)") + 1:-1]
    assert source[0].split()[:3] == ["134", "42", "def"]
    assert any(line.split()[2:4] == ["return", "None,"] for line in source)
    assert not any("#####" in line for line in source)


def test_failed_jobs_are_listed_and_exit_1():
    # Every cli job expects a particular exit status; a main that always
    # returns 3 fails each check.
    done = _replay("--workload", "cli", "--rounds", "1", "expr._product_sum",
                   prelude="import folicalc.cli\nfolicalc.cli.main = lambda argv=None: 3")
    assert done.returncode == 1
    failed = [line for line in done.stdout.splitlines() if line.startswith("failed: cli round 0")]
    assert len(failed) == 18
    assert done.stdout.splitlines()[-1] == "# 18 failed jobs"
