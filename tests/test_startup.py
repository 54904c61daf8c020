"""Start-up cost: what `import folicalc` loads from the standard library.

A command-line call pays for the import before any work, so the package
loads no module that no parse or check uses: no dataclasses (and the
inspect, ast and dis it pulls in), no typing, and json only on the first
JSON report.  The interpreter runs with -S, so no site hook preloads any of
them, and imports the same package as the tests around it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import folicalc

HEAVY = ("dataclasses", "inspect", "typing", "json", "argparse")
SAMPLE = Path(__file__).resolve().parent.parent / "samples" / "foliated_bundle.fol"

PROBE = f"""
import sys
HEAVY = {HEAVY!r}
import re, fractions
floor = set(sys.modules)
import folicalc
package = set(sys.modules)
import folicalc.cli
cli = set(sys.modules)
print(sorted(m for m in HEAVY if m in package))
print(sorted(m for m in HEAVY if m in cli))
print(sorted(m for m in package - floor if m.partition(".")[0] not in ("folicalc", "__future__")))
with open(sys.argv[1], encoding="utf-8") as handle:
    document = folicalc.parse_document(handle.read())
print(folicalc.run_command("check", document).to_json())
"""


@pytest.fixture(scope="module")
def probe():
    # The directory holding the package the tests imported: src/ in a
    # checkout, site-packages (or src/, when editable) in an installed one.
    root = Path(folicalc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root))
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SAMPLE)],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = result.stdout.splitlines()
    return lines[0], lines[1], lines[2], "\n".join(lines[3:])


def test_import_loads_no_heavy_stdlib_module(probe):
    package, cli, extra, _ = probe
    assert package == "[]"
    assert cli == "['argparse']"
    # Beyond what `re` and `fractions` load, only the package itself.
    assert extra == "[]"


def test_json_report_still_works_after_a_lean_import(probe):
    _, _, _, report = probe
    assert json.loads(report) == {
        "command": "check",
        "checks": [
            {"name": "transition.twist.adapted", "status": "pass", "payload": ""},
            {"name": "transition.twist.foliated_bundle", "status": "pass", "payload": ""},
        ],
    }
