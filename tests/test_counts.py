"""tools/counts.py: which committed record is the reference, and what moved."""

from __future__ import annotations

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "counts.py"
_SPEC = importlib.util.spec_from_file_location("counts", _PATH)
counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(counts)


def _record(sha, **values):
    return {"workloads": {"cli": {"output_sha256": sha, "counts": values}}}


def test_an_unchanged_record_moves_nothing():
    record = _record("8f05", **{"expr.add.calls": 50, "failed": 0})
    assert counts.moved(record, record) == []


def test_every_moved_value_is_listed_before_and_after():
    before = _record("8f05", **{"expr.add.calls": 56, "extension.extend.calls": 6})
    after = _record("9cc5", **{"expr.add.calls": 50, "extension.extend.calls": 6,
                               "expr.peak_terms": 3})
    assert counts.moved(before, after) == [
        "cli output_sha256: 8f05 -> 9cc5",
        "cli expr.add.calls: 56 -> 50",
        "cli expr.peak_terms: None -> 3",
    ]


def test_a_missing_workload_is_a_move():
    after = {"workloads": {}}
    assert counts.moved(_record("8f05", failed=0), after) == [
        "cli output_sha256: 8f05 -> None", "cli failed: 0 -> None",
    ]


def test_the_newest_record_is_the_highest_number(tmp_path):
    assert counts.newest(str(tmp_path)) is None
    for name in ("BENCH_9.json", "BENCH_22.json", "BENCH_x.json", "BENCH_3.json.bak"):
        (tmp_path / name).write_text("{}")
    assert counts.newest(str(tmp_path)) == str(tmp_path / "BENCH_22.json")
