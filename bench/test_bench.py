"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

They pin what the numbers rest on: seeded inputs, checks that reject wrong
output, exact trace counts that repeat for a seed, traced and untraced
passes that agree, and a clean failure when the package is missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import gen
import run
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXACT_UNITS = {"count", "terms", "chars", "B", "bits"}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    summary = json.loads(next(l for l in lines if l.startswith("# summary "))[10:])
    return json.loads(lines[-1]), summary


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", ["text", "ring", "sweep"])
def test_same_seed_same_inputs_other_seed_same_shapes(name, tmp_path):
    def shapes(seed):
        jobs = workloads.WORKLOADS[name](seed, str(tmp_path)).round(0)
        return [j.desc for j in jobs], [re.sub(r", \d+ bytes|at \d+:\d+", "", j.desc) for j in jobs]

    def outputs(seed):
        return [j.key(j.run()) for j in workloads.WORKLOADS[name](seed, str(tmp_path)).round(0)[:6]]

    assert shapes(3) == shapes(3)
    assert shapes(3)[1] == shapes(4)[1]
    assert outputs(3) == outputs(3)
    assert outputs(3) != outputs(4)


def test_evaluator_reads_printed_polynomials():
    rng = gen.stream(0, "test")
    values = gen.point(rng, ("z1", "z2", "z3", "z4"))
    power = gen.power(rng, ("z1", "z2", "z3", "z4"), 5)
    assert checks.eval_text(power.text(), values) == power.value(values)
    assert checks.eval_text("-z1^2", {"z1": 3}) == 9  # (-z1)^2, as in the DSL
    assert checks.eval_text("3/2*(z1 - 1)^2", {"z1": 3}) == 6
    got = checks.form_values("(z1 + 1) ~dz1^~dz2 - 2*z2 ~dz2^~dz3 + ~dz1^~dz3", 2, "~d",
                             ("z1", "z2", "z3"), {"z1": 2, "z2": 5})
    assert got == {(0, 1): 3, (1, 2): -10, (0, 2): 1}


def test_shuffle_wedge_signs():
    # dz1 ^ dz0 = -dz0 ^ dz1
    assert checks.shuffle_wedge({(1,): 1}, 1, {(0,): 1}, 1, 2) == {(0, 1): -1}
    assert checks.permutation_sign((2, 0, 1)) == 1


@pytest.mark.parametrize("name", ["text", "ring", "sweep"])
def test_checks_reject_a_corrupted_result(name, tmp_path):
    job = workloads.WORKLOADS[name](5, str(tmp_path)).round(0)[0]
    output = job.run()
    assert job.check(output) is None
    if name == "ring":
        text_out, json_out = output
        bad = json_out.replace(" + ", " - ", 1)
        assert bad != json_out
        assert job.check((text_out.replace(" + ", " - ", 1), bad)) is not None
    elif name == "text":
        parsed, printed, report, rendered = output
        assert job.check((parsed, printed.replace(" + ", " - ", 1), report, rendered)) is not None
    else:
        output = dict(output, verified=False)
        assert job.check(output) is not None


@pytest.mark.parametrize("name", ["cli", "text", "ring", "sweep"])
def test_trace_counts_repeat_and_match_untraced_outputs(name):
    first, first_summary = _result(_run(["--workload", name, "--seed", "7",
                                         "--seconds", "1", "--trace", "1"]))
    second, second_summary = _result(_run(["--workload", name, "--seed", "7",
                                           "--seconds", "1", "--trace", "1"]))
    # correct implies every job passed its check in both passes and the
    # traced outputs equal the untraced ones.
    assert first["correct"] and second["correct"]
    assert first_summary["output_sha256"] == second_summary["output_sha256"]
    exact = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert exact == again
    assert set(first["metrics"]) == set(run.PER_LAYER)


def test_job_over_the_cap_fails_without_stalling(monkeypatch):
    import worker

    monkeypatch.setattr(workloads, "JOB_CAP_S", 0.2)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        elapsed, output, error = worker.run_job(lambda: time.sleep(5))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert output is None and error.startswith("over the")
    assert elapsed < 2


def test_rescaling_follows_the_local_reference_speed():
    nominal = run.REF_NOMINAL_S
    assert run.rescaled([0.01, 0.02], [nominal, nominal]) == [0.01, 0.02]
    # A job run while the reference took twice as long counts half.
    refs = [nominal] * 20 + [2 * nominal] * 20
    scaled = run.rescaled([0.01] * 40, refs)
    assert scaled[0] == 0.01 and scaled[-1] == 0.005


def test_untraced_run_reports_every_end_to_end_metric():
    result, summary = _result(_run(["--workload", "sweep", "--seed", "2", "--seconds", "1"]))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 110
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_fails_cleanly_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "ring", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
