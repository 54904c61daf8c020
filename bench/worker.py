"""Run one workload in this (fresh) interpreter and print raw results as JSON.

Started by run.py with PYTHONPATH set to the checkout's src/ and a fixed
hash seed.  Untraced (`--trace 0`): whole rounds of jobs run until about `--seconds`
of wall time have passed and at least MIN_JOBS jobs are done; every job is
timed on its own and checked after its timer stops.  Just before each job
the fixed reference task is timed too, so run.py can tell how fast the
machine was running around every job.  Traced (`--trace 1`):
a fixed job list (the workload's first `trace_rounds` rounds) runs once
plain and once under the tracer, so counts repeat exactly for a seed and the
two passes' outputs can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

START = time.perf_counter()
import folicalc  # noqa: E402  (timed: this is the child's own set-up)

IMPORT_S = time.perf_counter() - START

import folicalc.cli  # noqa: E402,F401  (traced on the cli workload)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
# A p90 needs at least ten samples beyond it.
MIN_JOBS = 110
# Stop adding rounds after this much wall time whatever the job count.
HARD_CAP_S = 120.0


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(call):
    """Time one job under the per-job cap; (seconds, output, error)."""
    signal.setitimer(signal.ITIMER_REAL, workloads.JOB_CAP_S)
    start = time.perf_counter()
    try:
        output, error = call(), None
    except JobTimeout:
        output, error = None, f"over the {workloads.JOB_CAP_S:.0f} s cap"
    except Exception as exc:  # a job that raises is a failed job, not a crash
        output = None
        error = "raised " + traceback.format_exception_only(exc)[-1].strip()[:200]
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, output, error


def checked(job, output, error):
    if error is not None:
        return error
    try:
        return job.check(output)
    except Exception as exc:
        return "check raised " + traceback.format_exception_only(exc)[-1].strip()[:200]


def measure(workload, seconds):
    for job in workload.round(0)[:2]:  # warm-up, not counted
        reference.timed()
        run_job(job.run)
    rounds, refs, failures = [], [], []
    start = time.perf_counter()
    wall = 0.0
    while True:
        round_start = wall
        times, ref_times = [], []
        for job in workload.round(len(rounds)):
            ref_times.append(reference.timed())
            elapsed, output, error = run_job(job.run)
            times.append(elapsed)
            error = checked(job, output, error)
            if error:
                failures.append(f"{job.desc}: {error}")
        rounds.append(times)
        refs.append(ref_times)
        wall = time.perf_counter() - start
        jobs = sum(map(len, rounds))
        # Only whole rounds count.  Stop when less than half a round of the
        # budget is left, so a run overshoots `seconds` by half a round at most.
        if (jobs >= MIN_JOBS and wall + (wall - round_start) / 2 >= seconds) or wall >= HARD_CAP_S:
            break
    return {"rounds": rounds, "refs": refs, "failures": failures, "attempted": jobs,
            "wall_s": wall}


def trace(workload, out_dir, seed):
    jobs = [job for r in range(workload.trace_rounds) for job in workload.round(r)]
    failures = []

    def run_all(wrap):
        keys, total = [], 0.0
        for index, job in enumerate(jobs):
            elapsed, output, error = run_job(wrap(index, job.run))
            total += elapsed
            error = checked(job, output, error)
            if error:
                failures.append(f"{job.desc}: {error}")
            keys.append(None if error else job.key(output))
        return keys, total

    plain_keys, plain_s = run_all(lambda index, call: call)
    spans = tracer.Tracer()
    spans.install()

    def traced(index, call):
        def go():
            spans.job = index
            spans.active = True
            try:
                return call()
            finally:
                spans.active = False
        return go

    traced_keys, traced_s = run_all(traced)
    for job, a, b in zip(jobs, plain_keys, traced_keys):
        if a != b:
            failures.append(f"{job.desc}: traced output differs from untraced output")
    span_path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.tsv")
    spans.write_spans(span_path)
    metrics = spans.metrics()
    metrics["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
    digest = hashlib.sha256("\n".join(map(str, plain_keys)).encode()).hexdigest()
    return {
        "attempted": len(jobs),
        "failures": failures,
        "metrics": metrics,
        "output_sha256": digest,
        "plain_job_s": plain_s,
        "traced_job_s": traced_s,
        "spans_file": os.path.relpath(span_path, ROOT),
        "spans_kept": len(spans.spans),
        "spans_dropped": spans.dropped,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    expected = os.path.join(ROOT, "src", "folicalc")
    if os.path.dirname(os.path.abspath(folicalc.__file__)) != expected:
        sys.exit(f"folicalc imported from {folicalc.__file__}, not from {expected}")
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    if args.trace:
        result = trace(workload, args.out_dir, args.seed)
    else:
        result = measure(workload, args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["failed"] = len(result["failures"])
    result["import_s"] = IMPORT_S
    print(json.dumps(result))


if __name__ == "__main__":
    main()
