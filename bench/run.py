"""folicalc benchmark: one command prints every metric and checks outputs.

    python3 bench/run.py --workload {cli,text,ring,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; nothing needs installing.  Children import
the package from the checkout's src/.  The run

1. starts worker.py in a fresh interpreter, which generates the seeded
   inputs, runs the workload as one closed-loop client and checks every
   job's output (see workloads.py for the workloads and why each exists);
2. around it, times fresh interpreters running `python -c pass` and
   `import folicalc` (PROBES of each, after one unmeasured import that
   compiles bytecode); setup_s is the median import time of these probes,
   each rescaled as below by the reference timed in the same child just
   after its import;
3. prints `# ` lines (environment, summary, failures) and, last, one JSON
   line {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Job and import times are wall times rescaled to one machine speed.  The
shared VM these figures come from changes speed by up to 2x, in phases that
last from under a second to the whole run, so raw medians of ten runs spread
by 20 to 30%, which hides any change smaller than that.  The worker times a fixed
reference task (reference.py, no folicalc code) just before every job;
each job's time is multiplied by REF_NOMINAL_S over the median reference
time of the REF_WINDOW jobs on either side of it.  So job_p50_ms,
job_p90_ms, jobs_per_s and setup_s read as if the reference took exactly
REF_NOMINAL_S; a change to folicalc moves them as it moves wall time, and
a change of machine speed does not.  The raw figures and the reference
median are on the `# summary` line.

A copy of the result, with the environment and every failure, is written
to bench/out/.  The run exits 1 without a result if the package cannot be
found or a child fails to start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
PROBES = 16
# The reference task's median time on a 2-vCPU VM, Python 3.11.7.
REF_NOMINAL_S = 2.0e-3
REF_WINDOW = 5
WORKER_TIMEOUT_S = 150
# argv[1] is the bench directory, put on the path only after the import.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import folicalc; "
    "took = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "import reference; print(took, reference.median_time(5))"
)

END_TO_END = {  # name: unit
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}  # name: unit, in the order they are reported
for _layer in ("expr.mul", "expr.add", "expr.pow", "expr.partial", "expr.new", "expr.str",
               "dsl.parse", "dsl.parse_error", "dsl.print",
               "forms.wedge", "forms.d", "forms.restrict", "forms.add", "forms.new",
               "charts.check", "connections.restrict", "connections.difference",
               "connections.covariant", "connections.new", "extension.extend",
               "extension.verify", "extension.dependence", "extension.new", "commands.run"):
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_ms"] = "ms"
PER_LAYER.update({
    "expr.mul.terms_out": "terms",
    "expr.mul.slope": "exponent",
    "expr.str.chars_out": "chars",
    "expr.peak_terms": "terms",
    "expr.max_coeff_bits": "bits",
    "dsl.parse.bytes_per_s": "B/s",
    "dsl.parse.slope": "exponent",
    "dsl.print.bytes_out": "B",
    "commands.render.self_ms": "ms",
    "commands.checks_out": "count",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
})


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, timeout=60):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[:3])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def rescaled(times, refs):
    """Each time times REF_NOMINAL_S over the median reference time of the
    REF_WINDOW jobs before and after it (and its own)."""
    out = []
    for i, elapsed in enumerate(times):
        local = statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        out.append(elapsed * REF_NOMINAL_S / local)
    return out


def environment():
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "folicalc")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "text", "ring", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "folicalc", "__init__.py")):
        print(f"error: no folicalc package under {SRC}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    interp_s, import_s, setup_s = [], [], []

    def probe():
        # Half the probes run before the workload and half after, so they
        # sample the machine over the same window as the jobs.
        for _ in range(PROBES // 2):
            start = time.perf_counter()
            run_child(["-c", "pass"], env)
            interp_s.append(time.perf_counter() - start)
            took, ref = map(float, run_child(["-c", IMPORT_PROBE, BENCH], env).split())
            import_s.append(took)
            setup_s.append(took * REF_NOMINAL_S / ref)

    try:
        run_child(["-c", "import folicalc, folicalc.cli"], env)  # compiles bytecode
        probe()
        raw = run_child([os.path.join(BENCH, "worker.py"), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out-dir", OUT],
                        env, timeout=WORKER_TIMEOUT_S)
        probe()
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    result = json.loads(raw.strip().splitlines()[-1])
    import_s.append(result["import_s"])
    attempted, failed = result["attempted"], result["failed"]

    if args.trace:
        metrics = dict(result["metrics"])
        metrics["cli.interp_start_ms"] = statistics.median(interp_s) * 1e3
        metrics["cli.import_ms"] = statistics.median(import_s) * 1e3
        units = PER_LAYER
        summary = {k: result[k] for k in ("output_sha256", "plain_job_s", "traced_job_s",
                                          "spans_file", "spans_kept", "spans_dropped")}
    else:
        job_s = [t for round_times in result["rounds"] for t in round_times]
        refs = [t for round_refs in result["refs"] for t in round_refs]
        times = rescaled(job_s, refs)
        metrics = {
            "job_p50_ms": statistics.median(times) * 1e3,
            "job_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
            "jobs_per_s": len(times) / sum(times),
            "ok_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        units = END_TO_END
        summary = {
            "jobs": len(times), "rounds": len(result["rounds"]),
            "wall_s": round(result["wall_s"], 2),
            "ref_ms": round(statistics.median(refs) * 1e3, 4),
            "raw_job_p50_ms": round(statistics.median(job_s) * 1e3, 4),
            "raw_job_p90_ms": round(statistics.quantiles(job_s, n=10)[8] * 1e3, 4),
            "raw_jobs_per_s": round(len(job_s) / sum(job_s), 4),
            "fail_ratio": failed / attempted,
            "interp_start_ms": round(statistics.median(interp_s) * 1e3, 2),
            "import_ms": round(statistics.median(import_s) * 1e3, 2),
        }
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env_info = environment()
    record = dict(final, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env_info, summary=summary, failures=result["failures"])
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("# env " + json.dumps(env_info))
    print("# summary " + json.dumps(summary))
    for failure in result["failures"][:20]:
        print("# fail " + failure)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
