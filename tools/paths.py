"""Replay the benchmark's jobs in one process and count what each reaches.

    python3 tools/paths.py [--workload W ...] [--rounds R] [--seed S] [--lines]
                           MODULE.FUNCTION ...

Run from anywhere inside a checkout; standard library only.  Rounds
0 ... R-1 of each workload in bench/workloads.py (all four by default, R = 2,
S = 1) are built and run in this one interpreter, each job under the
benchmark worker's per-job cap and through the workload's own check, and
every failure is listed.  Only the timed part of a job, its run(), is
traced, with sys.settrace: a function is named by its module under folicalc
and its qualified name (expr._product_sum, expr.Expression.__mul__), and
the table gives its calls per workload.  With --lines, each function's source follows, every line
with its hits per workload (the def line counts calls) and '#####' on the
lines of code that no workload reached; lines in its comprehensions count
as its own.  The cli workload writes its documents to a temporary
directory; nothing under bench/ is written.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import signal
import sys
import tempfile
from collections import Counter
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # no __pycache__ under bench/
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import worker  # noqa: E402
import workloads  # noqa: E402


def resolve(name: str):
    """The function MODULE.QUALNAME names in the folicalc package."""
    module, _, qualname = name.partition(".")
    target = importlib.import_module(f"folicalc.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    return inspect.unwrap(target)


def _codes(code):
    # A code object and the code objects nested in it (comprehensions,
    # lambdas, inner functions).
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _codes(const)


def _traced(tracer, run):
    sys.settrace(tracer)
    try:
        return run()
    finally:
        sys.settrace(None)


def replay(functions, workload_names, rounds, seed, lines=False):
    """({workload: Counter of calls per name}, {workload: Counter of
    (name, line) hits}, failures) for rounds 0 ... rounds-1 of each
    workload, functions mapping each name to its function."""
    owner = {code: name for name, f in functions.items() for code in _codes(f.__code__)}
    entries = {f.__code__ for f in functions.values()}
    calls = {w: Counter() for w in workload_names}
    hits = {w: Counter() for w in workload_names}
    failures = []

    def local(frame, event, arg):
        if event == "line":
            counted[1][owner[frame.f_code], frame.f_lineno] += 1
        return local

    def tracer(frame, event, arg):
        name = owner.get(frame.f_code)
        if name is None:
            return None
        if frame.f_code in entries:
            counted[0][name] += 1
            counted[1][name, frame.f_code.co_firstlineno] += 1
        return local if lines else None

    signal.signal(signal.SIGALRM, worker._on_alarm)  # the per-job cap of worker.run_job
    with tempfile.TemporaryDirectory() as out_dir:
        cwd = os.getcwd()
        os.chdir(ROOT)  # the cli workload names its documents relative to the root
        try:
            for workload_name in workload_names:
                counted = calls[workload_name], hits[workload_name]
                workload = workloads.WORKLOADS[workload_name](seed, out_dir)
                for r in range(rounds):
                    for job in workload.round(r):
                        _, output, error = worker.run_job(partial(_traced, tracer, job.run))
                        error = worker.checked(job, output, error)
                        if error:
                            failures.append(f"{job.desc}: {error}")
        finally:
            os.chdir(cwd)
    return calls, hits, failures


def _report(functions, workload_names, calls, hits, lines) -> list[str]:
    width = max(len(name) for name in functions)
    out = [f"{'':{width}}" + "".join(f"{w:>8}" for w in workload_names)]
    out += [f"{name:{width}}" + "".join(f"{calls[w][name]:>8}" for w in workload_names)
            for name in functions]
    if not lines:
        return out
    for name, function in functions.items():
        source, first = inspect.getsourcelines(function)
        code_lines = {line for code in _codes(function.__code__)
                      for _, _, line in code.co_lines() if line is not None}
        out += ["", f"{name} ({os.path.relpath(inspect.getsourcefile(function), ROOT)})"]
        for number, text in enumerate(source, first):
            counts = [hits[w][name, number] for w in workload_names]
            if number not in code_lines:
                mark = " " * 8 * len(workload_names)
            else:
                mark = "".join(f"{count:>8}" for count in counts)
                if not any(counts):
                    mark = f"{'#####':>8}" + mark[8:]
            out.append(f"{mark} {number:>5}  {text.rstrip()}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="+", metavar="MODULE.FUNCTION")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="a workload to replay (repeatable; default all four)")
    parser.add_argument("--rounds", type=int, default=2, help="rounds per workload (default 2)")
    parser.add_argument("--seed", type=int, default=1, help="the workloads' seed (default 1)")
    parser.add_argument("--lines", action="store_true", help="hits per source line")
    args = parser.parse_args(argv)
    chosen = args.workload or list(workloads.WORKLOADS)
    try:
        functions = {name: resolve(name) for name in args.names}
    except (ImportError, AttributeError) as exc:
        parser.error(f"cannot resolve a function: {exc}")
    if not all(inspect.isfunction(f) for f in functions.values()):
        parser.error("every name must be a Python function")
    calls, hits, failures = replay(functions, chosen, args.rounds, args.seed, args.lines)
    print(f"# calls per workload, seed {args.seed}, rounds 0-{args.rounds - 1}")
    print("\n".join(_report(functions, chosen, calls, hits, args.lines)))
    for failure in failures:
        print(f"failed: {failure}")
    print(f"# {len(failures)} failed jobs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
