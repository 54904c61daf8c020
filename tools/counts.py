"""Exact counts of the traced benchmark runs, written down and checked.

    python3 tools/counts.py --write N   # writes BENCH_N.json at the root
    python3 tools/counts.py --check     # compares with the newest BENCH_*.json

Run from anywhere inside a checkout; standard library only.  Each workload
runs once as `bench/run.py --workload W --seed 1 --seconds 5 --trace 1`.  A
traced run executes a fixed job list, so what it counts repeats exactly:
each workload's output_sha256 and every metric whose unit is count, terms,
chars, B or bits.  Those values, with the source hash and the Python
version, are what a BENCH_<n>.json holds; wall times are not read.

--check runs the same four traced runs and compares them with the committed
BENCH_*.json of the highest n.  It exits 1 and lists every value that moved,
before -> after.  A change that alters work on purpose writes the next
BENCH_<n>.json, so the committed files are the trajectory of the counts.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli", "text", "ring", "sweep")
RUN_ARGS = ("--seed", "1", "--seconds", "5", "--trace", "1")
EXACT_UNITS = {"count", "terms", "chars", "B", "bits"}


def measure() -> dict:
    """The exact record of the four traced seed-1 runs of this checkout."""
    record = {"workloads": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, *RUN_ARGS],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"{workload}: bench/run.py exited {done.returncode}\n{done.stderr}")
        env = json.loads(_tagged(lines, "# env "))
        summary = json.loads(_tagged(lines, "# summary "))
        result = json.loads(lines[-1])
        counts = {name: metric["value"] for name, metric in result["metrics"].items()
                  if metric["unit"] in EXACT_UNITS}
        counts["failed"] = result["failed"]
        record.update(src_sha256=env["src_sha256"], python=env["python"])
        record["workloads"][workload] = {"output_sha256": summary["output_sha256"],
                                         "counts": counts}
    return record


def _tagged(lines: list[str], tag: str) -> str:
    for line in lines:
        if line.startswith(tag):
            return line[len(tag):]
    raise SystemExit(f"bench/run.py printed no {tag.strip()!r} line")


def moved(before: dict, after: dict) -> list[str]:
    """One line per value that differs between two records, before -> after."""
    lines = []
    for workload in sorted(set(before["workloads"]) | set(after["workloads"])):
        old = before["workloads"].get(workload, {})
        new = after["workloads"].get(workload, {})
        values = [("output_sha256", old.get("output_sha256"), new.get("output_sha256"))]
        old_counts, new_counts = old.get("counts", {}), new.get("counts", {})
        values += [(name, old_counts.get(name), new_counts.get(name))
                   for name in sorted(set(old_counts) | set(new_counts))]
        lines += [f"{workload} {name}: {a} -> {b}" for name, a, b in values if a != b]
    return lines


def newest(root: str = ROOT) -> str | None:
    """The committed BENCH_<n>.json of the highest n, or None."""
    numbered = [(int(m.group(1)), path) for path in glob.glob(os.path.join(root, "BENCH_*.json"))
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path)))]
    return max(numbered)[1] if numbered else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", type=int, metavar="N", help="write BENCH_N.json")
    action.add_argument("--check", action="store_true", help="compare with the newest file")
    args = parser.parse_args(argv)
    if args.check and newest() is None:
        print("error: no BENCH_*.json to check against", file=sys.stderr)
        return 1
    record = measure()
    if args.write is not None:
        path = os.path.join(ROOT, f"BENCH_{args.write}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
        return 0
    path = newest()
    with open(path, encoding="utf-8") as handle:
        before = json.load(handle)
    if before.get("python") != record["python"]:
        print(f"note: {os.path.basename(path)} was written on Python {before.get('python')}, "
              f"this is {record['python']}")
    changes = moved(before, record)
    for line in changes:
        print(line)
    print(f"{len(changes)} values moved against {os.path.basename(path)}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
