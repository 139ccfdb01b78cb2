"""Alternating parent/change runs of perfbench, written to one JSON file.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 18
--trace 0`` in two checkouts for each seed in turn, the parent first
for the first seed, the change first for the next, and so on, and
keeps the last line of each run's standard output (the harness's
result line) as it is, with the run's exit code beside it.  A run gets
RUN_TIMEOUT seconds; one that times out (exit code "timeout") or prints
no result line is kept with a null result and counts as bad.  The file
written holds the command, the machine (cores, Python, numpy, load
average before and after), every pair's two result lines, per
end-to-end metric the medians over the pairs where both sides have a
result, the parent's quartiles and the number of pairs the change won,
and per side the number of bad runs (no result, ``correct`` false or
``failed`` above 0):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload reproduce --seeds 1 2 3 --out BENCH.json

Each checkout should be a fresh copy of its tree.  Several workloads
may be given; their runs go into the same file.  An existing file is
extended, so workloads can be measured in separate invocations.

The exit code is 1 when a change-side run has no result, is not
correct or fails more operations than the parent's run of its pair,
after the file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

METRICS = ("wall_s", "setup_s", "slowest_op_s", "peak_rss_mb")
RUN_TIMEOUT = 180   # seconds; perfbench/run.py says every run ends within it


def command(workload: str, seed) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "18", "--trace", "0"]


def run(tree: Path, workload: str, seed: int) -> tuple[dict | None, int | str]:
    """The run's result line (None without one) and its exit code."""
    try:
        done = subprocess.run(command(workload, seed), cwd=tree,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    try:
        return json.loads(done.stdout.splitlines()[-1]), done.returncode
    except (IndexError, ValueError):
        return None, done.returncode


def bad(result: dict | None) -> bool:
    return result is None or not result["correct"] or result["failed"] > 0


def worse(change: dict | None, parent: dict | None) -> bool:
    return (change is None or not change["correct"]
            or change["failed"] > (parent["failed"] if parent else 0))


def shown(result: dict | None, key: str) -> str:
    """A metric or field of a result line, "-" for a run without one."""
    if result is None:
        return "-"
    return (f"{result['metrics'][key]['value']:.4g}" if key in METRICS
            else str(result[key]))


def summary(pairs: list[dict]) -> dict:
    out = {}
    both = [p for p in pairs if p["parent"] is not None and p["change"] is not None]
    for name in METRICS if both else ():
        parent = [p["parent"]["metrics"][name]["value"] for p in both]
        change = [p["change"]["metrics"][name]["value"] for p in both]
        quartiles = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else parent * 3)
        out[name] = {"parent_median": statistics.median(parent),
                     "change_median": statistics.median(change),
                     "parent_quartiles": [quartiles[0], quartiles[2]],
                     "change_range": [min(change), max(change)],
                     "change_lower_in": sum(c < p for p, c in zip(parent, change)),
                     "pairs": len(both)}
    out["bad_runs"] = {side: sum(bad(p[side]) for p in pairs)
                       for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    doc = (json.loads(args.out.read_text()) if args.out.exists() else
           {"command": " ".join(command("<workload>", "<seed>")),
            "order": "per seed, both sides in turn, the first side alternating",
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__},
            "workloads": {}})
    worse_runs = []
    for workload in args.workload:
        load_before = os.getloadavg()
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0], "exit_codes": {}}
            for side in sides:
                pair[side], pair["exit_codes"][side] = run(
                    getattr(args, side), workload, seed)
            pairs.append(pair)
            parent, change = pair["parent"], pair["change"]
            if worse(change, parent):
                worse_runs.append(
                    f"{workload} seed {seed}: exit code "
                    f"{pair['exit_codes']['change']}, correct "
                    f"{shown(change, 'correct')}, failed {shown(change, 'failed')} "
                    f"(parent {shown(parent, 'failed')})")
            print(workload, seed, *(f"{m} {shown(parent, m)} -> {shown(change, m)}"
                                    for m in METRICS), file=sys.stderr)
        doc["workloads"][workload] = {
            "seeds": args.seeds,
            "load_average": {"before": load_before, "after": os.getloadavg()},
            "pairs": pairs, "summary": summary(pairs)}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in worse_runs:
        print(f"bad change run: {line}", file=sys.stderr)
    return 1 if worse_runs else 0


if __name__ == "__main__":
    sys.exit(main())
