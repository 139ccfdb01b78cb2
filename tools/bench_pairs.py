"""Alternating parent/change runs of perfbench, written to one JSON file.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 18
--trace 0`` in two checkouts for each seed in turn, the parent first
for the first seed, the change first for the next, and so on, and
keeps the last line of each run's standard output (the harness's
result line) as it is, with the run's exit code and elapsed seconds
beside it.  A run gets RUN_TIMEOUT seconds; one that times out (exit
code "timeout") or prints no result line is kept with a null result and
counts as bad.  The file written holds the command, the machine (cores,
Python, numpy, the PYTHONDONTWRITEBYTECODE the runs inherit), and per
workload the load average before and after, whether each tree held a
``__pycache__`` directory after its runs (without one, every set-up
compiled ``src/``), every pair's two result lines, per end-to-end
metric the medians over the pairs where both sides have a result, the
parent's quartiles, the number of pairs the change won, the change of
the median over the parent's and whether that change is past the
metric's bound, whether a gain is resolved (the change better in at
least nine tenths of all pairs run, ties counting for neither, and its
median better than the parent's by more than the parent's interquartile
range), and per side the number of bad runs (no result,
``correct`` false or ``failed`` above 0), the median number of operations
``attempted`` over the runs with a result (a workload that runs rounds
until its time is up attempts more on a faster side, and may hold more
memory for it) and the longest run's seconds, which shows the headroom
left before RUN_TIMEOUT.  The end-to-end metrics, with their ``better``
direction and ``bound``, are read from the change tree's
``BENCHMARK.json``:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload reproduce --seeds 1 2 3 --out BENCH.json

Each checkout should be a fresh copy of its tree.  Several workloads
may be given; their runs go into the same file.  An existing file is
extended, so workloads can be measured in separate invocations.

The exit code is 1 when a change-side run has no result, is not
correct or fails more operations than the parent's run of its pair, or
when a median is worse than the parent's by more than its bound; each
such run and breach is listed on standard error after the file is
written.  A workload run with fewer than MIN_PAIRS pairs gets a warning
there too, since no gain can be resolved from so few.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

RUN_TIMEOUT = 180   # seconds; perfbench/run.py says every run ends within it
MIN_PAIRS = 10


def command(workload: str, seed) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "18", "--trace", "0"]


def run(tree: Path, workload: str,
        seed: int) -> tuple[dict | None, int | str, float]:
    """The run's result line (None without one), its exit code and its
    elapsed seconds."""
    start = time.perf_counter()
    try:
        done = subprocess.run(command(workload, seed), cwd=tree,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    try:
        return json.loads(done.stdout.splitlines()[-1]), done.returncode, seconds
    except (IndexError, ValueError):
        return None, done.returncode, seconds


def bad(result: dict | None) -> bool:
    return result is None or not result["correct"] or result["failed"] > 0


def worse(change: dict | None, parent: dict | None) -> bool:
    return (change is None or not change["correct"]
            or change["failed"] > (parent["failed"] if parent else 0))


def shown(result: dict | None, key: str) -> str:
    """A metric or field of a result line, "-" for a run without one."""
    if result is None:
        return "-"
    return (f"{result['metrics'][key]['value']:.4g}" if key in result["metrics"]
            else str(result[key]))


def summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json, the medians and their
    change; change_over_parent is relative (None for a parent median of
    0), past_bound says the change is worse by more than the bound, and
    gain_resolved that it is better in 9/10 of all pairs run and by more
    than the parent's interquartile range."""
    out = {}
    both = [p for p in pairs if p["parent"] is not None and p["change"] is not None]
    for metric in end_to_end if both else ():
        name = metric["name"]
        parent = [p["parent"]["metrics"][name]["value"] for p in both]
        change = [p["change"]["metrics"][name]["value"] for p in both]
        quartiles = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else parent * 3)
        spread = quartiles[2] - quartiles[0]
        pm, cm = statistics.median(parent), statistics.median(change)
        over = (cm - pm) / pm if pm else None
        sign = 1 if metric["better"] == "lower" else -1   # > 0: change better
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        worse = sign * (pm - cm) < 0
        out[name] = {"parent_median": pm,
                     "change_median": cm,
                     "parent_quartiles": [quartiles[0], quartiles[2]],
                     "change_range": [min(change), max(change)],
                     "change_lower_in": sum(c < p for p, c in zip(parent, change)),
                     "pairs": len(both),
                     "change_over_parent": over,
                     "past_bound": worse and (over is None
                                              or abs(over) > metric["bound"]),
                     "gain_resolved": (10 * wins >= 9 * len(pairs)
                                       and sign * (pm - cm) > spread)}
    out["bad_runs"] = {side: sum(bad(p[side]) for p in pairs)
                       for side in ("parent", "change")}
    out["max_seconds"] = {side: max(p["seconds"][side] for p in pairs)
                          for side in ("parent", "change")}
    attempted = {side: [p[side]["attempted"] for p in pairs
                       if p[side] is not None]
                 for side in ("parent", "change")}
    out["median_attempted"] = {side: statistics.median(runs) if runs else None
                               for side, runs in attempted.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    end_to_end = json.loads(
        (args.change / "BENCHMARK.json").read_text())["end_to_end"]

    doc = (json.loads(args.out.read_text()) if args.out.exists() else
           {"command": " ".join(command("<workload>", "<seed>")),
            "order": "per seed, both sides in turn, the first side alternating",
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "PYTHONDONTWRITEBYTECODE":
                            os.environ.get("PYTHONDONTWRITEBYTECODE")},
            "workloads": {}})
    worse_runs, breaches = [], []
    for workload in args.workload:
        load_before = os.getloadavg()
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0], "exit_codes": {},
                    "seconds": {}}
            for side in sides:
                pair[side], pair["exit_codes"][side], pair["seconds"][side] = run(
                    getattr(args, side), workload, seed)
            pairs.append(pair)
            parent, change = pair["parent"], pair["change"]
            if worse(change, parent):
                worse_runs.append(
                    f"{workload} seed {seed}: exit code "
                    f"{pair['exit_codes']['change']}, correct "
                    f"{shown(change, 'correct')}, failed {shown(change, 'failed')} "
                    f"(parent {shown(parent, 'failed')})")
            print(workload, seed, *(f"{m['name']} {shown(parent, m['name'])} -> "
                                    f"{shown(change, m['name'])}"
                                    for m in end_to_end), file=sys.stderr)
        summ = summary(pairs, end_to_end)
        doc["workloads"][workload] = {
            "seeds": args.seeds,
            "load_average": {"before": load_before, "after": os.getloadavg()},
            "pycache_after": {side: any(getattr(args, side).rglob("__pycache__"))
                              for side in ("parent", "change")},
            "pairs": pairs, "summary": summ}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        for metric in end_to_end:
            s = summ.get(metric["name"])
            if s and s["past_bound"]:
                over = ("from 0" if s["change_over_parent"] is None
                        else f"{s['change_over_parent']:+.1%}")
                breaches.append(
                    f"{workload} {metric['name']}: median {s['parent_median']:.4g}"
                    f" -> {s['change_median']:.4g} ({over}, bound "
                    f"{metric['bound']:.0%}, {metric['better']} is better)")
    if len(args.seeds) < MIN_PAIRS:
        print(f"warning: {len(args.seeds)} pairs per workload; resolving a "
              f"gain takes at least {MIN_PAIRS}", file=sys.stderr)
    for line in worse_runs:
        print(f"bad change run: {line}", file=sys.stderr)
    for line in breaches:
        print(f"past bound: {line}", file=sys.stderr)
    return 1 if worse_runs or breaches else 0


if __name__ == "__main__":
    sys.exit(main())
