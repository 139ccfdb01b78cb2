"""Benchmark of qcstar: four workloads, end-to-end and per-layer metrics.

Run from the root of a qcstar checkout; the package is imported from
``src/``, nothing needs installing:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

One run measures whole rounds of the workload's operations until at
least ``--seconds`` of operation time has passed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; progress goes to standard error.

--trace 0 reports the end-to-end metrics:
  wall_s        median over rounds of the time of the round's operations
  setup_s       median over set-ups of import + workload set-up; one
                set-up runs in this process, SETUP_PROBES in fresh ones
  slowest_op_s  median over rounds of the round's longest operation
  peak_rss_mb   peak resident memory of this process

--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see README.md), together with the
tracing overhead.  Spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3       # fresh processes timing set-up, after one unmeasured
CHILD_TIMEOUT = 170    # seconds; every run must end within 180

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("slowest_op_s", "s"),
              ("peak_rss_mb", "MB"))

CRITERIA = ("1", "2", "3a", "4", "5", "6", "7", "8", "9")

# (span name, statistic, unit) of every per-layer metric
PER_LAYER = (
    [("ncalgebra.normal_form", s, u) for s, u in
     (("calls", "count"), ("self_s", "s"), ("max_s", "s"),
      ("out_terms", "count"), ("max_exponent_span", "count"))]
    + [("ncalgebra.GeneratorMap.apply", "calls", "count"),
       ("ncalgebra.GeneratorMap.apply", "self_s", "s"),
       ("ncalgebra.is_fixed", "calls", "count"),
       ("ncalgebra.is_fixed", "self_s", "s")]
    + [("ktheory.smith_normal_form", s, u) for s, u in
       (("calls", "count"), ("self_s", "s"), ("max_s", "s"),
        ("max_entry_bits", "bits"))]
    + [("ktheory.image_size_mod", s, u) for s, u in
       (("calls", "count"), ("self_s", "s"), ("states", "count"),
        ("capped", "count"))]
    + [("ktheory.torsion_order_by_minors", "self_s", "s")]
    + [(f"graphs.{f}", s, u) for f in ("hereditary_saturated_sets",
                                       "lattices_isomorphic")
       for s, u in (("calls", "count"), ("self_s", "s"), ("max_s", "s"))]
    + [("graphs.parse_graph", "self_s", "s"),
       ("representations.evaluate", "calls", "count"),
       ("representations.evaluate", "self_s", "s"),
       ("representations.evaluate", "matmul_flops", "flop"),
       ("representations.ShiftForm.element", "calls", "count"),
       ("representations.ShiftForm.element", "self_s", "s"),
       ("representations.Representation.shift_form", "self_s", "s"),
       ("representations.element_mismatch", "self_s", "s"),
       ("representations.independence_check", "self_s", "s"),
       ("representations.exact_action", "calls", "count"),
       ("representations.relation_residuals", "self_s", "s"),
       ("representations.build_rep", "self_s", "s"),
       ("representations.compose_rep", "self_s", "s")]
    + [(f"acceptance.criterion_{c}", s, u) for c in CRITERIA
       for s, u in (("s", "s"), ("budget_share", "share"))]
)


def load_program():
    """Import qcstar from the checkout (the timed start of every set-up)."""
    sys.path.insert(0, str(SRC))
    from qcstar import (acceptance, graphs, ktheory, ncalgebra,
                        representations)
    return SimpleNamespace(acceptance=acceptance, graphs=graphs,
                           ktheory=ktheory, ncalgebra=ncalgebra,
                           representations=representations)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def round_seed(seed: int, r: int) -> int:
    return seed * 7919 + r


def probe_setup(args) -> list[float]:
    """Set-up times from fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        if i:  # the first fills the bytecode and file caches
            times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def warm_up_blas() -> str:
    """Let OpenBLAS start its threads before timing, and describe it.

    The first dense complex products of a process can stall while the
    threads start; the time of the first one shows how often that
    happens.  BLAS threading is left at numpy's default, as users run it.
    """
    import numpy as np
    a = np.ones((128, 128), dtype=complex)
    start = time.perf_counter()
    a @ a
    first = time.perf_counter() - start
    for _ in range(200):
        a @ a
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "BLAS of unknown version"
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS") or "default")
    return (f"numpy {np.__version__}, {blas}, threads {threads}, "
            f"{os.cpu_count()} CPUs; first dense product {first * 1e3:.1f} ms")


def run_workload(args) -> dict:
    wl = workloads.make(args.workload, args.seed)
    setup_times = [] if args.trace else probe_setup(args)
    start = time.perf_counter()
    qc = load_program()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(qc)
        tracer.install()
    wl.setup(qc)
    setup_times.append(time.perf_counter() - start)
    setup_phase = None
    if tracer:
        tracer.remove()
        setup_phase = tracer.take()
    log(f"{wl.name}: set-up {', '.join(f'{t:.3f}' for t in setup_times)} s")
    log(f"{wl.name}: {warm_up_blas()}")

    walls, slowest, traced_walls = [], [], []
    traced_phases, span_log = [], [("setup", setup_phase[0])] if tracer else []
    attempted = failed = 0
    problems: list[str] = []
    measured = 0.0
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        ops = wl.ops(round_seed(args.seed, r))
        if traced:
            tracer.install()
        times = []
        for label, fn in ops:
            if traced and wl.span_ops:
                fn = (lambda fn=fn, label=label:
                      tracer.span(f"acceptance.{label}", fn))
            t0 = time.perf_counter()
            try:
                fn()
            except Exception as err:  # counted; the run goes on
                failed += 1
                if r == 0:
                    log(f"{wl.name}: {label} failed: {type(err).__name__}: {err}")
            times.append(time.perf_counter() - t0)
        if traced:
            tracer.remove()
            spans, counts = tracer.take()
            traced_phases.append(tracing.phase_stats(spans, counts))
            span_log.append((f"round {r}", spans))
        attempted += len(ops)
        wall = sum(times)
        (traced_walls if traced else walls).append(wall)
        if not traced:
            slowest.append(max(times))
        measured += wall
        found = wl.check()
        problems += found[:3]
        log(f"{wl.name}: round {r}{' traced' if traced else ''} {wall:.3f} s, "
            f"slowest {max(times):.3f} s, {len(ops)} ops, "
            f"{len(found)} problems")
        if r == 0 and len(ops) <= 30:
            log(" ".join(f"{label}={t:.3f}" for (label, _), t in zip(ops, times)))
        r += 1
        if measured >= args.seconds and (tracer is None or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += wl.finish()
    for p in problems[:10]:
        log(f"{wl.name}: PROBLEM {p}")

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "slowest_op_s": statistics.median(slowest),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        tracing.write_spans(OUT / f"spans-{wl.name}-seed{args.seed}.json", span_log)
        metrics, units = per_layer(wl, setup_phase, traced_phases, walls,
                                   traced_walls)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def per_layer(wl, setup_phase, traced_phases, walls, traced_walls):
    """Set-up statistics plus the median traced round, per metric."""
    setup_stats = tracing.phase_stats(*setup_phase)
    rounds = tracing.median_stats(traced_phases)
    budgets = getattr(wl, "budgets", {})
    metrics, units = {}, {}
    for name, stat, unit in PER_LAYER:
        key = f"{name}.{stat}"
        units[key] = unit
        if stat == "budget_share":
            ident = name.rsplit("_", 1)[1]
            s = rounds.get(name, {}).get("s", 0.0)
            metrics[key] = s / budgets[ident] if ident in budgets else 0.0
            continue
        a = setup_stats.get(name, {}).get(stat, 0)
        b = rounds.get(name, {}).get(stat, 0)
        metrics[key] = max(a, b) if stat.startswith("max") else a + b
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    for key, value, unit in (("trace.untraced_wall_s", untraced, "s"),
                             ("trace.traced_wall_s", traced, "s"),
                             ("trace.overhead_share", traced / untraced - 1, "share")):
        metrics[key], units[key] = value, unit
    return metrics, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "qcstar" / "__init__.py").is_file():
        log(f"no qcstar sources under {SRC}; run from a qcstar checkout")
        return 2
    if args.setup_probe:
        wl = workloads.make(args.workload, args.seed)
        start = time.perf_counter()
        wl.setup(load_program())
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    for key, m in result["metrics"].items():
        log(f"{args.workload}: {key} = {m['value']:.6g} {m['unit']}")
    log(f"{args.workload}: attempted {result['attempted']}, failed "
        f"{result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT + 60)
        lines = done.stdout.splitlines()
        if not lines:
            log(f"{name}: no result (exit code {done.returncode})")
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<15} {'metric':<45} {'value':>14} unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<15} {key:<45} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<15} {'attempted / failed / correct':<45} "
              f"{res['attempted']:>6} / {res['failed']} / {res['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
