import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

RUN = """import json, os, sys, time
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in {cache}:
    os.makedirs("src/__pycache__", exist_ok=True)
if seed in {slow}:
    time.sleep(60)
if seed in {pause}:
    time.sleep(1)
if seed in {silent}:
    sys.exit(3)
ok = seed not in {bad}
metrics = {{m: {{"value": {values}.get(seed, {slower}), "unit": "s"}} for m in
           ("wall_s", "setup_s", "slowest_op_s")}}
metrics["peak_rss_mb"] = {{"value": 40.0, "unit": "MB"}}
print(json.dumps({{"correct": ok, "attempted": {attempted}.get(seed, 3),
                  "failed": 0 if ok else 1,
                  "metrics": metrics}}))
sys.exit(0 if ok else 1)
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "slowest_op_s", "better": "lower", "bound": 0.35},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def fake_tree(root: Path, bad_seeds, slow=(), silent=(), slower=1.0,
              pause=(), cache=(), values=None, attempted=None) -> Path:
    """A tree whose perfbench/run.py prints a fixed result line; its
    three time metrics are `slower` seconds, or values[seed] for a seed
    in `values`, it attempts 3 operations, or attempted[seed], the seeds
    in `pause` take a second longer, and those in `cache` leave a
    src/__pycache__."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(RUN.format(
        bad=set(bad_seeds), slow=set(slow), silent=set(silent), slower=slower,
        pause=set(pause), cache=set(cache), values=dict(values or {}),
        attempted=dict(attempted or {})))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    return root


def load_tool_on_fake_trees(monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "command", lambda workload, seed: [
        sys.executable, "perfbench/run.py", "--seed", str(seed)])
    return tool


def test_bad_change_runs_are_counted_and_fail_the_tool(tmp_path, monkeypatch):
    tool = load_tool_on_fake_trees(monkeypatch)
    parent = fake_tree(tmp_path / "parent", ())
    change = fake_tree(tmp_path / "change", (2,))
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "w", "--out", str(out), "--seeds"]
    assert tool.main(argv + ["1", "2", "3"]) == 1
    doc = json.loads(out.read_text())["workloads"]["w"]
    assert doc["summary"]["bad_runs"] == {"parent": 0, "change": 1}
    assert [p["exit_codes"] for p in doc["pairs"]] == [
        {"parent": 0, "change": 0}, {"change": 1, "parent": 0},
        {"parent": 0, "change": 0}]
    out.unlink()
    assert tool.main(argv + ["1", "3"]) == 0


def test_timed_out_and_silent_runs_are_bad_runs_not_the_end(tmp_path, monkeypatch):
    # seed 2 sleeps past the timeout and seed 3 exits without a result
    # line; both are kept, and the medians use seeds 1 and 4 only
    tool = load_tool_on_fake_trees(monkeypatch)
    monkeypatch.setattr(tool, "RUN_TIMEOUT", 2)
    parent = fake_tree(tmp_path / "parent", ())
    change = fake_tree(tmp_path / "change", (), slow=(2,), silent=(3,))
    out = tmp_path / "out.json"
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "w", "--out", str(out),
                      "--seeds", "1", "2", "3", "4"]) == 1
    doc = json.loads(out.read_text())["workloads"]["w"]
    assert [(p["exit_codes"]["change"], p["change"] is None)
            for p in doc["pairs"]] == [(0, False), ("timeout", True),
                                       (3, True), (0, False)]
    assert doc["summary"]["bad_runs"] == {"parent": 0, "change": 2}
    assert doc["summary"]["wall_s"]["pairs"] == 2
    assert doc["pairs"][1]["seconds"]["change"] >= 2
    assert doc["summary"]["max_seconds"]["change"] >= 2


def test_median_attempted_is_reported_per_side(tmp_path, monkeypatch):
    # the change attempts more operations (a faster side runs more rounds);
    # its seed-3 run prints no result and counts for no median
    tool = load_tool_on_fake_trees(monkeypatch)
    parent = fake_tree(tmp_path / "parent", (), attempted={1: 29, 2: 58})
    change = fake_tree(tmp_path / "change", (), silent=(3,),
                       attempted={1: 87, 2: 116, 3: 1, 4: 87})
    out = tmp_path / "out.json"
    tool.main(["--parent", str(parent), "--change", str(change),
               "--workload", "w", "--out", str(out),
               "--seeds", "1", "2", "3", "4"])
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["median_attempted"] == {"parent": 16, "change": 87}
    # no result on a side at all: no median
    assert tool.summary([{"parent": None, "change": None,
                          "seconds": {"parent": 1.0, "change": 1.0}}],
                        END_TO_END)["median_attempted"] == {
        "parent": None, "change": None}


def test_medians_past_their_bound_fail_the_tool(tmp_path, monkeypatch, capsys):
    # every change run is correct but 30 % slower: past the 25 % bounds of
    # wall_s and setup_s, inside the 35 % of slowest_op_s
    tool = load_tool_on_fake_trees(monkeypatch)
    parent = fake_tree(tmp_path / "parent", ())
    change = fake_tree(tmp_path / "change", (), slower=1.3)
    out = tmp_path / "out.json"
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "w", "--out", str(out),
                      "--seeds", "1", "2", "3"]) == 1
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["bad_runs"] == {"parent": 0, "change": 0}
    assert {name: (round(summary[name]["change_over_parent"], 6),
                   summary[name]["past_bound"])
            for name in ("wall_s", "setup_s", "slowest_op_s", "peak_rss_mb")
            } == {"wall_s": (0.3, True), "setup_s": (0.3, True),
                  "slowest_op_s": (0.3, False), "peak_rss_mb": (0.0, False)}
    breaches = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("past bound: ")]
    assert breaches == [
        "past bound: w wall_s: median 1 -> 1.3 (+30.0%, bound 25%, lower is better)",
        "past bound: w setup_s: median 1 -> 1.3 (+30.0%, bound 25%, lower is better)"]
    # a faster change is never past a bound of a lower-is-better metric
    out.unlink()
    assert tool.main(["--parent", str(change), "--change", str(parent),
                      "--workload", "w", "--out", str(out), "--seeds", "1"]) == 0


def test_elapsed_seconds_are_kept_per_run_with_each_sides_longest(
        tmp_path, monkeypatch):
    # seed 2 of the change and seed 3 of the parent take a second longer
    # than the others; every run is timed, and each side's longest run
    # is in the summary
    tool = load_tool_on_fake_trees(monkeypatch)
    parent = fake_tree(tmp_path / "parent", (), pause=(3,))
    change = fake_tree(tmp_path / "change", (), pause=(2,))
    out = tmp_path / "out.json"
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "w", "--out", str(out),
                      "--seeds", "1", "2", "3"]) == 0
    doc = json.loads(out.read_text())["workloads"]["w"]
    seconds = [p["seconds"] for p in doc["pairs"]]
    assert [set(s) for s in seconds] == [{"parent", "change"}] * 3
    assert seconds[1]["change"] >= 1 and seconds[2]["parent"] >= 1
    assert doc["summary"]["max_seconds"] == {
        side: max(s[side] for s in seconds) for side in ("parent", "change")}


def test_bytecode_setting_and_caches_left_are_recorded(tmp_path, monkeypatch):
    # the machine block keeps the PYTHONDONTWRITEBYTECODE the runs inherit,
    # and each workload whether a tree held a __pycache__ after its runs:
    # here only the change's seed 2 leaves one
    tool = load_tool_on_fake_trees(monkeypatch)
    parent = fake_tree(tmp_path / "parent", ())
    change = fake_tree(tmp_path / "change", (), cache=(2,))
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert tool.main(argv + ["--workload", "w", "--seeds", "1"]) == 0
    assert tool.main(argv + ["--workload", "v", "--seeds", "1", "2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["machine"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert doc["workloads"]["w"]["pycache_after"] == {"parent": False,
                                                      "change": False}
    assert doc["workloads"]["v"]["pycache_after"] == {"parent": False,
                                                      "change": True}
    out.unlink()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert tool.main(argv + ["--workload", "w", "--seeds", "1"]) == 0
    assert json.loads(out.read_text())["machine"]["PYTHONDONTWRITEBYTECODE"] is None


def result(seconds):
    """A result line whose time metrics read `seconds`, RSS 40 MB."""
    metrics = {m["name"]: {"value": seconds} for m in END_TO_END}
    metrics["peak_rss_mb"] = {"value": 40.0}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def gains(parent, change):
    """gain_resolved per metric for one pair per seed of parent; a seed
    missing from change is a pair without a change result."""
    pairs = [{"parent": result(v), "change": (result(change[seed])
                                              if seed in change else None),
              "seconds": {"parent": 1.0, "change": 1.0}}
             for seed, v in parent.items()]
    summary = load_tool().summary(pairs, END_TO_END)
    return {m["name"]: summary[m["name"]]["gain_resolved"] for m in END_TO_END}


def test_gain_resolved_takes_nine_wins_in_ten_and_the_parents_spread():
    # the parent reads 1.01 ... 1.10 s (quartiles 1.0275 and 1.0825);
    # peak_rss_mb reads 40 on both sides, ties only, never resolved
    parent = {seed: 1 + seed / 100 for seed in range(1, 11)}
    fast = dict.fromkeys(parent, 0.9)
    cases = [
        # one loss: 9 wins of 10, medians 0.155 apart
        ({**fast, 5: 2.0}, True),
        # two losses: 8 wins of 10
        ({**fast, 5: 2.0, 6: 1.06}, False),
        # a win in every pair, but by less than the parent's spread
        ({seed: v - 0.001 for seed, v in parent.items()}, False),
        # a tie is no win
        ({**fast, 5: parent[5]}, True),
        ({**fast, 5: parent[5], 6: parent[6]}, False),
        # a pair without a change result is a pair run but not won
        ({seed: 0.9 for seed in range(2, 11)}, True),
        ({seed: 0.9 for seed in range(3, 11)}, False),
    ]
    for i, (change, resolved) in enumerate(cases):
        assert gains(parent, change) == {
            "wall_s": resolved, "setup_s": resolved,
            "slowest_op_s": resolved, "peak_rss_mb": False}, i
    # the change is worse: never a gain, however clear
    assert gains(fast, parent)["wall_s"] is False


def test_gain_resolved_is_written_and_few_pairs_warn(
        tmp_path, monkeypatch, capsys):
    tool = load_tool_on_fake_trees(monkeypatch)
    parent_values = {seed: 1 + seed / 100 for seed in range(1, 11)}
    parent = fake_tree(tmp_path / "parent", (), values=parent_values)
    change = fake_tree(tmp_path / "change", (), slower=0.9, values={5: 2.0})
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "w", "--out", str(out), "--seeds"]
    assert tool.main(argv + [str(seed) for seed in parent_values]) == 0
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["wall_s"]["gain_resolved"] is True
    assert summary["peak_rss_mb"]["gain_resolved"] is False
    assert "warning" not in capsys.readouterr().err
    out.unlink()
    assert tool.main(argv + ["1", "2", "3"]) == 0
    assert json.loads(out.read_text())["workloads"]["w"]["summary"][
        "wall_s"]["gain_resolved"] is True
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: ")]
    assert warnings == ["warning: 3 pairs per workload; resolving a gain "
                        "takes at least 10"]
