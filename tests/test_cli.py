import argparse
import json
from pathlib import Path

import pytest

from qcstar import acceptance, cli, graphs, ktheory
from qcstar import representations as reps
from qcstar.cli import build_parser, main
from qcstar.ncalgebra import presentation

TWO_SINK = """\
vertex v
vertex w1
vertex w2
edge e v v
edge f1 v w1
edge f2 v w2
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


def test_ktheory_builtin(capsys):
    rc, payload, _ = run_json(capsys, "ktheory", "--builtin", "G3")
    assert rc == 0
    assert payload["schema"] == "qcstar/1"
    assert payload["k0"] == {"free_rank": 1, "torsion": [2]}
    assert payload["k1"] == {"free_rank": 0, "torsion": []}
    assert payload["k0_str"] == "Z + Z_2"


def test_ktheory_from_file(capsys, tmp_path):
    f = tmp_path / "two_sink.graph"
    f.write_text(TWO_SINK)
    rc, payload, _ = run_json(capsys, "ktheory", str(f))
    assert rc == 0
    assert payload["k0"] == {"free_rank": 2, "torsion": []}


def test_ktheory_vertex_bound(capsys, tmp_path, monkeypatch):
    # at the bound the command runs; one vertex past it, it exits 2 with
    # one line before A_G is built or eliminated
    bound = cli.MAX_KTHEORY_VERTICES
    at, past = tmp_path / "at.graph", tmp_path / "past.graph"
    at.write_text("".join(f"vertex v{i}\n" for i in range(bound)))
    past.write_text("".join(f"vertex v{i}\n" for i in range(bound + 1))
                    + "edge e v0 v1\n")
    rc, payload, _ = run_json(capsys, "ktheory", str(at))
    assert rc == 0 and payload["k0_str"] == f"Z^{bound}"

    def refused(*args):
        raise AssertionError("started past the bound")
    monkeypatch.setattr(graphs, "build_ag", refused)
    monkeypatch.setattr(ktheory, "k_groups", refused)
    rc, out, err = run(capsys, "ktheory", str(past))
    assert rc == 2 and out == ""
    assert err == (f"qcstar: ktheory takes graphs of at most {bound} "
                   f"vertices; {past} has {bound + 1}\n")


def test_rep_dim_bound(capsys, monkeypatch):
    # one past the bound, each command that builds representations exits
    # 2 with one line and builds nothing; at the bound it goes on to build
    bound = cli.MAX_REP_DIM

    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built
    monkeypatch.setattr(reps, "build_rep", built)
    monkeypatch.setattr(acceptance, "run_all", built)
    for argv in (["rep", "residuals", "--rep", "rho"],
                 ["rep", "spectrum", "--rep", "rho", "--generator", "P"],
                 ["reproduce-paper"]):
        rc, out, err = run(capsys, *argv, "--dim", str(bound + 1))
        assert rc == 2 and out == ""
        assert err == f"qcstar: --dim takes at most {bound}; got {bound + 1}\n"
        with pytest.raises(Built):
            main(argv + ["--dim", str(bound)])


def test_graph_ideals_past_the_cap(capsys, tmp_path):
    # a loop and 13 sinks has 2^13 + 1 hereditary saturated sets
    f = tmp_path / "sinks.graph"
    f.write_text("vertex v\nedge e v v\n" + "".join(
        f"vertex w{i}\nedge f{i} v w{i}\n" for i in range(13)))
    rc, out, err = run(capsys, "graph", "ideals", str(f))
    assert rc == 2 and out == ""
    assert err == (f"qcstar: too many hereditary saturated sets: the cap is "
                   f"{graphs.MAX_IDEAL_SETS}\n")


def test_ktheory_missing_file(capsys):
    rc, out, err = run(capsys, "ktheory", "no_such_file.graph")
    assert rc == 2
    assert out == ""
    assert "no_such_file.graph" in err


def test_graph_validate_bad_file(capsys, tmp_path):
    f = tmp_path / "bad.graph"
    f.write_text("vertex a\nedge e a b\n")
    rc, out, err = run(capsys, "graph", "validate", str(f))
    assert rc == 2
    assert "line 2" in err


def test_graph_validate_and_ideals(capsys, tmp_path):
    f = tmp_path / "ok.graph"
    f.write_text(TWO_SINK)
    rc, payload, _ = run_json(capsys, "graph", "validate", str(f))
    assert rc == 0
    assert payload["valid"] is True
    assert payload["vertices"] == ["v", "w1", "w2"]
    rc, payload, _ = run_json(capsys, "graph", "ideals", "--builtin", "G2")
    assert rc == 0
    assert payload["count"] == 3
    assert payload["ideals"] == [[], ["w"], ["v", "w"]]


def test_algebra_nf(capsys):
    rc, payload, _ = run_json(capsys, "algebra", "nf",
                              "--algebra", "rp2", "--expr", "T*T")
    assert rc == 0
    assert payload["normal_form"] == "q^-4 P - q^-4 P^2"


def test_algebra_nf_sphere_s(capsys):
    rc, payload, _ = run_json(capsys, "algebra", "nf", "--algebra", "sphere",
                              "--expr", "L* L", "--s", "1/2")
    assert rc == 0
    assert payload["s"] == "1/2"
    assert payload["normal_form"] == "(1/4) + (3/4) K - K^2"


def test_algebra_nf_bad_expression(capsys):
    rc, out, err = run(capsys, "algebra", "nf",
                       "--algebra", "disc", "--expr", "y + 1")
    assert rc == 2 and "qcstar:" in err


@pytest.mark.parametrize("expr,reason", [
    ("K^1000000000", "letters"),
    ("(K+L+L*)^30", "terms"),
])
def test_algebra_nf_oversized_power_exits_two(capsys, expr, reason):
    rc, out, err = run(capsys, "algebra", "nf",
                       "--algebra", "sphere", "--expr", expr)
    assert rc == 2 and out == ""
    assert err.startswith("qcstar: power too") and err.count("\n") == 1
    assert reason in err


def test_algebra_nf_past_the_step_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(presentation("rp2"), "step_budget", 3)
    rc, out, err = run(capsys, "algebra", "nf",
                       "--algebra", "rp2", "--expr", "(R* T)^2")
    assert rc == 2 and out == ""
    assert err == "qcstar: normal form in rp2 exceeded 3 rewrite steps\n"


def test_algebra_nf_past_the_step_budget_exits_two_with_a_warm_table(
        capsys, monkeypatch):
    p = presentation("rp2")
    p.normal_form(p.parse("(R* T)^2"))   # fills the table for this input
    monkeypatch.setattr(p, "step_budget", 3)
    rc, out, err = run(capsys, "algebra", "nf",
                       "--algebra", "rp2", "--expr", "(R* T)^2")
    assert rc == 2 and out == ""
    assert err == "qcstar: normal form in rp2 exceeded 3 rewrite steps\n"


@pytest.mark.parametrize("command", [("nf", "--algebra", "sphere"),
                                     ("fixed", "--auto", "r1")])
def test_zero_denominator_s_exits_two(capsys, command):
    rc, out, err = run(capsys, "algebra", *command, "--expr", "K",
                       "--s", "1/0")
    assert rc == 2 and out == ""
    assert err == "qcstar: --s has a zero denominator: '1/0'\n"


@pytest.mark.parametrize("s", ["1e-5000", "1e30000000"])
def test_huge_s_exponent_exits_two_before_building_s(capsys, s):
    # 10^5000 is past Python's 4300-digit limit; 10^30000000 would take
    # minutes to build
    rc, out, err = run(capsys, "algebra", "nf", "--algebra", "sphere",
                       "--expr", "K", "--s", s)
    assert rc == 2 and out == ""
    assert err == f"qcstar: --s spells a number of more than 4300 digits: '{s}'\n"


def test_s_exponents_within_the_limit_still_parse(capsys):
    for s in ("1/2", "0.5", "5e-1"):
        rc, out, _ = run_json(capsys, "algebra", "nf", "--algebra", "sphere",
                              "--expr", "K", "--s", s)
        assert rc == 0 and out["s"] == "1/2"
    rc, out, _ = run_json(capsys, "algebra", "nf", "--algebra", "sphere",
                          "--expr", "K", "--s", "1e-400")
    assert rc == 0 and out["s"] == "1/1" + "0" * 400


def test_algebra_nf_s_rejected_off_sphere(capsys):
    rc, _, err = run(capsys, "algebra", "nf",
                     "--algebra", "disc", "--expr", "x", "--s", "1/2")
    assert rc == 2 and "parameter" in err


def test_verify_morphism(capsys):
    rc, payload, _ = run_json(capsys, "algebra", "verify-morphism",
                              "--name", "rp2-inclusion")
    assert rc == 0
    assert payload["ok"] is True
    assert payload["star_compatible"] is True
    assert all(r["zero"] for r in payload["relations"])
    assert len(payload["relations"]) == 16


def test_fixed_query(capsys):
    rc, payload, _ = run_json(capsys, "algebra", "fixed", "--auto", "r1",
                              "--expr", "K^2 + L")
    assert rc == 0 and payload["fixed"] is True
    rc, payload, _ = run_json(capsys, "algebra", "fixed", "--auto", "r2",
                              "--expr", "L")
    assert rc == 0 and payload["fixed"] is False


def test_fixed_rejects_nondefault_s(capsys):
    rc, _, err = run(capsys, "algebra", "fixed", "--auto", "r1",
                     "--expr", "K", "--s", "1/2")
    assert rc == 2 and "automorphism" in err


def test_rep_residuals(capsys):
    rc, payload, _ = run_json(capsys, "rep", "residuals", "--algebra", "rp2",
                              "--rep", "rho", "--q", "0.5", "--dim", "32")
    assert rc == 0
    assert payload["ok"] is True
    assert payload["max_residual"] <= 1e-10
    assert payload["dim"] == 32
    assert len(payload["relations"]) == 16


def test_rep_residuals_tolerance_failure(capsys):
    rc, payload, _ = run_json(capsys, "rep", "residuals", "--rep", "rho",
                              "--dim", "32", "--tol", "1e-20")
    assert rc == 1
    assert payload["ok"] is False


def test_rep_residuals_wrong_algebra(capsys):
    rc, _, err = run(capsys, "rep", "residuals", "--algebra", "sphere",
                     "--rep", "rho")
    assert rc == 2 and "acts on" in err




REP_CHOICES = ["pi_minus", "pi_plus", "pi_pm", "rho", "rho_minus",
               "rho_plus", "rho_pm", "rho_rp2", "rho_theta"]


@pytest.mark.parametrize("name", REP_CHOICES)
def test_rep_residuals_accepts_every_name(capsys, name):
    rc, payload, _ = run_json(capsys, "rep", "residuals", "--rep", name,
                              "--dim", "8")
    assert rc == 0 and payload["rep"] == name


def test_rep_residuals_unknown_rep(capsys):
    rc, _, err = run(capsys, "rep", "residuals", "--rep", "bogus")
    assert rc == 2
    assert err == (f"qcstar: unknown representation 'bogus'; choose from "
                   f"{REP_CHOICES}\n")


def test_rep_residuals_dim_too_small(capsys):
    rc, _, err = run(capsys, "rep", "residuals", "--rep", "rho", "--dim", "2")
    assert rc == 2


def test_rep_spectrum(capsys):
    rc, payload, _ = run_json(capsys, "rep", "spectrum",
                              "--rep", "rho", "--generator", "P")
    assert rc == 0
    assert payload["is_diagonal"] is True
    assert payload["max_deviation"] == 0


def test_rep_direct_sum_alias(capsys):
    rc, payload, _ = run_json(capsys, "rep", "residuals", "--rep", "pi_pm",
                              "--dim", "16")
    assert rc == 0
    assert payload["dim"] == 32
    assert payload["algebra"] == "sphere"


def test_rep_independence(capsys):
    rc, payload, _ = run_json(capsys, "rep", "independence", "--kmax", "1",
                              "--lmax", "1", "--nmax", "30", "--trials", "5")
    assert rc == 0
    assert payload["monomials"] == 14
    assert payload["rank"] == 14
    assert payload["recovery_max_error"] == 0
    assert payload["seed"] == 0


@pytest.mark.parametrize("kmax, lmax, q, count", [
    ("5", "3", "0.5", 90), ("8", "1", "0.5", 63), ("4", "3", "0.3", 75)])
def test_rep_independence_full_rank_on_wider_families(capsys, kmax, lmax, q,
                                                      count):
    rc, payload, _ = run_json(capsys, "rep", "independence", "--kmax", kmax,
                              "--lmax", lmax, "--q", q)
    assert rc == 0 and payload["ok"]
    assert payload["monomials"] == payload["rank"] == count


@pytest.mark.parametrize("flag, value, reason", [
    ("--q", "1.5", "q must lie strictly between 0 and 1"),
    ("--q", "nan", "q must lie strictly between 0 and 1"),
    ("--q", "1", "q must lie strictly between 0 and 1"),
    ("--q", "0", "q must lie strictly between 0 and 1"),
    ("--q", "-0.5", "q must lie strictly between 0 and 1"),
    ("--trials", "-3", "trials must not be negative")])
def test_rep_independence_out_of_range_exits_two(capsys, flag, value, reason):
    rc, out, err = run(capsys, "rep", "independence", flag, value)
    assert rc == 2 and out == ""
    assert err == f"qcstar: {reason}\n"


def test_rep_independence_bounds(capsys, monkeypatch):
    # past each bound the command exits 2 with one line and starts no
    # elimination; at the bounds it goes on to the check
    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started
    monkeypatch.setattr(reps, "independence_check", started)
    kmax, size = cli.MAX_INDEPENDENCE_KMAX, cli.MAX_INDEPENDENCE_MONOMIALS
    nmax, trials = cli.MAX_INDEPENDENCE_NMAX, cli.MAX_INDEPENDENCE_TRIALS
    assert (kmax, size, cli.MIN_INDEPENDENCE_Q) == (8, 90, 1e-10)
    for argv in (("--kmax", "8", "--lmax", "1"),
                 ("--kmax", "5", "--lmax", "3"),
                 ("--kmax", "0", "--lmax", "21"), ("--nmax", str(nmax)),
                 ("--trials", str(trials)), ("--q", "1e-10")):
        with pytest.raises(Started):
            main(["rep", "independence", *argv])
    for argv, reason in (
            (("--kmax", "9", "--lmax", "0"), "--kmax takes at most 8; got 9"),
            (("--nmax", str(nmax + 1)),
             f"--nmax takes at most {nmax}; got {nmax + 1}"),
            (("--trials", str(trials + 1)),
             f"--trials takes at most {trials}; got {trials + 1}"),
            (("--kmax", "8", "--lmax", "2"),
             "rep independence takes families of at most 90 monomials; "
             "--kmax 8 --lmax 2 has 99"),
            (("--kmax", "0", "--lmax", "22"),
             "rep independence takes families of at most 90 monomials; "
             "--kmax 0 --lmax 22 has 91"),
            (("--lmax", str(10 ** 12)),
             "rep independence takes families of at most 90 monomials; "
             f"--kmax 3 --lmax {10 ** 12} has {4 * (4 * 10 ** 12 + 3)}"),
            (("--q", "9.99e-11"), "--q takes at least 1e-10; got 9.99e-11"),
            (("--q", "1e-300"), "--q takes at least 1e-10; got 1e-300"),
            (("--q", "5e-324"), "--q takes at least 1e-10; got 5e-324")):
        rc, out, err = run(capsys, "rep", "independence", *argv)
        assert rc == 2 and out == ""
        assert err == f"qcstar: {reason}\n"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QCSTAR_SEED", "123")
    rc, payload, _ = run_json(capsys, "rep", "independence", "--kmax", "0",
                              "--lmax", "0", "--nmax", "20", "--trials", "2")
    assert rc == 0 and payload["seed"] == 123
    # explicit flag wins over the environment
    rc, payload, _ = run_json(capsys, "rep", "independence", "--kmax", "0",
                              "--lmax", "0", "--nmax", "20", "--trials", "2",
                              "--seed", "4")
    assert rc == 0 and payload["seed"] == 4


def test_bad_seed_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("QCSTAR_SEED", "abc")
    rc, out, err = run(capsys, "ktheory", "--builtin", "G1")
    assert rc == 2 and out == ""
    assert err == "qcstar: QCSTAR_SEED must be an integer, got 'abc'\n"


def test_byte_identical_output(capsys):
    argv = ("rep", "independence", "--kmax", "1", "--lmax", "1",
            "--nmax", "30", "--trials", "5")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    _, out1, _ = run(capsys, "ktheory", "--builtin", "G1")
    _, out2, _ = run(capsys, "ktheory", "--builtin", "G1")
    assert out1 == out2


def test_plain_format(capsys):
    rc, out, _ = run(capsys, "algebra", "nf", "--algebra", "rp2",
                     "--expr", "T*T", "--format", "plain")
    assert rc == 0
    assert out.strip() == "q^-4 P - q^-4 P^2"


def test_float_rendering_significant_digits(capsys):
    rc, out, _ = run(capsys, "rep", "residuals", "--rep", "rho",
                     "--dim", "16")
    assert rc == 0
    # floats are rendered with %.12g, never with repr's 17 digits
    seen = 0
    for line in out.splitlines():
        if '"residual"' in line or '"max_residual"' in line:
            value = line.split(":")[1].strip().rstrip(",")
            mantissa = value.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa.lstrip("0")) <= 12, value
            seen += 1
    assert seen >= 2


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["nonsense-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_reproduce_paper_defaults_to_plain():
    args = build_parser().parse_args(["reproduce-paper"])
    assert args.format == "plain"
    assert args.q == 0.5 and args.dim == 64 and args.seed == 0


def test_reproduce_paper_full_run(capsys):
    rc, payload, _ = run_json(capsys, "reproduce-paper", "--format", "json")
    # criterion 3b is kept failing (see the README); the exit code says so
    assert rc == 1
    assert payload["all_passed"] is False
    failing = {c["id"] for c in payload["criteria"] if not c["passed"]}
    assert failing == {"3b"}
    for c in payload["criteria"]:
        assert c["expected_failure"] == (c["id"] in ("3b",))
    assert len(payload["criteria"]) == 10


def _fixed_results(cfg):
    return [acceptance.CriterionResult("1", "first", True, "ok", 0.25, 0.5),
            acceptance.CriterionResult("3b", "second", False, "open", 1.5, 5.0)]


def test_reproduce_paper_stats_adds_timings(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", _fixed_results)
    _, plain, _ = run(capsys, "reproduce-paper", "--format", "json")
    _, stats, _ = run(capsys, "reproduce-paper", "--format", "json", "--stats")
    assert "seconds" not in plain
    with_stats = json.loads(stats)
    assert [(c["seconds"], c["budget_seconds"])
            for c in with_stats["criteria"]] == [(0.25, 0.5), (1.5, 5.0)]
    for c in with_stats["criteria"]:
        del c["seconds"], c["budget_seconds"]
    assert with_stats == json.loads(plain)


def test_reproduce_paper_json_without_stats_is_unchanged(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", _fixed_results)
    rc, out, _ = run(capsys, "reproduce-paper", "--format", "json")
    assert rc == 1
    assert out == """{
  "schema": "qcstar/1",
  "config": {
    "q": 0.5,
    "dim": 64,
    "n_max": 40,
    "seed": 0
  },
  "criteria": [
    {
      "id": "1",
      "title": "first",
      "passed": true,
      "expected_failure": false,
      "detail": "ok"
    },
    {
      "id": "3b",
      "title": "second",
      "passed": false,
      "expected_failure": true,
      "detail": "open"
    }
  ],
  "all_passed": false
}
"""


# Exact stdout and exit code of these commands; a change that keeps
# behaviour keeps every byte
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    **{f"verify-morphism-{m}.json": (("algebra", "verify-morphism",
                                      "--name", m), 0)
       for m in ("F", "r1", "r2", "rp2-inclusion", "disc-inclusion")},
    "nf-suq2_mod_b-a5.json": (("algebra", "nf", "--algebra", "suq2_mod_b",
                               "--expr", "a*^5 a^5"), 0),
    "nf-rp2-power-4.json": (("algebra", "nf", "--algebra", "rp2",
                             "--expr", "(P+R+R*+T+T*)^4"), 0),
    "nf-sphere-half-power-6.json": (("algebra", "nf", "--algebra", "sphere",
                                     "--s", "1/2", "--expr", "(K+L-L*)^6"),
                                    0),
    # exit 1: criterion 3b is kept failing
    "reproduce-paper-seed-5.json": (("reproduce-paper", "--format", "json",
                                     "--seed", "5"), 1),
    "ktheory-G3.json": (("ktheory", "--builtin", "G3"), 0),
    "graph-validate-G1.json": (("graph", "validate", "--builtin", "G1"), 0),
    "graph-ideals-G1.txt": (("graph", "ideals", "--builtin", "G1",
                             "--format", "plain"), 0),
    "rep-residuals-rho_pm.json": (("rep", "residuals", "--rep", "rho_pm"), 0),
    "rep-spectrum-pi_plus-K.json": (("rep", "spectrum", "--rep", "pi_plus",
                                     "--generator", "K"), 0),
    "rep-independence-3-2.json": (("rep", "independence", "--kmax", "3",
                                   "--lmax", "2"), 0),
    "fixed-r1.txt": (("algebra", "fixed", "--auto", "r1", "--expr",
                      "K^2 + L L*", "--format", "plain"), 0),
}

# Exact standard error of usage errors, which print nothing on stdout and
# exit 2: one raised by the package, one by argparse
GOLDEN_ERRORS = {
    "error-unknown-rep.txt": ("rep", "residuals", "--rep", "nope"),
    "error-unknown-builtin-graph.txt": ("ktheory", "--builtin", "G9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output(capsys, name):
    argv, code = GOLDEN_RUNS[name]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (code, "")
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_ERRORS))
def test_golden_usage_error(capsys, monkeypatch, name):
    # argparse wraps its usage line at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main(list(GOLDEN_ERRORS[name]))
    except SystemExit as exit_:
        rc = exit_.code
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == (GOLDEN / name).read_text(encoding="utf-8")


def parser_options(parser, path=()):
    """Per subcommand, each option as a user can type it."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(parser_options(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            out.setdefault(" ".join(path), {})[action.dest] = {
                "strings": action.option_strings,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "choices": None if action.choices is None
                else list(action.choices),
                "required": action.required,
                "nargs": action.nargs,
            }
    return out


def test_every_option_of_every_subcommand_is_pinned(monkeypatch):
    monkeypatch.delenv("QCSTAR_SEED", raising=False)
    pinned = json.loads((GOLDEN / "cli-options.json").read_text())
    assert parser_options(build_parser()) == pinned
