import json

import pytest

from qcstar.cli import build_parser, main

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


def test_rep_residuals_unknown_rep(capsys):
    rc, _, err = run(capsys, "rep", "residuals", "--rep", "bogus")
    assert rc == 2 and "unknown representation" in err


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
