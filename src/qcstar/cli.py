"""Command-line entry point.

Subcommands: graph validate|ideals, ktheory, algebra nf|verify-morphism|
fixed, rep residuals|spectrum|independence, reproduce-paper.  Output is
JSON by default (schema "qcstar/1", floats at 12 significant digits,
byte-identical for identical configs); --format plain gives a loose
human rendering.  Exit codes: 0 success, 1 failed verification, 2 usage
or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import acceptance, graphs, ktheory, ncalgebra, representations as reps

SCHEMA = "qcstar/1"

_USAGE_ERRORS = (
    graphs.GraphError,
    ncalgebra.ExpressionError,
    ncalgebra.PresentationError,
    reps.RepresentationError,
    OSError,
    ValueError,
)


def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return "%.12g" % obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{_render_json(str(k))}: {_render_json(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        simple = all(isinstance(x, (int, float, str, bool)) or x is None
                     for x in seq)
        if simple:
            return "[" + ", ".join(_render_json(x) for x in seq) + "]"
        rows = [f"{inner}{_render_json(x, indent + 1)}" for x in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(payload: dict, fmt: str, plain_lines=None) -> None:
    if fmt == "plain" and plain_lines is not None:
        for line in plain_lines:
            print(line)
    else:
        print(_render_json(payload))


def _load_graph(args) -> tuple[graphs.Graph, str]:
    if getattr(args, "builtin", None):
        return graphs.builtin_graph(args.builtin), args.builtin
    path = args.graphfile
    if path is None:
        raise graphs.GraphError("a graph file or --builtin name is required")
    with open(path, "r", encoding="utf-8") as fh:
        return graphs.parse_graph(fh.read()), path


def _group_payload(g: ktheory.AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _cmd_graph(args) -> int:
    g, label = _load_graph(args)
    if args.graph_cmd == "validate":
        payload = {
            "schema": SCHEMA,
            "graph": label,
            "valid": True,
            "vertices": list(g.vertices),
            "edges": [[e.name, e.source, e.range] for e in g.edges],
            "emitters": list(graphs.emitters(g).names),
        }
        _emit(payload, args.format,
              [f"graph {label}: valid",
               f"vertices: {', '.join(g.vertices)}",
               f"edges: {', '.join(e.name for e in g.edges)}"])
        return 0
    ideals = graphs.hereditary_saturated_sets(g)
    payload = {
        "schema": SCHEMA,
        "graph": label,
        "count": len(ideals),
        "ideals": [list(s.names) for s in ideals],
    }
    _emit(payload, args.format,
          [f"graph {label}: {len(ideals)} hereditary saturated sets"]
          + [f"  {s}" for s in ideals])
    return 0


def _cmd_ktheory(args) -> int:
    g, label = _load_graph(args)
    k0, k1 = ktheory.k_groups(g)
    payload = {
        "schema": SCHEMA,
        "graph": label,
        "k0": _group_payload(k0),
        "k1": _group_payload(k1),
        "k0_str": str(k0),
        "k1_str": str(k1),
    }
    _emit(payload, args.format,
          [f"graph {label}:", f"  K0 = {k0}", f"  K1 = {k1}"])
    return 0


def _parse_s(value: str | None):
    return None if value is None else Fraction(value)


def _cmd_algebra(args) -> int:
    if args.algebra_cmd == "nf":
        p = ncalgebra.presentation(args.algebra, s=_parse_s(args.s))
        x = p.parse(args.expr)
        nf = p.normal_form(x)
        payload = {
            "schema": SCHEMA,
            "algebra": args.algebra,
            "input": args.expr,
            "normal_form": str(nf),
            "monomials": len(nf.terms()),
        }
        if args.algebra == "sphere":
            payload["s"] = str(p.params["s"])
        _emit(payload, args.format, [str(nf)])
        return 0
    if args.algebra_cmd == "verify-morphism":
        m = ncalgebra.builtin_morphism(args.name)
        report = m.verify()
        relations = [
            {"relation": label, "residual": str(residual),
             "zero": residual.is_zero()}
            for label, residual in report.entries
        ]
        payload = {
            "schema": SCHEMA,
            "name": args.name,
            "source": m.source.name,
            "target": m.target.name,
            "star_compatible": report.star_compatible,
            "relations": relations,
            "ok": report.ok,
        }
        _emit(payload, args.format,
              [f"morphism {args.name}: {'ok' if report.ok else 'FAILED'}"]
              + [f"  {r['relation']}: residual {r['residual']}"
                 for r in relations])
        return 0 if report.ok else 1
    # fixed
    p = ncalgebra.presentation(args.algebra, s=_parse_s(args.s))
    auto = ncalgebra.builtin_morphism(args.auto)
    if auto.source is not p or auto.target is not p:
        raise ncalgebra.PresentationError(
            f"{args.auto} is an automorphism of sphere at the default "
            f"parameter only, not of {args.algebra}"
            + (f" with s={args.s}" if args.s is not None else ""))
    x = p.parse(args.expr)
    fixed = ncalgebra.is_fixed(auto, x)
    payload = {
        "schema": SCHEMA,
        "algebra": args.algebra,
        "automorphism": args.auto,
        "expr": args.expr,
        "fixed": fixed,
    }
    _emit(payload, args.format,
          [f"{args.expr} is {'fixed' if fixed else 'not fixed'} by {args.auto}"])
    return 0


REP_ALIASES = {
    "rho": "rho_rp2",
    "rho_rp2": "rho_rp2",
    "rho_plus": "rho_plus",
    "rho_minus": "rho_minus",
    "pi_plus": "pi_plus",
    "pi_minus": "pi_minus",
    "pi_pm": "pi_pm",
    "rho_pm": "rho_pm",
    "rho_theta": "rho_theta",
}


def _build_named_rep(name: str, q: float, dim: int, theta: float):
    canonical = REP_ALIASES.get(name)
    if canonical is None:
        raise reps.RepresentationError(
            f"unknown representation {name!r}; choose from "
            f"{sorted(set(REP_ALIASES))}")
    if canonical == "pi_pm":
        return reps.direct_sum(reps.build_rep("pi_plus", q, dim),
                               reps.build_rep("pi_minus", q, dim))
    if canonical == "rho_pm":
        return reps.direct_sum(reps.build_rep("rho_plus", q, dim),
                               reps.build_rep("rho_minus", q, dim))
    return reps.build_rep(canonical, q, dim, theta=theta)


def _cmd_rep(args) -> int:
    if args.rep_cmd == "residuals":
        rep = _build_named_rep(args.rep, args.q, args.dim, args.theta)
        if args.algebra and rep.presentation.name != args.algebra:
            raise reps.RepresentationError(
                f"representation {args.rep} acts on {rep.presentation.name}, "
                f"not {args.algebra}")
        report = reps.relation_residuals(rep)
        ok = report.ok(args.tol)
        payload = {
            "schema": SCHEMA,
            "rep": args.rep,
            "algebra": rep.presentation.name,
            "q": args.q,
            "dim": rep.dim,
            "margin": report.margin,
            "relations": [{"relation": k, "residual": v}
                          for k, v in report.entries],
            "max_residual": report.max_residual(),
            "tolerance": args.tol,
            "ok": ok,
        }
        _emit(payload, args.format,
              [f"{args.rep} at q={args.q}, dim={rep.dim}: "
               f"max residual {report.max_residual():.3e} "
               f"({'ok' if ok else 'FAILED'})"])
        return 0 if ok else 1
    if args.rep_cmd == "spectrum":
        rep = _build_named_rep(args.rep, args.q, args.dim, args.theta)
        report = reps.spectrum_check(rep, args.generator)
        ok = report.max_deviation <= args.tol
        payload = {
            "schema": SCHEMA,
            "rep": args.rep,
            "generator": args.generator,
            "q": args.q,
            "dim": rep.dim,
            "is_diagonal": report.is_diagonal,
            "max_deviation": report.max_deviation,
            "tolerance": args.tol,
            "ok": ok,
        }
        _emit(payload, args.format,
              [f"{args.rep}: {args.generator} diagonal, max deviation "
               f"{report.max_deviation:.3e} ({'ok' if ok else 'FAILED'})"])
        return 0 if ok else 1
    # independence
    import random
    fam = reps.basis_monomials(args.kmax, args.lmax)
    report = reps.independence_check(fam, q=args.q, n_max=args.nmax,
                                     trials=args.trials,
                                     rng=random.Random(args.seed))
    ok = report.ok(1e-8)
    payload = {
        "schema": SCHEMA,
        "kmax": args.kmax,
        "lmax": args.lmax,
        "q": args.q,
        "n_max": args.nmax,
        "monomials": report.monomial_count,
        "rank": report.rank,
        "full_rank": report.full_rank,
        "recovery_trials": report.recovery_trials,
        "recovery_max_error": report.recovery_max_error,
        "seed": args.seed,
        "ok": ok,
    }
    _emit(payload, args.format,
          [f"{report.monomial_count} monomials: rank {report.rank}, "
           f"recovery error {report.recovery_max_error:.1e} "
           f"({'ok' if ok else 'FAILED'})"])
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    cfg = acceptance.RunConfig(q=args.q, dim=args.dim, n_max=args.nmax,
                               seed=args.seed)
    results = acceptance.run_all(cfg)
    all_passed = all(r.passed for r in results)
    payload = {
        "schema": SCHEMA,
        "config": {"q": args.q, "dim": args.dim, "n_max": args.nmax,
                   "seed": args.seed},
        "criteria": [
            {"id": r.ident, "title": r.title, "passed": r.passed,
             "expected_failure": r.ident in acceptance.EXPECTED_FAILURES,
             "detail": r.detail}
            for r in results
        ],
        "all_passed": all_passed,
    }
    plain = [r.line() for r in results]
    plain.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    known = [r.ident for r in results
             if not r.passed and r.ident in acceptance.EXPECTED_FAILURES]
    if known:
        plain.append(
            "known open criteria (documented in the README, kept failing "
            "rather than loosened): " + ", ".join(known))
    _emit(payload, args.format, plain)
    return 0 if all_passed else 1


def _seed_default() -> int:
    raw = os.environ.get("QCSTAR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QCSTAR_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    seed_default = _seed_default()
    top = argparse.ArgumentParser(
        prog="qcstar",
        description="K-theory of graph C*-algebras and exact rewriting "
                    "for quantum-space *-algebras")
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p, default="json"):
        p.add_argument("--format", choices=("json", "plain"), default=default)

    pg = sub.add_parser("graph", help="inspect graphs")
    gsub = pg.add_subparsers(dest="graph_cmd", required=True)
    for name in ("validate", "ideals"):
        spp = gsub.add_parser(name)
        spp.add_argument("graphfile", nargs="?")
        spp.add_argument("--builtin", choices=graphs.BUILTIN_GRAPHS)
        add_format(spp)

    pk = sub.add_parser("ktheory", help="K-groups of a graph C*-algebra")
    pk.add_argument("graphfile", nargs="?")
    pk.add_argument("--builtin", choices=graphs.BUILTIN_GRAPHS)
    add_format(pk)

    pa = sub.add_parser("algebra", help="exact rewriting operations")
    asub = pa.add_subparsers(dest="algebra_cmd", required=True)
    pnf = asub.add_parser("nf")
    pnf.add_argument("--algebra", required=True,
                     choices=("sphere", "disc", "rp2", "suq2_mod_b"))
    pnf.add_argument("--expr", required=True)
    pnf.add_argument("--s", default=None,
                     help="sphere parameter as a rational, e.g. 1/2")
    add_format(pnf)
    pvm = asub.add_parser("verify-morphism")
    pvm.add_argument("--name", required=True,
                     choices=ncalgebra.BUILTIN_MORPHISMS)
    add_format(pvm)
    pfx = asub.add_parser("fixed")
    pfx.add_argument("--algebra", default="sphere",
                     choices=("sphere", "disc", "rp2", "suq2_mod_b"))
    pfx.add_argument("--auto", required=True, choices=("r1", "r2"))
    pfx.add_argument("--expr", required=True)
    pfx.add_argument("--s", default=None)
    add_format(pfx)

    pr = sub.add_parser("rep", help="truncated matrix representations")
    rsub = pr.add_subparsers(dest="rep_cmd", required=True)
    prr = rsub.add_parser("residuals")
    prr.add_argument("--rep", required=True)
    prr.add_argument("--algebra", default=None)
    prr.add_argument("--q", type=float, default=0.5)
    prr.add_argument("--dim", type=int, default=64)
    prr.add_argument("--theta", type=float, default=0.0)
    prr.add_argument("--tol", type=float, default=1e-10)
    add_format(prr)
    prs = rsub.add_parser("spectrum")
    prs.add_argument("--rep", required=True)
    prs.add_argument("--generator", required=True)
    prs.add_argument("--q", type=float, default=0.5)
    prs.add_argument("--dim", type=int, default=64)
    prs.add_argument("--theta", type=float, default=0.0)
    prs.add_argument("--tol", type=float, default=1e-12)
    add_format(prs)
    pri = rsub.add_parser("independence")
    pri.add_argument("--kmax", type=int, default=3)
    pri.add_argument("--lmax", type=int, default=3)
    pri.add_argument("--q", type=float, default=0.5)
    pri.add_argument("--nmax", type=int, default=40)
    pri.add_argument("--trials", type=int, default=100)
    pri.add_argument("--seed", type=int, default=seed_default)
    add_format(pri)

    pp = sub.add_parser("reproduce-paper",
                        help="run the full acceptance suite")
    pp.add_argument("--q", type=float, default=0.5)
    pp.add_argument("--dim", type=int, default=64)
    pp.add_argument("--nmax", type=int, default=40)
    pp.add_argument("--seed", type=int, default=seed_default)
    add_format(pp, default="plain")
    return top


def main(argv=None) -> int:
    handlers = {
        "graph": _cmd_graph,
        "ktheory": _cmd_ktheory,
        "algebra": _cmd_algebra,
        "rep": _cmd_rep,
        "reproduce-paper": _cmd_reproduce,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except _USAGE_ERRORS as err:
        print(f"qcstar: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
