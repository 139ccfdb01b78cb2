"""Command-line entry point.

Subcommands: graph validate|ideals, ktheory, algebra nf|verify-morphism|
fixed, rep residuals|spectrum|independence, reproduce-paper.  Output is
JSON by default (schema "qcstar/1", floats at 12 significant digits,
byte-identical for identical configs); --format plain gives a loose
human rendering.  Exit codes: 0 success, 1 failed verification, 2 usage
or parse errors and normal forms past the rewrite step budget.

_emit adds the "schema" key to every JSON payload; the graph input and
the representation options are argparse parents shared by the
subcommands that take them; every package error is a ValueError.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import acceptance, graphs, ktheory, ncalgebra, representations as reps

SCHEMA = "qcstar/1"

# ktheory refuses a graph past this many vertices before building A_G:
# the K-groups of a density-0.3 random multigraph take 7 to 9 s at 300
# vertices and 16 s at 350 (2 cores, Python 3.11.7)
MAX_KTHEORY_VERTICES = 300

# rep residuals, rep spectrum and reproduce-paper refuse a --dim past this
# before building a representation.  At the bound, reproduce-paper takes
# 14 s, most of it criterion 7, and 156 MB; rep residuals and rep
# spectrum take 0.3-0.4 s (2 cores, Python 3.11.7)
MAX_REP_DIM = 4096

# rep independence refuses these before any elimination: each
# displacement class is one exact elimination kmax + 1 columns wide, with
# one right-hand side per trial.  At the bounds it takes about 20 s at
# q = 0.9 and 0.99 (2 cores, Python 3.11.7)
MAX_INDEPENDENCE_KMAX = 8
MAX_INDEPENDENCE_MONOMIALS = 90
MAX_INDEPENDENCE_NMAX = 100
MAX_INDEPENDENCE_TRIALS = 200
# and a --q below this: the exact work grows with the bits of Fraction(q).
# At the bound --kmax 8 --lmax 1 and --kmax 7 --lmax 2 take 20 s, and 44 s
# with --nmax 100 --trials 200 (25 s at q = 0.9; 2 cores, Python 3.11.7)
MIN_INDEPENDENCE_Q = 1e-10

_USAGE_ERRORS = (ValueError, OSError, ncalgebra.RewriteBudgetError)


def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None or isinstance(obj, (bool, str)):
        import json
        return json.dumps(obj)
    if isinstance(obj, float):
        return "%.12g" % obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{_render_json(str(k))}: {_render_json(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        # a list of scalars, the empty list too, goes on one line
        if all(isinstance(x, (int, float, str)) or x is None for x in obj):
            return "[" + ", ".join(_render_json(x) for x in obj) + "]"
        rows = [f"{inner}{_render_json(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(payload: dict, fmt: str, plain_lines) -> None:
    if fmt == "plain":
        for line in plain_lines:
            print(line)
    else:
        print(_render_json({"schema": SCHEMA, **payload}))


def _load_graph(args) -> tuple[graphs.Graph, str]:
    if args.builtin:
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
    if len(g.vertices) > MAX_KTHEORY_VERTICES:
        raise graphs.GraphError(
            f"ktheory takes graphs of at most {MAX_KTHEORY_VERTICES} "
            f"vertices; {label} has {len(g.vertices)}")
    k0, k1 = ktheory.k_groups(g)
    payload = {
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
    if value is None:
        return None
    # Fraction builds 10**exponent before anything checks s, so refuse an
    # exponent whose magnitude reaches Python's integer digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exponent = re.search(r"e[-+]?([\d_]*)\s*$", value, re.IGNORECASE)
    if limit and exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) >= limit:
            raise ValueError(f"--s spells a number of more than {limit} "
                             f"digits: {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"--s has a zero denominator: {value!r}") from None


def _cmd_algebra(args) -> int:
    if args.algebra_cmd == "nf":
        p = ncalgebra.presentation(args.algebra, s=_parse_s(args.s))
        x = p.parse(args.expr)
        nf = p.normal_form(x)
        payload = {
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
        "algebra": args.algebra,
        "automorphism": args.auto,
        "expr": args.expr,
        "fixed": fixed,
    }
    _emit(payload, args.format,
          [f"{args.expr} is {'fixed' if fixed else 'not fixed'} by {args.auto}"])
    return 0


def _check_bound(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise reps.RepresentationError(
            f"{flag} takes at most {bound}; got {value}")


def _cmd_rep(args) -> int:
    if args.rep_cmd in ("residuals", "spectrum"):
        _check_bound("--dim", args.dim, MAX_REP_DIM)
        rep = reps.build_rep(args.rep, args.q, args.dim, theta=args.theta)
    if args.rep_cmd == "residuals":
        if args.algebra and rep.presentation.name != args.algebra:
            raise reps.RepresentationError(
                f"representation {args.rep} acts on {rep.presentation.name}, "
                f"not {args.algebra}")
        report = reps.relation_residuals(rep)
        ok = report.ok(args.tol)
        payload = {
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
        report = reps.spectrum_check(rep, args.generator)
        ok = report.max_deviation <= args.tol
        payload = {
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
    _check_bound("--kmax", args.kmax, MAX_INDEPENDENCE_KMAX)
    _check_bound("--nmax", args.nmax, MAX_INDEPENDENCE_NMAX)
    _check_bound("--trials", args.trials, MAX_INDEPENDENCE_TRIALS)
    if 0 < args.q < MIN_INDEPENDENCE_Q:
        raise reps.RepresentationError(
            f"--q takes at least {MIN_INDEPENDENCE_Q}; got {args.q}")
    # (kmax + 1)(4 lmax + 3) monomials, counted before the family is built
    size = max(args.kmax + 1, 0) * max(4 * args.lmax + 3, 0)
    if size > MAX_INDEPENDENCE_MONOMIALS:
        raise reps.RepresentationError(
            f"rep independence takes families of at most "
            f"{MAX_INDEPENDENCE_MONOMIALS} monomials; --kmax {args.kmax} "
            f"--lmax {args.lmax} has {size}")
    fam = reps.basis_monomials(args.kmax, args.lmax)
    report = reps.independence_check(fam, q=args.q, n_max=args.nmax,
                                     trials=args.trials,
                                     rng=random.Random(args.seed))
    ok = report.ok(1e-8)
    payload = {
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
    _check_bound("--dim", args.dim, MAX_REP_DIM)
    cfg = acceptance.RunConfig(q=args.q, dim=args.dim, n_max=args.nmax,
                               seed=args.seed)
    results = acceptance.run_all(cfg)
    all_passed = all(r.passed for r in results)
    payload = {
        "config": {"q": args.q, "dim": args.dim, "n_max": args.nmax,
                   "seed": args.seed},
        "criteria": [
            {"id": r.ident, "title": r.title, "passed": r.passed,
             "expected_failure": r.ident in acceptance.EXPECTED_FAILURES,
             "detail": r.detail,
             **({"seconds": r.seconds, "budget_seconds": r.budget_seconds}
                if args.stats else {})}
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

    # the graph input and the representation options, each spelled once
    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("graphfile", nargs="?")
    graph_input.add_argument("--builtin", choices=graphs.BUILTIN_GRAPHS)
    add_format(graph_input)
    rep_input = argparse.ArgumentParser(add_help=False)
    rep_input.add_argument("--rep", required=True)
    rep_input.add_argument("--q", type=float, default=0.5)
    rep_input.add_argument("--dim", type=int, default=64)
    rep_input.add_argument("--theta", type=float, default=0.0)
    add_format(rep_input)

    pg = sub.add_parser("graph", help="inspect graphs")
    gsub = pg.add_subparsers(dest="graph_cmd", required=True)
    for name in ("validate", "ideals"):
        gsub.add_parser(name, parents=[graph_input])
    sub.add_parser("ktheory", parents=[graph_input],
                   help="K-groups of a graph C*-algebra")

    pa = sub.add_parser("algebra", help="exact rewriting operations")
    asub = pa.add_subparsers(dest="algebra_cmd", required=True)
    pnf = asub.add_parser("nf")
    pnf.add_argument("--algebra", required=True,
                     choices=ncalgebra.BUILTIN_PRESENTATIONS)
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
                     choices=ncalgebra.BUILTIN_PRESENTATIONS)
    pfx.add_argument("--auto", required=True, choices=("r1", "r2"))
    pfx.add_argument("--expr", required=True)
    pfx.add_argument("--s", default=None)
    add_format(pfx)

    pr = sub.add_parser("rep", help="truncated matrix representations")
    rsub = pr.add_subparsers(dest="rep_cmd", required=True)
    prr = rsub.add_parser("residuals", parents=[rep_input])
    prr.add_argument("--algebra", default=None)
    prr.add_argument("--tol", type=float, default=1e-10)
    prs = rsub.add_parser("spectrum", parents=[rep_input])
    prs.add_argument("--generator", required=True)
    prs.add_argument("--tol", type=float, default=1e-12)
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
    pp.add_argument("--stats", action="store_true",
                    help="add each criterion's seconds and budget_seconds "
                         "to the JSON output")
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
