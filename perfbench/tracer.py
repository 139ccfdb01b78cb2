"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper on its
module or class and ``remove`` puts the original back, so an untraced
round runs the unmodified program.  A span is (name, start, end,
parent): parent is the index of the enclosing span, -1 at top level.
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.

Wrappers record counts too (terms out of a normal form, bits in a Smith
form, ...), taken after the span has ended, so they cost wall time but
no span time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict


def _qlaurent_span(coeff) -> int:
    exps = [e for e, _ in coeff.items()]
    return exps[-1] - exps[0]


def _nf_counts(add, args, out):
    terms = out.terms()
    add("out_terms", len(terms))
    add("max_exponent_span",
        max((_qlaurent_span(c) for c in terms.values()), default=0), max)


def _snf_counts(add, args, out):
    add("max_entry_bits",
        max((abs(x).bit_length() for m in (out.u, out.s, out.v)
             for x in m.entries), default=0), max)


def _image_counts(add, args, out):
    if out is None:
        add("capped", 1)
    else:
        add("states", out)


def _evaluate_counts(add, args, out):
    x, rep = args[0], args[1]
    letters = sum(len(w) for w in x.terms())
    # one dense complex N x N product per letter: N^3 complex
    # multiply-adds of 8 real flops each; computed, not counted
    add("matmul_flops", 8 * rep.dim ** 3 * letters)


def _targets(qc):
    """(owner, attribute, span name, count hook) for every traced call."""
    nc, kt, gr, rp = qc.ncalgebra, qc.ktheory, qc.graphs, qc.representations
    return [
        (nc.AlgebraPresentation, "normal_form", "ncalgebra.normal_form", _nf_counts),
        (nc.GeneratorMap, "apply", "ncalgebra.GeneratorMap.apply", None),
        (nc, "is_fixed", "ncalgebra.is_fixed", None),
        (kt, "smith_normal_form", "ktheory.smith_normal_form", _snf_counts),
        (kt, "image_size_mod", "ktheory.image_size_mod", _image_counts),
        (kt, "torsion_order_by_minors", "ktheory.torsion_order_by_minors", None),
        (gr, "hereditary_saturated_sets", "graphs.hereditary_saturated_sets", None),
        (gr, "lattices_isomorphic", "graphs.lattices_isomorphic", None),
        (gr, "parse_graph", "graphs.parse_graph", None),
        (rp, "evaluate", "representations.evaluate", _evaluate_counts),
        (rp.ShiftForm, "element", "representations.ShiftForm.element", None),
        (rp.Representation, "shift_form",
         "representations.Representation.shift_form", None),
        (rp, "element_mismatch", "representations.element_mismatch", None),
        (rp, "independence_check", "representations.independence_check", None),
        (rp, "exact_action", "representations.exact_action", None),
        (rp, "relation_residuals", "representations.relation_residuals", None),
        (rp, "build_rep", "representations.build_rep", None),
        (rp, "compose_rep", "representations.compose_rep", None),
    ]


class Tracer:
    def __init__(self, qc):
        self._targets = _targets(qc)
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(dict)
        self._stack: list[int] = []

    def install(self) -> None:
        for owner, attr, name, hook in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def span(self, name: str, fn):
        """Run fn() as one span named name."""
        return self._wrap(fn, name, None)()

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def add(stat, value, combine=int.__add__):
            bucket = counts[name]
            bucket[stat] = combine(bucket[stat], value) if stat in bucket else value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(add, args, out)
            return out
        return traced

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def phase_stats(spans, counts) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, max_s (inclusive), s (inclusive), counts."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "max_s": 0.0, "s": 0.0})
    for (name, start, end, _), child in zip(spans, covered):
        st = out[name]
        st["calls"] += 1
        st["self_s"] += end - start - child
        st["s"] += end - start
        st["max_s"] = max(st["max_s"], end - start)
    for name, extra in counts.items():
        out[name].update(extra)
    return dict(out)


def median_stats(phases: list[dict]) -> dict[str, dict[str, float]]:
    """Median over rounds of every statistic, a name missing counting 0."""
    names = {n for ph in phases for n in ph}
    out = {}
    for name in names:
        stats = {s for ph in phases for s in ph.get(name, {})}
        out[name] = {s: statistics.median(ph.get(name, {}).get(s, 0)
                                          for ph in phases) for s in stats}
    return out


def write_spans(path, phases) -> None:
    """phases: list of (label, spans); one JSON document per run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"format": "name, start_s, end_s, parent_index",
                   "phases": [{"phase": label, "spans": spans}
                              for label, spans in phases]}, fh)
