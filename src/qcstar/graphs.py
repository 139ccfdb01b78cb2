"""Finite directed multigraphs and their gauge-invariant ideal data.

Graphs are immutable, with vertex order fixed by declaration order; that
order is what pins down the row and column conventions of the incidence
map used for K-theory.  The text format is line oriented:

    # comment
    vertex v
    vertex w
    edge e v v
    edge f v w

Sinks are allowed.  Multi-edges are allowed and distinguished by edge
name.  The builtin graphs G1-G3 are stored as such texts (builtin_graph).
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .ktheory import IntegerMatrix


class GraphError(ValueError):
    """Invalid graph construction or text input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class Edge(Record):
    name: str
    source: str
    range: str


class Graph(Record):
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphError(f"duplicate vertex {v!r}")
            seen.add(v)
        enames = set()
        for e in self.edges:
            if e.name in enames:
                raise GraphError(f"duplicate edge {e.name!r}")
            enames.add(e.name)
            if e.source not in seen:
                raise GraphError(f"edge {e.name!r} has undeclared source {e.source!r}")
            if e.range not in seen:
                raise GraphError(f"edge {e.name!r} has undeclared target {e.range!r}")


class VertexSet(Record):
    """An ordered subset of a graph's vertices."""

    graph: Graph
    names: tuple[str, ...]

    def __post_init__(self):
        order = {v: i for i, v in enumerate(self.graph.vertices)}
        for v in self.names:
            if v not in order:
                raise GraphError(f"vertex {v!r} not in graph")
        object.__setattr__(self, "names",
                           tuple(sorted(set(self.names), key=order.__getitem__)))

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def __le__(self, other: "VertexSet") -> bool:
        return set(self.names) <= set(other.names)

    def __str__(self):
        return "{" + ", ".join(self.names) + "}"


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format; errors carry line numbers."""
    vertices: list[str] = []
    edges: list[Edge] = []
    vertex_set: set[str] = set()
    edge_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "vertex":
            if len(fields) != 2:
                raise GraphError("expected: vertex <name>", lineno)
            name = fields[1]
            if name in vertex_set:
                raise GraphError(f"duplicate vertex {name!r}", lineno)
            vertex_set.add(name)
            vertices.append(name)
        elif kind == "edge":
            if len(fields) != 4:
                raise GraphError("expected: edge <name> <source> <target>", lineno)
            name, src, rng = fields[1:]
            if name in edge_names:
                raise GraphError(f"duplicate edge {name!r}", lineno)
            if src not in vertex_set:
                raise GraphError(f"undeclared vertex {src!r}", lineno)
            if rng not in vertex_set:
                raise GraphError(f"undeclared vertex {rng!r}", lineno)
            edge_names.add(name)
            edges.append(Edge(name, src, rng))
        else:
            raise GraphError(f"unknown directive {kind!r}", lineno)
    return Graph(tuple(vertices), tuple(edges))


# The three standard graphs, in parse_graph's format: a loop at v plus
# edges to two sinks (G1, quantum sphere), to one sink (G2, quantum disc)
# or a doubled edge to one sink (G3, quantum projective plane).
_GRAPHS = {
    "G1": "vertex v\nvertex w1\nvertex w2\n"
          "edge e v v\nedge f1 v w1\nedge f2 v w2\n",
    "G2": "vertex v\nvertex w\nedge e v v\nedge f v w\n",
    "G3": "vertex v\nvertex w\nedge e v v\nedge g1 v w\nedge g2 v w\n",
}
BUILTIN_GRAPHS = tuple(_GRAPHS)


def builtin_graph(name: str) -> Graph:
    """The named standard graph, one entry of _GRAPHS."""
    if name not in _GRAPHS:
        raise GraphError(f"unknown builtin graph {name!r}")
    return parse_graph(_GRAPHS[name])


def emitters(g: Graph) -> VertexSet:
    """Vertices that emit at least one edge, in graph order."""
    sources = {e.source for e in g.edges}
    return VertexSet(g, tuple(v for v in g.vertices if v in sources))


def build_ag(g: Graph) -> IntegerMatrix:
    """Incidence map of the graph as a matrix Z^emitters -> Z^vertices.

    Column v (an emitter) is (sum of ranges of edges out of v) minus v;
    entry (w, v) = #(edges v -> w) - [w == v].
    """
    cols = emitters(g).names
    counts = Counter((e.source, e.range) for e in g.edges)
    return IntegerMatrix(len(g.vertices), len(cols),
                         tuple(counts[v, w] - (w == v)
                               for w in g.vertices for v in cols))


# Cap on the size of an ideal family.  A vertex with a loop and edges to
# k sinks has 2^k + 1 hereditary saturated sets, and no enumeration is
# faster than its output, so past the cap hereditary_saturated_sets and
# lattices_isomorphic raise GraphError.  The cap is the family of a loop
# and 12 sinks: enumerating it takes 0.2 s, and matching it with itself
# 55 s (2 cores, Python 3.11.7); with 13 sinks the enumeration stops at
# the cap after about 0.2 s.
MAX_IDEAL_SETS = 2 ** 12 + 1


def hereditary_saturated_sets(g: Graph) -> tuple[VertexSet, ...]:
    """All hereditary saturated vertex sets, enumerated by closure.

    The family is closed under intersection, so every vertex set S has a
    closure: the smallest member containing S.  Each member H is reached
    from the empty set (itself a member) by adding one vertex of H at a
    time and closing again.  So closing H + {v} for every set H found and
    every v outside it visits the whole family, in O(#sets * V * (V + E)).

    Ordered by size then by vertex order, so the output is deterministic.
    Always contains the empty set and the full vertex set.  Raises
    GraphError as soon as more than MAX_IDEAL_SETS sets are found.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    succ = [set() for _ in g.vertices]   # distinct ranges of each vertex
    pred = [set() for _ in g.vertices]   # distinct sources into each vertex
    for e in g.edges:
        succ[index[e.source]].add(index[e.range])
        pred[index[e.range]].add(index[e.source])

    def closure(seed) -> frozenset[int]:
        # smallest hereditary saturated superset of seed, in O(V + E):
        # a vertex pulls in its ranges, and an emitter joins once its
        # last range outside the set has joined
        members = set()
        outside = [len(r) for r in succ]
        todo = list(seed)
        while todo:
            v = todo.pop()
            if v in members:
                continue
            members.add(v)
            todo.extend(succ[v])
            for u in pred[v]:
                outside[u] -= 1
                if not outside[u]:
                    todo.append(u)
        return frozenset(members)

    found = {frozenset()}
    todo = list(found)
    while todo:
        h = todo.pop()
        for v in range(len(g.vertices)):
            if v not in h:
                c = closure(h | {v})
                if c not in found:
                    found.add(c)
                    if len(found) > MAX_IDEAL_SETS:
                        raise GraphError(
                            "too many hereditary saturated sets: the cap "
                            f"is {MAX_IDEAL_SETS}")
                    todo.append(c)
    return tuple(VertexSet(g, tuple(g.vertices[i] for i in members))
                 for members in sorted((sorted(h) for h in found),
                                       key=lambda m: (len(m), m)))


def lattices_isomorphic(sets_a, sets_b) -> bool:
    """Poset isomorphism of two inclusion-ordered families.

    Each element's signature is (size of its down-set, size of its
    up-set); families whose signature multisets differ are rejected at
    once.  Otherwise a depth-first search extends a partial bijection one
    element of sets_a at a time, smallest first, pairing it only with an
    unused element of sets_b of equal signature whose inclusions, both
    ways, agree with every element already placed.  Families of more
    than MAX_IDEAL_SETS sets raise GraphError.
    """
    n = len(sets_a)
    if max(n, len(sets_b)) > MAX_IDEAL_SETS:
        raise GraphError(f"lattices of more than {MAX_IDEAL_SETS} sets "
                         "are not matched")
    if n != len(sets_b):
        return False
    rel_a = _inclusions(sorted(sets_a, key=len))
    rel_b = _inclusions(sets_b)
    sig_a, sig_b = _signatures(rel_a), _signatures(rel_b)
    if sorted(sig_a) != sorted(sig_b):
        return False
    image: list[int] = []   # image[i] pairs element i of a with one of b

    def fits(j):
        i = len(image)
        return (sig_b[j] == sig_a[i] and j not in image
                and all(rel_a[i][p] == rel_b[j][image[p]]
                        and rel_a[p][i] == rel_b[image[p]][j]
                        for p in range(i)))

    options = [iter(range(n))]   # untried candidates for each placed level
    while len(image) < n:
        j = next((j for j in options[-1] if fits(j)), None)
        if j is not None:
            image.append(j)
            options.append(iter(range(n)))
        elif image:
            options.pop()
            image.pop()
        else:
            return False
    return True


def _inclusions(sets) -> list[list[bool]]:
    members = [set(s.names) for s in sets]
    return [[x <= y for y in members] for x in members]


def _signatures(rel) -> list[tuple[int, int]]:
    """(down-set size, up-set size) of each element of a family."""
    return [(sum(row[i] for row in rel), sum(rel[i])) for i in range(len(rel))]
