import itertools
import random
import time

import pytest

from qcstar.graphs import (
    BUILTIN_GRAPHS,
    MAX_IDEAL_SETS,
    Edge,
    Graph,
    GraphError,
    VertexSet,
    build_ag,
    builtin_graph,
    emitters,
    hereditary_saturated_sets,
    lattices_isomorphic,
    parse_graph,
)

TWO_SINK = """\
# one loop, two sinks
vertex v
vertex w1
vertex w2
edge e v v
edge f1 v w1
edge f2 v w2
"""


def test_parse_basic():
    g = parse_graph(TWO_SINK)
    assert g.vertices == ("v", "w1", "w2")
    assert [e.name for e in g.edges] == ["e", "f1", "f2"]
    assert g.edges[0] == Edge("e", "v", "v")
    assert out_edges(g, "w1") == ()
    m = build_ag(g)
    assert m.entry(vertex_index(g, "w1"), 0) == 1   # one edge v -> w1
    assert m.cols == 1   # w1 emits nothing, so it has no column


def test_parse_blank_lines_and_comments():
    g = parse_graph("\n\nvertex a  # trailing comment\n\n# note\nedge x a a\n")
    assert g.vertices == ("a",)
    assert g.edges == (Edge("x", "a", "a"),)


def render(g):
    """Canonical text form; parse_graph(render(g)) reproduces g."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines.extend(f"edge {e.name} {e.source} {e.range}" for e in g.edges)
    return "\n".join(lines) + "\n"


def test_render_round_trip():
    g = parse_graph(TWO_SINK)
    text = render(g)
    assert text.endswith("\n")
    assert parse_graph(text) == g
    # canonical output is a fixed point
    assert render(parse_graph(text)) == text


@pytest.mark.parametrize("bad,fragment", [
    ("vertex\n", "line 1"),
    ("vertex a\nvertex a\n", "line 2"),
    ("edge e u u\n", "line 1"),
    ("vertex a\nedge e a b\n", "line 2"),
    ("vertex a\nedge e a a\nedge e a a\n", "line 3"),
    ("flip a\n", "line 1"),
    ("vertex a b\n", "line 1"),
])
def test_parse_errors_carry_line_numbers(bad, fragment):
    with pytest.raises(GraphError) as info:
        parse_graph(bad)
    assert fragment in str(info.value)


def test_builtin_names():
    assert set(BUILTIN_GRAPHS) == {"G1", "G2", "G3"}
    with pytest.raises(GraphError):
        builtin_graph("G4")


# each builtin graph written out as a Graph
BUILTIN_LITERALS = {
    "G1": Graph(("v", "w1", "w2"),
                (Edge("e", "v", "v"),
                 Edge("f1", "v", "w1"),
                 Edge("f2", "v", "w2"))),
    "G2": Graph(("v", "w"),
                (Edge("e", "v", "v"), Edge("f", "v", "w"))),
    "G3": Graph(("v", "w"),
                (Edge("e", "v", "v"),
                 Edge("g1", "v", "w"),
                 Edge("g2", "v", "w"))),
}


def test_builtin_graphs_equal_their_literals():
    assert BUILTIN_GRAPHS == tuple(BUILTIN_LITERALS)
    for name, g in BUILTIN_LITERALS.items():
        assert builtin_graph(name) == g


def test_builtin_shapes():
    g1 = builtin_graph("G1")
    assert g1.vertices == ("v", "w1", "w2")
    assert len(g1.edges) == 3
    g2 = builtin_graph("G2")
    assert g2.vertices == ("v", "w")
    assert len(g2.edges) == 2
    g3 = builtin_graph("G3")
    assert g3.vertices == ("v", "w")
    assert build_ag(g3).entry(vertex_index(g3, "w"), 0) == 2


def test_vertex_set_ordering_and_containment():
    g = builtin_graph("G1")
    s = VertexSet(g, ("w2", "w1", "w2"))
    assert s.names == ("w1", "w2")
    assert "w1" in s and "v" not in s
    assert len(s) == 2
    assert VertexSet(g, ("w1",)) <= s
    assert not (s <= VertexSet(g, ("w1",)))
    assert str(s) == "{w1, w2}"


def test_emitters():
    assert emitters(builtin_graph("G1")).names == ("v",)
    assert emitters(builtin_graph("G2")).names == ("v",)


def test_build_ag_entries():
    # columns indexed by emitters, rows by all vertices
    m1 = build_ag(builtin_graph("G1"))
    assert (m1.rows, m1.cols) == (3, 1)
    assert m1.column(0) == (0, 1, 1)
    m2 = build_ag(builtin_graph("G2"))
    assert m2.column(0) == (0, 1)
    m3 = build_ag(builtin_graph("G3"))
    assert m3.column(0) == (0, 2)


def test_build_ag_multi_emitter():
    g = parse_graph(
        "vertex a\nvertex b\n"
        "edge e1 a b\nedge e2 b a\nedge e3 b a\n")
    m = build_ag(g)
    assert (m.rows, m.cols) == (2, 2)
    # entry (w, v) counts edges v -> w, minus 1 on the diagonal
    assert m.to_rows() == [[-1, 2], [1, -1]]


def test_hereditary_and_saturated_predicates():
    g = builtin_graph("G1")
    empty = VertexSet(g, ())
    sinks = VertexSet(g, ("w1", "w2"))
    just_v = VertexSet(g, ("v",))
    assert is_hereditary(g, sinks)
    assert is_saturated(g, sinks)
    # v emits into {w1, w2}, so {v} is not hereditary
    assert not is_hereditary(g, just_v)
    assert is_hereditary(g, empty) and is_saturated(g, empty)


def test_saturation_forces_emitters_in():
    # u emits only into the candidate set, so saturation pulls u in
    g = parse_graph("vertex u\nvertex s\nedge e u s\n")
    assert not is_saturated(g, VertexSet(g, ("s",)))
    assert is_saturated(g, VertexSet(g, ("u", "s")))
    sets = hereditary_saturated_sets(g)
    assert [s.names for s in sets] == [(), ("u", "s")]


def test_hereditary_saturated_counts():
    assert len(hereditary_saturated_sets(builtin_graph("G1"))) == 5
    assert len(hereditary_saturated_sets(builtin_graph("G2"))) == 3
    assert len(hereditary_saturated_sets(builtin_graph("G3"))) == 3


def test_g1_lattice_members():
    sets = hereditary_saturated_sets(builtin_graph("G1"))
    assert [s.names for s in sets] == [
        (), ("w1",), ("w2",), ("w1", "w2"), ("v", "w1", "w2")]


def test_lattice_isomorphism():
    l1 = hereditary_saturated_sets(builtin_graph("G1"))
    l2 = hereditary_saturated_sets(builtin_graph("G2"))
    l3 = hereditary_saturated_sets(builtin_graph("G3"))
    assert lattices_isomorphic(l2, l3)
    assert not lattices_isomorphic(l1, l2)
    assert lattices_isomorphic(l1, l1)


def loop_and_sinks(k):
    """A loop at v and one edge to each of k sinks: 2^k + 1 ideals."""
    return parse_graph("vertex v\nedge e v v\n" + "".join(
        f"vertex w{i}\nedge f{i} v w{i}\n" for i in range(k)))


def test_ideal_families_past_the_cap_are_refused():
    # the smallest loop-plus-sinks graph past the cap fails fast; the one
    # below it is enumerated in full
    k = (MAX_IDEAL_SETS - 1).bit_length()
    assert 2 ** (k - 1) + 1 <= MAX_IDEAL_SETS < 2 ** k + 1
    below = hereditary_saturated_sets(loop_and_sinks(k - 1))
    assert len(below) == 2 ** (k - 1) + 1
    start = time.perf_counter()
    with pytest.raises(GraphError, match=f"the cap is {MAX_IDEAL_SETS}"):
        hereditary_saturated_sets(loop_and_sinks(k))
    assert time.perf_counter() - start < 2
    # matching refuses a family past the cap before comparing anything
    past = below * 3
    assert len(past) > MAX_IDEAL_SETS
    for a, b in ((past, below), (below, past), (past, past)):
        with pytest.raises(GraphError, match=f"more than {MAX_IDEAL_SETS}"):
            lattices_isomorphic(a, b)


def test_graph_validation_rejects_bad_construction():
    with pytest.raises(GraphError):
        Graph(("a", "a"), ())
    with pytest.raises(GraphError):
        Graph(("a",), (Edge("e", "a", "missing"),))


# -- brute-force references ----------------------------------------------------

def vertex_index(g, name):
    return g.vertices.index(name)


def out_edges(g, vertex):
    return tuple(e for e in g.edges if e.source == vertex)


def is_hereditary(g, subset):
    """Every edge with source in the subset has its range in the subset."""
    names = set(subset.names if isinstance(subset, VertexSet) else subset)
    return all(e.range in names for e in g.edges if e.source in names)


def is_saturated(g, subset):
    """Every emitter whose edges all land in the subset lies in the subset."""
    names = set(subset.names if isinstance(subset, VertexSet) else subset)
    for v in g.vertices:
        out = out_edges(g, v)
        if out and v not in names and all(e.range in names for e in out):
            return False
    return True


def reference_hereditary_saturated_sets(g):
    """Every one of the 2^n vertex subsets tested by definition."""
    out = []
    n = len(g.vertices)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            names = tuple(g.vertices[i] for i in combo)
            if is_hereditary(g, names) and is_saturated(g, names):
                out.append(VertexSet(g, names))
    return tuple(out)


def reference_lattices_isomorphic(sets_a, sets_b):
    """Every one of the n! bijections tried."""
    n = len(sets_a)
    if n != len(sets_b):
        return False
    rel_a = [[set(x.names) <= set(y.names) for y in sets_a] for x in sets_a]
    rel_b = [[set(x.names) <= set(y.names) for y in sets_b] for x in sets_b]
    return any(all(rel_a[i][j] == rel_b[perm[i]][perm[j]]
                   for i in range(n) for j in range(n))
               for perm in itertools.permutations(range(n)))


def random_multigraph(rng, n):
    """Vertex names out of index order; about one sink in four, loops and
    parallel edges."""
    names = [f"x{i}" for i in rng.sample(range(n), n)]
    edges = []
    for v in names:
        if rng.random() < 0.25:
            continue
        for _ in range(rng.randint(1, 4)):
            edges.append(Edge(f"e{len(edges)}", v, rng.choice(names)))
    return Graph(tuple(names), tuple(edges))


def odd_sphere(n, tag="v"):
    """L_{2n-1}: n vertices, a loop at each, one edge i -> j for i < j."""
    vs = tuple(f"{tag}{i}" for i in range(n))
    edges = [Edge(f"{tag}l{i}", v, v) for i, v in enumerate(vs)]
    edges += [Edge(f"{tag}e{i}_{j}", vs[i], vs[j])
              for i in range(n) for j in range(i + 1, n)]
    return Graph(vs, tuple(edges))


def family(g, *members):
    return tuple(VertexSet(g, tuple(m)) for m in members)


# -- closure enumeration and backtracking against the references -------------

def test_closure_enumeration_matches_subset_reference():
    rng = random.Random(2002)
    shapes = set()
    for _ in range(240):
        g = random_multigraph(rng, rng.randint(1, 10))
        got = hereditary_saturated_sets(g)
        assert [s.names for s in got] == \
            [s.names for s in reference_hereditary_saturated_sets(g)]
        pairs = [(e.source, e.range) for e in g.edges]
        shapes.add((len(emitters(g)) < len(g.vertices),
                    any(a == b for a, b in pairs),
                    len(set(pairs)) < len(pairs)))
    # sinks, loops and parallel edges all occurred, together and apart
    assert len(shapes) >= 6


def test_backtracking_matches_permutation_reference():
    rng = random.Random(232)
    families = []
    while len(families) < 60:
        sets = hereditary_saturated_sets(random_multigraph(rng, rng.randint(2, 7)))
        if 3 <= len(sets) <= 7:
            families.append(sets)
    for a, b in itertools.combinations(families[:30], 2):
        assert lattices_isomorphic(a, b) == reference_lattices_isomorphic(a, b)
    for a in families:
        shuffled = rng.sample(a, len(a))
        assert lattices_isomorphic(a, shuffled)
        assert lattices_isomorphic(shuffled, a)


def test_equal_signatures_do_not_decide_isomorphism():
    # two 8-element lattices whose (down-set, up-set) sizes agree element
    # for element, but which are not isomorphic: the search must decide
    g = Graph(tuple("abcde"), ())
    a = family(g, "", "d", "cd", "e", "ae", "be", "ade", "abcde")
    b = family(g, "", "b", "ab", "c", "abc", "cd", "ce", "abcde")

    def signatures(sets):
        return sorted((sum(x <= s for x in sets), sum(s <= x for x in sets))
                      for s in sets)
    assert signatures(a) == signatures(b)
    assert not reference_lattices_isomorphic(a, b)
    assert not lattices_isomorphic(a, b)
    assert not lattices_isomorphic(b, a)
    assert lattices_isomorphic(b, tuple(reversed(b)))


def test_isomorphism_found_after_a_dead_end():
    # a and c have equal signatures, but only one way of pairing them
    # extends to the whole lattice: a matcher that never backtracks fails
    g = Graph(tuple("abcde"), ())
    a = family(g, "", "a", "c", "ac", "cd", "be", "abe", "abcde")
    b = family(g, "ac", "c", "a", "abe", "", "cd", "be", "abcde")
    assert reference_lattices_isomorphic(a, b)
    assert lattices_isomorphic(a, b)
    assert lattices_isomorphic(b, a)


def test_lattices_isomorphic_small_cases():
    g = builtin_graph("G2")
    assert lattices_isomorphic((), ())
    assert not lattices_isomorphic((), family(g, ""))
    assert lattices_isomorphic(family(g, "w", "v"), family(g, "v", "w"))
    assert not lattices_isomorphic(family(g, "", "w"), family(g, "v", "w"))


# -- scale -------------------------------------------------------------------

def test_odd_sphere_l59_chain():
    g = odd_sphere(30)
    sets = hereditary_saturated_sets(g)
    # the chain {v_k, ..., v_29}, k = 30 down to 0
    assert [s.names for s in sets] == [g.vertices[k:] for k in range(30, -1, -1)]
    assert lattices_isomorphic(sets, tuple(reversed(sets)))


def test_loop_emitting_to_twelve_sinks():
    sinks = tuple(f"w{i}" for i in range(12))
    g = Graph(("v",) + sinks,
              (Edge("e", "v", "v"),)
              + tuple(Edge(f"f{i}", "v", w) for i, w in enumerate(sinks)))
    sets = hereditary_saturated_sets(g)
    # every set of sinks, then everything
    assert len(sets) == 2 ** 12 + 1
    assert sets[-1].names == g.vertices
    assert all("v" not in s for s in sets[:-1])


def test_nine_element_chain_is_not_the_three_by_three_grid():
    chain = hereditary_saturated_sets(odd_sphere(8))
    grid_graph = odd_sphere(2, "a")
    grid_graph = Graph(grid_graph.vertices + odd_sphere(2, "b").vertices,
                       grid_graph.edges + odd_sphere(2, "b").edges)
    grid = hereditary_saturated_sets(grid_graph)
    assert len(chain) == len(grid) == 9
    assert not lattices_isomorphic(chain, grid)
    assert not lattices_isomorphic(grid, chain)
    assert lattices_isomorphic(grid, tuple(reversed(grid)))
