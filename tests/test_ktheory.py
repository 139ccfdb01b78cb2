import math
import random

import numpy as np
import pytest

from qcstar import acceptance, ktheory
from qcstar.coefficients import gauss_jordan
from qcstar.graphs import Edge, Graph, build_ag, builtin_graph, parse_graph
from qcstar.ktheory import (
    AbelianGroup,
    IntegerMatrix,
    _cokernel_and_kernel,
    image_size_mod,
    k_groups,
    rational_rank,
    smith_normal_form,
    torsion_order_by_cosets,
    torsion_order_by_minors,
)


def identity(n):
    return IntegerMatrix(n, n, tuple(int(i == j)
                                     for i in range(n) for j in range(n)))


def zeros(rows, cols):
    return IntegerMatrix(rows, cols, (0,) * (rows * cols))


def transpose(m):
    return IntegerMatrix(m.cols, m.rows, tuple(m.entry(i, j)
                                               for j in range(m.cols)
                                               for i in range(m.rows)))


def is_trivial(group):
    return group.free_rank == 0 and not group.torsion


def torsion_order(group):
    return math.prod(group.torsion)


def snf_rank(res):
    return len(res.invariant_factors())


def test_matrix_basics():
    m = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    assert m.row(0) == (1, 2)
    assert m.column(1) == (2, 4)
    assert transpose(m).to_rows() == [[1, 3], [2, 4]]
    assert m.determinant() == -2
    assert not m.is_unimodular()
    assert identity(3).is_unimodular()
    prod = m.multiply(identity(2))
    assert prod == m


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntegerMatrix.from_rows([[1.5]])
    a = IntegerMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a.multiply(a)


def test_determinant_bareiss_large_entries():
    # triangular with big pivots: det is the diagonal product, exactly
    m = IntegerMatrix.from_rows([
        [10**12, 7, 3],
        [0, 10**9, 1],
        [0, 0, 10**6],
    ])
    assert m.determinant() == 10**27


def test_abelian_group_str():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(1, (2,))) == "Z + Z_2"
    assert str(AbelianGroup(0, (2, 6))) == "Z_2 + Z_6"
    assert is_trivial(AbelianGroup(0, ()))
    assert torsion_order(AbelianGroup(0, (2, 6))) == 12


def test_abelian_group_rejects_bad_torsion():
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))  # no divisibility chain


def check_snf(m):
    res = smith_normal_form(m)
    assert res.u.multiply(m).multiply(res.v) == res.s
    assert res.u.is_unimodular()
    assert res.v.is_unimodular()
    d = res.diagonal()
    assert all(x >= 0 for x in d)
    nonzero = [x for x in d if x]
    assert list(d[:len(nonzero)]) == nonzero  # zeros trail
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return res


def test_snf_known_columns():
    # diagonal() has min(rows, cols) entries
    s = check_snf(IntegerMatrix.from_rows([[0], [1], [1]])).diagonal()
    assert s == (1,)
    s = check_snf(IntegerMatrix.from_rows([[0], [2]])).diagonal()
    assert s == (2,)


def test_snf_zero_and_identity():
    z = zeros(2, 2)
    res = check_snf(z)
    assert res.s == z
    assert res.u == identity(2)
    assert res.v == identity(2)
    res = check_snf(identity(3))
    assert res.invariant_factors() == (1, 1, 1)


def test_snf_divisibility_repair():
    # diag(2, 3) needs the off-chain fix; invariant factors are 1, 6
    m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    res = check_snf(m)
    assert res.invariant_factors() == (1, 6)


def test_snf_random_property_suite():
    rng = random.Random(20240817)
    for _ in range(250):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        res = check_snf(m)
        assert snf_rank(res) == rational_rank(m)
        claimed = 1
        for f in res.invariant_factors():
            claimed *= f
        assert torsion_order_by_minors(m) == claimed
        by_cosets = torsion_order_by_cosets(m, claimed)
        if by_cosets is not None:
            assert by_cosets == claimed


# -- Smith form: the reference with the transforms kept apart ------------------

def _swap_rows(a, u, i, j):
    if i != j:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    if i != j:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]


def _row_sub(a, u, i, t, f):
    if f:
        at = a[t]
        ai = a[i]
        for j in range(len(ai)):
            ai[j] -= f * at[j]
        ut = u[t]
        ui = u[i]
        for j in range(len(ui)):
            ui[j] -= f * ut[j]


def _col_sub(a, v, j, t, f):
    if f:
        for row in a:
            row[j] -= f * row[t]
        for row in v:
            row[j] -= f * row[t]


def _select_pivot(a, t, rows, cols):
    best = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x:
                key = (abs(x), i, j)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2]


def reference_smith_normal_form(m):
    """The same algorithm with M, U and V in three lists, each step
    applied by a paired helper to the matrix and to U or V."""
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = identity(rows).to_rows()
    v = identity(cols).to_rows()

    t = 0
    limit = min(rows, cols)
    while t < limit:
        if _select_pivot(a, t, rows, cols) is None:
            break
        while True:
            # clear row and column t, re-picking ever-smaller pivots
            while True:
                pi, pj = _select_pivot(a, t, rows, cols)
                _swap_rows(a, u, t, pi)
                _swap_cols(a, v, t, pj)
                clean = True
                for i in range(t + 1, rows):
                    if a[i][t]:
                        _row_sub(a, u, i, t, a[i][t] // a[t][t])
                        if a[i][t]:
                            clean = False
                for j in range(t + 1, cols):
                    if a[t][j]:
                        _col_sub(a, v, j, t, a[t][j] // a[t][t])
                        if a[t][j]:
                            clean = False
                if clean:
                    break
            # divisibility: the pivot must divide the remaining submatrix
            d = a[t][t]
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t and redo the clearing
            _row_sub(a, u, t, offender, -1)
        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1

    return ktheory.SNFResult(
        IntegerMatrix.from_rows(u) if rows else IntegerMatrix(0, 0, ()),
        IntegerMatrix.from_rows(a) if rows else IntegerMatrix(0, cols, ()),
        IntegerMatrix.from_rows(v) if cols else IntegerMatrix(0, 0, ()))


def groups_from(factors, m):
    """Cokernel and kernel of m from its nonzero invariant factors."""
    return (AbelianGroup(m.rows - len(factors),
                         tuple(d for d in factors if d > 1)),
            AbelianGroup(m.cols - len(factors)))


def assert_matches_reference(m):
    got, want = smith_normal_form(m), reference_smith_normal_form(m)
    # IntegerMatrix equality compares the shapes as well as the entries
    assert (got.u, got.s, got.v) == (want.u, want.s, want.v), m
    # the groups come from eliminations of m alone, without U and V
    assert _cokernel_and_kernel(m) == groups_from(want.invariant_factors(),
                                                  m), m
    return want


def test_snf_matches_reference_on_seeded_matrices():
    rng = random.Random(12)
    for _ in range(1500):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        bound = rng.choice([1, 4, 40])
        m = IntegerMatrix(rows, cols, tuple(
            0 if rng.random() < 0.3 else rng.randint(-bound, bound)
            for _ in range(rows * cols)))
        assert_matches_reference(m)
    # diagonals off the divisibility chain, which only the fold repairs
    for _ in range(200):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        diagonal = [rng.choice([-1, 1]) * rng.randint(2, 12)
                    for _ in range(min(rows, cols))]
        assert_matches_reference(IntegerMatrix(rows, cols, tuple(
            diagonal[i] if i == j else 0
            for i in range(rows) for j in range(cols))))
    for m in (IntegerMatrix(0, 5, ()), IntegerMatrix(4, 0, ()),
              IntegerMatrix(0, 0, ()), zeros(3, 2),
              IntegerMatrix.from_rows([[2, 0], [0, 3]]),
              IntegerMatrix.from_rows([[-4, 0, 0], [0, 6, 0], [0, 0, 10]])):
        assert_matches_reference(m)


def random_multigraph(rng, n):
    """One sink in ten; otherwise each target with probability 0.2,
    joined by one to three parallel edges."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for v in names:
        if rng.random() < 0.1:
            continue
        for w in names:
            if rng.random() < 0.2:
                for _ in range(rng.randint(1, 3)):
                    edges.append(Edge(f"e{len(edges)}", v, w))
    return Graph(tuple(names), tuple(edges))


def integer_groups(m):
    """Cokernel and kernel of m read off the integer elimination of m
    alone, without a modulus: the route the K-groups took before."""
    w = m.to_rows()
    ktheory._eliminate(w, m.rows, m.cols)
    return groups_from([w[t][t] for t in range(min(m.rows, m.cols)) if w[t][t]],
                       m)


def test_snf_matches_reference_on_graph_matrices():
    rng = random.Random(40)
    for n in (1, 2, 3, 5, 8, 13, 21, 27, 34, 40, 40, 47, 53, 60):
        g = random_multigraph(rng, n)
        a = build_ag(g)
        want = assert_matches_reference(a).invariant_factors()
        assert k_groups(g) == groups_from(want, a)
    # past 60 vertices the transforms take seconds; the integer
    # elimination of A_G alone still finishes in well under one
    for n in (80, 100):
        g = random_multigraph(rng, n)
        assert k_groups(g) == integer_groups(build_ag(g))


def random_unimodular(rng, n):
    """A product of 3n seeded elementary row operations on I_n."""
    u = identity(n).to_rows()
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-3, 3)
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    return IntegerMatrix(n, n, tuple(x for row in u for x in row))


def test_modular_groups_match_reference_on_seeded_matrices():
    rng = random.Random(16)
    # planted invariant factors, some past 2^64: U D V with D diagonal in
    # a divisibility chain and U, V random unimodular
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        steps = [rng.choice([1, 1, 2, 3, 5, 6, 2 ** 65, 3 ** 41 + 2])
                 for _ in range(rng.randint(0, min(rows, cols)))]
        chain = [math.prod(steps[:k + 1]) for k in range(len(steps))]
        d = IntegerMatrix(rows, cols, tuple(
            chain[i] if i == j and i < len(chain) else 0
            for i in range(rows) for j in range(cols)))
        m = random_unimodular(rng, rows).multiply(d).multiply(
            random_unimodular(rng, cols))
        want = assert_matches_reference(m)
        assert want.invariant_factors() == tuple(chain), m
    # square nonsingular: the last Bareiss step holds the determinant alone
    for _ in range(150):
        n = rng.randint(1, 6)
        while True:
            m = IntegerMatrix(n, n, tuple(
                rng.randint(-12, 12) for _ in range(n * n)))
            if m.determinant():
                break
        assert_matches_reference(m)
    # zero columns, rank-deficient products and empty shapes
    for _ in range(150):
        rows, cols, inner = (rng.randint(1, 6), rng.randint(1, 6),
                             rng.randint(1, 3))
        left = IntegerMatrix(rows, inner, tuple(
            rng.randint(-6, 6) for _ in range(rows * inner)))
        right = IntegerMatrix(inner, cols, tuple(
            0 if j % 3 == 0 else rng.randint(-6, 6)
            for _ in range(inner) for j in range(cols)))
        m = left.multiply(right)
        assert rational_rank(m) <= inner
        assert_matches_reference(m)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 2), (4, 1)):
        assert_matches_reference(zeros(rows, cols))


def rank_mod(m, p):
    """Rank of m over Z/p, p prime, by row reduction."""
    rows = [[x % p for x in m.row(i)] for i in range(m.rows)]
    rank = 0
    for j in range(m.cols):
        at = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        top = rows[rank]
        inv = pow(top[j], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                f = rows[i][j] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def test_k_groups_of_a_200_vertex_graph_against_ranks():
    # no reference finishes at this size: the free ranks must follow from
    # the rank over Q, and the number of torsion factors divisible by p
    # from the rank drop modulo p
    g = random_multigraph(random.Random(200), 200)
    a = build_ag(g)
    k0, k1 = k_groups(g)
    rank = rational_rank(a)
    assert (k0.free_rank, k1.free_rank) == (a.rows - rank, a.cols - rank)
    for p in (2, 3, 5, 7):
        assert sum(d % p == 0 for d in k0.torsion) == rank - rank_mod(a, p), p


def test_torsion_oracle_known():
    m = IntegerMatrix.from_rows([[2, 0], [0, 4]])
    assert torsion_order_by_minors(m) == 8
    assert torsion_order_by_cosets(m, 8) == 8
    # a wrong claim is refuted, not confirmed
    assert torsion_order_by_cosets(m, 4) != 4


def test_image_size_mod_state_cap_boundary():
    # Z/10 spanned by 1 and (Z/5)^2 by the unit vectors: a span of exactly
    # state_cap states is counted, one state more is refused
    cyclic = IntegerMatrix.from_rows([[1]])
    assert image_size_mod(cyclic, 10, state_cap=10) == 10
    assert image_size_mod(cyclic, 10, state_cap=9) is None
    square = identity(2)
    assert image_size_mod(square, 5, state_cap=25) == 25
    assert image_size_mod(square, 5, state_cap=24) is None
    # 8192^5 > 2^63, so the keys are exact Python ints; the span is Z/2 x Z/4
    wide = IntegerMatrix.from_rows([[4096, 0], [0, 0], [0, 0], [0, 2048],
                                    [0, 6144]])
    assert image_size_mod(wide, 8192, state_cap=8) == 8
    assert image_size_mod(wide, 8192, state_cap=7) is None


# -- coset oracle: the breadth-first reference ---------------------------------

def reference_image_size_mod(m, modulus, state_cap=30000):
    """Breadth-first enumeration of the column span mod modulus.

    Every state is a mixed-radix key; each generator is added to the whole
    frontier at once, and new keys are found by a binary search in the
    sorted keys already seen.  None once the span passes state_cap.
    """
    dtype = np.int64 if modulus ** m.rows < 2 ** 63 else object
    powers = np.array([modulus ** i for i in range(m.rows)], dtype=dtype)
    gens = np.array([[x % modulus for x in m.column(j)]
                     for j in range(m.cols)], dtype=dtype).reshape(m.cols, m.rows)
    gens = gens[(gens != 0).any(axis=1)]
    seen = np.zeros(1, dtype=dtype)
    frontier = seen
    while frontier.size:
        digits = frontier[:, None] // powers % modulus
        children = np.sort(((digits[None, :, :] + gens[:, None, :]) % modulus
                            * powers).sum(axis=2), axis=None)
        children = children[np.diff(children, prepend=-1) != 0]
        at = np.searchsorted(seen, children)
        fresh = seen[np.minimum(at, seen.size - 1)] != children
        if seen.size + np.count_nonzero(fresh) > state_cap:
            return None
        frontier = children[fresh]
        seen = np.insert(seen, at[fresh], frontier)
    return int(seen.size)


def criterion_6_matrices(seed, count=1000):
    """The matrices criterion 6 draws at this seed, in its order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        out.append(IntegerMatrix(rows, cols, tuple(
            rng.randint(-4, 4) for _ in range(rows * cols))))
    return out


def test_criterion_6_matrices_are_criterion_6s_draw():
    # criterion 6 reports "literal coset enumeration on 942" at seed 0;
    # if its draw changes, this copy no longer checks its matrices
    completed = sum(
        torsion_order_by_cosets(m, torsion_order(_cokernel_and_kernel(m)[0]))
        is not None
        for m in criterion_6_matrices(0))
    assert completed == 942


CAPS = (30000, 1000, 16)


@pytest.mark.parametrize("seed", [0, 1])
def test_image_size_mod_matches_reference_on_criterion_6(seed):
    # the moduli criterion 6 enumerates at: twice the SNF torsion order
    for m in criterion_6_matrices(seed):
        modulus = 2 * max(torsion_order(_cokernel_and_kernel(m)[0]), 1)
        for cap in CAPS:
            assert (image_size_mod(m, modulus, cap)
                    == reference_image_size_mod(m, modulus, cap)), (m, cap)


def test_image_size_mod_matches_reference_on_wide_moduli():
    # moduli to 1e13 mostly put modulus^rows past 2^63: exact Python-int
    # keys.  Entries are multiples of modulus / order, so each column has
    # order dividing `order` and spans both complete and pass the caps.
    rng = random.Random(8)
    outcomes = set()
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        order = rng.choice([2, 3, 12, 60, 5000])
        step = rng.randint(10 ** 9, 10 ** 13 // order)
        modulus = order * step
        m = IntegerMatrix(rows, cols, tuple(
            rng.randint(-6, 6) * step for _ in range(rows * cols)))
        for cap in CAPS:
            got = image_size_mod(m, modulus, cap)
            assert got == reference_image_size_mod(m, modulus, cap), (m, modulus, cap)
            outcomes.add((cap, got is None, modulus ** rows >= 2 ** 63))
    assert {(30000, True, True), (30000, False, True)} <= outcomes


def test_image_size_mod_multiples_past_int64():
    # modulus^rows fits in int64 but 4 * g does not: g = 3/4 of the
    # modulus has order 4, which wrapped products would miss
    modulus = 3 * 2 ** 60
    m = IntegerMatrix.from_rows([[3 * modulus // 4]])
    assert image_size_mod(m, modulus) == 4
    assert reference_image_size_mod(m, modulus) == 4


def test_image_size_mod_refuses_far_past_the_cap():
    # spans of 10^12 and 10^24 states: refused from the index of the
    # first cyclic extension, before any state is built
    assert image_size_mod(identity(1), 10 ** 12) is None
    assert image_size_mod(identity(4), 10 ** 6) is None


def test_image_size_mod_trivial_span_against_caps_below_one():
    # the span always holds 0: one state, refused only by a cap below one
    for m in (zeros(2, 3), IntegerMatrix(2, 0, ()),
              IntegerMatrix.from_rows([[7], [14]])):
        assert image_size_mod(m, 7, state_cap=1) == 1
        assert image_size_mod(m, 7, state_cap=0) is None
        assert reference_image_size_mod(m, 7, state_cap=0) is None
    assert image_size_mod(identity(1), 7, state_cap=0) is None


def test_coset_oracle_refutes_planted_over_claims():
    # mod 2 * 2c every invariant factor divides the modulus, so the
    # enumeration reads the true order c and never confirms 2c
    refuted = 0
    for seed in (0, 1):
        for m in criterion_6_matrices(seed):
            claimed = torsion_order(_cokernel_and_kernel(m)[0])
            by_cosets = torsion_order_by_cosets(m, 2 * claimed)
            if by_cosets is not None:
                assert by_cosets == claimed != 2 * claimed, m
                refuted += 1
    assert refuted > 1000


def test_coset_oracle_cannot_see_primes_absent_from_the_claim():
    # the modulus comes from the claim: mod 2, a torsion of Z_3 is
    # invisible, so the under-claim 1 is confirmed.  The minor-gcd oracle
    # is what refutes it in criterion 6.
    m = IntegerMatrix.from_rows([[-3]])
    assert torsion_order_by_cosets(m, 1) == 1
    assert torsion_order_by_minors(m) == 3


def test_cokernel_and_kernel():
    coker, ker = _cokernel_and_kernel(IntegerMatrix.from_rows([[0], [2]]))
    assert coker == AbelianGroup(1, (2,))
    assert ker == AbelianGroup(0, ())
    coker, ker = _cokernel_and_kernel(
        IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    assert coker == AbelianGroup(0, ())
    assert ker == AbelianGroup(1, ())
    coker, ker = _cokernel_and_kernel(zeros(2, 3))
    assert coker == AbelianGroup(2, ())
    assert ker == AbelianGroup(3, ())


def test_k_groups_builtins():
    k0, k1 = k_groups(builtin_graph("G1"))
    assert (k0, k1) == (AbelianGroup(2, ()), AbelianGroup(0, ()))
    k0, k1 = k_groups(builtin_graph("G2"))
    assert (k0, k1) == (AbelianGroup(1, ()), AbelianGroup(0, ()))
    k0, k1 = k_groups(builtin_graph("G3"))
    assert (k0, k1) == (AbelianGroup(1, (2,)), AbelianGroup(0, ()))


def test_k_groups_no_emitters():
    # two isolated vertices: A_G is 2 x 0, K0 = Z^2, K1 = 0
    g = parse_graph("vertex a\nvertex b\n")
    k0, k1 = k_groups(g)
    assert k0 == AbelianGroup(2, ())
    assert k1 == AbelianGroup(0, ())


def test_k_groups_single_loop():
    # one vertex, one loop: A_G = (0), K0 = K1 = Z
    g = parse_graph("vertex a\nedge e a a\n")
    k0, k1 = k_groups(g)
    assert k0 == AbelianGroup(1, ())
    assert k1 == AbelianGroup(1, ())


def test_k_groups_work_within_a_g_and_build_no_transforms(monkeypatch):
    # every working matrix, Bareiss's and the modular elimination's, fits
    # inside A_G, and no Smith form with U and V is built
    rng = random.Random(40)
    graphs = [builtin_graph("G3")] + [random_multigraph(rng, n)
                                      for n in (5, 21, 40, 60)]
    want = [integer_groups(build_ag(g)) for g in graphs]
    shapes = []
    bareiss, eliminate = ktheory._bareiss, ktheory._eliminate

    def seen(name, a, rows, cols):
        shapes.append((name, len(a), max(map(len, a), default=0), rows, cols))

    def counted_bareiss(a, cols):
        seen("bareiss", a, len(a), cols)
        return bareiss(a, cols)

    def counted_eliminate(w, rows, cols, modulus=None):
        seen(("eliminate", modulus), w, rows, cols)
        return eliminate(w, rows, cols, modulus)

    def refused(m):
        raise AssertionError("k_groups built U and V")
    monkeypatch.setattr(ktheory, "_bareiss", counted_bareiss)
    monkeypatch.setattr(ktheory, "_eliminate", counted_eliminate)
    monkeypatch.setattr(ktheory, "smith_normal_form", refused)
    moduli = []
    for g, groups in zip(graphs, want):
        shapes.clear()
        a = build_ag(g)
        assert k_groups(g) == groups
        assert shapes[0][0] == "bareiss" and len(shapes) <= 2
        for _, height, width, rows, cols in shapes:
            assert height <= a.rows and width <= a.cols, (shapes, a.rows, a.cols)
            assert rows <= height and cols <= width
        moduli += [name[1] for name, *_ in shapes[1:]]
    # G3 has torsion Z_2; the others reach the modular elimination with
    # torsion-free K0 and a Bareiss gcd above 1
    assert len(moduli) >= 3 and None not in moduli and moduli[0] == 4


def test_a_modulus_that_misses_torsion_is_refused(monkeypatch):
    # [[6]] has rank 1 and torsion 6; a Bareiss gcd of 3 would give the
    # modulus 6, where the one diagonal entry reads as a missing rank, so
    # the counts disagree and nothing is answered
    bareiss = ktheory._bareiss

    def halved(a, cols):
        rank, last, g = bareiss(a, cols)
        return rank, last, g // 2
    monkeypatch.setattr(ktheory, "_bareiss", halved)
    with pytest.raises(ArithmeticError, match="mod 6 found 0 invariant "
                                              "factors where Bareiss found rank 1"):
        _cokernel_and_kernel(IntegerMatrix.from_rows([[6]]))


def test_rational_rank_matches_gauss_jordan():
    rng = random.Random(6)
    matrices = [zeros(0, 0), zeros(0, 4), zeros(5, 0), zeros(3, 3), zeros(6, 6)]
    for _ in range(3000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        bound = rng.choice([0, 1, 3, 30, 10 ** 6])
        matrices.append(IntegerMatrix(rows, cols, tuple(
            0 if rng.random() < 0.4 else rng.randint(-bound, bound)
            for _ in range(rows * cols))))
    for m in matrices:
        pivots = gauss_jordan([m.row(i) for i in range(m.rows)], m.cols)[1]
        assert rational_rank(m) == len(pivots), m


def cofactor_determinant(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_determinant(
        [r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x)


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(0, 5)
        m = IntegerMatrix(n, n, tuple(
            0 if rng.random() < 0.4 else rng.randint(-9, 9)
            for _ in range(n * n)))
        assert m.determinant() == cofactor_determinant(m.to_rows()), m


def test_criterion_6_reads_one_smith_form_per_matrix(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)
    monkeypatch.setattr(ktheory, "smith_normal_form", counted)
    ok, _ = acceptance._crit_6_snf_suite(acceptance.RunConfig())
    assert ok
    assert len(calls) == acceptance.MATRIX_COUNT


def test_k_groups_odd_sphere_l59():
    # L_{2n-1} at n = 30: a loop at each vertex, one edge i -> j for i < j;
    # C(L_{2n-1}) is the odd sphere S^{2n-1}_q, so K0 = K1 = Z
    vs = tuple(f"v{i}" for i in range(30))
    edges = [Edge(f"l{i}", v, v) for i, v in enumerate(vs)]
    edges += [Edge(f"e{i}_{j}", vs[i], vs[j])
              for i in range(30) for j in range(i + 1, 30)]
    assert k_groups(Graph(vs, tuple(edges))) == (AbelianGroup(1, ()),
                                                 AbelianGroup(1, ()))
