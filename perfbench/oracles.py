"""Checks computed apart from the program under test.

Nothing here imports qcstar.  Words arrive spelled by generator names,
matrices as lists of rows of Python ints, vertex sets as name tuples, so
every verdict rests on a second implementation of the definition, not on
a stored copy of an earlier output.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Declared normal-form bases, as the README states them:
#   sphere      K^i L^j  or  K^i L*^j
#   disc        x^i x*^j
#   rp2         P^k R^l, P^k R*^l, P^k R^l T, P^k R*^l T*
#   suq2_mod_b  a^i a*^j  or  a^i a*^j b
_BASIS = {
    "sphere": re.compile(r"(K )*((L )*|(L\* )*)"),
    "disc": re.compile(r"(x )*(x\* )*"),
    "rp2": re.compile(r"(P )*((R )*|(R\* )*|(R )*T |(R\* )*T\* )"),
    "suq2_mod_b": re.compile(r"(a )*(a\* )*(b )?"),
}


def in_basis(algebra: str, names) -> bool:
    """Whether a word (generator names, left to right) is a basis word."""
    return _BASIS[algebra].fullmatch("".join(n + " " for n in names)) is not None


# -- exact ranks -----------------------------------------------------------

def rank_q(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    a = [r[:] for r in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    rank, prev = 0, 1
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, n_rows):
            f = a[i][col]
            row_i, row_r = a[i], a[rank]
            for j in range(col, n_cols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        rank += 1
    return rank


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over the field Z/p, p prime."""
    a = [[x % p for x in r] for r in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    rank = 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(n_rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def incidence_rows(vertices, edges) -> list[list[int]]:
    """The K-theory matrix of a graph: rows are vertices, columns emitters.

    Entry (w, v) is the number of edges v -> w minus [w == v].  Columns
    follow the vertex order, keeping only vertices that emit an edge.
    """
    emitters = [v for v in vertices if any(s == v for _, s, _ in edges)]
    count: dict[tuple[str, str], int] = {}
    for _, s, r in edges:
        count[(s, r)] = count.get((s, r), 0) + 1
    return [[count.get((v, w), 0) - (w == v) for v in emitters] for w in vertices]


# -- ideal lattices --------------------------------------------------------

def is_hereditary(edges, names) -> bool:
    s = set(names)
    return all(r in s for _, src, r in edges if src in s)


def is_saturated(vertices, edges, names) -> bool:
    s = set(names)
    out: dict[str, list[str]] = {}
    for _, src, r in edges:
        out.setdefault(src, []).append(r)
    return not any(v not in s and v in out and all(r in s for r in out[v])
                   for v in vertices)


def lattice_problems(vertices, edges, family) -> list[str]:
    """Each set hereditary and saturated; contains {} and V; meet-closed."""
    sets = [frozenset(f) for f in family]
    problems = []
    for f in sets:
        if not is_hereditary(edges, f):
            problems.append(f"not hereditary: {sorted(f)}")
        if not is_saturated(vertices, edges, f):
            problems.append(f"not saturated: {sorted(f)}")
    members = set(sets)
    if frozenset() not in members or frozenset(vertices) not in members:
        problems.append("family lacks the empty set or the whole vertex set")
    if any(a & b not in members for a in sets for b in sets):
        problems.append("family not closed under intersection")
    return problems


def all_hereditary_saturated(vertices, edges) -> set[frozenset]:
    """Every hereditary saturated set, by testing all 2^n vertex sets."""
    index = {v: i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)   # bit mask of the ranges of edges out of v
    emits = [False] * len(vertices)
    for _, src, r in edges:
        out[index[src]] |= 1 << index[r]
        emits[index[src]] = True
    found = set()
    for h in range(1 << len(vertices)):
        if all(out[i] & ~h == 0 for i in range(len(vertices)) if h >> i & 1) \
                and not any(emits[i] and out[i] & ~h == 0
                            for i in range(len(vertices)) if not h >> i & 1):
            found.add(frozenset(v for v in vertices if h >> index[v] & 1))
    return found


def is_chain(family) -> bool:
    sets = [frozenset(f) for f in family]
    return all(a <= b or b <= a for a in sets for b in sets)


# -- quantum SU(2) --------------------------------------------------------

def astar_a_diagonal(n: int, k: int, q: Fraction) -> Fraction:
    """<e_k, a*^n a^n e_k> in rho_plus: prod_{j<n} (1 - q^(4(k-j)))."""
    out = Fraction(1)
    for j in range(n):
        if k - j <= 0:
            return Fraction(0)
        out *= 1 - q ** (4 * (k - j))
    return out
