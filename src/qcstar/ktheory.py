"""Exact integer linear algebra and K-groups of graph C*-algebras.

One Smith normal form elimination drives everything: the K-groups
(cokernels give K0, kernels give K1) read the invariant factors off the
diagonal of one elimination of the matrix alone, and smith_normal_form
runs the same elimination on one working matrix that carries U and V
beside M, so each row or column operation is one step on it.  All
arithmetic uses Python integers, never floats, so the results are
exact.  Oracles that share no code with the SNF (rational rank and
determinants by fraction-free Bareiss elimination, torsion order by
determinantal divisors and by literal coset enumeration) are exposed
for cross-checking it; the coset oracle takes its modulus from the
claim it checks, so it is not independent of it.  numpy serves that
oracle alone and loads when it first runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from ._lazy import lazy_module

np = lazy_module("numpy")


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if any(not isinstance(e, int) for e in self.entries):
            object.__setattr__(self, "entries",
                               tuple(operator.index(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(operator.index(x) for r in rows for x in r))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def multiply(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j)
                               for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def determinant(self) -> int:
        """Fraction-free Bareiss elimination; square matrices only."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rank, last_pivot = _bareiss(self)
        return last_pivot if rank == self.rows else 0

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.determinant() in (1, -1)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows)) or "(empty)"


def _bareiss(m: IntegerMatrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of m over the integers.

    A column without a nonzero entry in the rows still to be reduced is
    skipped.  Every entry stays a minor of m, so each division is exact.
    Returns the rank and the last pivot, signed by the row swaps: for a
    square m of full rank, its determinant.
    """
    a = m.to_rows()
    rows, cols = m.rows, m.cols
    rank, sign, prev = 0, 1, 1
    for k in range(cols):
        if rank == rows:
            break
        if not a[rank][k]:
            for i in range(rank + 1, rows):
                if a[i][k]:
                    a[rank], a[i] = a[i], a[rank]
                    sign = -sign
                    break
            else:
                continue
        top = a[rank]
        p = top[k]
        for i in range(rank + 1, rows):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, cols):
                ai[j] = (ai[j] * p - f * top[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion invariants must form a divisibility chain")

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SNFResult:
    """U * M * V = S with U, V unimodular and S in Smith form."""

    u: IntegerMatrix
    s: IntegerMatrix
    v: IntegerMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.entry(i, i) for i in range(n))

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal() if d != 0)


def _pivot(w, t: int, rows: int, cols: int) -> tuple[int, int] | None:
    """The nonzero entry of least absolute value in rows and columns
    t onwards, the first in row-major order among equals; None when
    they are all zero.  A unit ends the scan: nothing is less, and no
    later entry comes first."""
    best, at = 0, None
    for i in range(t, rows):
        wi = w[i]
        for j in range(t, cols):
            x = abs(wi[j])
            if x and (x < best or not best):
                if x == 1:
                    return i, j
                best, at = x, (i, j)
    return at


def _eliminate(w: list[list[int]], rows: int, cols: int) -> None:
    """Bring the top-left rows x cols block of w to Smith form in place.

    Row operations act on whole rows of w and column operations on whole
    columns, so blocks carried beside and below the matrix record the
    transforms; w may be the matrix alone.  Pivot choice is _pivot's,
    which makes the outcome fully deterministic.  Diagonal entries come
    out nonnegative in a divisibility chain.
    """
    for t in range(min(rows, cols)):
        while True:
            at = _pivot(w, t, rows, cols)
            if at is None:
                return  # the rest is zero, and stays zero for every later t
            pi, pj = at
            w[t], w[pi] = w[pi], w[t]
            for row in w:
                row[t], row[pj] = row[pj], row[t]
            # clear row and column t; a remainder means a smaller pivot
            wt = w[t]
            p = wt[t]
            clean = True
            for i in range(t + 1, rows):
                if w[i][t]:
                    f = w[i][t] // p
                    w[i] = [x - f * y for x, y in zip(w[i], wt)]
                    clean = clean and not w[i][t]
            # a column operation changes only the rows with column t nonzero
            touched = [row for row in w if row[t]]
            for j in range(t + 1, cols):
                if wt[j]:
                    f = wt[j] // p
                    for row in touched:
                        row[j] -= f * row[t]
                    clean = clean and not wt[j]
            if not clean:
                continue
            if p in (1, -1):
                break  # a unit divides the rest
            # the pivot must divide the rest: fold the first row it does
            # not divide into row t and clear again
            for i in range(t + 1, rows):
                if any(x % p for x in w[i][t + 1:cols]):
                    w[t] = [x + y for x, y in zip(wt, w[i])]
                    break
            else:
                break
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]


def smith_normal_form(m: IntegerMatrix) -> SNFResult:
    """Diagonalize by unimodular row and column operations.

    The elimination runs on one matrix [[M, I], [I, 0]]: row operations
    act on its first ``rows`` rows, so U builds up in the right-hand
    block, and column operations on its first ``cols`` columns, so V
    builds up in the bottom block; U, S and V are sliced out at the end.
    Only callers that read U or V need this; the K-groups eliminate M
    alone.
    """
    rows, cols = m.rows, m.cols
    w = ([list(m.row(i)) + [int(i == k) for k in range(rows)]
          for i in range(rows)]
         + [[int(j == k) for k in range(cols)] + [0] * rows
            for j in range(cols)])
    _eliminate(w, rows, cols)

    def block(top, bottom, left, right):
        return IntegerMatrix(bottom - top, right - left, tuple(
            x for row in w[top:bottom] for x in row[left:right]))
    return SNFResult(block(0, rows, cols, cols + rows), block(0, rows, 0, cols),
                     block(rows, rows + cols, 0, cols))


def _cokernel_and_kernel(m: IntegerMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """Both groups read off the diagonal of one elimination of m alone,
    without the transforms."""
    w = m.to_rows()
    _eliminate(w, m.rows, m.cols)
    factors = [w[t][t] for t in range(min(m.rows, m.cols)) if w[t][t]]
    return (AbelianGroup(m.rows - len(factors),
                         tuple(d for d in factors if d > 1)),
            AbelianGroup(m.cols - len(factors)))


def cokernel(m: IntegerMatrix) -> AbelianGroup:
    """Z^rows / column span of m, in invariant-factor form."""
    return _cokernel_and_kernel(m)[0]


def kernel(m: IntegerMatrix) -> AbelianGroup:
    """Kernel of m as a map Z^cols -> Z^rows; always free."""
    return _cokernel_and_kernel(m)[1]


def k_groups(g) -> tuple[AbelianGroup, AbelianGroup]:
    """K0 and K1 of the graph C*-algebra: cokernel and kernel of A_G,
    read off one elimination of A_G alone."""
    from . import graphs
    return _cokernel_and_kernel(graphs.build_ag(g))


# -- independent oracles -------------------------------------------------------

def rational_rank(m: IntegerMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(m)[0]


def determinant_divisor(m: IntegerMatrix, r: int) -> int:
    """gcd of all r x r minors (0 when r exceeds the rank)."""
    if r == 0:
        return 1
    if r > min(m.rows, m.cols):
        return 0
    g = 0
    for rows_sel in itertools.combinations(range(m.rows), r):
        for cols_sel in itertools.combinations(range(m.cols), r):
            sub = IntegerMatrix.from_rows(
                [[m.entry(i, j) for j in cols_sel] for i in rows_sel])
            g = math.gcd(g, abs(sub.determinant()))
            if g == 1:
                return 1
    return g


def torsion_order_by_minors(m: IntegerMatrix) -> int:
    """|torsion of cokernel| = gcd of rank-sized minors.

    Uses only minor determinants and the rational rank, no SNF code, so
    it is a fully independent cross-check.
    """
    return determinant_divisor(m, rational_rank(m))


def image_size_mod(m: IntegerMatrix, modulus: int,
                   state_cap: int = 30000) -> int | None:
    """Size of the subgroup of (Z/modulus)^rows spanned by the columns.

    Literal enumeration of the span, one cyclic extension at a time
    (Dimino's algorithm for an abelian group).  Every state is packed
    into one mixed-radix key (coordinate i is digit i in base modulus).
    For each column g, the index k of the span S so far in S + <g> is the
    least t >= 1 with t*g in S.  The cosets S + t*g, t < k, are disjoint,
    so the new span has exactly |S|*k states, which fit in state_cap
    exactly when k <= state_cap // |S|.  Only those multiples of g are
    packed and looked up, by one binary search in the sorted keys of S;
    when none lands in S the enumeration stops before building a state.
    Otherwise the k shifted copies of S are added digit-wise and sorted
    once.  Returns None exactly when the span has more than state_cap
    states.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    # int64 when modulus^rows and every t*g (t <= modulus) fit, exact
    # Python ints otherwise
    dtype = np.int64 if modulus ** max(m.rows, 2) < 2 ** 63 else object
    powers = np.array([modulus ** i for i in range(m.rows)], dtype=dtype)
    gens = np.array([[x % modulus for x in m.column(j)]
                     for j in range(m.cols)], dtype=dtype).reshape(m.cols, m.rows)
    gens = gens[(gens != 0).any(axis=1)]
    digits = np.zeros((1, m.rows), dtype=dtype)  # the states of S
    keys = np.zeros(1, dtype=dtype)  # their packed keys, sorted
    for g in gens:
        # k <= state_cap // |S| keeps |S|*k within the cap; t = modulus
        # always lands in S, so no hit means k is past the cap
        reach = min(modulus, state_cap // keys.size)
        multiples = np.arange(1, reach + 1).astype(dtype)[:, None] * g % modulus
        packed = (multiples * powers).sum(axis=1)
        at = np.minimum(np.searchsorted(keys, packed), keys.size - 1)
        hits = np.flatnonzero(keys[at] == packed)
        if hits.size == 0:
            return None
        shifted = (digits[None, :, :] + multiples[:hits[0], None, :]) % modulus
        digits = np.concatenate([digits, shifted.reshape(-1, m.rows)])
        keys = np.sort((digits * powers).sum(axis=1))
    return int(keys.size) if keys.size <= state_cap else None


def torsion_order_by_cosets(m: IntegerMatrix, claimed_order: int,
                            state_cap: int = 30000) -> int | None:
    """Torsion order of the cokernel by coset enumeration mod 2*claimed.

    Any modulus that is a multiple of every invariant factor works; the
    column span S in (Z/mod)^rows then has size mod^rank / torsion, so
    the torsion order is mod^rank / |S|.  Returns None when enumeration
    would exceed state_cap.

    The modulus comes from the claim, so the oracle is not independent
    of it.  In general it returns the product of gcd(d, modulus) over the
    invariant factors d.  An over-claim (a multiple of the true order) is
    refuted wherever the enumeration completes.  An under-claim can be
    confirmed when a prime of the true order is missing from 2*claimed:
    [[-3]] with claim 1 gives 1.  Pair it with torsion_order_by_minors,
    which refutes every wrong claim.
    """
    modulus = 2 * max(claimed_order, 1)
    rank = rational_rank(m)
    size = image_size_mod(m, modulus, state_cap)
    if size is None:
        return None
    total = modulus ** rank
    if total % size:
        return -1  # impossible if claimed_order was a valid multiple
    return total // size
