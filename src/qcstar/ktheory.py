"""Exact integer linear algebra and K-groups of graph C*-algebras.

One Smith normal form elimination, _eliminate, serves both the
K-groups and smith_normal_form.  smith_normal_form runs it over the
integers on one working matrix that carries U and V beside M, so each
row or column operation is one step on it.  The K-groups (cokernels
give K0, kernels give K1) need no transforms: they take the unit pivots
out, run one Bareiss pass over the rest for its rank and a multiple g
of its determinantal divisor, and, where g > 1, run _eliminate on the
rest modulo 2g, so that no entry grows past a few times 2g
(Domich-Kannan-Trotter 1987, Hafner-McCurley 1991).  All arithmetic
uses Python integers, never floats, so the results are exact.

Oracles that share no code with _eliminate are exposed for
cross-checking it: rational rank and determinants by fraction-free
Bareiss elimination (whose rank the K-groups also read), and torsion
order by determinantal divisors and by literal coset enumeration.  The
coset oracle takes its modulus from the claim it checks, so it is not
independent of it.  numpy serves that oracle alone and loads when it
first runs.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._lazy import lazy_module
from ._record import Record

np = lazy_module("numpy")


class IntegerMatrix(Record):
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
        rank, last_pivot, _ = _bareiss(self.to_rows(), self.cols)
        return last_pivot if rank == self.rows else 0

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.determinant() in (1, -1)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows)) or "(empty)"


def _bareiss(a: list[list[int]], cols: int) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the rows a, in place.

    A column without a nonzero entry in the rows still to be reduced is
    skipped.  Every entry stays a minor, so each division is exact: at
    the step that takes the k-th pivot, the pivot column holds k x k
    minors from the pivot row down, and no later step writes to that
    column.  Returns the rank r, the last pivot signed by the row swaps
    (for a square matrix of full rank, its determinant) and g, the gcd
    of the last pivot column from the last pivot row down (0 when
    r = 0).  Those entries are r x r minors, so the gcd of all r x r
    minors, and with it every nonzero invariant factor, divides g.
    """
    rows = len(a)
    rank, sign, prev, last = 0, 1, 1, 0
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
        prev, last = p, k
        rank += 1
    g = math.gcd(*[row[last] for row in a[rank - 1:]]) if rank else 0
    return rank, sign * prev, g


class AbelianGroup(Record):
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


class SNFResult(Record):
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


def _reduce(row: list[int], n: int) -> None:
    """Take each entry of row of absolute value n or more mod n, in place."""
    if max(row) >= n or min(row) <= -n:
        row[:] = [x if -n < x < n else x % n for x in row]


def _eliminate(w: list[list[int]], rows: int, cols: int,
               modulus: int | None = None) -> None:
    """Bring the top-left rows x cols block of w to Smith form in place.

    Row operations act on whole rows of w and column operations on whole
    columns, so blocks carried beside and below the matrix record the
    transforms; w may be the matrix alone.  Pivot choice is _pivot's,
    which makes the outcome fully deterministic.  Diagonal entries come
    out nonnegative in a divisibility chain.

    With a modulus N, w is the matrix alone, and each row that a row
    operation changes is taken mod N where an entry reached N in
    absolute value.  That adds multiples of N e_i to the columns, so the
    elimination works on the lattice spanned by the columns and N Z^rows:
    a diagonal entry d stands for gcd(d, N), and each row past
    min(rows, cols) for N.  A column operation adds less than
    |w[t][j]| + |p| to a row, and every row it touches but t has just
    been reduced, so entries stay below a few times N.  The remainders
    that clear row and column t are below the pivot, so no reduction
    changes them, and the pivot still shrinks until it divides the rest.
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
                    if modulus:
                        _reduce(w[i], modulus)
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


def _take_out_units(w: list[list[int]], cols: int) -> tuple[int, list[list[int]]]:
    """Take the unit pivots out of the rows w, in place.

    While some row holds a unit e = ±1, say in column j, every other row
    with an entry f != 0 in column j loses f*e times that row, at the
    row's nonzero entries only.  Column j is then zero outside the unit's
    row, so column operations would clear that row without touching the
    others, and the row is dropped.  The steps are unimodular, so
    w ~ I_u + S.  Returns u and S: the rows left, without the u columns
    of the units.
    """
    taken = set()
    while True:
        i = next((i for i, row in enumerate(w) if 1 in row or -1 in row), None)
        if i is None:
            break
        pivot = w.pop(i)
        j = next(j for j, x in enumerate(pivot) if x == 1 or x == -1)
        scaled = [(k, x * pivot[j]) for k, x in enumerate(pivot) if x]
        for row in w:
            f = row[j]
            if f:
                for k, x in scaled:
                    row[k] -= f * x
        taken.add(j)
    kept = [j for j in range(cols) if j not in taken]
    return len(taken), [[row[j] for j in kept] for row in w]


def _cokernel_and_kernel(m: IntegerMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """Both groups of m, without the transforms, in three steps.

    The unit pivots come out first: m ~ I_u + S.  One Bareiss pass over
    S gives its rank r and a multiple g of its r-th determinantal
    divisor, so every nonzero invariant factor of S is at most g.  For
    g = 1, S has no torsion.  Otherwise S is eliminated modulo N = 2g,
    which keeps its entries small: a diagonal entry d gives the
    invariant factor gcd(d, N) when that is below N, and a missing rank
    when it is N.  Exactly r of them must be below N.
    """
    units, s = _take_out_units(m.to_rows(), m.cols)
    rows, cols = len(s), m.cols - units
    rank, _, g = _bareiss([row[:] for row in s], cols)
    factors = []
    if g > 1:
        modulus = 2 * g
        for row in s:
            _reduce(row, modulus)
        _eliminate(s, rows, cols, modulus)
        factors = [d for d in (math.gcd(s[t][t], modulus)
                               for t in range(min(rows, cols))) if d < modulus]
        if len(factors) != rank:
            raise ArithmeticError(
                f"elimination mod {modulus} found {len(factors)} invariant "
                f"factors where Bareiss found rank {rank}")
    rank += units
    return (AbelianGroup(m.rows - rank, tuple(d for d in factors if d > 1)),
            AbelianGroup(m.cols - rank))


def k_groups(g) -> tuple[AbelianGroup, AbelianGroup]:
    """K0 and K1 of the graph C*-algebra: cokernel and kernel of A_G,
    by _cokernel_and_kernel: its unit pivots taken out, one Bareiss pass
    over the rest and, where that finds a gcd g > 1, one elimination of
    the rest modulo 2g.  No working matrix is larger than A_G."""
    from . import graphs
    return _cokernel_and_kernel(graphs.build_ag(g))


# -- independent oracles -------------------------------------------------------

def rational_rank(m: IntegerMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(m.to_rows(), m.cols)[0]


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
