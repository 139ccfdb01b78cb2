"""Truncated weighted-shift models of the built-in *-algebras.

Every infinite-dimensional representation here is a weighted shift on a
basis e_0 .. e_{N-1}: a generator sends e_k to a scalar times e_{k+d}
for a fixed displacement d, and anything landing outside the truncation
window is dropped.  Dropping only corrupts entries near the top index,
so all assertions restrict to a compressed block: rows and columns
0 .. N-1-margin, where margin is the shift bound times the word degree
involved.  On that block the truncated operators agree exactly with the
infinite model, and residuals are pure floating-point roundoff.

The weights of rho_plus, rho_minus and rho_rp2 are declared once, as
rows of SHIFT_WEIGHTS: each is plus or minus a power of q times the
square root of a product of edge factors 1 - q^(4n).  Generators are
stored as what they are, (displacement, weights) pairs (ShiftForm), and
a word is applied shift by shift in O(N) per letter.  One store serves
two precisions, both read off the same rows: dps=None holds complex128
weights, a digit count holds fixed-point integers on a grid of 2^-B
with B a little over dps digits, built from exact q with exact square
roots, for checks whose cancellation exceeds float64's digits.  A dense
matrix is formed only on request (evaluate).  numpy and mpmath load on
first use: numpy with the first representation built, mpmath only when
ShiftForm.element first converts a fixed-point operator to mpmath
numbers, which nothing else in the package does.

The independence check for the projective-space basis monomials works in
exact rational arithmetic.  Each basis monomial acts on e_n by a rational
multiple of a single square root (exact_action walks its letters through
rho_rp2's rows, adding exponents of q), and the square root is shared by
all monomials of the same displacement class, so it cancels from the
linear systems.  The family's rank and the recovery of its coefficients
are both read off one exact Vandermonde elimination per class; no float
decides either.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import ncalgebra
from ._lazy import lazy_module
from ._record import Record
from .coefficients import QLaurent, gauss_jordan
from .ncalgebra import AlgebraPresentation, Element, GeneratorMap

mpmath = lazy_module("mpmath")
np = lazy_module("numpy")


class RepresentationError(ValueError):
    """Invalid representation request or mismatched evaluation."""


REP_NAMES = ("rho_plus", "rho_minus", "pi_plus", "pi_minus",
             "rho_rp2", "rho_theta")
REP_ALIASES = {"rho": "rho_rp2"}
REP_SUMS = {"pi_pm": ("pi_plus", "pi_minus"),
            "rho_pm": ("rho_plus", "rho_minus")}

# The weighted shifts of the base representations: name -> (algebra, one
# row per generator).  A row (d, sign, slope, offset, edges) sends e_k to
#     sign * q^(slope*k + offset) * sqrt(prod_{j in edges} (1 - q^(4(k-j))))
# times e_{k+d}.  An adjoint has its own row: X* sends e_k to X's weight
# of e_{k-d} times e_{k-d}, for X of displacement d.  The generator of
# displacement 0 is diagonal, with its weights as spectrum.
SHIFT_WEIGHTS = {
    "rho_plus": ("suq2_mod_b",
                 {"a": (-1, 1, 0, 0, (0,)), "a*": (1, 1, 0, 0, (-1,)),
                  "b": (0, 1, 2, 2, ())}),
    "rho_minus": ("suq2_mod_b",
                  {"a": (-1, 1, 0, 0, (0,)), "a*": (1, 1, 0, 0, (-1,)),
                   "b": (0, -1, 2, 2, ())}),
    "rho_rp2": ("rp2",
                {"P": (0, 1, 4, 0, ()), "T": (-1, 1, 2, -2, (0,)),
                 "T*": (1, 1, 2, 0, (-1,)), "R": (-2, 1, 0, 0, (0, 1)),
                 "R*": (2, 1, 0, 0, (-2, -1))}),
}


class Representation:
    """A presentation's generators as weighted shifts, truncated at dim.

    block_dims records the direct-sum structure; compression windows are
    applied per block so boundary artifacts of every summand are masked.

    build(dps) constructs the generators under the working precision of
    dps and returns (q, ops): q as a float for dps=None and exact at dps
    digits otherwise, ops[i] the weighted shifts of generator i (see
    ShiftForm).  shift_form(dps) calls it once per precision.  The
    closure refers to the representations this one is made of, never to
    this one, so the cached forms hold no reference back to it: a
    representation's weights are freed with its last reference, not left
    for the cycle collector.
    """

    def __init__(self, presentation: AlgebraPresentation, name: str,
                 q: float, build, block_dims: tuple[int, ...],
                 shift_bound: int, spectra: dict[str, np.ndarray] | None = None):
        self.presentation = presentation
        self.name = name
        self.q = q
        self.block_dims = tuple(block_dims)
        self.dim = sum(block_dims)
        self.shift_bound = shift_bound
        self.spectra = dict(spectra or {})
        self._build = build
        self._shift_forms: dict[int | None, ShiftForm] = {}

    def good_indices(self, margin: int) -> np.ndarray:
        idx = []
        offset = 0
        for nb in self.block_dims:
            idx.extend(range(offset, offset + max(nb - margin, 0)))
            offset += nb
        if not idx:
            raise RepresentationError(
                f"truncation dimension {self.dim} leaves no compressed block "
                f"at margin {margin}")
        return np.array(idx, dtype=int)

    def shift_form(self, dps: int | None = None) -> "ShiftForm":
        """The generators as weighted shifts: complex128 for dps=None,
        fixed-point integers good to dps digits otherwise."""
        if dps not in self._shift_forms:
            self._shift_forms[dps] = ShiftForm(self.presentation, self.dim,
                                               dps, self._build)
        return self._shift_forms[dps]


# Guard bits of the fixed-point grid beyond dps digits.  The grid's
# resolution is absolute: a word's weights are within about one unit of
# 2^-B per letter, and an entry multiplies that error by the word's
# coefficient.  Coefficients below 2^GUARD_BITS keep it under one unit in
# the dps-th digit; ShiftForm.operator moves larger ones (rp2's q^-72 is
# 2^72 at q = 1/2, 2^125 at q = 0.3) onto a finer grid.
GUARD_BITS = 64


def _grid_bits(dps: int) -> int:
    """B of the fixed-point grid 2^-B that resolves dps digits."""
    return math.ceil(dps * math.log2(10)) + GUARD_BITS


class ShiftForm:
    """A representation's generators as sums of weighted shifts.

    ops[i] maps displacements to weights: generator i sends e_k to the
    sum over d of ops[i][d][k] * e_{k+d}.  Weights span the whole direct
    sum and are zero wherever the target index would leave the block of
    e_k, so products truncate exactly as truncated matrices do.  Words are
    composed shift by shift and memoised, never as dense matrices.

    For dps=None the weights are complex128 arrays and q is a float.  For
    a digit count they are fixed point: object arrays of Python ints
    holding w * 2^B, with q an exact Fraction and B the bits of dps digits
    plus GUARD_BITS.  Base weights are rounded once from exact rationals
    and integer square roots, a product of two weights is (a * b) >> B,
    and each coefficient of an element is rounded once onto the grid, so
    every operation is an integer one and the error is a few units of
    2^-B per letter, times the coefficient.  An element whose
    coefficients would lift that error past 10^-dps is evaluated on a
    finer grid and rounded back (operator).  element() converts the
    result to mpmath numbers at dps digits; the checks of this module
    compare the integers directly.
    """

    def __init__(self, presentation: AlgebraPresentation, dim: int,
                 dps: int | None, build):
        self.presentation = presentation
        self.dim = dim
        self.dps = dps
        self.bits = None if dps is None else _grid_bits(dps)
        self.unit = 1 if dps is None else 1 << self.bits
        self.q, self.ops = build(dps)
        self._build = build
        self._finer: dict[int, ShiftForm] = {}
        self._words: dict[tuple[int, ...], dict[int, np.ndarray]] = {
            (): {0: _filled(dim, dps, 1)}}

    def _word(self, word: tuple[int, ...]) -> dict[int, np.ndarray]:
        # letters act right to left: the word is its first letter applied
        # after the rest
        if word not in self._words:
            self._words[word] = _then(self._word(word[1:]), self.ops[word[0]],
                                      self.bits)
        return self._words[word]

    def operator(self, x: Element) -> dict[int, np.ndarray]:
        """displacement -> weights of the operator of x, in the store's
        own numbers (complex128, or integers on the 2^-B grid within
        2^-(B - GUARD_BITS) of the exact operator)."""
        if x.presentation is not self.presentation:
            raise RepresentationError(
                f"element over {x.presentation.name} fed to a representation "
                f"of {self.presentation.name}")
        if self.dps is None:
            return self._combine({word: coeff.evaluate(self.q)
                                  for word, coeff in x.terms().items()})
        coeffs = {word: _on_grid(coeff, self.q, self.unit)
                  for word, coeff in x.terms().items()}
        # each word carries about len(word) + 1 units of error, scaled by
        # its coefficient; past 2^GUARD_BITS units, evaluate x on a grid
        # finer by the excess and round the result back onto this one
        spread = sum(abs(c) * (len(word) + 2) for word, c in coeffs.items())
        excess = spread.bit_length() - self.bits - GUARD_BITS
        if excess <= 0:
            return self._combine(coeffs)
        # ten more digits refine the grid by at least 33 bits
        dps = self.dps + 10 * math.ceil(excess / 33)
        if dps not in self._finer:
            self._finer[dps] = ShiftForm(self.presentation, self.dim, dps,
                                         self._build)
        fine = self._finer[dps]
        out = fine._combine({word: _on_grid(coeff, fine.q, fine.unit)
                             for word, coeff in x.terms().items()})
        return {d: w >> (fine.bits - self.bits) for d, w in out.items()}

    def _combine(self, coeffs: dict) -> dict[int, np.ndarray]:
        """Sum over words of coefficient times word weights."""
        out: dict[int, np.ndarray] = {}
        for word, c in coeffs.items():
            for d, w in self._word(word).items():
                out[d] = out[d] + w * c if d in out else w * c
        if self.dps is not None:
            # sums of products at 2^-2B: one rounding per entry
            out = {d: w >> self.bits for d, w in out.items()}
        return out

    def element(self, x: Element) -> dict[int, np.ndarray]:
        """displacement -> weights of the operator of x: complex128 for
        dps=None, mpmath numbers at dps digits otherwise."""
        out = self.operator(x)
        if self.dps is None:
            return out
        with mpmath.workdps(self.dps):
            return {d: np.array([mpmath.mpf((v, -self.bits)) for v in w],
                                dtype=object)
                    for d, w in out.items()}


def _on_grid(coeff: QLaurent, q: Fraction, unit: int) -> int:
    """The exact value of coeff at q, rounded to a multiple of 1/unit.

    With q = a/b and lo <= 0 <= hi bounding the exponents, every integer
    digit of the coefficient is brought over the one denominator
    den * a^-lo * b^hi, den the coefficient's own, so the sum is one
    integer and no Fraction is made on the way."""
    terms = coeff._integer_terms()  # sorted by exponent
    if not terms:
        return 0
    a, b = q.numerator, q.denominator
    lo, hi = min(terms[0][0], 0), max(terms[-1][0], 0)
    top = sum([d * a ** (e - lo) * b ** (hi - e) for e, d in terms])
    return _round_half_even(top * unit, coeff._den * a ** -lo * b ** hi)


def _round_half_even(top: int, den: int) -> int:
    """top / den to the nearest integer, half to even as round() does;
    den > 0."""
    floor, rest = divmod(top, den)
    return floor + (2 * rest > den or (2 * rest == den and floor % 2))


def _filled(n: int, dps: int | None, value) -> np.ndarray:
    """n weights equal to value, in the number type of the precision."""
    if dps is None:
        return np.full(n, value, dtype=complex)
    return np.full(n, value << _grid_bits(dps), dtype=object)


def _moved(w: np.ndarray, d: int) -> np.ndarray:
    """out[k] = w[k + d] where that index exists, zero elsewhere."""
    n = len(w)
    out = np.zeros_like(w)
    if abs(d) < n:
        out[max(0, -d):n - max(0, d)] = w[max(0, d):n - max(0, -d)]
    return out


def _mul(a: np.ndarray, b: np.ndarray, bits: int | None) -> np.ndarray:
    """Elementwise a * b: complex products through four real ones, or
    fixed-point products on the 2^-bits grid.

    numpy fuses the complex multiply, which leaves z * conj(z) with an
    imaginary part of rounding size; separate real products keep it 0.
    """
    if bits is not None:
        return a * b >> bits
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag
                                                       + a.imag * b.real)


def _then(first: dict[int, np.ndarray], second: dict[int, np.ndarray],
          bits: int | None) -> dict[int, np.ndarray]:
    """Shifts of (second @ first): apply first, then second."""
    out: dict[int, np.ndarray] = {}
    for d1, w1 in first.items():
        for d2, w2 in second.items():
            w = _mul(w1, _moved(w2, d1), bits)
            d = d1 + d2
            out[d] = out[d] + w if d in out else w
    return out


def _dense(shifts: dict[int, np.ndarray], dim: int) -> np.ndarray:
    """The dim x dim complex matrix of a sum of float64 weighted shifts."""
    m = np.zeros((dim, dim), dtype=complex)
    for d, w in shifts.items():
        k = np.arange(max(0, -d), min(dim, dim - d))
        m[k + d, k] = w[k]
    return m


def _float_weight(row, k: int, q: float) -> float:
    """The float64 weight of e_k under a row of SHIFT_WEIGHTS."""
    _, sign, slope, offset, edges = row
    radicand = 1
    for j in edges:
        radicand *= 1 - q ** (4 * (k - j))
    return sign * q ** (slope * k + offset) * math.sqrt(radicand)


def _fixed_weight(row, k: int, q: Fraction, bits: int) -> int:
    """The weight of e_k under a row on the grid 2^-bits, in integers
    with q = a/b: the square root to 8 bits past the grid, then one
    rounding of the exact product."""
    _, sign, slope, offset, edges = row
    a, b = q.numerator, q.denominator
    top = bottom = 1
    for j in edges:
        n = 4 * (k - j)
        top, bottom = top * (b ** n - a ** n), bottom * b ** n
    root = math.isqrt((top << 2 * (bits + 8)) // bottom)
    # sign * q^e * root / 2^(bits + 8), in units of 2^-bits
    e = slope * k + offset
    return _round_half_even(sign * a ** e * root, b ** e << 8)


def build_rep(name: str, q: float = 0.5, dim: int = 64,
              theta: float = 0.0) -> Representation:
    """Construct a named representation at truncation dimension dim.

    rho_plus / rho_minus act on the self-adjoint quantum SU(2) quotient,
    pi_plus / pi_minus are their pullbacks to the sphere along the
    isomorphism (structurally composed, not re-coded), rho_rp2 (alias
    rho) is the infinite-dimensional projective-space representation,
    and rho_theta is its one-dimensional circle family (theta is only
    used there).  pi_pm and rho_pm are the direct sums in REP_SUMS.
    """
    name = REP_ALIASES.get(name, name)
    if name in REP_SUMS:
        first, second = REP_SUMS[name]
        return direct_sum(build_rep(first, q, dim), build_rep(second, q, dim))
    if name not in REP_NAMES:
        raise RepresentationError(
            f"unknown representation {name!r}; choose from "
            f"{sorted([*REP_ALIASES, *REP_SUMS, *REP_NAMES])}")
    if not 0.0 < q < 1.0:
        raise RepresentationError("q must lie strictly between 0 and 1")
    if name == "rho_theta":
        p = ncalgebra.presentation("rp2")
        z = cmath.exp(1j * theta)

        def build_theta(dps):
            if dps is not None:
                raise RepresentationError("rho_theta has complex weights "
                                          "and is evaluated in float64 only")
            weights = {"P": 0.0, "T": 0.0, "T*": 0.0, "R": z,
                       "R*": z.conjugate()}
            return q, {p.gen_index(g): {0: np.array([w], dtype=complex)}
                       for g, w in weights.items()}

        return Representation(p, name, q, build_theta, (1,), 0,
                              spectra={"P": np.array([0.0])})
    if dim < 4:
        raise RepresentationError("truncation dimension must be at least 4")
    if name in ("pi_plus", "pi_minus"):
        inner = build_rep("rho_plus" if name == "pi_plus" else "rho_minus",
                          q, dim)
        rep = compose_rep(inner, ncalgebra.builtin_morphism("F"), name=name)
        sign = 1.0 if name == "pi_plus" else -1.0
        rep.spectra["K"] = np.array([sign * q ** (2 * k) for k in range(dim)])
        return rep
    algebra, rows = SHIFT_WEIGHTS[name]
    p = ncalgebra.presentation(algebra)
    diagonal = next(g for g, row in rows.items() if row[0] == 0)
    spectra = {diagonal: np.array([_float_weight(rows[diagonal], k, q)
                                   for k in range(dim)])}

    def build(dps):
        qx = q if dps is None else Fraction(q)
        bits = None if dps is None else _grid_bits(dps)
        ops = {}
        for g, row in rows.items():
            d = row[0]
            weights = _filled(dim, dps, 0)
            for k in range(max(0, -d), min(dim, dim - d)):
                weights[k] = (_float_weight(row, k, q) if bits is None
                              else _fixed_weight(row, k, qx, bits))
            ops[p.gen_index(g)] = {d: weights}
        return qx, ops

    return Representation(p, name, q, build, (dim,),
                          max(abs(row[0]) for row in rows.values()),
                          spectra=spectra)


def compose_rep(rep: Representation, gmap: GeneratorMap,
                name: str | None = None) -> Representation:
    """Pull a representation of gmap's target back to its source.

    Each source generator is sent to the operator of its image element.
    The numeric parameter transforms by the map's exponent scale, so
    source coefficients evaluate consistently.
    """
    if gmap.target is not rep.presentation:
        raise RepresentationError("map target does not match representation")
    max_deg = max([1] + [img.degree() for img in gmap.images.values()])

    def build(dps):
        form = rep.shift_form(dps)
        ops = {i: form.operator(img) for i, img in gmap.images.items()}
        return form.q ** gmap.q_scale, ops

    return Representation(gmap.source, name or f"{rep.name}.{gmap.name}",
                          rep.q ** gmap.q_scale, build, rep.block_dims,
                          rep.shift_bound * max_deg)


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum of two representations of the same presentation."""
    if r1.presentation is not r2.presentation:
        raise RepresentationError("direct sum needs a common presentation")
    if r1.q != r2.q:
        raise RepresentationError("direct sum needs a common q")
    spectra = {}
    for g in set(r1.spectra) & set(r2.spectra):
        spectra[g] = np.concatenate([r1.spectra[g], r2.spectra[g]])

    def build(dps):
        f1, f2 = r1.shift_form(dps), r2.shift_form(dps)
        zero1, zero2 = _filled(r1.dim, dps, 0), _filled(r2.dim, dps, 0)
        ops = {}
        for i, first in f1.ops.items():
            second = f2.ops[i]
            ops[i] = {d: np.concatenate([first.get(d, zero1),
                                         second.get(d, zero2)])
                      for d in sorted(set(first) | set(second))}
        return f1.q, ops

    return Representation(
        r1.presentation, f"{r1.name}+{r2.name}", r1.q, build,
        r1.block_dims + r2.block_dims,
        max(r1.shift_bound, r2.shift_bound), spectra=spectra)


def evaluate(x: Element, rep: Representation) -> np.ndarray:
    """Dense float64 matrix of an element; unit word -> identity."""
    return _dense(rep.shift_form().element(x), rep.dim)


class ResidualReport(Record):
    rep_name: str
    dim: int
    margin: int
    entries: tuple[tuple[str, float], ...]

    def max_residual(self) -> float:
        return max((v for _, v in self.entries), default=0.0)

    def ok(self, tol: float) -> bool:
        return self.max_residual() <= tol


def _compressed_max(rep: Representation, unit: int, fx: dict[int, np.ndarray],
                    fy: dict[int, np.ndarray], margin: int) -> float:
    """Max |entry| of the operator fx - fy on rep's compressed block, both
    in the store's own numbers, unit of them making 1."""
    good = np.zeros(rep.dim, dtype=bool)
    good[rep.good_indices(margin)] = True
    worst = 0.0
    for d in set(fx) | set(fy):
        # entry (k + d, k) counts when both k and k + d are in the block
        diff = (fx.get(d, 0) - fy.get(d, 0))[good & _moved(good, d)]
        worst = max(worst, np.max(np.abs(diff), initial=0) / unit)
    return float(worst)


def relation_residuals(rep: Representation) -> ResidualReport:
    """Max |entry| of rho(lhs) - rho(rhs) per rule, compressed, in float64.

    The compression margin is the shift bound: on that block the
    truncated products agree with the infinite model entry for entry,
    so the reported numbers are pure roundoff plus any genuine defect.
    """
    p = rep.presentation
    form = rep.shift_form()
    entries = []
    for rule in p.rules:
        lhs = form.element(Element(p, {rule.left: QLaurent.one()}))
        rhs = form.element(Element(p, dict(rule.right)))
        entries.append((rule.label,
                        _compressed_max(rep, form.unit, lhs, rhs,
                                        rep.shift_bound)))
    return ResidualReport(rep.name, rep.dim, rep.shift_bound, tuple(entries))


def element_mismatch(x: Element, y: Element, rep: Representation,
                     dps: int | None = None) -> float:
    """Compressed max |rho(x) - rho(y)|, margin scaled by degree.

    dps=None evaluates in float64.  A digit count evaluates both elements
    on the fixed-point grid of ShiftForm, from generators rebuilt out of
    exact q, so the only error left is rounding below 10^-dps.
    """
    margin = rep.shift_bound * max(x.degree(), y.degree(), 1)
    form = rep.shift_form(dps)
    return _compressed_max(rep, form.unit, form.operator(x), form.operator(y),
                           margin)


class SpectrumReport(Record):
    rep_name: str
    generator: str
    is_diagonal: bool
    max_deviation: float


def spectrum_check(rep: Representation, gen_name: str) -> SpectrumReport:
    """Compare a diagonal generator against its expected spectrum."""
    if gen_name not in rep.spectra:
        raise RepresentationError(
            f"no diagonal expectation for {gen_name!r} in {rep.name}")
    shifts = rep.shift_form().ops[rep.presentation.gen_index(gen_name)]
    if any(np.any(w != 0) for d, w in shifts.items() if d != 0):
        raise RepresentationError(
            f"matrix of {gen_name!r} in {rep.name} is not diagonal")
    diagonal = shifts.get(0, _filled(rep.dim, None, 0))
    dev = np.max(np.abs(diagonal - rep.spectra[gen_name]))
    return SpectrumReport(rep.name, gen_name, True, float(dev))


# -- exact basis-monomial machinery ---------------------------------------------

FAMILIES = ("PR", "PR*", "PRT", "PR*T*")


class BasisMonomial(Record):
    """One monomial P^k X^l (tail), X and tail fixed by the family tag.

    family "PR"    -> P^k R^l
    family "PR*"   -> P^k R*^l   (l >= 1; l = 0 would duplicate "PR")
    family "PRT"   -> P^k R^l T
    family "PR*T*" -> P^k R*^l T*
    """

    k: int
    l: int
    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RepresentationError(f"unknown family {self.family!r}")
        if self.k < 0 or self.l < 0:
            raise RepresentationError("negative exponent")
        if self.family == "PR*" and self.l == 0:
            raise RepresentationError("family PR* starts at l = 1")

    def word(self) -> tuple[str, ...]:
        """The monomial's letters, by generator name."""
        body = "R" if self.family in ("PR", "PRT") else "R*"
        tail = {"PRT": ("T",), "PR*T*": ("T*",)}.get(self.family, ())
        return ("P",) * self.k + (body,) * self.l + tail


def basis_monomials(kmax: int, lmax: int) -> tuple[BasisMonomial, ...]:
    """All basis monomials with k <= kmax and l <= lmax (60 at kmax=lmax=3)."""
    out = []
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            out.append(BasisMonomial(k, l, "PR"))
            if l >= 1:
                out.append(BasisMonomial(k, l, "PR*"))
            out.append(BasisMonomial(k, l, "PRT"))
            out.append(BasisMonomial(k, l, "PR*T*"))
    return tuple(out)


def exact_action(m: BasisMonomial, n: int, q: Fraction):
    """Action of the monomial on e_n in exact arithmetic.

    Returns (out_index, rational, radicand) with
    matrix column entry = rational * sqrt(radicand), or None when the
    vector is annihilated.  The letters act right to left through
    rho_rp2's rows of SHIFT_WEIGHTS: their signs multiply, their
    exponents of q add up, so the rational part is sign * q^e, exact,
    and the radicand is the float product of their edge factors.  An
    edge at or below the bottom of the ladder (a factor 1 - q^(4m) with
    m <= 0) annihilates.  The radicand depends only on
    (family, l, n), never on k; that is what makes exact coefficient
    recovery possible.
    """
    rows, qf = SHIFT_WEIGHTS["rho_rp2"][1], float(q)
    sign, exponent, radicand = 1, 0, 1.0
    for g in reversed(m.word()):
        d, s, slope, offset, edges = rows[g]
        for j in edges:
            if n <= j:
                return None
            radicand *= 1 - qf ** (4 * (n - j))
        sign, exponent, n = sign * s, exponent + slope * n + offset, n + d
    return n, sign * q ** exponent, radicand


class IndependenceReport(Record):
    monomial_count: int
    rank: int
    recovery_trials: int
    recovery_max_error: float

    @property
    def full_rank(self) -> bool:
        return self.rank == self.monomial_count

    def ok(self, tol: float = 1e-8) -> bool:
        return self.full_rank and self.recovery_max_error <= tol


def independence_check(monomials, q: float = 0.5, n_max: int = 40,
                       trials: int = 100, rng=None,
                       coeff_span: int = 5) -> IndependenceReport:
    """Rank and exact-recovery certificate for a monomial family.

    Both are decided in exact rational arithmetic, one elimination per
    displacement class.  The evaluation matrix (rows = observed (input,
    output) coordinate pairs for inputs 0..n_max, columns = monomials) is
    block-diagonal by class, and within a class the row of input n is the
    class's rational row times the positive sqrt(radicand(n)).  So the
    rank is the sum of the classes' rational ranks; a class whose square
    system on its first nodes is singular raises instead of reporting a
    short rank.

    Recovery: for seeded random integer coefficient vectors, the
    coordinates of the combined action are computed exactly and the
    coefficients are re-extracted from the same systems, every trial's
    right-hand side in the one elimination of its class; the shared
    square root cancels, so the reported error is a hard zero unless
    something is genuinely wrong.
    """
    if not 0 < q < 1:
        raise RepresentationError("q must lie strictly between 0 and 1")
    if trials < 0:
        raise RepresentationError("trials must not be negative")
    monomials = tuple(monomials)
    if not monomials:
        raise RepresentationError("empty monomial family")
    qf = Fraction(q)
    actions = [[exact_action(m, n, qf) for n in range(n_max + 1)]
               for m in monomials]

    # one system per displacement class: the coordinate at node n is
    # sqrt(radicand(n)) * sum_k c_k rat_k(n) and the radical is common to
    # the class, so the system is in the rational parts alone; each row
    # is scaled to integers, which leaves its solution and rank unchanged
    rng = rng if rng is not None else _default_rng()
    drawn = [[rng.randint(-coeff_span, coeff_span) for _ in monomials]
             for _ in range(trials)]
    classes: dict[tuple[str, int], list[int]] = {}
    for idx, m in enumerate(monomials):
        classes.setdefault((m.family, m.l), []).append(idx)
    rank, max_err = 0, 0.0
    for (family, l), members in classes.items():
        nodes = [n for n, hit in enumerate(actions[members[0]])
                 if hit is not None][:len(members)]
        if len(nodes) < len(members):
            raise RepresentationError(
                f"insufficient n_max for family {family} l={l}")
        rows = []
        for n in nodes:
            rats = [actions[i][n][1] for i in members]
            den = math.lcm(*(r.denominator for r in rats))
            row = [r.numerator * (den // r.denominator) for r in rats]
            rows.append(row + [sum(c[i] * a for i, a in zip(members, row))
                               for c in drawn])
        reduced, pivots = gauss_jordan(rows, len(members))
        if len(pivots) < len(members):
            raise RepresentationError("singular recovery system")
        rank += len(pivots)
        for i, row in zip(members, reduced):
            max_err = max([max_err] + [abs(float(r - c[i])) for r, c
                                       in zip(row[len(members):], drawn)])
    return IndependenceReport(len(monomials), rank, trials, max_err)


def _default_rng():
    import random
    return random.Random(0)
