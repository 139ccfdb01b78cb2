"""Truncated weighted-shift models of the built-in *-algebras.

Every infinite-dimensional representation here is a weighted shift on a
basis e_0 .. e_{N-1}: a generator sends e_k to a scalar times e_{k+d}
for a fixed displacement d, and anything landing outside the truncation
window is dropped.  Dropping only corrupts entries near the top index,
so all assertions restrict to a compressed block: rows and columns
0 .. N-1-margin, where margin is the shift bound times the word degree
involved.  On that block the truncated operators agree exactly with the
infinite model, and residuals are pure floating-point roundoff.

Generators are stored as what they are, (displacement, weights) pairs
(ShiftForm), and a word is applied shift by shift in O(N) per letter.
One store serves two precisions: dps=None holds complex128 weights, a
digit count holds mpmath numbers rebuilt from exact q at that precision,
for checks whose cancellation exceeds float64's digits.  A dense matrix
is formed only on request (evaluate, Representation.matrix).

The independence check for the projective-space basis monomials works in
exact rational arithmetic.  Each basis family acts on e_n by a rational
multiple of a single square root, and the square root is shared by all
monomials of the same displacement class, so it cancels from the linear
systems and coefficient recovery reduces to exact Vandermonde solves.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np

from . import ncalgebra
from .coefficients import QLaurent
from .ncalgebra import AlgebraPresentation, Element, GeneratorMap


class RepresentationError(ValueError):
    """Invalid representation request or mismatched evaluation."""


REP_NAMES = ("rho_plus", "rho_minus", "pi_plus", "pi_minus",
             "rho_rp2", "rho_theta")


class Representation:
    """A presentation's generators as weighted shifts, truncated at dim.

    block_dims records the direct-sum structure; compression windows are
    applied per block so boundary artifacts of every summand are masked.

    build(dps) constructs the generators under the working precision of
    dps and returns (q, ops): q as a float for dps=None and exact at dps
    digits otherwise, ops[i] the weighted shifts of generator i (see
    ShiftForm).  shift_form(dps) calls it once per precision.
    """

    def __init__(self, presentation: AlgebraPresentation, name: str,
                 q: float, build, block_dims: tuple[int, ...],
                 shift_bound: int, spectra: dict[str, np.ndarray] | None = None,
                 theta: float | None = None):
        self.presentation = presentation
        self.name = name
        self.q = q
        self.theta = theta
        self.block_dims = tuple(block_dims)
        self.dim = sum(block_dims)
        self.shift_bound = shift_bound
        self.spectra = dict(spectra or {})
        self._build = build
        self._shift_forms: dict[int | None, ShiftForm] = {}

    def matrix(self, gen_name: str) -> np.ndarray:
        """Dense float64 matrix of one generator, formed on request."""
        form = self.shift_form()
        return _dense(form.ops[self.presentation.gen_index(gen_name)], self.dim)

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
        mpmath numbers at dps significant digits otherwise."""
        if dps not in self._shift_forms:
            with _precision(dps):
                q, ops = self._build(dps)
            self._shift_forms[dps] = ShiftForm(self, dps, q, ops)
        return self._shift_forms[dps]


class ShiftForm:
    """A representation's generators as sums of weighted shifts.

    ops[i] maps displacements to weights: generator i sends e_k to the
    sum over d of ops[i][d][k] * e_{k+d}.  Weights span the whole direct
    sum and are zero wherever the target index would leave the block of
    e_k, so products truncate exactly as truncated matrices do.  They are
    complex128 arrays for dps=None and object arrays of mpmath numbers at
    dps digits otherwise.  Words are composed shift by shift and
    memoised, never as dense matrices.
    """

    def __init__(self, rep: Representation, dps: int | None, q, ops):
        self.rep = rep
        self.dps = dps
        self.q = q
        self.ops = ops
        self._words: dict[tuple[int, ...], dict[int, np.ndarray]] = {
            (): {0: _filled(rep.dim, dps, 1)}}

    def _word(self, word: tuple[int, ...]) -> dict[int, np.ndarray]:
        # letters act right to left: the word is its first letter applied
        # after the rest
        if word not in self._words:
            self._words[word] = _then(self._word(word[1:]), self.ops[word[0]])
        return self._words[word]

    def element(self, x: Element) -> dict[int, np.ndarray]:
        """displacement -> weights of the operator of x."""
        if x.presentation is not self.rep.presentation:
            raise RepresentationError(
                f"element over {x.presentation.name} fed to a representation "
                f"of {self.rep.presentation.name}")
        out: dict[int, np.ndarray] = {}
        with _precision(self.dps):
            for word, coeff in x.terms().items():
                c = (coeff.evaluate(self.q) if self.dps is None
                     else _mp_value(coeff, self.q))
                for d, w in self._word(word).items():
                    out[d] = out[d] + w * c if d in out else w * c
        return out


def _precision(dps: int | None):
    return nullcontext() if dps is None else mpmath.workdps(dps)


def _filled(n: int, dps: int | None, value) -> np.ndarray:
    """n weights equal to value, in the number type of the precision."""
    if dps is None:
        return np.full(n, value, dtype=complex)
    return np.full(n, mpmath.mpf(value), dtype=object)


def _mp_value(coeff: QLaurent, q):
    """Exact-input evaluation of a coefficient at the working precision."""
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * q ** e
                       for e, c in coeff.items())


def _moved(w: np.ndarray, d: int) -> np.ndarray:
    """out[k] = w[k + d] where that index exists, zero elsewhere."""
    n = len(w)
    out = np.zeros_like(w)
    if abs(d) < n:
        out[max(0, -d):n - max(0, d)] = w[max(0, d):n - max(0, -d)]
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b, complex products through four real ones.

    numpy fuses the complex multiply, which leaves z * conj(z) with an
    imaginary part of rounding size; separate real products keep it 0.
    """
    if a.dtype == object:
        return a * b
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag
                                                       + a.imag * b.real)


def _then(first: dict[int, np.ndarray],
          second: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Shifts of (second @ first): apply first, then second."""
    out: dict[int, np.ndarray] = {}
    for d1, w1 in first.items():
        for d2, w2 in second.items():
            w = _mul(w1, _moved(w2, d1))
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


_FLOAT64 = SimpleNamespace(sqrt=math.sqrt,
                           expj=lambda t: cmath.exp(1j * t),
                           conj=lambda z: z.conjugate())


def _adjoint(shift):
    """(displacement, weight) of the adjoint of a real weighted shift."""
    d, w = shift
    return -d, lambda k: w(k - d)


def _base_shifts(name: str, q, theta, num) -> dict[str, tuple[int, object]]:
    """Displacement and weight function of every generator of a base rep.

    One set of formulas serves both precisions: float q with the math
    functions in ``num`` gives the float64 weights, an mpmath q with
    mpmath itself as ``num`` gives the high-precision ones.
    """
    if name == "rho_theta":
        z = num.expj(theta)
        return {"P": (0, lambda k: 0.0), "T": (0, lambda k: 0.0),
                "T*": (0, lambda k: 0.0),
                "R": (0, lambda k: z), "R*": (0, lambda k: num.conj(z))}
    if name in ("rho_plus", "rho_minus"):
        sign = 1.0 if name == "rho_plus" else -1.0
        a = (-1, lambda k: num.sqrt(1.0 - q ** (4 * k)))
        return {"a": a, "a*": _adjoint(a),
                "b": (0, lambda k: sign * q ** (2 * (k + 1)))}
    if name == "rho_rp2":
        t = (-1, lambda k: q ** (2 * (k - 1)) * num.sqrt(1.0 - q ** (4 * k)))
        r = (-2, lambda k: num.sqrt(max((1.0 - q ** (4 * k))
                                        * (1.0 - q ** (4 * (k - 1))), 0.0)))
        return {"P": (0, lambda k: q ** (4 * k)), "T": t, "T*": _adjoint(t),
                "R": r, "R*": _adjoint(r)}
    raise RepresentationError(f"unknown representation {name!r}")


def build_rep(name: str, q: float = 0.5, dim: int = 64,
              theta: float = 0.0) -> Representation:
    """Construct a named representation at truncation dimension dim.

    rho_plus / rho_minus act on the self-adjoint quantum SU(2) quotient,
    pi_plus / pi_minus are their pullbacks to the sphere along the
    isomorphism (structurally composed, not re-coded), rho_rp2 is the
    infinite-dimensional projective-space representation, and rho_theta
    is its one-dimensional circle family (theta is only used there).
    """
    if not 0.0 < q < 1.0:
        raise RepresentationError("q must lie strictly between 0 and 1")
    if name == "rho_theta":
        dim = 1
    elif dim < 4:
        raise RepresentationError("truncation dimension must be at least 4")
    if name in ("pi_plus", "pi_minus"):
        inner = build_rep("rho_plus" if name == "pi_plus" else "rho_minus",
                          q, dim)
        rep = compose_rep(inner, ncalgebra.builtin_morphism("F"), name=name)
        sign = 1.0 if name == "pi_plus" else -1.0
        rep.spectra["K"] = np.array([sign * q ** (2 * k) for k in range(dim)])
        return rep
    shifts = _base_shifts(name, q, theta, _FLOAT64)
    pname, shift_bound = {"rho_plus": ("suq2_mod_b", 1),
                          "rho_minus": ("suq2_mod_b", 1),
                          "rho_rp2": ("rp2", 2),
                          "rho_theta": ("rp2", 0)}[name]
    p = ncalgebra.presentation(pname)
    diagonal = "b" if pname == "suq2_mod_b" else "P"
    spectra = {diagonal: np.array([shifts[diagonal][1](k) for k in range(dim)])}

    def build(dps):
        qx, num = (q, _FLOAT64) if dps is None else (mpmath.mpf(q), mpmath)
        ops = {}
        for g, (d, w) in _base_shifts(name, qx, theta, num).items():
            weights = _filled(dim, dps, 0)
            for k in range(max(0, -d), min(dim, dim - d)):
                weights[k] = w(k)
            ops[p.gen_index(g)] = {d: weights}
        return qx, ops

    return Representation(p, name, q, build, (dim,), shift_bound,
                          spectra=spectra,
                          theta=theta if name == "rho_theta" else None)


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
        ops = {i: form.element(img) for i, img in gmap.images.items()}
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
        max(r1.shift_bound, r2.shift_bound), spectra=spectra,
        theta=r1.theta)


def evaluate(x: Element, rep: Representation) -> np.ndarray:
    """Dense float64 matrix of an element; unit word -> identity."""
    return _dense(rep.shift_form().element(x), rep.dim)


@dataclass(frozen=True)
class ResidualReport:
    rep_name: str
    dim: int
    margin: int
    entries: tuple[tuple[str, float], ...]

    def max_residual(self) -> float:
        return max((v for _, v in self.entries), default=0.0)

    def ok(self, tol: float) -> bool:
        return self.max_residual() <= tol


def _compressed_max(form: ShiftForm, fx: dict[int, np.ndarray],
                    fy: dict[int, np.ndarray], margin: int) -> float:
    """Max |entry| of the operator fx - fy on the compressed block."""
    good = np.zeros(form.rep.dim, dtype=bool)
    good[form.rep.good_indices(margin)] = True
    worst = 0.0
    with _precision(form.dps):
        for d in set(fx) | set(fy):
            # entry (k + d, k) counts when both k and k + d are in the block
            diff = (fx.get(d, 0) - fy.get(d, 0))[good & _moved(good, d)]
            worst = max(worst, float(np.max(np.abs(diff), initial=0.0)))
    return worst


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
                        _compressed_max(form, lhs, rhs, rep.shift_bound)))
    return ResidualReport(rep.name, rep.dim, rep.shift_bound, tuple(entries))


def element_mismatch(x: Element, y: Element, rep: Representation,
                     dps: int | None = None) -> float:
    """Compressed max |rho(x) - rho(y)|, margin scaled by degree.

    dps=None evaluates in float64.  A digit count evaluates both elements
    at that mpmath precision, from generators rebuilt out of exact q, so
    the only error left is rounding at dps digits.
    """
    margin = rep.shift_bound * max(x.degree(), y.degree(), 1)
    form = rep.shift_form(dps)
    return _compressed_max(form, form.element(x), form.element(y), margin)


def adjoint_mismatch(x: Element, rep: Representation) -> float:
    """Compressed deviation of rho(x*) from rho(x) conjugate-transposed."""
    form = rep.shift_form()
    # entry (k + d, k) moves to (k, k + d): displacement -d, read at k + d
    adjoint = {-d: _moved(w, -d).conj() for d, w in form.element(x).items()}
    return _compressed_max(form, form.element(x.star()), adjoint,
                           rep.shift_bound * max(x.degree(), 1))


@dataclass(frozen=True)
class SpectrumReport:
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


@dataclass(frozen=True)
class BasisMonomial:
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

    def displacement(self) -> int:
        if self.family == "PR":
            return -2 * self.l
        if self.family == "PR*":
            return 2 * self.l
        if self.family == "PRT":
            return -1 - 2 * self.l
        return 1 + 2 * self.l

    def to_element(self, p: AlgebraPresentation) -> Element:
        body = {"PR": ("R",), "PR*": ("R*",),
                "PRT": ("R",), "PR*T*": ("R*",)}[self.family]
        tail = {"PR": (), "PR*": (), "PRT": ("T",), "PR*T*": ("T*",)}[self.family]
        word = ("P",) * self.k + body * self.l + tail
        return p.word(*word)

    def label(self) -> str:
        bits = []
        if self.k:
            bits.append("P" if self.k == 1 else f"P^{self.k}")
        if self.l:
            base = "R" if self.family in ("PR", "PRT") else "R*"
            bits.append(base if self.l == 1 else f"{base}^{self.l}")
        if self.family == "PRT":
            bits.append("T")
        elif self.family == "PR*T*":
            bits.append("T*")
        return " ".join(bits) if bits else "1"


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
    vector is annihilated.  The radicand depends only on (family, l, n),
    never on k; that is what makes exact coefficient recovery possible.
    """
    q4 = q ** 4
    k, l = m.k, m.l

    def prod_range(lo: int, hi: int) -> Fraction:
        # product of (1 - q^{4j}) for j = lo .. hi; zero when any j <= 0
        total = Fraction(1)
        for j in range(lo, hi + 1):
            if j <= 0:
                return Fraction(0)
            total *= 1 - q4 ** j
        return total

    if m.family == "PRT":
        out = n - 1 - 2 * l
        radicand = (1 - q4 ** n) * prod_range(n - 2 * l, n - 1) \
            if n >= 1 else Fraction(0)
        rational = q ** (2 * (n - 1)) * q4 ** (k * out) if out >= 0 else None
    elif m.family == "PR*T*":
        out = n + 1 + 2 * l
        radicand = (1 - q4 ** (n + 1)) * prod_range(n + 2, n + 1 + 2 * l)
        rational = q ** (2 * n) * q4 ** (k * out)
    elif m.family == "PR":
        out = n - 2 * l
        radicand = prod_range(n - 2 * l + 1, n)
        rational = q4 ** (k * out) if out >= 0 else None
    else:  # PR*
        out = n + 2 * l
        radicand = prod_range(n + 1, n + 2 * l)
        rational = q4 ** (k * out)
    if out < 0 or radicand == 0:
        return None
    return out, rational, radicand


@dataclass(frozen=True)
class IndependenceReport:
    monomial_count: int
    rank: int
    recovery_trials: int
    recovery_max_error: float
    n_max: int

    @property
    def full_rank(self) -> bool:
        return self.rank == self.monomial_count

    def ok(self, tol: float = 1e-8) -> bool:
        return self.full_rank and self.recovery_max_error <= tol


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; raises on singular input."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise RepresentationError("singular recovery system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def independence_check(monomials, q: float = 0.5, n_max: int = 40,
                       trials: int = 100, rng=None,
                       coeff_span: int = 5) -> IndependenceReport:
    """Rank and exact-recovery certificate for a monomial family.

    Rank: the float evaluation matrix (rows = observed (input, output)
    coordinate pairs for inputs 0..n_max, columns = monomials) must have
    numerical rank equal to the monomial count, with columns normalized
    and singular values thresholded at 1e-10 of the largest.

    Recovery: for seeded random integer coefficient vectors, the
    coordinates of the combined action are computed exactly and the
    coefficients are re-extracted by solving one exact linear system per
    displacement class; the shared square root cancels, so recovery is
    exact and the reported error is a hard zero unless something is
    genuinely wrong.
    """
    monomials = tuple(monomials)
    if not monomials:
        raise RepresentationError("empty monomial family")
    qf = Fraction(q)

    # float rank matrix
    row_index: dict[tuple[int, int], int] = {}
    triplets = []
    for col, m in enumerate(monomials):
        for n in range(n_max + 1):
            hit = exact_action(m, n, qf)
            if hit is None:
                continue
            out, rational, radicand = hit
            key = (n, out)
            row = row_index.setdefault(key, len(row_index))
            triplets.append((row, col, float(rational) * math.sqrt(float(radicand))))
    mat = np.zeros((len(row_index), len(monomials)))
    for row, col, val in triplets:
        mat[row, col] += val
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        raise RepresentationError(
            "a monomial acts as zero on every tested index; raise n_max")
    sing = np.linalg.svd(mat / norms, compute_uv=False)
    rank = int(np.sum(sing > 1e-10 * sing[0]))

    # exact recovery per displacement class
    classes: dict[tuple[str, int], list[int]] = {}
    for idx, m in enumerate(monomials):
        classes.setdefault((m.family, m.l), []).append(idx)

    rng = rng if rng is not None else _default_rng()
    max_err = 0.0
    for _ in range(trials):
        coeffs = [Fraction(rng.randint(-coeff_span, coeff_span))
                  for _ in monomials]
        recovered: list[Fraction | None] = [None] * len(monomials)
        for (family, l), members in classes.items():
            size = len(members)
            nodes = []
            n = 0
            while len(nodes) < size:
                if n > n_max:
                    raise RepresentationError(
                        f"insufficient n_max for family {family} l={l}")
                if exact_action(monomials[members[0]], n, qf) is not None:
                    nodes.append(n)
                n += 1
            # coordinate at node n is sqrt(radicand(n)) * sum_k c_k rat_k(n);
            # the radical is common to the class, so work with the sums
            system = []
            data = []
            for node in nodes:
                rats = []
                for idx in members:
                    out, rational, _ = exact_action(monomials[idx], node, qf)
                    rats.append(rational)
                system.append(rats)
                data.append(sum(c * r for c, r in
                                zip((coeffs[i] for i in members), rats)))
            solved = _solve_exact(system, data)
            for idx, val in zip(members, solved):
                recovered[idx] = val
        err = max(abs(float(r - c)) for r, c in zip(recovered, coeffs))
        max_err = max(max_err, err)
    return IndependenceReport(len(monomials), rank, trials, max_err, n_max)


def _default_rng():
    import random
    return random.Random(0)


def theta_separation(q: float, thetas) -> list[dict]:
    """The circle family tells its members apart.

    For each pair theta_i != theta_j, the element R - e^{i theta_i} is
    killed by the theta_i representation but not by the theta_j one.
    Returns per-pair norms of both evaluations.
    """
    out = []
    for i, t1 in enumerate(thetas):
        rep1 = build_rep("rho_theta", q=q, theta=t1)
        for j, t2 in enumerate(thetas):
            if i == j:
                continue
            # R - e^{i t1}: the scalar is not rational, so assemble numerically
            m1 = rep1.matrix("R") - cmath.exp(1j * t1) * np.eye(1)
            rep2 = build_rep("rho_theta", q=q, theta=t2)
            m2 = rep2.matrix("R") - cmath.exp(1j * t1) * np.eye(1)
            out.append({
                "theta_killed": t1,
                "theta_other": t2,
                "norm_in_own": float(np.abs(m1).max()),
                "norm_in_other": float(np.abs(m2).max()),
            })
    return out
