"""Exact arithmetic: coefficients of the algebra engine, Fraction elimination.

Every coefficient is a Laurent polynomial in the deformation parameter q
with rational coefficients, stored sparsely by exponent.  All arithmetic
is exact; floats only appear when a coefficient is evaluated at a numeric
value of q.  gauss_jordan is the package's Fraction elimination; it
serves the coefficient recovery in representations only.  ktheory's
rational ranks and determinants run the other one, fraction-free
(Bareiss) over the integers, which is the faster one on small integer
matrices.  The recovery systems stay with Fractions: at q = 0.3, Bareiss
makes their many right-hand sides multiples of a determinant thousands
of bits long, and takes three times as long.

Coefficients and the terms of elements are written one way:
_q_monomial writes |c| q^e and _signed_sum joins signed terms, and both
QLaurent.__str__ and ncalgebra's element writer call them.
"""

from __future__ import annotations

from fractions import Fraction


class QLaurent:
    """Sparse Laurent polynomial sum_n c_n q^n with rational c_n.

    Immutable.  Zero terms are never stored, so ``not self._terms``
    is the canonical zero test.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, Fraction] = {}
        if terms:
            for exponent, coeff in terms.items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    clean[int(exponent)] = coeff
        self._terms = clean

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def rational(cls, value) -> "QLaurent":
        return cls({0: Fraction(value)})

    @classmethod
    def q_power(cls, exponent: int, coeff=1) -> "QLaurent":
        return cls({exponent: Fraction(coeff)})

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms as (exponent, coefficient) pairs, sorted by exponent."""
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for e, c in other._terms.items():
            s = merged.get(e, _F0) + c
            if s:
                merged[e] = s
            else:
                merged.pop(e, None)
        out = QLaurent.__new__(QLaurent)
        out._terms = merged
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        out = QLaurent.__new__(QLaurent)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = prod.get(e, _F0) + c1 * c2
                if s:
                    prod[e] = s
                else:
                    prod.pop(e, None)
        out = QLaurent.__new__(QLaurent)
        out._terms = prod
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def scale_exponents(self, factor: int) -> "QLaurent":
        """Substitute q -> q^factor (exact, exponents multiply)."""
        out = QLaurent.__new__(QLaurent)
        out._terms = {e * factor: c for e, c in self._terms.items()}
        return out

    def evaluate(self, q):
        """Numeric value at a given q (float or complex)."""
        total = 0.0
        for e, c in self._terms.items():
            total = total + (c.numerator / c.denominator) * q ** e
        return total

    def __str__(self):
        return _signed_sum((str(abs(c)) if e == 0 else _q_monomial(abs(c), e),
                            c < 0) for e, c in self.items())

    def __repr__(self):
        return f"QLaurent({self})"


def _coerce(value):
    if isinstance(value, QLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        return QLaurent({0: Fraction(value)})
    return NotImplemented


_F0 = Fraction(0)


def _q_monomial(mag: Fraction, e: int) -> str:
    """|c| q^e: nothing for 1, a fraction in parentheses, then q^e."""
    scalar = ("" if mag == 1 else str(mag) if mag.denominator == 1
              else f"({mag})")
    return scalar + ("" if e == 0 else "q" if e == 1 else f"q^{e}")


def _signed_sum(terms) -> str:
    """Join (body, negative) pairs as -a + b - c, or 0 for none."""
    pieces = []
    for body, neg in terms:
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces) or "0"


def gauss_jordan(rows, width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    rows are equal-length sequences of ints or Fractions; pivots are
    sought in the first width columns only, so columns past width are
    carried along as right-hand sides.  Returns the reduced rows and the
    pivot columns, whose count is the rank of the first width columns.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots
