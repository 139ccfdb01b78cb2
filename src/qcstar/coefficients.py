"""Exact arithmetic: coefficients of the algebra engine, Fraction elimination.

Every coefficient is a Laurent polynomial in the deformation parameter q
with rational coefficients, stored as one Kronecker-packed integer over
a common denominator (QLaurent).  All arithmetic is exact; floats only
appear when a coefficient is evaluated at a numeric value of q.
gauss_jordan is the package's Fraction elimination; it serves the
coefficient recovery in representations only.  ktheory's rational ranks
and determinants run the other one, fraction-free (Bareiss) over the
integers, which is the faster one on small integer matrices.  The
recovery systems stay with Fractions: at q = 0.3, Bareiss makes their
many right-hand sides multiples of a determinant thousands of bits long,
and takes three times as long.

Coefficients and the terms of elements are written one way:
_q_monomial writes |c| q^e and _signed_sum joins signed terms, and both
QLaurent.__str__ and ncalgebra's element writer call them.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction


class QLaurent:
    """Laurent polynomial sum_n c_n q^n with rational c_n, packed.

    Immutable in value.  The coefficients are integer digits over one
    common denominator, c_(lo + step k) = d_k / den, and the digits are
    one Kronecker-packed integer num = sum_k d_k 2^(w k), balanced digits
    of w bits (Harvey, J. Symbolic Comput. 2009): a product is one integer
    product and a sum one integer sum.  The step leaves out exponents
    that cannot occur; every rule of the sphere, rp2 and suq2_mod_b
    moves q by an even power, so their coefficients need half the slots.

    A proven bound on every |d_k| is carried through each operation, and
    the slot width grows before a digit could overflow it.  _tighten
    brings a value to its canonical form: lowest digit nonzero, the
    largest step, den coprime to the digits, the exact bound and the
    smallest width.  Equality and hashing compare canonical forms, and
    the normal-form engine keeps only tightened values.  num == 0 is the
    zero test.
    """

    __slots__ = ("_num", "_lo", "_step", "_den", "_w", "_bound", "_tight")

    def __init__(self, terms=None):
        digits, lo, den = [], 0, 1
        clean: dict[int, Fraction] = {}
        if terms:
            for exponent, coeff in terms.items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    clean[int(exponent)] = coeff
        if len(clean) == 1:   # a monomial, already canonical
            (lo, c), = clean.items()
            self._num, self._lo, self._step, self._den = (
                c.numerator, lo, 0, c.denominator)
            self._bound = abs(c.numerator)
            self._w, self._tight = _width(self._bound), True
            return
        if clean:
            lo = min(clean)
            den = math.lcm(*[c.denominator for c in clean.values()])
            digits = [0] * (max(clean) - lo + 1)
            for e, c in clean.items():
                digits[e - lo] = c.numerator * (den // c.denominator)
        self._set(digits, lo, 1, den)

    def _set(self, digits: list[int], lo: int, step: int, den: int) -> None:
        """Store sum_k digits[k] q^(lo + step k) / den canonically."""
        i = next((k for k, d in enumerate(digits) if d), None)
        if i is None:
            self._num, self._lo, self._step, self._den, self._w = 0, 0, 0, 1, 8
            self._bound, self._tight = 0, True
            return
        j = len(digits)
        while not digits[j - 1]:
            j -= 1
        g = math.gcd(*[k - i for k in range(i + 1, j) if digits[k]])
        digits = digits[i:j:g] if g > 1 else digits[i:j]
        c = math.gcd(den, *digits)
        if c > 1:
            digits = [d // c for d in digits]
        bound = max(map(abs, digits))
        w = _width(bound)
        self._num, self._lo, self._den, self._w = (
            _pack(digits, w), lo + step * i, den // c, w)
        self._step = step * g if len(digits) > 1 else 0
        self._bound, self._tight = bound, True

    @classmethod
    def one(cls) -> "QLaurent":
        return _ONE

    @classmethod
    def rational(cls, value) -> "QLaurent":
        return cls({0: Fraction(value)})

    @classmethod
    def q_power(cls, exponent: int, coeff=1) -> "QLaurent":
        return cls({exponent: Fraction(coeff)})

    def _digits(self) -> list[int]:
        return _unpack(self._num, self._w) if self._num else []

    def _tighten(self) -> "QLaurent":
        """Bring the representation to canonical form, in place; the
        value does not change.  Returns self."""
        if not self._tight:
            self._set(self._digits(), self._lo, self._step, self._den)
        return self

    def _integer_terms(self) -> list[tuple[int, int]]:
        """(exponent, digit) for the nonzero digits, in increasing order
        of exponent; each coefficient is its digit over _den."""
        lo, step, num = self._lo, self._step, self._num
        if abs(num) >> (self._w - 1) == 0:   # one digit, or none
            return [(lo, num)] if num else []
        return [(lo + step * k, d) for k, d in enumerate(self._digits()) if d]

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms as (exponent, coefficient) pairs, sorted by exponent."""
        den = self._den
        if den == 1:
            return [(e, Fraction(d)) for e, d in self._integer_terms()]
        return [(e, Fraction(d, den)) for e, d in self._integer_terms()]

    def __bool__(self) -> bool:
        return self._num != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if not b._num:
            return a
        if not a._num:
            return b
        while True:
            g = math.gcd(a._den, b._den)
            sa, sb = b._den // g, a._den // g
            bound = a._bound * sa + b._bound * sb
            w = a._w if a._w > b._w else b._w
            if bound >> (w - 1) and not (a._tight and b._tight):
                a, b = a._tighten(), b._tighten()   # grow only if it must
                continue
            break
        w = max(w, _width(bound))
        lo = a._lo if a._lo < b._lo else b._lo
        step = math.gcd(a._step, b._step, a._lo - b._lo)
        if not step:   # two monomials of one exponent
            num = a._num * sa + b._num * sb
        else:
            num = ((_at(a, w, step) * sa << w * ((a._lo - lo) // step))
                   + (_at(b, w, step) * sb << w * ((b._lo - lo) // step)))
        return _make(num, lo, step, a._den * sa, w, bound) if num else _ZERO

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
        out = _make(-self._num, self._lo, self._step, self._den, self._w,
                    self._bound)
        out._tight = self._tight
        return out

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if b is _ONE:
            return a
        if a is _ONE:
            return b
        if not (a._num and b._num):
            return _ZERO
        if abs(a._num) >> (a._w - 1) == 0:
            a, b = b, a
        if abs(b._num) >> (b._w - 1) == 0:
            # b is one digit d q^lo / den: scale a's digits, no repacking
            d = b._num
            if a._bound * abs(d) >> (a._w - 1):
                a = a._tighten()
            bound = a._bound * abs(d)
            w = a._w if a._w > bound.bit_length() else _width(bound)
            return _make(_at(a, w, a._step) * d, a._lo + b._lo, a._step,
                         a._den * b._den, w, bound)
        while True:
            # a product digit sums at most min(slots) products of digits
            slots = min(abs(a._num).bit_length() // a._w,
                        abs(b._num).bit_length() // b._w) + 1
            bound = a._bound * b._bound * slots
            w = a._w if a._w > b._w else b._w
            if bound >> (w - 1) and not (a._tight and b._tight):
                a, b = a._tighten(), b._tighten()
                continue
            break
        w = max(w, _width(bound))
        step = math.gcd(a._step, b._step)
        return _make(_at(a, w, step) * _at(b, w, step), a._lo + b._lo, step,
                     a._den * b._den, w, bound)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._tighten(), other._tighten()
        return (a._num, a._lo, a._step, a._den) == (b._num, b._lo, b._step,
                                                    b._den)

    def __hash__(self):
        a = self._tighten()
        return hash((a._num, a._lo, a._step, a._den))

    def scale_exponents(self, factor: int) -> "QLaurent":
        """Substitute q -> q^factor (exact, exponents multiply)."""
        return QLaurent({e * factor: c for e, c in self.items()})

    def evaluate(self, q):
        """Numeric value at a given q (float or complex), summed in
        increasing order of exponent."""
        total = 0.0
        den = self._den
        for e, d in self._integer_terms():
            total = total + (d / den) * q ** e
        return total

    def __str__(self):
        return _signed_sum((str(abs(c)) if e == 0 else _q_monomial(abs(c), e),
                            c < 0) for e, c in self.items())

    def __repr__(self):
        return f"QLaurent({self})"


def _make(num: int, lo: int, step: int, den: int, w: int,
          bound: int) -> QLaurent:
    """A QLaurent from its parts, not known to be canonical."""
    out = QLaurent.__new__(QLaurent)
    out._num, out._lo, out._step, out._den, out._w = num, lo, step, den, w
    out._bound, out._tight = bound, False
    return out


def _width(bound: int) -> int:
    """Slot width for balanced digits of absolute value at most bound:
    bound's bits and a sign bit, rounded up to 8, 16, 32 or a multiple
    of 64, so that digits unpack in C for the widths up to 64."""
    bits = bound.bit_length() + 1
    if bits > 64:
        return (bits + 63) & ~63
    return 8 if bits <= 8 else 16 if bits <= 16 else 32 if bits <= 32 else 64


_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _halves(w: int, n: int) -> int:
    """2^(w-1) in each of n slots of w bits: added, it makes every
    balanced digit nonnegative without a carry."""
    return int.from_bytes((bytes((w >> 3) - 1) + b"\x80") * n, "little")


def _unpack(num: int, w: int) -> list[int]:
    """The balanced digits of num in slots of w bits, lowest first; the
    top one may be zero.  A top digit d_t != 0 makes |num| at least
    2^(w t - 1), so bit_length // w + 1 slots hold them all."""
    n = abs(num).bit_length() // w + 1
    if n == 1:
        return [num]   # a lone digit, the common case
    step = w >> 3
    raw = (num + _halves(w, n)).to_bytes(n * step, "little")
    code = _STRUCT_CODES.get(w)
    if code:
        vals = struct.unpack(f"<{n}{code}", raw)
    else:
        vals = [int.from_bytes(raw[i:i + step], "little")
                for i in range(0, n * step, step)]
    return list(map((1 << (w - 1)).__rsub__, vals))


def _pack(digits: list[int], w: int) -> int:
    """sum_k digits[k] 2^(w k), every |digit| below 2^(w-1)."""
    half, n = 1 << (w - 1), len(digits)
    if n == 1:
        return digits[0]
    code = _STRUCT_CODES.get(w)
    if code:
        raw = struct.pack(f"<{n}{code}", *map(half.__add__, digits))
    else:
        raw = b"".join((d + half).to_bytes(w >> 3, "little") for d in digits)
    return int.from_bytes(raw, "little") - _halves(w, n)


def _at(x: QLaurent, w: int, step: int) -> int:
    """x's packed digits at slot width w >= x._w and a step that divides
    x's, or any step if x has one digit."""
    if x._w == w and x._step == step or abs(x._num) >> (x._w - 1) == 0:
        return x._num   # a lone digit packs as itself at any width
    digits = x._digits()
    if x._step != step and len(digits) > 1:
        spread = [0] * ((len(digits) - 1) * (x._step // step) + 1)
        spread[::x._step // step] = digits
        digits = spread
    return _pack(digits, w)


def _coerce(value):
    if isinstance(value, QLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        return QLaurent({0: value})
    return NotImplemented


_ONE = QLaurent({0: 1})
_ZERO = QLaurent()


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
