from fractions import Fraction

import pytest

from qcstar.coefficients import QLaurent
from qcstar.ncalgebra import presentation


def zero():
    return QLaurent()


def is_zero(c):
    return not c.items()


def test_constructors_and_items():
    z = zero()
    assert is_zero(z) and not z
    one = QLaurent.one()
    assert one.items() == [(0, Fraction(1))]
    half = QLaurent.rational(Fraction(1, 2))
    assert half.items() == [(0, Fraction(1, 2))]
    p = QLaurent.q_power(-4, Fraction(3, 2))
    assert p.items() == [(-4, Fraction(3, 2))]
    # zero coefficients are dropped on construction
    assert QLaurent({2: 0, 3: Fraction(1)}).items() == [(3, Fraction(1))]


def test_arithmetic():
    a = QLaurent.q_power(2) + QLaurent.rational(1)
    b = QLaurent.q_power(-2, Fraction(1, 3))
    assert (a * b).items() == [(-2, Fraction(1, 3)), (0, Fraction(1, 3))]
    assert is_zero(a - a)
    assert is_zero(-a + a)
    # ints and Fractions coerce on either side
    assert (a * 3).items() == [(0, Fraction(3)), (2, Fraction(3))]
    assert (2 + QLaurent.q_power(1)).items() == [(0, Fraction(2)),
                                                 (1, Fraction(1))]
    assert is_zero(1 - QLaurent.one())


def test_cancellation_inside_sum():
    a = QLaurent({0: 1, 4: Fraction(2, 7)})
    b = QLaurent({4: Fraction(-2, 7)})
    assert (a + b).items() == [(0, Fraction(1))]


def test_scale_exponents():
    a = QLaurent({-2: Fraction(1, 2), 3: 5})
    assert a.scale_exponents(4).items() == [(-8, Fraction(1, 2)),
                                            (12, Fraction(5))]
    assert a.scale_exponents(1) == a


def test_conjugate_is_identity_on_real_coefficients():
    # coefficients are real, so the involution leaves them as they are
    a = QLaurent({-2: Fraction(1, 2), 3: 5})
    p = presentation("sphere")
    assert p.gen("K").scale(a).star() == p.gen("K").scale(a)
    assert p.gen("L").scale(a).star() == p.gen("L*").scale(a)


def test_evaluate():
    a = QLaurent({-1: Fraction(1, 2), 2: 1})
    assert a.evaluate(Fraction(1, 2)) == Fraction(5, 4)
    assert a.evaluate(0.5) == pytest.approx(1.25)
    assert zero().evaluate(0.3) == 0


def test_equality_and_hash():
    a = QLaurent({1: 2})
    b = QLaurent.q_power(1) + QLaurent.q_power(1)
    assert a == b and hash(a) == hash(b)
    assert a != QLaurent.q_power(1)


def test_str_forms():
    assert str(zero()) == "0"
    assert str(QLaurent.one()) == "1"
    assert str(QLaurent.q_power(2)) == "q^2"
    assert str(QLaurent.q_power(1)) == "q"
    assert str(QLaurent.q_power(-4, Fraction(3, 2))) == "(3/2)q^-4"
    s = str(QLaurent({0: Fraction(1, 2), 2: -1}))
    assert "1/2" in s and "q^2" in s
