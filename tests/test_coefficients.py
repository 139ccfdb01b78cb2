import random
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


# -- the packed store against a Fraction-dict reference ----------------------

def reference(x):
    """x as an exponent -> Fraction dict, the store QLaurent replaced."""
    return dict(x.items())


def ref_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_evaluate(a, q):
    total = 0.0
    for e in sorted(a):
        total = total + (a[e].numerator / a[e].denominator) * q ** e
    return total


def random_laurent(rng):
    """Entries past 2^64, negative and fractional ones over mixed
    denominators, and exponents with gaps of varying step."""
    step = rng.choice((1, 2, 3, 4, 6))
    base = rng.randint(-40, 40)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = base + step * rng.randint(-8, 8) + (rng.random() < 0.1)
        kind = rng.random()
        if kind < 0.2:
            c = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(60, 200))
        elif kind < 0.5:
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        else:
            c = rng.randint(-3, 3)
        terms[e] = c
    return QLaurent(terms)


@pytest.mark.parametrize("seed", range(4))
def test_packed_arithmetic_matches_a_fraction_dict(seed):
    rng = random.Random(seed)
    q = Fraction(2, 3)
    for _ in range(150):
        a, b = random_laurent(rng), random_laurent(rng)
        ra, rb = reference(a), reference(b)
        assert reference(a + b) == ref_sum(ra, rb)
        assert reference(a - b) == ref_sum(ra, rb, -1)
        assert reference(a * b) == ref_product(ra, rb)
        assert reference(-a) == {e: -c for e, c in ra.items()}
        assert reference(a * 7) == reference(Fraction(-1, 5) * a * -35)
        assert a.evaluate(q) == ref_evaluate(ra, q)
        assert a.evaluate(0.7) == ref_evaluate(ra, 0.7)
        # equal values from different histories are equal and hash alike
        for x, y in ((a + b - b, a), (a * b, b * a), ((a + b) * (a - b),
                                                      a * a - b * b)):
            assert x == y and hash(x) == hash(y)
            assert reference(x) == reference(y)


def test_products_grow_the_slot_width_and_stay_exact():
    big = QLaurent({0: 2 ** 62 + 1, 3: -(2 ** 63) + 5, 7: 3})
    ref = reference(big)
    x, want = big, ref
    for _ in range(4):
        wider = x * big
        want = ref_product(want, ref)
        assert wider._w > x._w   # the width had to grow
        assert reference(wider) == want
        x = wider
    assert max(abs(c) for c in want.values()) > 2 ** 300
    # a long sum of cancelling terms keeps a bound far above its digits;
    # it is tightened, not widened, when a product would overflow it
    s = QLaurent()
    for k in range(200):
        s = s + QLaurent({2 * k: 2 ** 40}) - QLaurent({2 * k: 2 ** 40 - 1})
    assert reference(s) == {2 * k: Fraction(1) for k in range(200)}
    assert reference(s * s) == ref_product(reference(s), reference(s))
    assert (s * s)._w <= 16


def test_cancellation_to_zero_is_the_canonical_zero():
    a = QLaurent({-3: Fraction(1, 3), 0: 2 ** 70, 9: Fraction(-5, 6)})
    b = QLaurent({1: 4, 2: Fraction(1, 7)})
    for z in (a - a, a * b - b * a, (a + b) - a - b, a * 0):
        assert not z and z.items() == [] and str(z) == "0"
        assert z == QLaurent() and hash(z) == hash(QLaurent())
        assert z.evaluate(0.5) == 0


def test_mixed_denominators_reduce_to_the_canonical_form():
    a = QLaurent({0: Fraction(1, 6), 2: Fraction(1, 4)})
    b = QLaurent({0: Fraction(1, 3), 2: Fraction(-1, 12)})
    assert (a + b).items() == [(0, Fraction(1, 2)), (2, Fraction(1, 6))]
    assert (a * 12).items() == [(0, Fraction(2)), (2, Fraction(3))]
    half = QLaurent.rational(Fraction(1, 2))
    one = QLaurent.one()
    assert half * 2 == one and hash(half * 2) == hash(one)
    # exponents on a step of 6 meet one off the step
    c = QLaurent({-4: 1, 2: 1, 8: 1}) + QLaurent.q_power(1, Fraction(2, 9))
    assert c.items() == [(-4, Fraction(1)), (1, Fraction(2, 9)),
                         (2, Fraction(1)), (8, Fraction(1))]
