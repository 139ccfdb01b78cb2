"""str() of coefficients and elements against reference writers.

The reference writers below are the two renderings the package had
before coefficients and elements shared one term writer, kept here
verbatim in behaviour: one for a QLaurent, one for a term and a sum of
terms of an Element.  Every normal form, golden file and random-element
digest is text they produced.
"""

import random
from fractions import Fraction

import pytest

from qcstar.coefficients import QLaurent
from qcstar.ncalgebra import presentation, random_element


def ref_qlaurent(coeff: QLaurent) -> str:
    items = coeff.items()
    if not items:
        return "0"
    pieces = []
    for e, c in items:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            if mag == 1:
                body = qpart
            elif mag.denominator == 1:
                body = f"{mag}{qpart}"
            else:
                body = f"({mag}){qpart}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def ref_term(coeff: QLaurent, word_text: str) -> tuple[str, bool]:
    items = coeff.items()
    if len(items) == 1:
        e, c = items[0]
        neg = c < 0
        mag = abs(c)
        if e == 0:
            scalar = ("" if mag == 1 else str(mag) if mag.denominator == 1
                      else f"({mag})")
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            if mag == 1:
                scalar = qpart
            elif mag.denominator == 1:
                scalar = f"{mag}{qpart}"
            else:
                scalar = f"({mag}){qpart}"
        if word_text == "1":
            body = scalar if scalar else str(mag)
        else:
            body = f"{scalar} {word_text}" if scalar else word_text
        return body, neg
    body = f"({ref_qlaurent(coeff)})"
    if word_text != "1":
        body = f"{body} {word_text}"
    return body, False


def ref_element(x) -> str:
    p, terms = x.presentation, x.terms()
    if not terms:
        return "0"
    chunks = []
    for w in sorted(terms, key=p.deglex_key):
        body, neg = ref_term(terms[w], p.format_word(w))
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


PRESENTATIONS = [("sphere", None), ("disc", None), ("rp2", None),
                 ("suq2_mod_b", None), ("sphere", Fraction(1, 2))]


def seeded(name, s, seed, count=20):
    p, rng = presentation(name, s=s), random.Random(seed)
    return p, [random_element(p, rng) for _ in range(count)]


@pytest.mark.parametrize("name, s", PRESENTATIONS)
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_elements_and_their_normal_forms(name, s, seed):
    p, xs = seeded(name, s, seed)
    multi_term = 0
    for x in xs:
        nf = p.normal_form(x)
        for y in (x, nf):
            assert str(y) == ref_element(y)
            for c in y.terms().values():
                assert str(c) == ref_qlaurent(c)
        multi_term += any(len(c.items()) > 1 for c in nf.terms().values())
    # normal forms carry the multi-term coefficients seeded elements lack
    if name != "disc":
        assert multi_term


def test_difference_with_partial_cancellation():
    p = presentation("sphere", s=Fraction(1, 2))
    x = p.parse("2 K + (1/2)q L - L* + (3/2)q^-2 K L + 1")
    y = p.parse("2 K + q^2 L - q^-2 K L + 5/2")
    diff = x - y
    assert "K L" in str(diff) and "(" in str(diff)
    for z in (diff, y - x, p.normal_form(diff * diff), x - x, p.one(),
              -p.one(), p.parse("(1/2)"), p.parse("-3")):
        assert str(z) == ref_element(z)


COEFFICIENTS = [Fraction(1), Fraction(-1), Fraction(3), Fraction(-3),
                Fraction(1, 2), Fraction(-5, 3)]


@pytest.mark.parametrize("c0", COEFFICIENTS)
@pytest.mark.parametrize("c1", COEFFICIENTS)
def test_coefficients_at_exponents_zero_and_one(c0, c1):
    p = presentation("rp2")
    for terms in ({0: c0}, {1: c1}, {0: c0, 1: c1}, {-2: c1, 0: c0, 3: c1},
                  {-1: c0, 1: c1}, {}):
        coeff = QLaurent(terms)
        assert str(coeff) == ref_qlaurent(coeff)
        assert repr(coeff) == f"QLaurent({ref_qlaurent(coeff)})"
        for word in ("1", "P", "R T"):
            x = p.parse(word).scale(coeff)
            assert str(x) == ref_element(x)
