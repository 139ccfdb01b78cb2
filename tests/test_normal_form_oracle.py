"""normal_form against the stack reducer it replaced (reference_reducer).

The engine folds each word through a table of nf(u g); the reference
rewrites leftmost matches one at a time.  Both must give the same
normal form, terms in deglex order, on seeded elements, their products,
morphism images, and a presentation with a rule of left length three.
"""

import random
from fractions import Fraction

import pytest

from qcstar.coefficients import QLaurent
from qcstar.ncalgebra import (
    BUILTIN_MORPHISMS,
    AlgebraPresentation,
    RewriteBudgetError,
    builtin_morphism,
    check_local_confluence,
    presentation,
    random_element,
)
from reference_reducer import reference_normal_form

ALGEBRAS = [("sphere", Fraction(s)) for s in ("0", "1/3", "1/2", "1")] + [
    ("disc", None), ("rp2", None), ("suq2_mod_b", None)]


def built(name, s):
    return presentation(name) if s is None else presentation(name, s)


def assert_same(p, x):
    got, want = p.normal_form(x), reference_normal_form(p, x)
    assert got == want, (str(x), str(got), str(want))
    assert list(got.terms()) == list(want.terms())   # deglex, both
    assert str(got) == str(want)


@pytest.mark.parametrize("name, s", ALGEBRAS)
def test_seeded_elements_and_products_match_the_reference(name, s):
    p = built(name, s)
    rng = random.Random(21)
    for _ in range(25):
        x = random_element(p, rng, max_degree=5)
        y = random_element(p, rng, max_degree=3)
        for z in (x, x * y, y * x - x):
            assert_same(p, z)


@pytest.mark.parametrize("name", BUILTIN_MORPHISMS)
def test_morphism_images_match_the_reference(name):
    m = builtin_morphism(name)
    rng = random.Random(7)
    for _ in range(20):
        x = random_element(m.source, rng, max_degree=4)
        image = m._image(x)
        assert m.apply(x) == reference_normal_form(m.target, image)
        assert_same(m.target, image)


def test_deep_words_match_the_reference():
    su = presentation("suq2_mod_b")
    for n in range(1, 6):
        assert_same(su, su.word(*(["a*"] * n + ["a"] * n)))
    rp2 = presentation("rp2")
    assert_same(rp2, rp2.parse("(P + R - R* + T - T*)^4"))
    sphere = presentation("sphere", Fraction(1, 2))
    assert_same(sphere, sphere.parse("(K - L + L*)^5"))


def cubic():
    """t^3 = q t + (1 - q), t commuting with s: one rule of left length
    three, which overlaps itself and the commutation rule."""
    return AlgebraPresentation("cubic", ("s", "t"), [
        (("t", "s"), {("s", "t"): QLaurent.one()}),
        (("t", "t", "t"), {("t",): QLaurent.q_power(1),
                           (): QLaurent({0: 1, 1: -1})}),
    ])


def test_a_rule_of_left_length_three():
    p = cubic()
    assert check_local_confluence(p) == []
    assert str(p.normal_form(p.parse("t t t s"))) == "(1 - q) s + q s t"
    rng = random.Random(3)
    for _ in range(60):
        x = random_element(p, rng, max_degree=7)
        assert_same(p, x * random_element(p, rng, max_degree=3))


def test_the_step_count_does_not_depend_on_the_table():
    su = presentation("suq2_mod_b")
    letters = ["a*"] * 4 + ["a"] * 4

    def least_budget(p):
        x = p.word(*letters)
        for budget in range(1, 200):
            p.step_budget = budget
            try:
                p.normal_form(x)
            except RewriteBudgetError:
                continue
            return budget
        raise AssertionError("no budget up to 200 suffices")

    cold = AlgebraPresentation("cold", su.generators,
                               [(tuple(su.generators[i] for i in r.left),
                                 {tuple(su.generators[i] for i in w): c
                                  for w, c in r.right.items()})
                                for r in su.rules])
    first = least_budget(cold)       # the table fills as it goes
    assert least_budget(cold) == first   # now warm
    assert str(cold.normal_form(cold.word(*letters))) == \
        str(su.normal_form(su.word(*letters)))
