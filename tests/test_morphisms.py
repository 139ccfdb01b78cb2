import random

import pytest

from qcstar.coefficients import QLaurent
from qcstar.ncalgebra import (
    BUILTIN_MORPHISMS,
    AlgebraPresentation,
    Element,
    GeneratorMap,
    PresentationError,
    builtin_morphism,
    even_generator_count,
    even_word_length,
    is_fixed,
    presentation,
    random_element,
)


@pytest.mark.parametrize("name", BUILTIN_MORPHISMS)
def test_builtin_morphisms_verify(name):
    report = builtin_morphism(name).verify()
    assert report.star_compatible
    for label, residual in report.entries:
        assert residual.is_zero(), (name, label, str(residual))
    assert report.ok


def hand_built_images():
    """Each builtin map's images of the unstarred generators, built
    element by element."""
    sphere, suq2 = presentation("sphere"), presentation("suq2_mod_b")
    return {
        "F": {"K": suq2.gen("b").scale(QLaurent.q_power(-2)),
              "L": suq2.gen("a")},
        "r1": {"K": -sphere.gen("K"), "L": sphere.gen("L")},
        "r2": {"K": -sphere.gen("K"), "L": -sphere.gen("L")},
        "rp2-inclusion": {"P": sphere.word("K", "K"),
                          "R": sphere.word("L", "L"),
                          "T": sphere.word("K", "L")},
        "disc-inclusion": {"x": sphere.gen("L*")},
    }


def test_builtin_images_equal_hand_built_elements():
    want = hand_built_images()
    assert BUILTIN_MORPHISMS == tuple(want)
    for name, images in want.items():
        m = builtin_morphism(name)
        for g, image in images.items():
            assert m.images[m.source.gen_index(g)] == image, (name, g)


def test_unknown_morphism():
    with pytest.raises(PresentationError):
        builtin_morphism("G")


def test_morphism_endpoints():
    f = builtin_morphism("F")
    assert f.source.name == "sphere" and f.target.name == "suq2_mod_b"
    inc = builtin_morphism("rp2-inclusion")
    assert inc.source.name == "rp2" and inc.target.name == "sphere"
    disc = builtin_morphism("disc-inclusion")
    assert disc.source.name == "disc" and disc.target.name == "sphere"
    assert disc.q_scale == 4


def test_f_images():
    f = builtin_morphism("F")
    suq2 = f.target
    assert f.apply(f.source.gen("K")) == suq2.parse("q^-2 b")
    assert f.apply(f.source.gen("L")) == suq2.parse("a")
    # stars complete automatically: K is self-adjoint, L* goes to a*
    assert f.apply(f.source.gen("L*")) == suq2.parse("a*")


def test_apply_is_multiplicative():
    f = builtin_morphism("F")
    p = f.source
    rng = random.Random(3)
    for _ in range(10):
        x = random_element(p, rng, max_terms=2, max_degree=3)
        y = random_element(p, rng, max_terms=2, max_degree=3)
        assert f.apply(x * y) == f.target.normal_form(f.apply(x) * f.apply(y))
        assert f.apply(x + y) == f.target.normal_form(f.apply(x) + f.apply(y))


def test_apply_rejects_foreign_elements():
    f = builtin_morphism("F")
    with pytest.raises(PresentationError):
        f.apply(presentation("disc").gen("x"))


def test_involutions():
    assert builtin_morphism("r1").is_involution()
    assert builtin_morphism("r2").is_involution()
    assert not builtin_morphism("F").is_involution()
    assert not builtin_morphism("rp2-inclusion").is_involution()


def test_reflection_images():
    p = presentation("sphere")
    r1 = builtin_morphism("r1")
    r2 = builtin_morphism("r2")
    assert r1.apply(p.gen("K")) == -p.gen("K")
    assert r1.apply(p.gen("L")) == p.gen("L")
    assert r2.apply(p.gen("K")) == -p.gen("K")
    assert r2.apply(p.gen("L")) == -p.gen("L")


def test_disc_inclusion_scales_q():
    # x maps to L* and the disc deformation parameter becomes q^4
    inc = builtin_morphism("disc-inclusion")
    sphere = inc.target
    x = inc.source.gen("x")
    assert inc.apply(x) == sphere.gen("L*")
    # the disc relation transports to an identity between L L* and L* L
    rel = inc.source.parse("x* x - q x x* - 1 + q")
    assert inc.apply(rel).is_zero()
    # same identity spelled out in the sphere at s = 1
    lhs = sphere.normal_form(sphere.parse("L L* - q^4 L* L - 1 + q^4"))
    assert lhs.is_zero()


def test_rp2_inclusion_images():
    inc = builtin_morphism("rp2-inclusion")
    sphere = inc.target
    assert inc.apply(inc.source.gen("P")) == sphere.normal_form(sphere.parse("K^2"))
    assert inc.apply(inc.source.gen("R")) == sphere.normal_form(sphere.parse("L^2"))
    assert inc.apply(inc.source.gen("T")) == sphere.normal_form(sphere.parse("K L"))
    # images are exactly the r2-even elements on generators
    r2 = builtin_morphism("r2")
    for g in ("P", "R", "T"):
        assert is_fixed(r2, inc.apply(inc.source.gen(g)))


def test_is_fixed_examples():
    p = presentation("sphere")
    r1 = builtin_morphism("r1")
    r2 = builtin_morphism("r2")
    assert is_fixed(r1, p.parse("K^2"))
    assert is_fixed(r1, p.parse("L"))
    assert not is_fixed(r1, p.parse("K"))
    assert not is_fixed(r1, p.parse("K L"))
    assert is_fixed(r2, p.parse("K L"))
    assert is_fixed(r2, p.parse("K^2 + L^2"))
    assert not is_fixed(r2, p.parse("L"))


def test_is_fixed_requires_endomorphism():
    f = builtin_morphism("F")
    with pytest.raises(PresentationError):
        is_fixed(f, f.source.gen("K"))


def test_fixed_point_parity_characterization():
    # elements written in the declared basis: r1-fixed iff every word has
    # an even K count, r2-fixed iff every word has even total length
    p = presentation("sphere")
    r1 = builtin_morphism("r1")
    r2 = builtin_morphism("r2")
    rng = random.Random(171)
    for _ in range(60):
        x = p.normal_form(random_element(p, rng))
        assert is_fixed(r1, x) == even_generator_count(x, "K")
        assert is_fixed(r2, x) == even_word_length(x)


def test_custom_generator_map_detects_broken_relations():
    # sending K to 1 and L to L does not respect L* L = 1 - K^2
    p = presentation("sphere")
    bad = GeneratorMap("bad", p, p, {"K": p.one(), "L": p.gen("L")})
    report = bad.verify()
    assert not report.ok
    assert any(not residual.is_zero() for _, residual in report.entries)


def reference_image(m, x):
    """phi(x) built letter by letter, one Element product per letter: the
    oracle for GeneratorMap._image, which expands term lists instead."""
    total = m.target.zero()
    for word, coeff in x.terms().items():
        if m.q_scale != 1:
            coeff = coeff.scale_exponents(m.q_scale)
        prod = m.target.one().scale(coeff)
        for letter in word:
            prod = prod * m.images[letter]
        total = total + prod
    return total


def reference_apply(m, x):
    return m.target.normal_form(reference_image(m, x))


@pytest.mark.parametrize("name", BUILTIN_MORPHISMS)
def test_apply_matches_the_product_chain(name):
    m = builtin_morphism(name)
    rng = random.Random(1700 + BUILTIN_MORPHISMS.index(name))
    for _ in range(200):
        x = random_element(m.source, rng, max_degree=6)
        assert m.apply(x) == reference_apply(m, x), (name, str(x))


@pytest.mark.parametrize("name", ("r1", "r2"))
def test_is_fixed_matches_two_normal_forms(name):
    # random elements are rarely fixed, so each is also symmetrised in
    # the free algebra, x + phi(x), which every involution on generators
    # fixes; both answers must turn up
    m = builtin_morphism(name)
    p = m.source
    rng = random.Random(1717)
    seen = set()
    for _ in range(150):
        x = random_element(p, rng, max_degree=6)
        for y in (x, x + reference_image(m, x), p.normal_form(x)):
            want = p.normal_form(reference_apply(m, y) - y).is_zero()
            assert is_fixed(m, y) == want, (name, str(y))
            seen.add(want)
    assert seen == {True, False}


def colliding_map():
    """A -> X - q X Y and B -> q Y Z + Z in the free algebra on X, Y, Z:
    the image of A B reaches X Y Z twice, and the two cancel."""
    source = AlgebraPresentation("ab", ("A", "B"), [])
    target = AlgebraPresentation("xyz", ("X", "Y", "Z"), [])
    images = {"A": target.parse("X - q X Y"), "B": target.parse("q Y Z + Z")}
    return GeneratorMap("collide", source, target, images, q_scale=3)


def test_images_that_collide_merge_and_cancel():
    m = colliding_map()
    src, tgt = m.source, m.target
    image = m._image(src.parse("A B"))
    assert image == tgt.parse("X Z - q^2 X Y^2 Z")
    assert (tgt.gen_index("X"), tgt.gen_index("Y"), tgt.gen_index("Z")) \
        not in image.terms()
    # equal words from different source words merge too, and the source
    # coefficients pass through q -> q^3
    x = src.parse("q A B + 2 B A - A^2")
    assert m.apply(x) == reference_apply(m, x) == tgt.parse(
        "q^3 X Z - q^5 X Y^2 Z + 2q Y Z X + 2 Z X - 2q^2 Y Z X Y - 2q Z X Y"
        " - X^2 + q X^2 Y + q X Y X - q^2 X Y X Y")
    rng = random.Random(1719)
    for _ in range(200):
        x = random_element(src, rng, max_degree=5)
        assert m.apply(x) == reference_apply(m, x), str(x)
    assert m._image(src.parse("A B - B A + B A")).terms() == image.terms()
    assert m._image(src.parse("A B - A B")).is_zero()


def test_verify_residuals_match_the_product_chain():
    # the built-in maps leave every residual 0; the broken map of the test
    # above leaves some nonzero, and each prints as it did before
    sphere = presentation("sphere")
    maps = [builtin_morphism(name) for name in BUILTIN_MORPHISMS]
    maps.append(GeneratorMap("bad", sphere, sphere,
                             {"K": sphere.one(), "L": sphere.gen("L")}))
    for m in maps:
        want = []
        for rule in m.source.rules:
            lhs = reference_apply(m, Element(m.source, {rule.left: QLaurent.one()}))
            rhs = reference_apply(m, Element(m.source, rule.right))
            want.append((rule.label, str(m.target.normal_form(lhs - rhs))))
        got = [(label, str(residual)) for label, residual in m.verify().entries]
        assert got == want, m.name
    assert any(text != "0" for _, text in got)


def test_foreign_elements_are_refused_by_every_operation():
    sphere, disc = presentation("sphere"), presentation("disc")
    with pytest.raises(PresentationError):
        builtin_morphism("rp2-inclusion").apply(sphere.gen("K"))
    with pytest.raises(PresentationError):
        builtin_morphism("disc-inclusion").apply(sphere.gen("L"))
    for name in ("r1", "r2"):
        with pytest.raises(PresentationError):
            is_fixed(builtin_morphism(name), disc.gen("x"))
        with pytest.raises(PresentationError):
            is_fixed(builtin_morphism(name), presentation("sphere", "1/2").gen("K"))
