import random

import pytest

from qcstar.coefficients import QLaurent
from qcstar.ncalgebra import (
    BUILTIN_MORPHISMS,
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
