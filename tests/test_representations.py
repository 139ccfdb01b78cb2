import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qcstar.ncalgebra import builtin_morphism, presentation, random_element
from qcstar.representations import (
    REP_NAMES,
    BasisMonomial,
    RepresentationError,
    adjoint_mismatch,
    build_rep,
    compose_rep,
    direct_sum,
    element_mismatch,
    evaluate,
    exact_action,
    independence_check,
    basis_monomials,
    relation_residuals,
    spectrum_check,
    theta_separation,
)

Q = 0.5


def test_rep_names():
    assert set(REP_NAMES) == {"rho_plus", "rho_minus", "pi_plus", "pi_minus",
                              "rho_rp2", "rho_theta"}


def test_build_rep_validation():
    with pytest.raises(RepresentationError):
        build_rep("rho_plus", q=1.0)
    with pytest.raises(RepresentationError):
        build_rep("rho_plus", q=0.0)
    with pytest.raises(RepresentationError):
        build_rep("rho_plus", dim=3)
    with pytest.raises(RepresentationError):
        build_rep("nonsense")


def test_shift_structure():
    rep = build_rep("rho_plus", q=Q, dim=8)
    a = rep.matrix("a")
    b = rep.matrix("b")
    # b is diagonal with entries q^{2(k+1)}
    assert b[0, 0] == pytest.approx(0.25)
    assert b[1, 1] == pytest.approx(0.0625)
    assert np.count_nonzero(b - np.diag(np.diag(b))) == 0
    # a lowers the index by one and kills e_0
    assert np.allclose(a[:, 0], 0)
    assert a[0, 1] == pytest.approx(math.sqrt(1 - Q ** 4))
    # the star generator is the exact conjugate transpose
    assert np.array_equal(rep.matrix("a*"), a.conj().T)


def test_rho_minus_flips_the_diagonal():
    plus = build_rep("rho_plus", q=Q, dim=8)
    minus = build_rep("rho_minus", q=Q, dim=8)
    assert np.array_equal(minus.matrix("b"), -plus.matrix("b"))
    assert np.array_equal(minus.matrix("a"), plus.matrix("a"))


@pytest.mark.parametrize("name", ["rho_plus", "rho_minus", "pi_plus",
                                  "pi_minus", "rho_rp2"])
def test_relation_residuals_at_roundoff(name):
    rep = build_rep(name, q=Q, dim=48)
    report = relation_residuals(rep)
    assert report.max_residual() <= 1e-12, report.entries
    assert report.ok(1e-10)


def test_rho_theta_residuals_exact():
    rep = build_rep("rho_theta", q=Q, theta=1.1)
    report = relation_residuals(rep)
    assert report.max_residual() == 0.0
    assert rep.dim == 1


def test_pi_plus_is_a_structural_pullback():
    pi = build_rep("pi_plus", q=Q, dim=16)
    rho = build_rep("rho_plus", q=Q, dim=16)
    f = builtin_morphism("F")
    again = compose_rep(rho, f)
    assert np.allclose(pi.matrix("K"), again.matrix("K"))
    assert np.allclose(pi.matrix("L"), rho.matrix("a"))
    # K acts by q^{2k} on the plus component
    assert pi.matrix("K")[0, 0] == pytest.approx(1.0)
    assert pi.matrix("K")[1, 1] == pytest.approx(Q ** 2)


def test_compose_rep_scales_q():
    pi = build_rep("pi_plus", q=Q, dim=16)
    disc_rep = compose_rep(pi, builtin_morphism("disc-inclusion"))
    assert disc_rep.q == pytest.approx(Q ** 4)
    assert disc_rep.presentation.name == "disc"
    report = relation_residuals(disc_rep)
    assert report.max_residual() <= 1e-12


def test_compose_rep_requires_matching_target():
    rho = build_rep("rho_plus", q=Q, dim=8)
    with pytest.raises(RepresentationError):
        compose_rep(rho, builtin_morphism("disc-inclusion"))


def test_direct_sum():
    plus = build_rep("pi_plus", q=Q, dim=8)
    minus = build_rep("pi_minus", q=Q, dim=8)
    both = direct_sum(plus, minus)
    assert both.dim == 16
    assert both.block_dims == (8, 8)
    k = both.matrix("K")
    assert np.allclose(k[:8, :8], plus.matrix("K"))
    assert np.allclose(k[8:, 8:], minus.matrix("K"))
    assert np.count_nonzero(k[:8, 8:]) == 0
    assert relation_residuals(both).max_residual() <= 1e-12
    assert len(both.spectra["K"]) == 16


def test_direct_sum_rejects_mismatches():
    with pytest.raises(RepresentationError):
        direct_sum(build_rep("pi_plus", q=Q, dim=8),
                   build_rep("rho_plus", q=Q, dim=8))
    with pytest.raises(RepresentationError):
        direct_sum(build_rep("pi_plus", q=0.5, dim=8),
                   build_rep("pi_minus", q=0.4, dim=8))


def test_evaluate_words_and_coefficients():
    rep = build_rep("pi_plus", q=Q, dim=12)
    p = rep.presentation
    k = rep.matrix("K")
    assert np.allclose(evaluate(p.parse("K^2"), rep), k @ k)
    # q powers evaluate at the representation's q
    assert np.allclose(evaluate(p.parse("q^2 K"), rep), Q ** 2 * k)
    assert np.allclose(evaluate(p.one(), rep), np.eye(12))
    assert np.allclose(evaluate(p.zero(), rep), 0)


def _dense_product_evaluate(x, rep):
    """Reference evaluator: one dense matrix product per letter, summed
    with the evaluated coefficients."""
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for word, coeff in x.terms().items():
        m = np.eye(rep.dim, dtype=complex)
        for letter in word:
            m = m @ rep.matrix(rep.presentation.generators[letter])
        total += coeff.evaluate(rep.q) * m
    return total


def test_evaluate_matches_dense_matrix_products():
    # a base rep, a direct sum, and a pullback of it with q -> q^4
    pi_pm = direct_sum(build_rep("pi_plus", q=Q, dim=20),
                       build_rep("pi_minus", q=Q, dim=20))
    disc = compose_rep(pi_pm, builtin_morphism("disc-inclusion"))
    rng = random.Random(17)
    for rep in (build_rep("rho_rp2", q=Q, dim=40), pi_pm, disc):
        for _ in range(25):
            x = random_element(rep.presentation, rng, max_terms=4,
                               max_degree=5)
            want = _dense_product_evaluate(x, rep)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(evaluate(x, rep) - want)) <= 1e-13 * scale


def test_residuals_never_form_a_dense_matrix():
    # one dense 2048 x 2048 complex matrix takes 64 MiB
    tracemalloc.start()
    try:
        report = relation_residuals(build_rep("rho_rp2", q=Q, dim=2048))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.max_residual() <= 1e-12
    assert peak < 2048 * 2048 * 16


def test_evaluate_rejects_foreign_elements():
    rep = build_rep("pi_plus", q=Q, dim=8)
    with pytest.raises(RepresentationError):
        evaluate(presentation("disc").gen("x"), rep)


def test_spectrum_checks():
    rep = build_rep("rho_rp2", q=Q, dim=32)
    report = spectrum_check(rep, "P")
    assert report.is_diagonal and report.max_deviation == 0.0
    pi = build_rep("pi_plus", q=Q, dim=32)
    assert spectrum_check(pi, "K").max_deviation <= 1e-12
    rho = build_rep("rho_minus", q=Q, dim=32)
    assert spectrum_check(rho, "b").max_deviation == 0.0


def test_spectrum_check_requires_expectation():
    rep = build_rep("rho_rp2", q=Q, dim=16)
    with pytest.raises(RepresentationError):
        spectrum_check(rep, "T")


def test_good_indices_empty_raises():
    rep = build_rep("rho_rp2", q=Q, dim=4)
    with pytest.raises(RepresentationError):
        rep.good_indices(4)
    x = rep.presentation.parse("P R T")
    with pytest.raises(RepresentationError):
        element_mismatch(x, x, rep)


def test_adjoint_consistency():
    rng = random.Random(9)
    for name in ("pi_plus", "rho_rp2"):
        rep = build_rep(name, q=Q, dim=48)
        p = rep.presentation
        for _ in range(10):
            x = random_element(p, rng, max_terms=3, max_degree=4)
            assert adjoint_mismatch(x, rep) <= 1e-10


def test_element_mismatch_detects_differences():
    rep = build_rep("rho_rp2", q=Q, dim=32)
    p = rep.presentation
    x = p.parse("T* T")
    y = p.normal_form(x)
    assert element_mismatch(x, y, rep) <= 1e-12
    assert element_mismatch(x, x + p.one(), rep) >= 0.5


def test_high_precision_bridge_recovers_lost_digits():
    # the 55th element of criterion 7's seeded suq2_mod_b stream,
    # -2q^-2 a*^4 a^2, sets its bridge: its normal form carries basis
    # coefficients near q^-36 that cancel in float64 but not at 50 digits
    p = presentation("suq2_mod_b")
    rep = direct_sum(build_rep("rho_plus", q=Q, dim=64),
                     build_rep("rho_minus", q=Q, dim=64))
    rng = random.Random(0)
    for _ in range(55):
        x = random_element(p, rng, max_degree=6)
    nfx = p.normal_form(x)
    assert element_mismatch(x, nfx, rep) > 1e-9
    assert element_mismatch(x, nfx, rep, dps=50) < 1e-30


def test_high_precision_evaluation_matches_float_without_cancellation():
    # the composed disc representation (q -> q^4 over a direct sum) gives
    # the same operator largest entries in both evaluators
    disc = compose_rep(direct_sum(build_rep("pi_plus", q=Q, dim=24),
                                  build_rep("pi_minus", q=Q, dim=24)),
                       builtin_morphism("disc-inclusion"))
    p = disc.presentation
    rng = random.Random(3)
    for _ in range(5):
        x = random_element(p, rng, max_terms=3, max_degree=3)
        low = element_mismatch(x, p.zero(), disc)
        high = element_mismatch(x, p.zero(), disc, dps=30)
        assert high == pytest.approx(low, rel=1e-12)


# -- exact monomial action -------------------------------------------------------

def test_monomial_shapes():
    fam = basis_monomials(3, 3)
    assert len(fam) == 60
    assert len({(m.k, m.l, m.family) for m in fam}) == 60
    with pytest.raises(RepresentationError):
        BasisMonomial(0, 0, "PR*")
    with pytest.raises(RepresentationError):
        BasisMonomial(-1, 0, "PR")
    with pytest.raises(RepresentationError):
        BasisMonomial(0, 0, "XX")


def test_monomial_displacements_partition():
    fam = basis_monomials(3, 3)
    seen = {}
    for m in fam:
        seen.setdefault((m.family, m.l), m.displacement())
    # displacement classes are pairwise distinct across (family, l)
    assert len(set(seen.values())) == len(seen)


def test_monomial_labels_and_elements():
    p = presentation("rp2")
    m = BasisMonomial(2, 1, "PRT")
    assert m.label() == "P^2 R T"
    assert m.to_element(p) == p.word("P", "P", "R", "T")
    assert BasisMonomial(0, 0, "PR").label() == "1"


def test_exact_action_matches_matrices():
    rep = build_rep("rho_rp2", q=Q, dim=40)
    p = rep.presentation
    qf = Fraction(1, 2)
    for m in basis_monomials(2, 2):
        mat = evaluate(m.to_element(p), rep)
        for n in range(14):
            col = mat[:, n]
            hit = exact_action(m, n, qf)
            if hit is None:
                assert np.max(np.abs(col)) <= 1e-14, (m, n)
                continue
            out, rational, radicand = hit
            expected = float(rational) * math.sqrt(float(radicand))
            assert col[out].real == pytest.approx(expected, abs=1e-12)
            mask = np.ones(rep.dim, dtype=bool)
            mask[out] = False
            assert np.max(np.abs(col[mask])) <= 1e-12


def test_exact_action_annihilation():
    # lowering below the bottom of the ladder kills the vector
    m = BasisMonomial(0, 2, "PR")
    assert exact_action(m, 3, Fraction(1, 2)) is None
    assert exact_action(m, 4, Fraction(1, 2)) is not None


def test_independence_full_family():
    report = independence_check(basis_monomials(1, 1), q=Q, n_max=30,
                                trials=20, rng=random.Random(0))
    assert report.monomial_count == 14
    assert report.full_rank
    assert report.recovery_max_error == 0.0
    assert report.ok()


def test_independence_single_monomial():
    report = independence_check((BasisMonomial(0, 0, "PR"),), q=Q, n_max=5,
                                trials=5, rng=random.Random(1))
    assert report.rank == 1 and report.ok()


def test_independence_insufficient_range():
    with pytest.raises(RepresentationError):
        independence_check((BasisMonomial(0, 6, "PR"),), q=Q, n_max=5,
                           trials=2, rng=random.Random(2))


def test_independence_empty_family():
    with pytest.raises(RepresentationError):
        independence_check((), q=Q)


def test_theta_separation():
    pairs = theta_separation(Q, (0.0, 1.5))
    assert len(pairs) == 2
    for entry in pairs:
        assert entry["norm_in_own"] <= 1e-15
        gap = abs(cmath.exp(1j * entry["theta_killed"])
                  - cmath.exp(1j * entry["theta_other"]))
        assert entry["norm_in_other"] == pytest.approx(gap)
        assert entry["norm_in_other"] > 0.1
