import cmath
import gc
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qcstar.coefficients import QLaurent
from qcstar.ncalgebra import builtin_morphism, presentation, random_element
from qcstar.representations import (
    REP_NAMES,
    BasisMonomial,
    RepresentationError,
    _on_grid,
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
)

Q = 0.5


def matrix(rep, gen_name):
    """Dense complex matrix of one generator, from its weighted shifts."""
    m = np.zeros((rep.dim, rep.dim), dtype=complex)
    for d, w in rep.shift_form().ops[rep.presentation.gen_index(gen_name)].items():
        k = np.arange(max(0, -d), min(rep.dim, rep.dim - d))
        m[k + d, k] = w[k]
    return m


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


def test_build_rep_named_sums_and_alias():
    assert build_rep("rho", q=Q, dim=8).name == "rho_rp2"
    both = build_rep("pi_pm", q=Q, dim=8)
    assert both.name == "pi_plus+pi_minus" and both.block_dims == (8, 8)
    assert build_rep("rho_pm", q=Q, dim=8).presentation.name == "suq2_mod_b"
    with pytest.raises(RepresentationError, match="choose from"):
        build_rep("rho_+")


def test_rho_theta_is_float64_only():
    rep = build_rep("rho_theta", q=Q, theta=1.1)
    assert rep.shift_form().ops
    with pytest.raises(RepresentationError,
                       match="complex weights and is evaluated in float64 only"):
        rep.shift_form(30)


def test_shift_structure():
    rep = build_rep("rho_plus", q=Q, dim=8)
    a = matrix(rep, "a")
    b = matrix(rep, "b")
    # b is diagonal with entries q^{2(k+1)}
    assert b[0, 0] == pytest.approx(0.25)
    assert b[1, 1] == pytest.approx(0.0625)
    assert np.count_nonzero(b - np.diag(np.diag(b))) == 0
    # a lowers the index by one and kills e_0
    assert np.allclose(a[:, 0], 0)
    assert a[0, 1] == pytest.approx(math.sqrt(1 - Q ** 4))
    # the star generator is the exact conjugate transpose
    assert np.array_equal(matrix(rep, "a*"), a.conj().T)


def test_rho_minus_flips_the_diagonal():
    plus = build_rep("rho_plus", q=Q, dim=8)
    minus = build_rep("rho_minus", q=Q, dim=8)
    assert np.array_equal(matrix(minus, "b"), -matrix(plus, "b"))
    assert np.array_equal(matrix(minus, "a"), matrix(plus, "a"))


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
    assert np.allclose(matrix(pi, "K"), matrix(again, "K"))
    assert np.allclose(matrix(pi, "L"), matrix(rho, "a"))
    # K acts by q^{2k} on the plus component
    assert matrix(pi, "K")[0, 0] == pytest.approx(1.0)
    assert matrix(pi, "K")[1, 1] == pytest.approx(Q ** 2)


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
    k = matrix(both, "K")
    assert np.allclose(k[:8, :8], matrix(plus, "K"))
    assert np.allclose(k[8:, 8:], matrix(minus, "K"))
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
    k = matrix(rep, "K")
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
            m = m @ matrix(rep, rep.presentation.generators[letter])
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


def adjoint_mismatch(x, rep):
    """Compressed deviation of rho(x*) from rho(x) conjugate-transposed."""
    good = rep.good_indices(rep.shift_bound * max(x.degree(), 1))
    block = np.ix_(good, good)
    return np.max(np.abs(evaluate(x.star(), rep)[block]
                         - evaluate(x, rep).conj().T[block]))


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


def _dense_mp_generators(name, q, dim):
    """Generator matrices of rho_plus or rho_rp2 from their closed forms,
    at the working mpmath precision."""
    q = mpmath.mpf(q)

    def edge(k):
        return 1 - q ** (4 * k)

    if name == "rho_plus":
        shifts = {"a": (-1, lambda k: mpmath.sqrt(edge(k))),
                  "b": (0, lambda k: q ** (2 * (k + 1)))}
    else:
        shifts = {"P": (0, lambda k: q ** (4 * k)),
                  "T": (-1, lambda k: q ** (2 * (k - 1)) * mpmath.sqrt(edge(k))),
                  "R": (-2, lambda k: mpmath.sqrt(edge(k) * edge(k - 1)))}
    mats = {}
    for g, (d, w) in shifts.items():
        m = mpmath.zeros(dim, dim)
        for k in range(-d, dim):
            m[k + d, k] = w(k)
        mats[g] = m
        if d:
            mats[g + "*"] = m.T
    return mats


@pytest.mark.parametrize("name", ["rho_plus", "rho_rp2"])
def test_high_precision_elements_match_dense_mpmath_products(name):
    # the fixed-point store, read back through element(), against dense
    # matrix products at twice the digits; the truncation is the same
    dps, dim = 50, 16
    rep = build_rep(name, q=Q, dim=dim)
    p = rep.presentation
    form = rep.shift_form(dps)
    rng = random.Random(5)
    with mpmath.workdps(2 * dps):
        mats = _dense_mp_generators(name, Q, dim)
        q = mpmath.mpf(Q)
        for _ in range(6):
            x = random_element(p, rng, max_degree=6)
            want = mpmath.zeros(dim, dim)
            for word, coeff in x.terms().items():
                m = mpmath.eye(dim)
                for letter in word:
                    m = m * mats[p.generators[letter]]
                want += sum(mpmath.mpf(c.numerator) / c.denominator * q ** e
                            for e, c in coeff.items()) * m
            got = mpmath.zeros(dim, dim)
            for d, w in form.element(x).items():
                assert all(isinstance(v, mpmath.mpf) for v in w)
                for k in range(max(0, -d), min(dim, dim - d)):
                    got[k + d, k] = w[k]
            scale = 1 + max(abs(v) for v in want)
            assert max(abs(v) for v in got - want) <= mpmath.mpf(10) ** -dps * scale


def test_representations_are_freed_with_their_last_reference():
    # no reference cycle keeps a representation's store forms (or the
    # finer grid its coefficient q^-72 needs at 30 digits) alive until the
    # cycle collector runs
    cases = [("rho_rp2", "q^-72 P R + T"), ("pi_pm", "K L + L*"),
             ("rho_pm", "a b + a*")]
    gc.disable()
    try:
        for name, expr in cases:
            rep = build_rep(name, q=Q, dim=16)
            x = rep.presentation.parse(expr)
            element_mismatch(x, rep.presentation.zero(), rep)
            element_mismatch(x, rep.presentation.zero(), rep, dps=30)
            relation_residuals(rep)
            form = weakref.ref(rep.shift_form(30))
            if name == "rho_rp2":
                assert form()._finer
            rep = weakref.ref(rep)
            assert rep() is None and form() is None, name
    finally:
        gc.enable()


def test_bridge_resolves_what_float64_cannot():
    # criterion 7's suq2_mod_b element of the float64 figure 7.8e-6, set
    # against its normal form plus q^40 = 9.1e-13 times the unit word
    p = presentation("suq2_mod_b")
    rep = direct_sum(build_rep("rho_plus", q=Q, dim=64),
                     build_rep("rho_minus", q=Q, dim=64))
    rng = random.Random(0)
    for _ in range(55):
        x = random_element(p, rng, max_degree=6)
    y = p.normal_form(x) + p.one().scale(QLaurent.q_power(40, 1))
    bridge = element_mismatch(x, y, rep, dps=50)
    assert bridge > 1e-14
    assert bridge == pytest.approx(Q ** 40, rel=1e-12)
    # float64 loses the difference in cancellation error a million times larger
    assert element_mismatch(x, y, rep) > 1e6 * Q ** 40


def test_large_coefficients_keep_dps_digits():
    # q^-200 P^3 has entries q^(12k - 200): a coefficient of 2^200 times
    # weights as small as 2^-756 on a grid of 2^-231, so it is evaluated
    # on a finer grid and rounded back
    rep = build_rep("rho_rp2", q=Q, dim=64)
    p = rep.presentation
    x = p.word("P", "P", "P").scale(QLaurent.q_power(-200, 1))
    dps = 50
    weights = rep.shift_form(dps).element(x)[0]
    with mpmath.workdps(2 * dps):
        worst = max(abs(w - mpmath.mpf(2) ** (200 - 12 * k))
                    for k, w in enumerate(weights))
    assert worst < mpmath.mpf(10) ** -dps
    assert element_mismatch(x, x.scale(1 + QLaurent.q_power(300, 1)), rep,
                            dps=dps) == pytest.approx(Q ** 100)


def test_on_grid_matches_the_fraction_formula():
    def reference(coeff, q, unit):
        return round(sum(c * q ** e for e, c in coeff.items()) * unit)

    half = Fraction(1, 2)
    # exact ties, half to even: 1/2 -> 0, 3/2 -> 2, -1/2 -> 0, -5/2 -> -2
    ties = [(QLaurent.q_power(1), 0), (QLaurent.q_power(-1, Fraction(3, 4)), 2),
            (QLaurent.q_power(2, -2), 0), (QLaurent.q_power(-2, Fraction(-5, 8)), -2)]
    for coeff, want in ties:
        assert _on_grid(coeff, half, 1) == reference(coeff, half, 1) == want
    assert _on_grid(QLaurent(), half, 1 << 230) == 0
    rng = random.Random(15)
    for q in (half, Fraction(1, 3), Fraction(0.3), Fraction(1, 16)):
        for unit in (1, 2, 3, 1 << 64, 1 << 230):
            for _ in range(300):
                coeff = QLaurent({rng.randint(-9, 9): Fraction(
                    rng.randint(-40, 40), rng.randint(1, 12))
                    for _ in range(rng.randint(0, 6))})
                assert _on_grid(coeff, q, unit) == reference(coeff, q, unit)


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


def displacement(m):
    """Index shift of a basis monomial: e_n goes to a multiple of
    e_{n + displacement(m)}."""
    if m.family == "PR":
        return -2 * m.l
    if m.family == "PR*":
        return 2 * m.l
    if m.family == "PRT":
        return -1 - 2 * m.l
    return 1 + 2 * m.l


def to_element(m, p):
    return p.word(*m.word())


def label(m):
    bits = []
    if m.k:
        bits.append("P" if m.k == 1 else f"P^{m.k}")
    if m.l:
        base = "R" if m.family in ("PR", "PRT") else "R*"
        bits.append(base if m.l == 1 else f"{base}^{m.l}")
    if m.family == "PRT":
        bits.append("T")
    elif m.family == "PR*T*":
        bits.append("T*")
    return " ".join(bits) if bits else "1"


def test_monomial_displacements_partition():
    fam = basis_monomials(3, 3)
    seen = {}
    for m in fam:
        seen.setdefault((m.family, m.l), displacement(m))
        assert exact_action(m, 10, Fraction(1, 2))[0] == 10 + displacement(m)
    # displacement classes are pairwise distinct across (family, l)
    assert len(set(seen.values())) == len(seen)


def test_monomial_labels_and_elements():
    p = presentation("rp2")
    m = BasisMonomial(2, 1, "PRT")
    assert label(m) == "P^2 R T"
    assert to_element(m, p) == p.word("P", "P", "R", "T")
    assert label(BasisMonomial(0, 0, "PR")) == "1"


def test_exact_action_matches_matrices():
    rep = build_rep("rho_rp2", q=Q, dim=40)
    p = rep.presentation
    qf = Fraction(1, 2)
    for m in basis_monomials(2, 2):
        mat = evaluate(to_element(m, p), rep)
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


def reference_exact_action(m, n, q):
    """exact_action from the closed forms of the four families, with the
    radicand an exact product of edge factors 1 - q^{4j}."""
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


def check_against_closed_forms(qs, monomials, n_max: int) -> int:
    """Compare exact_action with reference_exact_action on every monomial
    and input n <= n_max; returns the number of cases checked."""
    checked = 0
    for q in qs:
        for m in monomials:
            for n in range(n_max + 1):
                want = reference_exact_action(m, n, q)
                got = exact_action(m, n, q)
                checked += 1
                if want is None:
                    assert got is None, (q, m, n)
                    continue
                assert got[:2] == want[:2], (q, m, n)
                assert abs(got[2] - float(want[2])) <= 1e-13 * float(want[2])
    return checked


def test_exact_action_matches_closed_forms():
    # 60 monomials x 61 inputs x 3 values of q; exact decimal q keeps the
    # reference's exact radicand products small (a float-derived 0.3 has
    # a 54-bit denominator and makes them 40 times slower)
    qs = (Fraction(1, 2), Fraction(3, 10), Fraction(9, 10))
    assert check_against_closed_forms(qs, basis_monomials(3, 3), 60) == 10_980


def test_exact_action_matches_closed_forms_at_float_q():
    # the float-derived q that --q 0.3 gives independence_check, on a
    # family and range cut so the reference takes about a second
    assert check_against_closed_forms((Fraction(0.3),), basis_monomials(2, 2),
                                      40) == 1353


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


def test_independence_insufficient_n_max_for_recovery():
    # every monomial acts on some input up to n_max = 2, but the four
    # members of class (PR, l=0) need four nodes
    with pytest.raises(RepresentationError, match="insufficient n_max"):
        independence_check(basis_monomials(3, 0), q=Q, n_max=2, trials=1,
                           rng=random.Random(0))


def test_independence_recovers_the_drawn_coefficients():
    class Recording(random.Random):
        def randint(self, a, b):
            value = super().randint(a, b)
            drawn.append(value)
            return value

    drawn = []
    fam = basis_monomials(2, 2)
    report = independence_check(fam, q=0.3, n_max=40, trials=20,
                                rng=Recording(0))
    assert report.rank == report.monomial_count == len(fam)
    assert report.recovery_max_error == 0.0
    # drawn trial by trial, one per monomial, from the given generator
    fresh = random.Random(0)
    assert drawn == [fresh.randint(-5, 5) for _ in range(20 * len(fam))]


def test_independence_empty_family():
    with pytest.raises(RepresentationError):
        independence_check((), q=Q)


def test_independence_rank_is_exact_on_a_wider_family():
    # a float SVD of the evaluation matrix saw rank 67 here
    report = independence_check(basis_monomials(5, 3), q=Q,
                                rng=random.Random(0))
    assert report.rank == report.monomial_count == 90
    assert report.ok()


def test_independence_dependent_family_is_singular():
    m = BasisMonomial(1, 2, "PRT")
    with pytest.raises(RepresentationError, match="singular recovery system"):
        independence_check((m, m), q=Q, trials=1, rng=random.Random(0))


def theta_separation(q, thetas):
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
            m1 = matrix(rep1, "R") - cmath.exp(1j * t1) * np.eye(1)
            rep2 = build_rep("rho_theta", q=q, theta=t2)
            m2 = matrix(rep2, "R") - cmath.exp(1j * t1) * np.eye(1)
            out.append({
                "theta_killed": t1,
                "theta_other": t2,
                "norm_in_own": float(np.abs(m1).max()),
                "norm_in_other": float(np.abs(m2).max()),
            })
    return out


def test_theta_separation():
    pairs = theta_separation(Q, (0.0, 1.5))
    assert len(pairs) == 2
    for entry in pairs:
        assert entry["norm_in_own"] <= 1e-15
        gap = abs(cmath.exp(1j * entry["theta_killed"])
                  - cmath.exp(1j * entry["theta_other"]))
        assert entry["norm_in_other"] == pytest.approx(gap)
        assert entry["norm_in_other"] > 0.1
