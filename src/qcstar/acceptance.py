"""End-to-end verification suite: every headline claim, one result each.

Each criterion runs independently, reports pass/fail with a one-line
detail, and records its wall time against a stated budget.  One entry,
3b, is expected to fail and is kept failing rather than loosened: the
decay it asks for does not exist on the block it measures, and no other
decay has been specified.  Its detail string says why; see the package
README for the analysis.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from . import graphs, ktheory, ncalgebra, representations as reps
from ._lazy import lazy_module
from ._record import Record
from .coefficients import QLaurent

np = lazy_module("numpy")


class CriterionResult(Record):
    ident: str
    title: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] criterion {self.ident}: {self.title} "
                f"({self.seconds:.2f}s/{self.budget_seconds:g}s) - {self.detail}")


class RunConfig(Record):
    q: float = 0.5
    dim: int = 64
    n_max: int = 40
    seed: int = 0


# Sample sizes: random elements of criteria 7 and 9, integer matrices of
# criterion 6 and coefficient vectors recovered by criterion 5.
ELEMENT_COUNT = 200
MATRIX_COUNT = 1000
RECOVERY_TRIALS = 100


def _crit_1_k_groups(cfg: RunConfig):
    expected = {
        "G1": (ktheory.AbelianGroup(2), ktheory.AbelianGroup(0)),
        "G2": (ktheory.AbelianGroup(1), ktheory.AbelianGroup(0)),
        "G3": (ktheory.AbelianGroup(1, (2,)), ktheory.AbelianGroup(0)),
    }
    got = {}
    for name, want in expected.items():
        k0, k1 = ktheory.k_groups(graphs.builtin_graph(name))
        got[name] = (k0, k1)
        if (k0, k1) != want:
            return False, f"{name}: got ({k0}, {k1}), want ({want[0]}, {want[1]})"
    summary = "; ".join(f"{n}: K0={g[0]}, K1={g[1]}" for n, g in got.items())
    return True, summary


def _crit_2_morphisms(cfg: RunConfig):
    bad = []
    for name in ("F", "rp2-inclusion", "r1", "r2"):
        m = ncalgebra.builtin_morphism(name)
        report = m.verify()
        if not report.ok:
            bad.append(f"{name} residuals nonzero")
    for name in ("r1", "r2"):
        if not ncalgebra.builtin_morphism(name).is_involution():
            bad.append(f"{name} not involutive")
    if bad:
        return False, "; ".join(bad)
    return True, "F, rp2-inclusion exact; r1, r2 involutive automorphisms"


def _crit_3a_residuals(cfg: RunConfig):
    tol = 1e-10
    worst = {}
    for name in ("rho_rp2", "pi_pm"):
        rep = reps.build_rep(name, cfg.q, cfg.dim)
        worst[rep.name] = reps.relation_residuals(rep).max_residual()
    ok = all(v <= tol for v in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    return ok, detail + f" (tol {tol:g})"


def _crit_3b_residual_decay(cfg: RunConfig):
    ratios = []
    for name in ("rho_rp2", "pi_pm"):
        small, large = (reps.relation_residuals(reps.build_rep(name, cfg.q, d))
                        .max_residual() for d in (32, 64))
        ratios.append(small / large if large > 0 else float("inf"))
    ok = all(r >= 1e3 for r in ratios)
    detail = (f"decay ratios N=32 vs N=64: "
              + ", ".join(f"{r:.2f}" for r in ratios)
              + "; truncated products are exact on the compressed block, "
                "so it carries no truncation error to decay and both sizes "
                "show roundoff only (~1e-16); which decay the criterion "
                "means is not specified")
    return ok, detail


def _crit_4_spectrum(cfg: RunConfig):
    rep = reps.build_rep("rho_rp2", cfg.q, cfg.dim)
    spectrum = reps.spectrum_check(rep, "P")
    if spectrum.max_deviation != 0.0:
        return False, f"construction diagonal deviates by {spectrum.max_deviation:.2e}"
    p = ncalgebra.presentation("rp2")
    round_trip = p.normal_form(p.gen("P") * p.one())
    # the diagonal is the displacement-0 weights of the shift form; no
    # dense dim x dim matrix is built
    diag = rep.shift_form().operator(round_trip)[0]
    dev = float(np.max(np.abs(diag - rep.spectra["P"])))
    ok = dev <= 1e-12
    return ok, f"exact by construction; nf round-trip deviation {dev:.2e} (tol 1e-12)"


def _crit_5_independence(cfg: RunConfig):
    fam = reps.basis_monomials(3, 3)
    report = reps.independence_check(fam, q=cfg.q, n_max=cfg.n_max,
                                     trials=RECOVERY_TRIALS,
                                     rng=random.Random(cfg.seed))
    return report.ok(), (f"rank {report.rank}/{report.monomial_count}, "
                         f"recovery max error {report.recovery_max_error:.1e} "
                         f"over {report.recovery_trials} random vectors")


def _crit_6_snf_suite(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    coset_checked = 0
    for trial in range(MATRIX_COUNT):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ktheory.IntegerMatrix(
            rows, cols,
            tuple(rng.randint(-4, 4) for _ in range(rows * cols)))
        snf = ktheory.smith_normal_form(m)
        if snf.u.multiply(m).multiply(snf.v) != snf.s:
            return False, f"trial {trial}: U*M*V != S for {m.entries}"
        if not (snf.u.is_unimodular() and snf.v.is_unimodular()):
            return False, f"trial {trial}: transform not unimodular"
        factors = snf.invariant_factors()
        if any(b % a for a, b in zip(factors, factors[1:])):
            return False, f"trial {trial}: divisibility chain broken: {factors}"
        claimed = math.prod(factors)
        if claimed != ktheory.torsion_order_by_minors(m):
            return False, f"trial {trial}: torsion disagrees with minor gcd oracle"
        by_cosets = ktheory.torsion_order_by_cosets(m, claimed)
        if by_cosets is not None:
            coset_checked += 1
            if by_cosets != claimed:
                return False, (f"trial {trial}: coset enumeration gives "
                               f"{by_cosets}, SNF gives {claimed}")
    return True, (f"{MATRIX_COUNT} matrices: U*M*V=S, unimodular, chain ok; "
                  f"torsion matched minor-gcd oracle on all, literal coset "
                  f"enumeration on {coset_checked}")


def _soundness_rep_for(cfg: RunConfig, pname: str):
    if pname == "disc":
        return reps.compose_rep(reps.build_rep("pi_pm", cfg.q, cfg.dim),
                                ncalgebra.builtin_morphism("disc-inclusion"))
    name = {"sphere": "pi_pm", "rp2": "rho_rp2", "suq2_mod_b": "rho_pm"}[pname]
    return reps.build_rep(name, cfg.q, cfg.dim)


# Criterion 7 decides on a high-precision bridge: basis coefficients of
# normal forms reach q^-36 ~ 7e10 at q=1/2, so float64 evaluation cancels
# away ten of its sixteen digits; the float64 figure is reported beside it.
# The bridge is evaluated in fixed point, good to SOUNDNESS_DIGITS digits
# (representations.ShiftForm).
SOUNDNESS_DIGITS = 50


def _crit_7_soundness(cfg: RunConfig):
    tol = 1e-9
    dps = SOUNDNESS_DIGITS
    problems = []
    summary = []
    for pname in ncalgebra.BUILTIN_PRESENTATIONS:
        p = ncalgebra.presentation(pname)
        rep = _soundness_rep_for(cfg, pname)
        rng = random.Random(cfg.seed)
        worst_float = worst_bridge = 0.0
        for _ in range(ELEMENT_COUNT):
            x = ncalgebra.random_element(p, rng, max_degree=6)
            nfx = p.normal_form(x)
            if not (p.normal_form(nfx) - nfx).is_zero():
                problems.append(f"{pname}: nf not idempotent")
                break
            star_round = p.normal_form(p.normal_form(x.star()).star())
            if not (star_round - nfx).is_zero():
                problems.append(f"{pname}: nf(nf(x*)*) != nf(x)")
                break
            worst_float = max(worst_float,
                              reps.element_mismatch(x, nfx, rep))
            worst_bridge = max(worst_bridge,
                               reps.element_mismatch(x, nfx, rep, dps=dps))
        summary.append(f"{pname} bridge {worst_bridge:.1e} at {dps} digits "
                       f"({worst_float:.1e} in float64)")
        if worst_bridge > tol:
            problems.append(
                f"{pname}: evaluation bridge {worst_bridge:.1e} at {dps} "
                f"digits exceeds {tol:g}")
    ok = not problems
    detail = "; ".join(summary) + (
        "" if ok else " | " + " | ".join(problems))
    return ok, detail


def _crit_8_ideal_lattices(cfg: RunConfig):
    counts = {}
    lattices = {}
    for name, want in (("G1", 5), ("G2", 3), ("G3", 3)):
        hs = graphs.hereditary_saturated_sets(graphs.builtin_graph(name))
        counts[name] = len(hs)
        lattices[name] = hs
        if len(hs) != want:
            return False, f"{name}: {len(hs)} sets, want {want}"
    if not graphs.lattices_isomorphic(lattices["G2"], lattices["G3"]):
        return False, "G2 and G3 ideal lattices not isomorphic"
    return True, "G1: 5 sets; G2, G3: 3 sets each, lattices isomorphic"


def _crit_9_fixed_points(cfg: RunConfig):
    p = ncalgebra.presentation("sphere")
    r1 = ncalgebra.builtin_morphism("r1")
    r2 = ncalgebra.builtin_morphism("r2")
    rng = random.Random(cfg.seed)
    for i in range(ELEMENT_COUNT):
        x = ncalgebra.random_element(p, rng, max_degree=6)
        if ncalgebra.is_fixed(r1, x) != ncalgebra.even_generator_count(x, "K"):
            return False, f"element {i}: r1 fixedness != even K count"
        if ncalgebra.is_fixed(r2, x) != ncalgebra.even_word_length(x):
            return False, f"element {i}: r2 fixedness != even degree"
    return True, (f"{ELEMENT_COUNT} elements: r1-fixed iff even K-degree, "
                  "r2-fixed iff even total degree")


CRITERIA = (
    ("1", "K-groups of the three builtin graphs", 0.1, _crit_1_k_groups),
    ("2", "morphism and involution verification", 4.0, _crit_2_morphisms),
    ("3a", "relation residuals at N=64", 5.0, _crit_3a_residuals),
    ("3b", "residual decay from N=32 to N=64", 5.0, _crit_3b_residual_decay),
    ("4", "spectrum of the projective-space diagonal generator", 5.0,
     _crit_4_spectrum),
    ("5", "basis independence and exact coefficient recovery", 10.0,
     _crit_5_independence),
    ("6", "Smith normal form property suite with oracles", 10.0,
     _crit_6_snf_suite),
    ("7", "rewriting soundness suite", 30.0, _crit_7_soundness),
    ("8", "hereditary saturated ideal lattices", 1.0, _crit_8_ideal_lattices),
    ("9", "fixed-point characterization of the involutions", 30.0,
     _crit_9_fixed_points),
)

EXPECTED_FAILURES = ("3b",)


def run_all(cfg: RunConfig | None = None) -> list[CriterionResult]:
    cfg = cfg or RunConfig()
    results = []
    for ident, title, budget, fn in CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn(cfg)
        except Exception as err:  # a crash is a failure with the reason shown
            passed, detail = False, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        if passed and elapsed > budget:
            passed = False
            detail += f"; exceeded time budget ({elapsed:.2f}s > {budget:g}s)"
        results.append(CriterionResult(ident, title, passed, detail,
                                       elapsed, budget))
    return results
