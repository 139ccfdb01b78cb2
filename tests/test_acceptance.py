"""One test per acceptance criterion, each printing its pass/fail line.

The suite runs once per session; every test reports and asserts its own
criterion.  Criterion 3b is left failing rather than weakened: the decay
it asks for does not exist on the block it measures, and its detail
string says so.  See the README for the full discussion.
"""

import pytest

from qcstar import acceptance
from qcstar import representations as reps

CRITERION_IDS = [ident for ident, _, _, _ in acceptance.CRITERIA]


@pytest.fixture(scope="module")
def results():
    found = acceptance.run_all()
    return {r.ident: r for r in found}


def report(results, ident):
    r = results[ident]
    print(r.line())
    assert r.passed, r.detail
    assert r.seconds <= r.budget_seconds


def test_criteria_cover_the_whole_list():
    assert CRITERION_IDS == ["1", "2", "3a", "3b", "4", "5", "6", "7",
                             "8", "9"]
    assert set(acceptance.EXPECTED_FAILURES) == {"3b"}


def test_criterion_1_k_groups(results):
    report(results, "1")


def test_criterion_2_morphisms(results):
    report(results, "2")


def test_criterion_3a_relation_residuals(results):
    report(results, "3a")


def test_criterion_3b_residual_decay(results):
    report(results, "3b")


def test_criterion_4_spectrum(results):
    report(results, "4")


def test_criterion_4_builds_no_dense_matrix(monkeypatch):
    # the diagonal is read off the shift form's displacement-0 weights;
    # evaluate, which builds the dense dim x dim matrix, is never called
    def dense(*args):
        raise AssertionError("criterion 4 built a dense matrix")
    monkeypatch.setattr(reps, "evaluate", dense)
    passed, detail = acceptance._crit_4_spectrum(
        acceptance.RunConfig(dim=256))
    assert passed
    assert detail == ("exact by construction; nf round-trip deviation "
                      "0.00e+00 (tol 1e-12)")


def test_criterion_5_independence_and_recovery(results):
    report(results, "5")


@pytest.mark.parametrize("q", [0.1, 0.01])
def test_criterion_5_at_small_q(q):
    # a float SVD gave rank 45/60 at q = 0.1, and underflowed at q = 0.01
    passed, detail = acceptance._crit_5_independence(acceptance.RunConfig(q=q))
    assert passed, detail
    assert detail.startswith("rank 60/60, recovery max error 0.0e+00")


def test_criterion_6_smith_normal_form_suite(results):
    report(results, "6")


def test_criterion_7_rewriting_soundness(results):
    report(results, "7")


def test_criterion_8_ideal_lattices(results):
    report(results, "8")


def test_criterion_9_fixed_points(results):
    report(results, "9")
