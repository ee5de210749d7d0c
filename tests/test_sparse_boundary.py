"""Engine code passes sparse vectors to engine code.

`SpanSolver.decompose` builds dense Fraction vectors.  It stays as a public
view, which the benchmark reads, but no engine path calls it: here it
raises, and the pair checks, the decisions, the commutant and form routines
and the membership predicates still run.  The dense views `from_columns` and
`apply` had no engine caller either; they now live in conftest.py, and `Mat`
has neither.
"""

import random

import pytest

from cartanext import classify
from cartanext.catalog import build_graded, build_pair, default_pair_grid, isotropy_rep, verify_pair
from cartanext.equivalence import _PREDICATES
from cartanext.lie import invariant_bilinear_forms, invariant_complex_structures
from cartanext.linalg import Mat, SpanSolver
from test_membership import EXCEPTIONS, SWEEP, _candidates

PAIRS = default_pair_grid()


@pytest.fixture
def dense_views_raise(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine path built a dense vector")

    def arm():
        monkeypatch.setattr(SpanSolver, "decompose", refuse)

    return arm


def test_the_guard_catches_each_view(dense_views_raise):
    dense_views_raise()
    with pytest.raises(AssertionError, match="dense vector"):
        SpanSolver(1).decompose([1])
    assert not hasattr(Mat, "from_columns") and not hasattr(Mat, "apply")


@pytest.mark.parametrize("family, params", PAIRS, ids=lambda x: str(x))
def test_pair_decisions_stay_sparse(family, params, dense_views_raise):
    pair = build_pair(family, params)
    dense_views_raise()
    assert verify_pair(pair) == []
    classify.centralizer_report(pair)
    classify.decide_projective(pair)
    classify.decide_h_projective(pair)
    classify.decide_conformal(pair)
    rep = isotropy_rep(pair)
    invariant_complex_structures(rep)
    for symmetry in ("symmetric", "antisymmetric"):
        invariant_bilinear_forms(rep, symmetry)


@pytest.mark.parametrize("family, params", SWEEP, ids=lambda x: str(x))
def test_membership_predicates_stay_sparse(family, params, dense_views_raise):
    target = build_graded(family, params)
    rng = random.Random(f"{family}{sorted(params.items())}")
    candidates = _candidates(rng, family, target, 10)
    dense_views_raise()
    for t, _ in candidates:
        _PREDICATES[family](t, target)


@pytest.mark.parametrize("family, params, make", EXCEPTIONS, ids=lambda x: str(x))
def test_membership_exceptions_stay_sparse(family, params, make, dense_views_raise):
    target = build_graded(family, params)
    t = make(target)
    dense_views_raise()
    assert _PREDICATES[family](t, target) is False
