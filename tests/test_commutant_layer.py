"""The commutant layer against the routines it replaced.

`lie.commutant_basis` cuts its unknowns down relation by relation and stops
once one candidate is left, and `lie.split_idempotents` reads coordinates at
the pivots of the basis it is given.  Both must return exactly what the
word-matrix spin-up and the span-decomposing split returned, kept verbatim in
conftest.py: the same basis matrices, the same projectors in the same order,
the same commutant labels and the same factor complex structures, J signs
included.  The inputs are the default pairs, the direct sums that the
analysis benchmark and CI read, the complex group types, and the default
pairs rebased with seeds 1 and 2 (`rebasing.py`).
"""

import dataclasses
import time

import pytest

from cartanext import catalog, classify
from cartanext.catalog import build_pair, direct_sum_pairs, isotropy_rep, verify_pair
from cartanext.lie import commutant, commutant_basis, factor_complex_structure, split_idempotents
from conftest import (reference_span_classify_commutant, reference_span_split_idempotents,
                      reference_word_matrix_commutant_basis)
from rebasing import rebased

GRID = catalog.default_pair_grid()
SUMS = [("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"),
        ("sl(2,C)", "sl(2,C)"), ("sl(2,C)", "sl(2,C)", "sl(2,C)")]
COMPLEX = ["so(3,C)", "so(4,C)", "so(5,C)", "sp(2,C)", "sp(4,C)"]


def _sum(bases) -> catalog.SymmetricPair:
    return direct_sum_pairs([build_pair("group_type", {"base": b}) for b in bases])


def _representations(pair) -> list:
    """The adjoint representation of a pair's algebra, and the isotropy
    representation of the pair and of each of its factors."""
    reps = [pair.k_algebra.adjoint_representation(), isotropy_rep(pair)]
    factors = catalog.factor_decomposition(pair)
    return reps + [isotropy_rep(f.pair) for f in factors if f.pair is not pair]


def _assert_layer_matches(rep) -> None:
    basis = commutant_basis(rep)
    want = reference_word_matrix_commutant_basis(rep)
    assert basis == want
    cls, ref = commutant(rep), reference_span_classify_commutant(tuple(want))
    assert (cls.commutant_basis, cls.label) == (ref.commutant_basis, ref.label)
    if len(basis) < 2:
        return
    projs = split_idempotents(basis)
    ref_projs = reference_span_split_idempotents(want)
    assert projs == ref_projs
    if projs is not None:
        got = [factor_complex_structure(p, basis) for p in projs]
        assert got == [factor_complex_structure(p, want) for p in ref_projs]


CATALOG = ([(f"{f} {sorted(p.items())}", lambda f=f, p=p: build_pair(f, p)) for f, p in GRID]
           + [("+".join(b), lambda b=b: _sum(b)) for b in SUMS]
           + [(f"group({b})", lambda b=b: build_pair("group_type", {"base": b})) for b in COMPLEX])


@pytest.mark.parametrize("label, make", CATALOG, ids=[label for label, _ in CATALOG])
def test_catalog_commutants_match_the_replaced_routines(label, make):
    pair = dataclasses.replace(make())  # a copy without the memo of the cached build
    for rep in _representations(pair):
        _assert_layer_matches(rep)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("family, params", GRID, ids=lambda x: str(x))
def test_rebased_commutants_match_the_replaced_routines(family, params, seed):
    new = rebased(build_pair(family, params), seed)
    for rep in (new.algebra.adjoint_representation(), new.isotropy):
        _assert_layer_matches(rep)


def test_a_rebased_adjoint_commutant_is_no_slower():
    """The rebased sp(2,1) adjoint: the word-matrix spin-up forms products of
    dense rational 21 x 21 matrices; the cut spin-up forms them on the few
    candidates the first relations leave."""
    rep = rebased(build_pair("sp1_block", {"p": 1, "q": 1}), 2).algebra.adjoint_representation()
    commutant_basis(rep)  # the generator picks, which both read, are kept on the algebra
    start = time.process_time()
    want = reference_word_matrix_commutant_basis(rep)
    old = time.process_time() - start
    start = time.process_time()
    assert commutant_basis(rep) == want
    assert time.process_time() - start < old


# -- the complex group types ------------------------------------------------------

COMPLEX_LABELS = {"so(3,C)": ["C"], "so(4,C)": ["C", "C"], "so(5,C)": ["C"],
                  "sp(2,C)": ["C"], "sp(4,C)": ["C"]}


@pytest.mark.parametrize("base", COMPLEX)
def test_complex_group_types_classify(base):
    """group(g) for a complex semisimple g: the centroid of g + g is C^2k for
    the k simple factors of g (so(4,C) has two), the isotropy commutant is
    C on each factor, and both h-projective and conformal structures
    exist."""
    pair = build_pair("group_type", {"base": base})
    assert verify_pair(pair) == []
    report = classify.centralizer_report(pair)
    assert report.factor_labels == COMPLEX_LABELS[base]
    assert report.total_dim == 2 * len(COMPLEX_LABELS[base])
    assert len(catalog.centroid(pair)[1]) == 2 * len(COMPLEX_LABELS[base])
    assert classify.decide_h_projective(pair).verdict == classify.EXISTS
    assert classify.decide_conformal(pair).verdict.verdict == classify.EXISTS
