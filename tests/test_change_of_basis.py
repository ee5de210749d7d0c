"""Commutants, centroids and verdicts of the default pairs in a rebased
basis (see `rebasing.py`).

For seeds 1 and 2 and every default pair, the adjoint and isotropy
commutants of the rebased pair must have the catalog pair's dimensions,
commute with every action matrix, and give the isotropy commutant the
catalog's label, and the rebased pair's centroid must have the catalog
centroid's dimension and number of primitive idempotents, each within 5 s
of CPU time.  A commutant solved in d^2 unknowns took 10.4 s on the rebased
group(sl(3,R)) adjoint and about two minutes on the rebased sp(2,1)
adjoint; spin-up takes under half a second on each.  The centroid of the
rebased group(sl(2,C)) with seed 2 has an even quartic minimal polynomial
whose constant term has a 69-bit numerator; a factorer that lists divisors
by trial division did not split it within a minute.

The same bound holds for the verdicts: `centralizer_report`,
`decide_conformal` and `decide_h_projective` of the rebased pair, as a
`SymmetricPair`, must match the catalog pair's.  Rebuilding h's table from
its ambient matrices took 5.8 s for `centralizer_report` on the rebased
sp(2,1) with seed 2; reading it off the pair's table takes under 2 s.
"""

import time

import pytest

from cartanext import catalog, classify
from cartanext.catalog import build_pair, isotropy_rep
from cartanext.lie import _homomorphism_witness, commutant, commutant_basis
from rebasing import rebased, symmetric_pair

CPU_BOUND_S = 5.0
GRID = catalog.default_pair_grid()


def _timed(call):
    start = time.process_time()
    out = call()
    spent = time.process_time() - start
    assert spent < CPU_BOUND_S, f"{spent:.2f} s CPU"
    return out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("family, params", GRID, ids=lambda x: str(x))
def test_rebased_commutants_match_the_catalog(family, params, seed):
    pair = build_pair(family, params)
    new = rebased(pair, seed)
    adjoint = new.algebra.adjoint_representation()
    basis = _timed(lambda: commutant_basis(adjoint))
    assert len(basis) == len(commutant_basis(pair.k_algebra.adjoint_representation()))
    assert all(t @ a == a @ t for t in basis for a in adjoint.action)
    cls = _timed(lambda: commutant(new.isotropy))
    want = commutant(isotropy_rep(pair))
    assert (cls.dim, cls.label) == (want.dim, want.label)
    assert all(t @ a == a @ t for t in cls.commutant_basis for a in new.isotropy.action)
    basis, projs = _timed(lambda: catalog.centroid(symmetric_pair(new)))
    want_basis, want_projs = catalog.centroid(pair)
    assert (len(basis), len(projs)) == (len(want_basis), len(want_projs))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("family, params", GRID, ids=lambda x: str(x))
def test_rebased_verdicts_match_the_catalog(family, params, seed):
    pair = build_pair(family, params)
    new = symmetric_pair(rebased(pair, seed))
    got, want = _timed(lambda: classify.centralizer_report(new)), classify.centralizer_report(pair)
    assert (got.factor_labels, got.total_dim) == (want.factor_labels, want.total_dim)
    got, want = _timed(lambda: classify.decide_conformal(new)), classify.decide_conformal(pair)
    assert ((got.verdict.verdict, got.form_space_dim, got.signatures)
            == (want.verdict.verdict, want.form_space_dim, want.signatures))
    got = _timed(lambda: classify.decide_h_projective(new))
    assert got.verdict == classify.decide_h_projective(pair).verdict


def test_the_rebased_pair_is_the_catalog_pair_in_another_basis():
    pair = rebased(build_pair("so_block", {"a": 2, "b": 1, "c": 1, "d": 1}), 1)
    assert pair.algebra.realization_certified()  # independent, and realizes its table
    rep = pair.isotropy
    assert _homomorphism_witness(rep.algebra.constants, rep.action) is None
    assert rep.algebra.realization_certified()
    nh = pair.dim_h
    for a, row in enumerate(pair.algebra.constants.table):
        for b, cell in enumerate(row):  # [h, h] and [m, m] lie in h, [h, m] in m
            assert all((k < nh) == ((a < nh) == (b < nh)) for k in cell)
