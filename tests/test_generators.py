"""Constraints from a generating set: `generating_indices`, and the commutants,
invariant forms and centroid built from it.

`commutant_basis` and `invariant_bilinear_forms` take their constraint rows
only from the action matrices of a generating set.  Both must return exactly
what the full-basis systems of `conftest.py` return.
"""

import dataclasses
from fractions import Fraction

import pytest

from cartanext import catalog, classify, lie
from cartanext.catalog import (build_pair, centroid, direct_sum_pairs, factor_decomposition,
                               isotropy_rep)
from cartanext.lie import (Representation, commutant_basis, generating_indices, generator_chain,
                           invariant_bilinear_forms, make_algebra)
from cartanext.linalg import Mat, matrix_rank
from conftest import reference_commutant_basis, reference_invariant_bilinear_forms

F = Fraction

# The direct sums that the analyze benchmark reads beside the default grid.
SUMS = (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"))


def _pairs():
    pairs = [build_pair(f, p) for f, p in catalog.default_pair_grid()]
    for parts in SUMS:
        pairs.append(direct_sum_pairs([build_pair("group_type", {"base": b}) for b in parts]))
    return pairs


PAIRS = _pairs()


def _abelian():
    diag = [Mat.unit(3, 3, i, i) for i in range(3)]
    alg = make_algebra(diag, "diag(3)")
    return Representation(alg, 3, diag)


def _gl2():
    e = Mat.from_rows([[0, 1], [0, 0]])
    h = Mat.from_rows([[1, 0], [0, -1]])
    f = Mat.from_rows([[0, 0], [1, 0]])
    basis = [e + f, h, Mat.identity(2), e - f]  # sl(2,R) plus its centre
    return Representation(make_algebra(basis, "gl(2,R)"), 2, basis)


def _representations():
    reps = []
    for pair in PAIRS:
        reps.append((f"ad {pair.name}", pair.k_algebra.adjoint_representation()))
        reps.append((f"iso {pair.name}", isotropy_rep(pair)))
    reps.append(("abelian", _abelian()))
    gl2 = _gl2()
    reps.append(("gl(2,R)", gl2))
    reps.append(("ad gl(2,R)", gl2.algebra.adjoint_representation()))
    return reps


REPS = _representations()
IDS = [label for label, _ in REPS]


class _Span:
    """Row echelon form over Fraction lists, independent of the library."""

    def __init__(self):
        self.rows = {}  # pivot column -> row with a 1 there

    def reduce(self, vec):
        v = list(vec)
        for p, row in self.rows.items():
            if v[p]:
                c = v[p]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        v = [x / v[p] for x in v]
        for q, row in self.rows.items():
            if row[p]:
                self.rows[q] = [a - row[p] * b for a, b in zip(row, v)]
        self.rows[p] = v
        return True


def _unit(i, dim):
    return [F(int(t == i)) for t in range(dim)]


def _generated(sc, gens) -> _Span:
    """The subalgebra generated by the basis elements `gens`: the span of
    the generators, closed under bracketing with each of them."""
    span, todo = _Span(), []
    for g in gens:
        if span.add(_unit(g, sc.dim)):
            todo.append(_unit(g, sc.dim))
    while todo:
        v = todo.pop()
        for g in gens:
            w = sc.bracket_coords(_unit(g, sc.dim), v)
            if span.add(w):
                todo.append(w)
    return span


@pytest.mark.parametrize("label, rep", REPS, ids=IDS)
def test_commutant_matches_full_basis_reference(label, rep):
    assert commutant_basis(rep) == reference_commutant_basis(rep)


@pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
@pytest.mark.parametrize("label, rep", REPS, ids=IDS)
def test_invariant_forms_match_full_basis_reference(label, rep, symmetry):
    assert invariant_bilinear_forms(rep, symmetry) == reference_invariant_bilinear_forms(rep, symmetry)


@pytest.mark.parametrize("label, rep", REPS, ids=IDS)
def test_generating_indices_generate_greedily(label, rep):
    sc, dim = rep.algebra.constants, rep.algebra.dim
    picks = generating_indices(rep.algebra)
    assert picks == sorted(set(picks))
    assert len(_generated(sc, picks).rows) == dim
    # each pick lies outside what the earlier picks generate, each skipped
    # index up to the last pick inside it
    for n, pick in enumerate(picks):
        span = _generated(sc, picks[:n])
        skipped = range(picks[n - 1] + 1 if n else 0, pick)
        assert all(not any(span.reduce(_unit(i, dim))) for i in skipped)
        assert any(span.reduce(_unit(pick, dim)))


def test_abelian_algebra_needs_every_basis_element():
    assert generating_indices(_abelian().algebra) == [0, 1, 2]


def test_generating_indices_are_kept_on_the_algebra(monkeypatch):
    alg = build_pair("group_type", {"base": "sl(3,R)"}).k_algebra
    picks = generating_indices(alg)
    assert alg._derived["_generator_picks"] == tuple(picks)

    def no_span(length):
        raise AssertionError("the picks were searched again")

    monkeypatch.setattr(lie, "SpanSolver", no_span)
    picks[0] = -1  # each call returns a new list, so this reaches no later caller
    picks.append(99)
    kept = alg._derived["_generator_picks"]
    assert generating_indices(alg) == list(kept) and -1 not in kept
    assert generating_indices(alg) is not generating_indices(alg)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_generator_chain_is_a_basis_of_brackets_of_the_picks(pair):
    alg = pair.k_algebra
    chain = generator_chain(alg)
    assert [v for v, s, _ in chain if s is None] == [{i: 1} for i in generating_indices(alg)]
    for k, (v, s, j) in enumerate(chain):
        if s is not None:
            assert s in generating_indices(alg) and j < k
            assert v == alg.constants.bracket_with(s, chain[j][0])
    assert matrix_rank(Mat.from_sparse(len(chain), alg.dim, dict(enumerate(
        v for v, _, _ in chain)))) == len(chain) == alg.dim
    assert generator_chain(alg) is not chain and generator_chain(alg) == chain


def test_generating_sets_are_smaller_than_the_basis():
    for pair in PAIRS:
        # in sl(2,R) = span(-h, e, f), -h and e generate only a Borel subalgebra
        assert len(generating_indices(pair.k_algebra)) < pair.dim or pair.dim == 3
    sl3 = build_pair("group_type", {"base": "sl(3,R)"}).k_algebra
    assert len(generating_indices(sl3)) == 5  # of 16


def test_centroid_is_computed_once_per_pair(monkeypatch):
    total = direct_sum_pairs([build_pair("group_type", {"base": b}) for b in ("sl(2,R)", "so(3)")])
    pair = dataclasses.replace(total)  # the same algebra, without the memo
    calls = []
    real = lie.commutant_basis

    def counted(rep):
        if rep.algebra is pair.k_algebra:
            calls.append(rep)
        return real(rep)

    monkeypatch.setattr(lie, "commutant_basis", counted)
    monkeypatch.setattr(catalog, "commutant_basis", counted)
    factor_decomposition(pair)
    classify.decide_h_projective(pair)
    assert len(calls) == 1
    factor_decomposition(total)  # the sum solves its own, once
    classify.decide_h_projective(total)
    assert len(calls) == 2 and centroid(total) == centroid(pair)
    basis, projs = centroid(pair)
    assert list(basis) == reference_commutant_basis(pair.k_algebra.adjoint_representation())
    assert len(projs) == 4 and len(factor_decomposition(pair)) == 2
    assert "_derived" not in repr(pair) and "PairFactor" not in repr(pair)
