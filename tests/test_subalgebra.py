"""Isotropy and factor algebras read off the parent's table.

`lie.subalgebra` brackets coordinate vectors in the parent basis through the
parent's table, and `isotropy_rep` and `factor_decomposition` build h and
every factor of several with it.  The ambient builds they replace (h's table
from `make_algebra` on h's matrices, the factors through `_assemble_pair`)
are kept in conftest.py, and every name, table, basis and action must equal
theirs, over the default pairs and the direct sums the analyze benchmark
reads.
"""

import dataclasses

import pytest

from cartanext import catalog, lie
from cartanext.catalog import build_pair, direct_sum_pairs, factor_decomposition, isotropy_rep
from cartanext.errors import ClosureError, DependentBasisError, InputError
from cartanext.lie import MatrixLieAlgebra, subalgebra
from conftest import reference_factor_decomposition, reference_isotropy_rep

SUMS = (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"))


def _pairs() -> list:
    pairs = [build_pair(f, p) for f, p in catalog.default_pair_grid()]
    return pairs + [direct_sum_pairs([build_pair("group_type", {"base": b}) for b in parts])
                    for parts in SUMS]


def _assert_same_algebra(got: MatrixLieAlgebra, want: MatrixLieAlgebra) -> None:
    assert (got.name, got.ambient_size) == (want.name, want.ambient_size)
    assert got.basis == want.basis
    assert got.constants.table == want.constants.table


def _uncertified(pair):
    """A copy of the pair whose algebra has the same table and basis but no
    recorded certificate."""
    alg = pair.k_algebra
    bare = MatrixLieAlgebra(alg.ambient_size, alg.basis, alg.name, alg.constants)
    return dataclasses.replace(pair, k_algebra=bare)


@pytest.mark.parametrize("pair", _pairs(), ids=lambda p: p.name)
def test_isotropy_rep_matches_the_ambient_build(pair):
    got = isotropy_rep(dataclasses.replace(pair))
    want = reference_isotropy_rep(pair)
    _assert_same_algebra(got.algebra, want.algebra)
    assert got.action == want.action
    assert all(b is pair.k_algebra.basis[i] for b, i in zip(got.algebra.basis, pair.h_indices))


def test_factor_algebras_match_the_ambient_build():
    seen = 0
    for pair in _pairs():
        got = factor_decomposition(pair)
        if len(got) == 1:
            continue
        want = reference_factor_decomposition(dataclasses.replace(pair))
        assert len(got) == len(want)
        for f, ref in zip(got, want):
            _assert_same_algebra(f.pair.k_algebra, ref.pair.k_algebra)
            assert f.pair == ref.pair
            seen += 1
    assert seen == 12  # two factors of each of the 6 pairs with two orbits


def test_derived_algebras_are_certified_without_a_commutator(monkeypatch):
    copies = [dataclasses.replace(pair) for pair in _pairs()]
    for pair in copies:
        catalog.centroid(pair)  # its spin-up takes commutators; not under test here

    def refuse(*args):
        raise AssertionError("an ambient bracket was taken")

    monkeypatch.setattr(lie, "_BracketIndex", refuse)
    monkeypatch.setattr(lie, "_homomorphism_witness", refuse)
    for pair in copies:
        algebras = [isotropy_rep(pair).algebra]
        for f in factor_decomposition(pair):
            algebras += [f.pair.k_algebra, isotropy_rep(f.pair).algebra]
        for alg in algebras:
            assert alg.realization_certified(), alg.name


def test_an_uncertified_parent_gets_the_homomorphism_check(monkeypatch):
    calls = []
    real = lie._homomorphism_witness

    def counted(constants, action):
        calls.append(len(action))
        return real(constants, action)

    monkeypatch.setattr(lie, "_homomorphism_witness", counted)
    pair = build_pair("sp1_block", {"p": 1, "q": 1})
    rep = isotropy_rep(_uncertified(pair))
    assert calls == [pair.dim_h] and not rep.algebra._recorded()
    assert rep.algebra.realization_certified() and calls == [pair.dim_h] * 2  # the full check
    _assert_same_algebra(rep.algebra, isotropy_rep(pair).algebra)
    assert rep.action == isotropy_rep(pair).action
    total = _uncertified(_pairs()[-1])  # group(sl(2,R)) + group(sl(2,C))
    calls.clear()
    for f in factor_decomposition(total):
        isotropy_rep(f.pair)
    assert calls == [f.pair.dim_h for f in factor_decomposition(total)]


def test_isotropy_rep_refuses_a_split_that_is_not_an_eigenspace_split():
    pair = build_pair("sl_block", {"p": 1, "q": 1})  # basis E11 - E00, E01, E10
    assert (pair.h_indices, pair.m_indices) == ((0,), (1, 2))
    wrong = dataclasses.replace(pair, h_indices=(1,), m_indices=(0, 2))  # [h, m] meets h
    with pytest.raises(InputError, match="leaves its eigenspace"):
        isotropy_rep(wrong)


def test_subalgebra_refuses_dependent_vectors_and_open_brackets():
    alg = build_pair("sl_block", {"p": 1, "q": 1}).k_algebra  # E11 - E00, E01, E10
    with pytest.raises(DependentBasisError):
        subalgebra(alg, [{1: 1}, {1: 2}], "x")
    with pytest.raises(ClosureError):
        subalgebra(alg, [{1: 1}, {2: 1}], "x")  # [E01, E10] = E00 - E11
    borel = subalgebra(alg, [{0: 1}, {0: 1, 1: 1}], "b")
    assert borel.basis == (alg.basis[0], alg.basis[0] + alg.basis[1])
    assert borel.constants.table == lie.make_algebra(borel.basis, "b").constants.table
    assert borel.realization_certified()
