"""The batched bracket kernel and the structure-constant build on top of it.

`linalg._BracketIndex` indexes a list of matrices M_j by the rows and the
columns of their entries and gives every AM_j - M_jA as the flat sparse
vector of `Mat.flat`, and `make_algebra` builds and certifies its table from
one sweep of it.  The build it replaced, on `Mat` commutators, is kept in
conftest.py as `reference_make_algebra`; every table, cell value type,
certificate record and error index must equal its own, over the default
families, projective n = 21 and a seeded sweep of small bases.
"""

import random
from fractions import Fraction

import pytest

from cartanext import bases, catalog
from cartanext.catalog import build_graded, build_pair
from cartanext.errors import ClosureError, DependentBasisError
from cartanext.lie import _EMPTY_CELL, make_algebra
from cartanext.linalg import Mat, _BracketIndex, combination, commutator, invert, matrix_rank
from conftest import _support_masks, reference_make_algebra, reference_sparse_commutator

F = Fraction
ENTRIES = (0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 4))


def _stored(vec: dict) -> bool:
    """No zero values, integral values as int."""
    return all(v and (v.__class__ is int or v.denominator != 1) for v in vec.values())


def _random_mat(rng: random.Random, n: int) -> Mat:
    return Mat(n, n, [rng.choice(ENTRIES) for _ in range(n * n)])


def _seeded_pairs() -> list:
    """The 400 seeded pairs (a, b): b random, a itself, a polynomial in a or
    the identity, so that many brackets cancel."""
    rng = random.Random(0)
    pairs = []
    for _ in range(400):
        n = rng.randint(1, 6)
        a = _random_mat(rng, n)
        pairs.append((a, rng.choice([_random_mat(rng, n), a, a @ a + a.scale(F(1, 3)),
                                     Mat.identity(n)])))
    return pairs


def _reference_brackets(a: Mat, mats) -> dict:
    return {j: v for j, m in enumerate(mats) if (v := reference_sparse_commutator(a, m).flat())}


def test_kernel_matches_the_commutator():
    pairs = _seeded_pairs()
    cancelled = 0
    for a, b in pairs:
        got = _BracketIndex([b], a.rows).brackets(a)
        assert got == _reference_brackets(a, [b])
        assert commutator(a, b) == reference_sparse_commutator(a, b)
        assert all(_stored(v) for v in got.values())
        cancelled += not got and not (a @ b).is_zero()
    assert cancelled  # brackets whose products cancel to zero were met
    # one index of every b of a size brackets the first a's of that size with all of them
    for n in range(1, 7):
        mats = [b for a, b in pairs if a.rows == n]
        index = _BracketIndex(mats, n)
        for a in [a for a, _ in pairs if a.rows == n][:5]:
            got = index.brackets(a)
            assert got == _reference_brackets(a, mats)
            assert all(_stored(v) for v in got.values())


def test_dropping_the_first_matrix_keeps_the_rest():
    pairs = _seeded_pairs()
    for n in range(1, 7):
        mats = [b for a, b in pairs if a.rows == n][:12]
        a = next(a for a, _ in pairs if a.rows == n)
        index = _BracketIndex(mats, n)
        for first in range(len(mats)):
            want = {j: v for j, v in _reference_brackets(a, mats).items() if j >= first}
            assert index.brackets(a) == want
            index.drop_first()
        assert index.brackets(a) == {}
        assert not any(index.by_row.values()) and not any(index.by_col.values())


def test_commutator_keeps_its_shape_check_and_stored_form():
    a = Mat.from_rows([[0, F(1, 2)], [F(3, 2), 0]])
    b = Mat.from_rows([[1, 0], [0, -1]])
    assert commutator(a, b) == reference_sparse_commutator(a, b)
    assert commutator(a, b).sparse == {0: {1: -1}, 1: {0: 3}}  # F(3) stored as the int 3
    with pytest.raises(Exception, match="square matrices of one size"):
        commutator(a, Mat.identity(3))


def _cell_types(alg) -> list:
    return [[None if cell is _EMPTY_CELL else (type(cell), {k: type(v) for k, v in cell.items()})
             for cell in row] for row in alg.constants.table]


def _assert_same_build(basis, name: str = "x") -> str:
    """make_algebra and the reference agree on `basis`; returns "closure",
    "dependent" or "built"."""
    try:
        want = reference_make_algebra(basis, name)
    except (ClosureError, DependentBasisError) as err:
        with pytest.raises(type(err)) as got:
            make_algebra(basis, name)
        assert got.value.args == err.args
        assert getattr(got.value, "pair", None) == getattr(err, "pair", None)
        assert getattr(got.value, "index", None) == getattr(err, "index", None)
        return "closure" if isinstance(err, ClosureError) else "dependent"
    got = make_algebra(basis, name)
    assert got == want
    assert type(got.constants.table) is tuple and all(type(r) is tuple for r in got.constants.table)
    assert _cell_types(got) == _cell_types(want)
    record, want_record = (a._derived.get("realization_certified") for a in (got, want))
    assert (record is None) == (want_record is None)
    if record is not None:
        assert record[0] is got.constants.table and record[1] is got.basis
    assert got.coordinate_matrix(basis) == Mat.identity(len(basis))
    return "built"


def _default_bases() -> list:
    items = [(f"{f}{p}", build_graded(f, p).algebra.basis)
             for f, p in catalog.default_graded_grid()]
    items += [(f"{f}{p}", build_pair(f, p).k_algebra.basis)
              for f, p in catalog.default_pair_grid()]
    return items


@pytest.mark.parametrize("name,basis", _default_bases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_default_families_match_the_reference_build(name, basis):
    assert _assert_same_build(basis, name) == "built"


def test_projective_21_matches_the_reference_build():
    basis = build_graded("projective", {"n": 21}).algebra.basis
    assert len(basis) == 483
    assert _assert_same_build(basis, "projective21") == "built"


def _invertible(rng: random.Random, n: int) -> Mat:
    while True:
        m = Mat(n, n, [rng.choice((-1, 0, 1, 2, F(1, 2))) for _ in range(n * n)])
        if matrix_rank(m) == n:
            return m


def _sweep_bases(rng: random.Random) -> list:
    """Small bases: catalog and textbook algebras conjugated, scaled and
    recombined; diagonal tori; dependent and non-closed choices."""
    sources = [bases.sl_basis(2), bases.sl_basis(3), bases.so_diag_basis([1, 1, 1]),
               build_pair("group_type", {"base": "so(3)"}).k_algebra.basis,
               build_pair("sl_block", {"p": 1, "q": 1}).k_algebra.basis,
               build_graded("projective", {"n": 2}).algebra.basis]
    out = []
    for trial in range(60):
        basis = list(rng.choice(sources))
        n = basis[0].rows
        how = trial % 5
        if how == 0:  # scaled: one-term cells c X_k with c not +-1
            basis = [b.scale(rng.choice((1, -1, 2, F(1, 3), F(-5, 2)))) for b in basis]
        elif how == 1:  # conjugated: Fraction entries, supports spread
            t = _invertible(rng, n)
            t_inv = invert(t)
            basis = [t @ b @ t_inv for b in basis]
        elif how == 2:  # recombined: brackets with several terms
            p = _invertible(rng, len(basis))
            basis = [combination(((p[i, a], basis[i]) for i in range(len(basis))), n, n)
                     for a in range(len(basis))]
        elif how == 3:  # a random subset: usually not closed
            basis = rng.sample(basis, rng.randint(2, len(basis) - 1))
        else:  # an element made dependent on two earlier ones
            k = rng.randint(2, len(basis) - 1)
            basis[k] = basis[0].scale(F(2, 3)) - basis[1]
        rng.shuffle(basis)
        out.append(basis)
    for n in (2, 3, 4):  # diagonal tori (Vandermonde): supports meet, every bracket cancels
        out.append([Mat.diag([F(j + 2, 2) ** i for i in range(n)]) for j in range(n)])
    return out


def test_seeded_sweep_matches_the_reference_build():
    rng = random.Random(0)
    outcomes = []
    fractions = cancelled = several = 0
    for basis in _sweep_bases(rng):
        outcome = _assert_same_build(basis)
        outcomes.append(outcome)
        fractions += any(v.__class__ is not int for b in basis for v in b.flat().values())
        if outcome != "built":
            continue
        alg = make_algebra(basis)
        in_rows, in_cols = _support_masks(basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                meet = in_cols[i] & in_rows[j] or in_cols[j] & in_rows[i]
                cancelled += bool(meet) and commutator(basis[i], basis[j]).is_zero()
                several += len(alg.constants.table[i][j]) > 1
    assert {"built", "closure", "dependent"} <= set(outcomes)
    assert fractions and cancelled and several
