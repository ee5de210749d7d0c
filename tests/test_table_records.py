"""What a table build leaves behind, and what the verifiers read off it.

- `make_algebra` and `subalgebra` keep one pair of cells {k: 1}, {k: -1}
  per basis index and per build, so a table of a catalog basis holds few
  distinct cell objects; the count below fails if a cell per bracket comes
  back.
- `verify_graded` and `verify_pair` take antisymmetry from the build
  record (`MatrixLieAlgebra._recorded`), so `antisymmetry_holds` runs only
  on unrecorded tables.
- `killing_form` groups the table's entries by position; it must give the
  Mat of the index-pair loop it replaced (`reference_killing_form`),
  entry for entry and in stored type.
"""

import dataclasses
from fractions import Fraction

import pytest

from cartanext import catalog
from cartanext.catalog import build_graded, build_pair, verify_graded, verify_pair
from cartanext.lie import (FrozenDict, MatrixLieAlgebra, StructureConstants, killing_form,
                           make_algebra, subalgebra)
from conftest import reference_killing_form, reference_make_algebra
from rebasing import rebased

GRADED = catalog.default_graded_grid()
PAIRS = catalog.default_pair_grid()


def _is_unit_cell(cell) -> bool:
    """Whether the cell is {k: 1} or {k: -1} with an int value."""
    if len(cell) != 1:
        return False
    (c,) = cell.values()
    return c.__class__ is int and c in (1, -1)


def _value_types(alg) -> list:
    return [[{k: type(v) for k, v in cell.items()} for cell in row] for row in alg.constants.table]


def test_one_term_cells_are_shared_within_a_table():
    g = build_graded("projective", {"n": 21})
    table = g.algebra.constants.table
    cells = [cell for row in table for cell in row]
    # each cell other than the empty one and {k: +-1} is its own object
    others = sum(1 for cell in cells if cell and not _is_unit_cell(cell))
    distinct = list({id(cell): cell for cell in cells}.values())
    assert len(distinct) <= others + 2 * g.dim + 1
    assert len(distinct) < sum(1 for cell in cells if cell) // 10
    for cell in distinct:
        assert type(cell) is FrozenDict
        with pytest.raises(TypeError):
            cell[0] = 1
        with pytest.raises(TypeError):
            cell.update({0: 1})
    assert _value_types(g.algebra) == _value_types(reference_make_algebra(g.algebra.basis))


def test_subalgebra_shares_its_one_term_cells():
    pair = build_pair("so_block", {"a": 2, "b": 2, "c": 2, "d": 2})
    h = subalgebra(pair.k_algebra, [{i: 1} for i in pair.h_indices], "h")
    cells = [cell for row in h.constants.table for cell in row]
    units = [cell for cell in cells if _is_unit_cell(cell)]
    # one object per value {k: +-1}, however many brackets take it
    assert len(units) > len({tuple(cell.items()) for cell in units})
    assert len({id(cell) for cell in units}) == len({tuple(cell.items()) for cell in units})
    assert all(type(cell) is FrozenDict for cell in cells)


def test_a_fraction_table_keeps_its_value_types():
    # so_complex(2) has Fraction coefficients; only int +-1 cells are shared
    pair = build_pair("so_complex", {"n": 2})
    alg = pair.k_algebra
    assert any(v.__class__ is Fraction for row in alg.constants.table
               for cell in row for v in cell.values())
    again = make_algebra(alg.basis, alg.name)
    assert again == alg and _value_types(again) == _value_types(alg)
    assert _value_types(alg) == _value_types(reference_make_algebra(alg.basis))


def _refuse(*args, **kwargs):
    raise AssertionError("antisymmetry rescanned on a recorded table")


def test_recorded_tables_are_not_rescanned(monkeypatch):
    monkeypatch.setattr(StructureConstants, "antisymmetry_holds", _refuse)
    for family, params in GRADED:
        assert verify_graded(build_graded(family, params)) == [], (family, params)
    for family, params in PAIRS:
        assert verify_pair(build_pair(family, params)) == [], (family, params)


def _counting(monkeypatch) -> list:
    calls = []
    scan = StructureConstants.antisymmetry_holds

    def counted(self):
        calls.append(self)
        return scan(self)

    monkeypatch.setattr(StructureConstants, "antisymmetry_holds", counted)
    return calls


def _copy(alg) -> MatrixLieAlgebra:
    # as in the CI cap step: a new algebra, so no record, around the same cells
    return MatrixLieAlgebra(alg.ambient_size, alg.basis, alg.name,
                            StructureConstants(alg.dim, tuple(alg.constants.table)))


def test_unrecorded_copies_take_the_scan_once(monkeypatch):
    calls = _counting(monkeypatch)
    g = build_graded("projective", {"n": 3})
    assert verify_graded(dataclasses.replace(g, algebra=_copy(g.algebra))) == []
    assert len(calls) == 1
    p = build_pair("group_type", {"base": "so(3)"})
    assert verify_pair(dataclasses.replace(p, k_algebra=_copy(p.k_algebra))) == []
    assert len(calls) == 2


def test_assigning_a_table_drops_the_record(monkeypatch):
    calls = _counting(monkeypatch)
    g = build_graded("projective", {"n": 2})
    fresh = make_algebra(g.algebra.basis, g.algebra.name)
    assert fresh._recorded()
    # one entry below the diagonal changed, its partner above it not
    table = [[dict(cell) for cell in row] for row in fresh.constants.table]
    i, j = next((i, j) for i in range(fresh.dim) for j in range(i) if table[i][j])
    k = min(table[i][j])
    table[i][j][k] += 1
    fresh.constants = StructureConstants(fresh.dim, table)
    assert not fresh._recorded()
    got = verify_graded(dataclasses.replace(g, algebra=fresh))
    assert got[0] == "structure constants are not antisymmetric"
    assert len(calls) == 1


def _assert_same_killing(alg):
    got, want = killing_form(alg), reference_killing_form(alg)
    assert got == want
    assert all(type(x) is Fraction for x in got.entries)
    assert ({(r, c): type(v) for r, row in got.sparse.items() for c, v in row.items()}
            == {(r, c): type(v) for r, row in want.sparse.items() for c, v in row.items()})
    assert all(v for row in got.sparse.values() for v in row.values())
    # each row's columns in the reference's order, which `submatrix` keeps
    assert all(list(got.sparse[r]) == list(want.sparse[r]) for r in want.sparse)


@pytest.mark.parametrize("family, params", GRADED, ids=str)
def test_killing_form_matches_the_reference_on_targets(family, params):
    _assert_same_killing(build_graded(family, params).algebra)


@pytest.mark.parametrize("family, params", PAIRS, ids=str)
def test_killing_form_matches_the_reference_on_pairs(family, params):
    pair = build_pair(family, params)
    _assert_same_killing(pair.k_algebra)
    for seed in (1, 2):
        _assert_same_killing(rebased(pair, seed).algebra)


def test_killing_form_matches_the_reference_on_a_fraction_table():
    alg = build_pair("so_complex", {"n": 2}).k_algebra
    assert any(v.__class__ is Fraction for row in alg.constants.table
               for cell in row for v in cell.values())
    _assert_same_killing(alg)


def test_killing_form_matches_the_reference_at_the_ambient_cap():
    alg = build_pair("su_block", {"a": 8, "b": 4, "c": 2, "d": 2}).k_algebra
    assert alg.dim == 255
    _assert_same_killing(alg)
