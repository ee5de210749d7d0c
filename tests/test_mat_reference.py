"""The sparse, int-first `Mat` against the dense `Mat` it replaced.

`ReferenceMat` in conftest.py is the dense matrix kept verbatim.  Every public
operation is swept on seeded sparse and dense matrices whose entries are given
as int, Fraction and "p/q" strings; results must agree entry by entry, come
back as Fractions through the dense views, and keep the stored form (no zero
entries, no empty rows, integral values as int).
"""

import random
from fractions import Fraction

import pytest

from cartanext.errors import InputError
from cartanext.linalg import Mat, commutator
from conftest import (ReferenceMat, apply, from_columns, reference_commutator,
                      reference_mat_from_json, reference_mat_to_json, stored_form_holds)

F = Fraction


def _scalar(rng):
    """A rational in one of the accepted input forms, zero one time in five."""
    value = F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.8 else F(0)
    form = rng.randrange(3)
    if form == 0 and value.denominator == 1:
        return int(value)
    if form == 1:
        return f"{value.numerator}/{value.denominator}" if rng.random() < 0.5 else str(value)
    return value


def _pair(rng, rows, cols, density):
    entries = [_scalar(rng) if rng.random() < density else rng.choice([0, "0", F(0), "0/4"])
               for _ in range(rows * cols)]
    return Mat(rows, cols, entries), ReferenceMat(rows, cols, entries)


def _same(m: Mat, ref: ReferenceMat) -> bool:
    """m equals the reference, its dense views are Fractions, and its stored
    form holds."""
    rows = m.to_rows()
    return (isinstance(m, Mat) and m.shape == (ref.rows, ref.cols) and stored_form_holds(m)
            and m.entries == ref.entries and rows == ref.to_rows()
            and all(type(x) is Fraction for row in rows for x in row)
            and all(type(x) is Fraction for x in m.entries))


def _cases(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        density = rng.choice([0.15, 0.5, 0.95])
        yield rng, rows, cols, density


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_construction_and_dense_views_match_reference(seed):
    for rng, rows, cols, density in _cases(seed):
        m, ref = _pair(rng, rows, cols, density)
        assert _same(m, ref)
        for i in range(rows):
            assert m.row(i) == ref.row(i) and all(type(x) is Fraction for x in m.row(i))
            for j in range(cols):
                assert m[i, j] == ref[i, j] and type(m[i, j]) is Fraction
        for j in range(cols):
            assert m.col(j) == ref.col(j) and all(type(x) is Fraction for x in m.col(j))
        assert m.is_zero() == ref.is_zero()
        assert m.is_square() == ref.is_square() and m.shape == ref.shape
        assert repr(m) == repr(ref)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_arithmetic_matches_reference(seed):
    for rng, rows, cols, density in _cases(seed):
        (a, ra), (b, rb) = _pair(rng, rows, cols, density), _pair(rng, rows, cols, density)
        assert _same(a + b, ra + rb)
        assert _same(a - b, ra - rb)
        assert _same(a - a, ra - ra)
        assert _same(-a, -ra)
        for s in (0, 1, -2, F(2, 3), "-3/2", F(4, 2), _scalar(rng)):
            assert _same(a.scale(s), ra.scale(s))
        inner = rng.randint(0, 5)
        c, rc = _pair(rng, cols, inner, density)
        assert _same(a @ c, ra @ rc)
        assert _same(a.transpose(), ra.transpose())
        row_idx = [rng.randrange(rows) for _ in range(rng.randint(0, 6))] if rows else []
        col_idx = [rng.randrange(cols) for _ in range(rng.randint(0, 6))] if cols else []
        assert _same(a.submatrix(row_idx, col_idx), ra.submatrix(row_idx, col_idx))
        assert _same(a.submatrix(range(rows), range(cols)), ra)
        vec = [_scalar(rng) for _ in range(cols)]
        vec = [F(x) for x in vec]
        got = apply(a, vec)
        assert got == ra.apply(vec) and all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("seed", [7, 8])
def test_square_operations_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(0, 5)
        density = rng.choice([0.15, 0.5, 0.95])
        (a, ra), (b, rb) = _pair(rng, n, n, density), _pair(rng, n, n, density)
        assert a.trace() == ra.trace() and type(a.trace()) is Fraction
        assert _same(commutator(a, b), reference_commutator(ra, rb))
        assert commutator(a, a).is_zero()
        sym, rsym = a + a.transpose(), ra + ra.transpose()
        for m, ref in ((a, ra), (sym, rsym), (a - a.transpose(), ra - ra.transpose())):
            assert m.is_symmetric() == ref.is_symmetric()
        assert sym.is_symmetric()


@pytest.mark.parametrize("seed", [9, 10])
def test_equality_and_hash_match_reference(seed):
    for rng, rows, cols, density in _cases(seed):
        (a, ra), (b, rb) = _pair(rng, rows, cols, density), _pair(rng, rows, cols, density)
        assert (a == b) == (ra == rb)
        same = Mat.from_rows([[str(x) for x in row] for row in a.to_rows()]) if rows else a
        assert same == a and hash(same) == hash(a)
        assert (a + a - a) == a and hash(a + a - a) == hash(a)
        assert a != ra  # a reference matrix is not a Mat
        if rows and cols:
            assert Mat(rows, cols, [0] * (rows * cols)) == Mat.zero(rows, cols)
        assert Mat.zero(rows, cols) != Mat.zero(rows + 1, cols)


def test_constructors_match_reference():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        grid = [[_scalar(rng) for _ in range(cols)] for _ in range(rows)]
        assert _same(Mat.from_rows(grid), ReferenceMat.from_rows(grid))
        columns = [[_scalar(rng) for _ in range(rows)] for _ in range(cols)]
        assert _same(from_columns(columns, rows), ReferenceMat.from_columns(columns, rows))
        values = [_scalar(rng) for _ in range(rows)]
        assert _same(Mat.diag(values), ReferenceMat.diag(values))
        assert _same(Mat.column(values), ReferenceMat.column(values))
        assert _same(Mat.zero(rows, cols), ReferenceMat.zero(rows, cols))
        assert _same(Mat.identity(rows), ReferenceMat.identity(rows))
        i, j, value = rng.randrange(rows), rng.randrange(cols), _scalar(rng)
        assert _same(Mat.unit(rows, cols, i, j, value), ReferenceMat.unit(rows, cols, i, j, value))
        assert _same(Mat.unit(rows, cols, i, j), ReferenceMat.unit(rows, cols, i, j))
    assert _same(Mat.from_rows([]), ReferenceMat.from_rows([]))
    assert _same(Mat(2, 0, []), ReferenceMat(2, 0, []))


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("bad", ["x", "", "1/0", "1.5.2", "3/-"])
def test_malformed_strings_raise_as_before(bad):
    for build in (lambda cls: cls(1, 2, [1, bad]),
                  lambda cls: cls.from_rows([[bad, 0]]),
                  lambda cls: cls.diag([1, bad]),
                  lambda cls: cls.unit(2, 2, 0, 1, bad),
                  lambda cls: cls.column([bad]),
                  lambda cls: cls.identity(2).scale(bad)):
        expected = _raised(lambda: build(ReferenceMat))
        assert expected is not None
        assert _raised(lambda: build(Mat)) is expected


def test_shape_errors_raise_as_before():
    a, ra = Mat.zero(2, 3), ReferenceMat.zero(2, 3)
    b, rb = Mat.zero(3, 2), ReferenceMat.zero(3, 2)
    for call, ref in ((lambda: a + b, lambda: ra + rb), (lambda: a - b, lambda: ra - rb),
                      (lambda: a @ a, lambda: ra @ ra), (lambda: a.trace(), lambda: ra.trace()),
                      (lambda: apply(a, [1, 2]), lambda: ra.apply([1, 2])),
                      (lambda: Mat(2, 2, [1, 2, 3]), lambda: ReferenceMat(2, 2, [1, 2, 3])),
                      (lambda: Mat.from_rows([[1], [1, 2]]),
                       lambda: ReferenceMat.from_rows([[1], [1, 2]]))):
        assert _raised(ref) is InputError
        assert _raised(call) is InputError


def test_products_of_fractions_store_integral_values_as_int():
    half = Mat.diag([F(1, 2), F(3, 2)])
    two = Mat.diag([2, F(2, 3)])
    prod = half @ two
    assert prod.sparse == {0: {0: 1}, 1: {1: 1}}
    assert all(type(v) is int for row in prod.sparse.values() for v in row.values())
    assert (half + half).sparse == {0: {0: 1}, 1: {1: 3}}
    assert half.scale(F(4, 2)).sparse == {0: {0: 1}, 1: {1: 3}}
    assert type(half.scale(2).trace()) is Fraction


def test_out_of_range_positions_raise_as_before():
    m, ref = Mat.zero(2, 3), ReferenceMat.zero(2, 3)
    for call, ref_call in ((lambda: m[2, 0], lambda: ref[2, 0]),
                           (lambda: Mat.unit(2, 3, 2, 1), lambda: ReferenceMat.unit(2, 3, 2, 1))):
        assert _raised(ref_call) is IndexError
        assert _raised(call) is IndexError


def _json_scalar(rng, value: Fraction):
    """`value` in one of the forms the JSON reader accepts."""
    form = rng.randrange(4)
    if form == 0 and value.denominator == 1:
        return int(value)  # a JSON integer
    if form == 1:  # "p/q", not in lowest terms, with an optional "+"
        k = rng.randint(1, 3)
        sign = "+" if value >= 0 and rng.random() < 0.3 else ""
        return f"{sign}{value.numerator * k}/{value.denominator * k}"
    if form == 2 and 10 % value.denominator == 0:  # a plain decimal, one place
        units, tenths = divmod(int(abs(value) * 10), 10)
        return f"{'-' if value < 0 else ''}{units}.{tenths}"
    return str(value)


@pytest.mark.parametrize("seed", [12, 13])
def test_json_rows_are_the_dense_view_as_strings(seed):
    from cartanext import io

    for rng, rows, cols, density in _cases(seed, count=30):
        m, ref = _pair(rng, rows, cols, density)
        assert io.mat_to_json(m) == [[str(x) for x in row] for row in ref.to_rows()]
        assert io.mat_to_json(m) == reference_mat_to_json(m)
        if rows:  # a matrix without rows has no column count in JSON
            assert io.mat_from_json(io.mat_to_json(m)) == m
            # the same entries in every accepted form, zeros as "0", 0 and "0/4"
            text = [[_json_scalar(rng, x) if x else rng.choice(["0", 0, "0/4", "-0", "0.0"])
                     for x in row] for row in ref.to_rows()]
            got = io.mat_from_json(text)
            assert got == reference_mat_from_json(text) == m and stored_form_holds(got)
