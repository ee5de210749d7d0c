"""The centroid of a direct sum, the split of a centroid into fields, and
the order of the primitive idempotents it returns.

`catalog.centroid` solves a sum's centroid on the whole algebra, as for every
other pair, and `split_idempotents` splits it by refinement, block by block.
Each result is checked against `conftest.reference_centroid`, the split
through one primitive element of the whole centroid.  Sums with several
complex factors, and their `dataclasses.replace` copies, are split here
within a second each and checked against their parts' centroids: a
primitive element of such a centroid has a minimal polynomial of degree 8
to 12, while the refinement only factors cubics.
"""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from cartanext import catalog, classify, lie
from cartanext.catalog import SymmetricPair, _assemble_pair, build_pair, direct_sum_pairs
from cartanext.errors import InternalCheckError
from cartanext.lie import commutant, commutant_basis, make_algebra, split_idempotents
from cartanext.linalg import Mat, kernel_of_sparse_rows, reduced_span_basis

from conftest import reference_centroid, reference_split_idempotents


def _group(base: str):
    return build_pair("group_type", {"base": base})


def _sum(*bases):
    return direct_sum_pairs([_group(b) for b in bases])


# -- the basis form of kernel_of_sparse_rows ------------------------------------


def _random_rows(rng, count: int, width: int, columns=None) -> list:
    columns = list(range(width)) if columns is None else columns
    rows = []
    for _ in range(count):
        picks = rng.sample(columns, rng.randint(1, min(4, len(columns))))
        rows.append({c: rng.choice((-3, -2, -1, 1, 2, 5)) for c in picks})
    return rows


def test_reduced_span_basis_of_a_mixed_kernel_is_the_kernel_basis():
    rng = random.Random(1701)
    for case in range(60):
        width = rng.randint(1, 12)
        rows = _random_rows(rng, rng.randint(0, width), width)
        kernel = kernel_of_sparse_rows(rows, width)
        mixed = []
        for _ in range(len(kernel) + 2):  # random combinations, dependent ones included
            vec: dict = {}
            for v in kernel:
                c = rng.randint(-2, 2)
                for k, x in v.items():
                    vec[k] = vec.get(k, 0) + c * x
            mixed.append(vec)
        mixed += kernel[::-1]
        rng.shuffle(mixed)
        assert reduced_span_basis(mixed) == kernel, case


def test_reduced_span_basis_assembles_a_block_kernel():
    """A system whose rows each touch one of two interleaved column sets has
    the union of the two kernels as its kernel; put together from the two
    pieces, it comes out as the whole solve returns it."""
    rng = random.Random(1702)
    for case in range(40):
        width = rng.randint(2, 14)
        cols = list(range(width))
        rng.shuffle(cols)
        left, right = sorted(cols[:width // 2]), sorted(cols[width // 2:])
        rows_l = _random_rows(rng, rng.randint(0, len(left)), width, left)
        rows_r = _random_rows(rng, rng.randint(0, len(right)), width, right)
        whole = kernel_of_sparse_rows(rows_l + rows_r, width)
        pieces = ([v for v in kernel_of_sparse_rows(rows_l, width) if set(v) <= set(left)]
                  + [v for v in kernel_of_sparse_rows(rows_r, width) if set(v) <= set(right)])
        assert reduced_span_basis(pieces) == whole, case


def test_reduced_span_basis_is_reduced_at_the_largest_columns_and_int_first():
    basis = reduced_span_basis([{0: 2, 3: 4}, {1: 1, 3: 6}])
    assert basis == [{0: -3, 1: 1}, {0: Fraction(1, 2), 3: 1}]
    assert [type(x) for v in basis for x in v.values()] == [int, int, Fraction, int]
    assert reduced_span_basis([]) == [] and reduced_span_basis([{}, {2: 0}]) == []


# -- sums solve their own centroid ----------------------------------------------


def _listed_in_reverse(pair: SymmetricPair) -> SymmetricPair:
    """The pair with its basis listed m first, each eigenspace in reverse, so
    that the sum's basis does not list this part's coordinates in order."""
    h, m = pair.h_basis()[::-1], pair.m_basis()[::-1]
    dh, dm = len(h), len(m)
    return SymmetricPair(make_algebra(m + h, pair.name), pair.family, pair.params,
                         tuple(range(dm, dm + dh))[::-1], tuple(range(dm))[::-1],
                         Mat.diag([-1] * dm + [1] * dh))


def _sums() -> list:
    sp1, so4 = build_pair("sp1_block", {"p": 1, "q": 1}), build_pair(
        "so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    return [
        ("sl(2,R)+so(3)", _sum("sl(2,R)", "so(3)")),
        ("so(3)+so(3)", _sum("so(3)", "so(3)")),
        ("sl(2,R)+sl(2,C)", _sum("sl(2,R)", "sl(2,C)")),
        ("nested", direct_sum_pairs([_sum("sl(2,R)", "so(3)"), _group("sl(2,C)")])),
        ("sp1_block+so_block", direct_sum_pairs([sp1, so4])),
        ("sum of copies", direct_sum_pairs([dataclasses.replace(_group("so(3)")),
                                            dataclasses.replace(sp1)])),
        ("part listed in reverse", direct_sum_pairs([_listed_in_reverse(so4), _group("so(3)")])),
    ]


@pytest.mark.parametrize("name,pair", _sums(), ids=[name for name, _ in _sums()])
def test_sum_centroid_matches_the_whole_algebra_solve(name, pair):
    basis, projs = catalog.centroid(pair)
    assert (basis, projs) == reference_centroid(pair)
    assert isinstance(basis, tuple) and isinstance(projs, tuple)
    assert catalog.centroid(dataclasses.replace(pair)) == (basis, projs)


def test_sum_with_a_part_that_is_not_semisimple_solves_the_whole_algebra(monkeypatch):
    """The centroid of an abelian algebra is all of gl: two 1-dimensional
    abelian parts have a centroid of dimension 4, not the 2 of their parts.
    The split of a centroid that is not a product of fields fails, and the
    centroid says so."""
    line = _assemble_pair("line", "line", {}, [], [Mat.diag([1, -1])])
    pair = direct_sum_pairs([line, line])
    split = []
    monkeypatch.setattr(catalog, "split_idempotents", lambda basis: split.append(basis))
    with pytest.raises(InternalCheckError, match="centroid idempotent split failed"):
        catalog.centroid(pair)
    [basis] = split
    assert len(basis) == 4
    assert list(basis) == commutant_basis(pair.k_algebra.adjoint_representation())


# -- sums of complex factors reach a verdict -------------------------------------


@pytest.mark.parametrize("bases,h_projective,labels", [
    (("sl(2,C)", "sl(2,C)"), "EXISTS", ["C", "C"]),
    (("sl(2,C)", "sl(2,C)", "sl(2,R)"), "NOT_EXISTS", ["C", "C", "R"]),
    (("sl(2,C)", "sl(2,C)", "sl(2,C)"), "EXISTS", ["C", "C", "C"]),
], ids=["C4", "C4xR2", "C6"])
def test_sums_of_complex_factors_get_a_verdict_within_a_second(bases, h_projective, labels):
    # a copy carries no memo, so its centroid is computed here
    pair = dataclasses.replace(direct_sum_pairs([_group(b) for b in bases]))
    for call, check in (
        (classify.centralizer_report, lambda r: r.factor_labels == labels
         and r.product_structure_verified),
        (classify.decide_h_projective, lambda v: v.verdict == h_projective),
        (classify.decide_conformal, lambda r: r.verdict.verdict == "EXISTS"),
    ):
        start = time.process_time()
        result = call(pair)
        spent = time.process_time() - start
        assert check(result), (call.__name__, result)
        assert spent < 1.0, (call.__name__, spent)


def _placed_part_projectors(parts, d: int) -> set:
    """The parts' primitive idempotents (from the primitive element split of
    each part) placed in a d x d sum: the sum lists every part's h
    coordinates, in part order, and then every part's m coordinates."""
    out = set()
    h_at, m_at = 0, sum(p.dim_h for p in parts)
    for p in parts:
        index = dict(zip(p.h_indices + p.m_indices,
                         [*range(h_at, h_at + p.dim_h), *range(m_at, m_at + p.dim_m)]))
        out |= {Mat.from_sparse(d, d, {index[r]: {index[c]: v for c, v in row.items()}
                                       for r, row in e.sparse.items()})
                for e in reference_centroid(p)[1]}
        h_at, m_at = h_at + p.dim_h, m_at + p.dim_m
    return out


@pytest.mark.parametrize("bases", [("sl(2,C)", "sl(2,C)"), ("sl(2,C)", "sl(2,C)", "sl(2,R)"),
                                   ("sl(2,C)", "sl(2,C)", "sl(2,C)")], ids=["C4", "C4xR2", "C6"])
def test_copy_of_a_sum_of_complex_factors_splits_within_a_second(bases):
    """A `replace` copy shares the sum's algebra but not its memo, so its
    centroid is solved and split anew, without a primitive element of the
    whole C^4, whose minimal polynomial has degree 8."""
    parts = [_group(b) for b in bases]
    total = direct_sum_pairs(parts)
    copy = dataclasses.replace(total)
    start = time.process_time()
    basis, projs = catalog.centroid(copy)
    spent = time.process_time() - start
    assert spent < 1.0, spent
    assert catalog.centroid(total) == (basis, projs)
    assert len(projs) == 2 * len(bases) and set(projs) == _placed_part_projectors(parts, total.dim)


def test_split_draws_when_no_basis_element_generates_a_block(monkeypatch):
    """Q(sqrt 2, sqrt 3) x Q on Q^5, from the basis {1, sqrt 2, sqrt 3, sqrt 6}
    of the field and the unit of Q: each basis element has degree 1 or 2 on
    the field block, so the refinement ends with tags 2 and 1, and the draw
    x_1 = 1 + sqrt 2 + sqrt 3 + sqrt 6 + 1, of degree 4 there, finishes it."""
    def block(rows):
        return Mat.from_sparse(5, 5, {r: {c: v} for r, c, v in rows})

    one = block([(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)])
    r2 = block([(1, 0, 1), (0, 1, 2), (3, 2, 1), (2, 3, 2)])  # e0 -> e1 -> 2 e0, e2 -> e3 -> 2 e2
    r3 = block([(2, 0, 1), (3, 1, 1), (0, 2, 3), (1, 3, 3)])  # e0 -> e2 -> 3 e0, e1 -> e3 -> 3 e1
    basis = [one, r2, r3, r2 @ r3, block([(4, 4, 1)])]
    draws = []
    real = lie._generic_element
    monkeypatch.setattr(lie, "_generic_element", lambda b, k: draws.append(k) or real(b, k))
    projs = split_idempotents(basis)
    assert draws == [1]
    assert [p.trace() for p in projs] == [4, 1]
    assert projs == reference_split_idempotents(basis)


def _commutant_bases() -> list:
    """The adjoint and isotropy commutant bases of the default grid and of
    the direct sums that the analyze benchmark reads."""
    pairs = [dataclasses.replace(build_pair(f, p)) for f, p in catalog.default_pair_grid()]
    pairs += [_sum(*bases) for bases in (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"),
                                          ("sl(2,R)", "sl(2,C)"))]
    return [list(basis) for pair in pairs
            for basis in (reference_centroid(pair)[0],
                          commutant(catalog.isotropy_rep(pair)).commutant_basis)]


def test_refinement_split_matches_the_primitive_element_split():
    seen = 0
    for basis in _commutant_bases():
        if len(basis) > 1:
            seen += 1
            assert split_idempotents(basis) == reference_split_idempotents(basis)
    assert seen >= 26


# -- the one-element split --------------------------------------------------------


def test_one_element_split_matches_the_primitive_element_split():
    seen = 0
    for basis in _commutant_bases():
        if len(basis) == 1:
            seen += 1
            assert split_idempotents(basis) == reference_split_idempotents(basis)
    assert seen >= 8


def test_one_element_split_returns_the_unit_of_the_line():
    """b = 2 E_00 spans an algebra whose unit E_00 is not the identity; the
    primitive element split needs b to have a degree-1 minimal polynomial,
    which it has not, and finds no primitive element."""
    b = Mat.from_rows([[2, 0], [0, 0]])
    assert split_idempotents([b]) == [Mat.from_rows([[1, 0], [0, 0]])]
    assert split_idempotents([Mat.from_rows([[0, 1], [0, 0]])]) is None  # b b = 0
    with pytest.raises(InternalCheckError, match="no primitive element"):
        reference_split_idempotents([b])


@pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], [[0, 1], [1, 0]]])
def test_one_element_split_refuses_a_span_that_is_not_an_algebra(rows):
    # b b is not a multiple of b: tr(b) = 1 gives a candidate that is not
    # idempotent, tr(b) = 0 gives none
    with pytest.raises(InternalCheckError, match="not idempotent"):
        split_idempotents([Mat.from_rows(rows)])


# -- the order of primitive idempotents ----------------------------------------


def _dense_idempotent_order(p: Mat) -> tuple:
    """The dense key that `lie.idempotent_order` replaced, kept verbatim."""
    first = min(c for row in p.sparse.values() for c in row)
    return first, tuple(-x for row in reversed(p.to_rows()) for x in reversed(row))


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def _assert_orders_agree(mats: list) -> None:
    for p in mats:
        for q in mats:
            dense = _sign(_dense_idempotent_order(p), _dense_idempotent_order(q))
            assert _sign(lie.idempotent_order(p), lie.idempotent_order(q)) == dense, (p, q)


def test_sparse_idempotent_order_matches_the_dense_key_on_every_centroid():
    pairs = [build_pair(f, p) for f, p in catalog.default_pair_grid()]
    pairs += [_sum("sl(2,R)", "so(3)"), _sum("so(3)", "so(3)"), _sum("sl(2,R)", "sl(2,C)"),
              _sum("sl(2,C)", "sl(2,C)"), _sum("sl(2,C)", "sl(2,C)", "sl(2,C)")]
    seen = 0
    for pair in pairs:
        projs = list(catalog.centroid(pair)[1])
        _assert_orders_agree(projs)
        seen += len(projs)
    assert seen == 50


def test_sparse_idempotent_order_matches_the_dense_key_on_signed_entries():
    """Negative entries, and matrices whose nonzero entries end at different
    places, are where a plain key of the nonzero entries orders wrongly."""
    rng = random.Random(1703)
    mats = [Mat.from_rows([[rng.choice((-2, -1, 0, 0, 0, 1, Fraction(1, 2))) for _ in range(3)]
                           for _ in range(3)]) for _ in range(150)]
    mats = [m for m in mats if m.sparse]
    mats += [Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[1, 0], [0, -1]]),
             Mat.from_rows([[1, 0], [0, 1]]), Mat.from_rows([[1, -1], [0, 0]]),
             Mat.from_rows([[1, 0], [-1, 0]])]
    _assert_orders_agree([m for m in mats if m.rows == 3])
    _assert_orders_agree([m for m in mats if m.rows == 2])
