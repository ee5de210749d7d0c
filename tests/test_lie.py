"""Lie core: brackets, Killing forms, commutants, invariant tensors."""

import random
import re
from fractions import Fraction

import pytest

from cartanext import bases, lie
from cartanext.errors import ClosureError, DependentBasisError, InputError
from cartanext.catalog import build_graded
from cartanext.lie import (
    Representation,
    StructureConstants,
    commutant,
    invariant_bilinear_forms,
    invariant_complex_structures,
    is_semisimple,
    killing_form,
    largest_invariant_subspace_dim,
    make_algebra,
    split_idempotents,
)
from cartanext.linalg import Mat, invert
from conftest import naive_bracket_coords, reference_antisymmetry_holds

F = Fraction


def test_make_algebra_sl2(sl2_basis):
    e, h, f = sl2_basis
    alg = make_algebra([e, h, f], "sl2")
    assert alg.dim == 3
    assert alg.constants.antisymmetry_holds()
    assert not alg.constants.jacobi_witnesses(limit=1)


def test_antisymmetry_scan_of_nonempty_cells_matches_the_full_scan():
    # seeded tables: catalog tables with up to two cells changed, emptied,
    # given an explicit zero, or filled where it was empty, on either side
    rng = random.Random(156)
    edits = [lambda cell: {}, lambda cell: {**cell, 0: 0}, lambda cell: {rng.randrange(3): 1},
             lambda cell: {k: -v for k, v in cell.items()}, lambda cell: {**cell, 1: F(1, 2)}]
    verdicts = []
    for family, params in (("projective", {"n": 2}), ("quaternionic", {"n": 1}),
                           ("conformal", {"p": 1, "q": 2})):
        table = build_graded(family, params).algebra.constants.table
        dim = len(table)
        for case in range(60):
            rows = [list(row) for row in table]
            for _ in range(case % 3):
                i, j = rng.randrange(dim), rng.randrange(dim)
                rows[i][j] = rng.choice(edits)(dict(rows[i][j]))
            sc = StructureConstants(dim, rows)
            verdicts.append(sc.antisymmetry_holds())
            assert verdicts[-1] == reference_antisymmetry_holds(sc), (family, case)
    assert True in verdicts and False in verdicts


def test_assigning_a_table_or_basis_drops_the_derived_data(sl2_basis):
    # an all-zero table put in place after the build: the Killing form and
    # the semisimplicity verdict must be those of the new table
    alg = make_algebra(list(sl2_basis), "sl2")
    assert is_semisimple(alg) and killing_form(alg).sparse and alg.realization_certified()
    alg.constants = StructureConstants(3, [[{} for _ in range(3)] for _ in range(3)])
    assert not is_semisimple(alg)
    assert not killing_form(alg).sparse
    assert not alg.realization_certified()
    alg = make_algebra(list(sl2_basis), "sl2")
    assert lie.generating_indices(alg) and "_generator_picks" in alg._derived
    alg.basis = tuple(reversed(alg.basis))
    assert alg._derived == {} and not alg.realization_certified()


def test_coordinates_follow_an_assigned_basis():
    # the span that coordinate_matrix decomposes in is derived data, so it
    # goes with the basis it was built from
    alg = make_algebra(build_graded("projective", {"n": 1}).algebra.basis)
    x0 = alg.basis[0]
    assert alg.coordinate_matrix([x0]).col(0) == [1, 0, 0]
    alg.basis = tuple(b.scale(2) for b in alg.basis)
    coords = alg.coordinate_matrix([x0])
    assert coords.col(0) == [F(1, 2), 0, 0]
    assert alg.element(coords.col(0)) == x0


def test_subalgebras_build_their_span_on_first_use():
    alg = make_algebra(build_graded("projective", {"n": 2}).algebra.basis)
    assert "_ambient_span" in alg._derived  # the build's own span
    sub = lie.subalgebra(alg, [{0: 1}, {0: 1, 1: 1}], "b")
    assert "_ambient_span" not in sub._derived
    assert sub.coordinate_matrix(sub.basis) == Mat.identity(2)
    assert "_ambient_span" in sub._derived


def test_make_algebra_single_nilpotent(sl2_basis):
    e, _, _ = sl2_basis
    alg = make_algebra([e], "line")
    assert alg.dim == 1
    assert not is_semisimple(alg)


def test_make_algebra_not_closed(sl2_basis):
    e, _, f = sl2_basis
    with pytest.raises(ClosureError) as err:
        make_algebra([e, f])
    assert err.value.pair == (0, 1)


def test_make_algebra_eh_closes(sl2_basis):
    e, h, _ = sl2_basis
    assert make_algebra([e, h], "borel").dim == 2


def test_make_algebra_dependent(sl2_basis):
    e, h, _ = sl2_basis
    with pytest.raises(DependentBasisError):
        make_algebra([e, h, e + h])


def test_killing_form_sl2(sl2_basis):
    e, h, f = sl2_basis
    gram = killing_form(make_algebra([e, h, f], "sl2"))
    assert gram == Mat.from_rows([[0, 0, 4], [0, 8, 0], [4, 0, 0]])


def test_killing_form_so3(so3_basis):
    gram = killing_form(make_algebra(list(so3_basis), "so3"))
    assert gram == Mat.diag([-2, -2, -2])


def test_killing_abelian_zero():
    a = Mat.diag([1, -1])
    alg = make_algebra([a], "abelian")
    assert killing_form(alg).is_zero()


def test_killing_invariance_identity(sl2_basis, so3_basis):
    for basis in (list(sl2_basis), list(so3_basis), bases.complexify(bases.sl_basis(2))):
        alg = make_algebra(basis, "test")
        gram = killing_form(alg)
        dim = alg.dim

        def b(u, v):
            total = F(0)
            for i, x in enumerate(u):
                if x:
                    for j, y in enumerate(v):
                        if y:
                            total += x * y * gram[i, j]
            return total

        for z in range(dim):
            ez = [F(1) if t == z else F(0) for t in range(dim)]
            for x in range(dim):
                ex = [F(1) if t == x else F(0) for t in range(dim)]
                for y in range(dim):
                    ey = [F(1) if t == y else F(0) for t in range(dim)]
                    zx = alg.constants.bracket_coords(ez, ex)
                    zy = alg.constants.bracket_coords(ez, ey)
                    assert b(zx, ey) + b(ex, zy) == 0


def test_semisimplicity(sl2_basis):
    e, h, f = sl2_basis
    assert is_semisimple(make_algebra([e, h, f], "sl2"))
    assert not is_semisimple(make_algebra([e], "nil"))


def test_representation_rejects_non_homomorphism(sl2_basis):
    e, h, f = sl2_basis
    alg = make_algebra([e, h, f], "sl2")
    with pytest.raises(InputError, match=r"basis pair \(0, 2\)"):
        Representation(alg, 2, [e, h, e])  # wrong matrix for f


def test_representation_names_first_failing_pair():
    alg = build_graded("projective", {"n": 2}).algebra
    adjoint = [alg.constants.ad_matrix(i) for i in range(alg.dim)]
    Representation(alg, alg.dim, adjoint)
    # (action index changed, its new matrix, the first pair i < j that fails)
    cases = [
        (1, adjoint[1].scale(2), (0, 3)),
        (2, adjoint[2].scale(2), (0, 7)),
        (3, adjoint[3] + adjoint[2], (1, 3)),
        (7, adjoint[7] + adjoint[0], (2, 6)),
    ]
    for index, matrix, pair in cases:
        action = list(adjoint)
        action[index] = matrix
        with pytest.raises(InputError, match=re.escape(f"basis pair {pair}")):
            Representation(alg, alg.dim, action)


# -- the Jacobi identity ---------------------------------------------------------


def _jacobi_reference(sc: StructureConstants) -> list:
    """Every violating triple i < j < k, from dense coordinate brackets."""
    dim = sc.dim

    def unit(i):
        return [F(int(t == i)) for t in range(dim)]

    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                terms = [sc.bracket_coords(unit(a), sc.bracket_coords(unit(b), unit(c)))
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
                if any(sum(x) != 0 for x in zip(*terms)):
                    out.append((i, j, k))
    return out


def test_jacobi_witnesses_on_corrupted_table():
    sl3 = build_graded("projective", {"n": 2}).algebra.constants
    assert sl3.jacobi_witnesses() == []
    table = [[dict(d) for d in row] for row in sl3.table]
    table[0][6][4] = F(2)  # [X_0, X_6] = X_4 in sl(3)
    table[6][0][4] = F(-2)
    bad = StructureConstants(sl3.dim, table)
    expected = [(0, 1, 6), (0, 2, 6), (0, 3, 6), (0, 3, 7), (0, 6, 7), (1, 2, 6)]
    assert _jacobi_reference(bad) == expected
    assert bad.jacobi_witnesses(limit=100) == expected
    assert bad.jacobi_witnesses() == expected[:3]
    for limit in (1, 4, 6):
        assert bad.jacobi_witnesses(limit=limit) == expected[:limit]
    assert bad.jacobi_witnesses(limit=1)
    assert sl3.table[0][6] == {4: F(1)}  # the copy left the catalog table alone


# -- commutants ----------------------------------------------------------------


def test_commutant_adjoint_sl2_is_R(sl2_basis):
    alg = make_algebra(list(sl2_basis), "sl2")
    cls = commutant(alg.adjoint_representation())
    assert (cls.dim, cls.label) == (1, "R")


def test_commutant_rotation_is_C():
    j = Mat.from_rows([[0, -1], [1, 0]])
    alg = make_algebra([j], "so2")
    cls = commutant(Representation(alg, 2, [j]))
    assert (cls.dim, cls.label) == (2, "C")


def test_commutant_sum_of_inequivalent_is_RxR(sl2_basis):
    e, h, f = sl2_basis
    alg = make_algebra([e, h, f], "sl2")
    adj = alg.adjoint_representation()

    def block(a, b):
        n = a.rows + b.rows
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(a.rows):
            for j in range(a.rows):
                rows[i][j] = a[i, j]
        for i in range(b.rows):
            for j in range(b.rows):
                rows[a.rows + i][a.rows + j] = b[i, j]
        return Mat.from_rows(rows)

    action = [block(m, adj.action[i]) for i, m in enumerate([e, h, f])]
    cls = commutant(Representation(alg, 5, action))
    assert (cls.dim, cls.label) == (2, "RxR")


def test_commutant_quaternionic_is_H():
    li = bases.quaternion_elementary(1, 0, 0, bases.Q_I)
    lj = bases.quaternion_elementary(1, 0, 0, bases.Q_J)
    lk = bases.quaternion_elementary(1, 0, 0, bases.Q_K)
    alg = make_algebra([li, lj, lk], "sp1")
    cls = commutant(Representation(alg, 4, [li, lj, lk]))
    assert (cls.dim, cls.label) == (4, "H")
    res = invariant_complex_structures(Representation(alg, 4, [li, lj, lk]))
    assert res.status == "decided" and len(res.structures) == 2
    for j in res.structures:
        assert (j @ j) == Mat.identity(4).scale(-1)


def test_commutant_two_rotation_blocks_is_CxC():
    j2 = Mat.from_rows([[0, -1], [1, 0]])
    z2 = Mat.zero(2, 2)

    def blocks(a, b):
        rows = [[F(0)] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = a[i, j]
                rows[2 + i][2 + j] = b[i, j]
        return Mat.from_rows(rows)

    g1, g2 = blocks(j2, z2), blocks(z2, j2)
    alg = make_algebra([g1, g2], "so2xso2")
    rep = Representation(alg, 4, [g1, g2])
    cls = commutant(rep)
    assert (cls.dim, cls.label) == (4, "CxC")
    res = invariant_complex_structures(rep)
    assert res.status == "decided" and len(res.structures) == 4
    negs = {tuple((-j).entries) for j in res.structures}
    assert negs == {tuple(j.entries) for j in res.structures}


def _block_diag(*blocks):
    n = sum(b.rows for b in blocks)
    rows = [[F(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                rows[offset + i][offset + j] = b[i, j]
        offset += b.rows
    return Mat.from_rows(rows)


def test_commutant_m2r_is_other_not_h(sl2_basis):
    # sl(2,R) on Q^2 + Q^2, conjugated so that no basis matrix is block
    # diagonal: the commutant is M_2(R), trace-form signature (3,1)
    s = Mat.from_rows([[-2, -2, 2, 0], [1, 3, 1, 0], [0, 2, 3, -2], [-2, 2, -2, 3]])
    s_inv = invert(s)
    alg = make_algebra(list(sl2_basis), "sl2")
    rep = Representation(alg, 4, [s @ _block_diag(m, m) @ s_inv for m in sl2_basis])
    cls = commutant(rep)
    assert (cls.dim, cls.label) == (4, "OTHER")
    res = invariant_complex_structures(rep)
    assert (res.status, res.label) == ("undecided", "OTHER")


def test_dual_numbers_are_not_split_and_other(monkeypatch):
    nil = Mat.from_rows([[0, 1], [0, 0]])

    def no_factoring(p):
        raise AssertionError("a degenerate trace form needs no minimal polynomial")

    monkeypatch.setattr(lie.poly, "factor_squarefree", no_factoring)
    assert split_idempotents([Mat.identity(2), nil]) is None
    cls = commutant(Representation(make_algebra([nil], "n"), 2, [nil]))
    assert (cls.dim, cls.label) == (2, "OTHER")


def test_split_idempotents_depends_only_on_the_algebra():
    # Q x Q(i) x Q(sqrt 2) x Q on Q^6, from a basis mixing the factors
    one, zero = Mat.identity(2), Mat.zero(2, 2)
    i2 = Mat.from_rows([[0, -1], [1, 0]])
    r2 = Mat.from_rows([[0, 2], [1, 0]])
    e1, e0 = Mat.identity(1), Mat.zero(1, 1)
    units = [_block_diag(e1, zero, zero, e0), _block_diag(e0, one, zero, e0),
             _block_diag(e0, i2, zero, e0), _block_diag(e0, zero, one, e0),
             _block_diag(e0, zero, r2, e0), _block_diag(e0, zero, zero, e1)]
    mix = [[1, 2, 0, 0, 1, 0], [0, 1, -1, 0, 0, 0], [3, 0, 1, 1, 0, 2],
           [0, 0, 0, 1, -2, 0], [1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]]
    basis = [sum((u.scale(c) for c, u in zip(row, units)), Mat.zero(6, 6)) for row in mix]
    projs = split_idempotents(basis)
    assert len(projs) == 4
    assert sum(projs, Mat.zero(6, 6)) == Mat.identity(6)
    for a, p in enumerate(projs):
        for b, q in enumerate(projs):
            assert p @ q == (p if a == b else Mat.zero(6, 6))
    assert [p.trace() for p in projs] == [1, 2, 2, 1]
    assert split_idempotents(basis[::-1]) == projs
    assert split_idempotents([b.scale(F((-1) ** k * (k + 1), 2)) for k, b in enumerate(basis)]) == projs


def test_commutant_contains_identity(sl2_basis):
    alg = make_algebra(list(sl2_basis), "sl2")
    for rep in (alg.adjoint_representation(),):
        cls = commutant(rep)
        span = [list(b.entries) for b in cls.commutant_basis]
        from conftest import rref_rank_oracle

        with_id = span + [list(Mat.identity(rep.carrier_dim).entries)]
        assert rref_rank_oracle(with_id) == rref_rank_oracle(span)
        for t in cls.commutant_basis:
            for a in rep.action:
                assert t @ a == a @ t


# -- invariant bilinear forms ---------------------------------------------------


def test_invariant_forms_adjoint_sl2(sl2_basis):
    alg = make_algebra(list(sl2_basis), "sl2")
    forms = invariant_bilinear_forms(alg.adjoint_representation(), "symmetric")
    assert len(forms) == 1
    gram = killing_form(alg)
    g = forms[0]
    ratio = next(
        gram[i, j] / g[i, j]
        for i in range(3)
        for j in range(3)
        if g[i, j] != 0
    )
    assert g.scale(ratio) == gram


def test_invariant_forms_trivial_action():
    nil = Mat.from_rows([[0, 1], [0, 0]])
    alg = make_algebra([nil], "n")
    rep = Representation(alg, 2, [Mat.zero(2, 2)])
    assert len(invariant_bilinear_forms(rep, "symmetric")) == 3
    assert len(invariant_bilinear_forms(rep, "antisymmetric")) == 1


def test_invariant_forms_symplectic(sl2_basis):
    e, h, f = sl2_basis
    alg = make_algebra([e, h, f], "sp2")
    rep = Representation(alg, 2, [e, h, f])
    anti = invariant_bilinear_forms(rep, "antisymmetric")
    assert len(anti) == 1
    g = anti[0]
    assert g.transpose() == -g and not g.is_zero()
    sym = invariant_bilinear_forms(rep, "symmetric")
    assert sym == []


def test_invariant_forms_reject_bad_symmetry(sl2_basis):
    alg = make_algebra(list(sl2_basis), "sl2")
    with pytest.raises(InputError):
        invariant_bilinear_forms(alg.adjoint_representation(), "hermitian")


# -- invariant complex structures ----------------------------------------------


def test_complex_structures_rotation():
    j = Mat.from_rows([[0, -1], [1, 0]])
    alg = make_algebra([j], "so2")
    res = invariant_complex_structures(Representation(alg, 2, [j]))
    assert res.status == "decided"
    assert sorted(tuple(x.entries) for x in res.structures) == sorted(
        [tuple(j.entries), tuple((-j).entries)]
    )


def test_complex_structures_none_for_adjoint_sl2(sl2_basis):
    alg = make_algebra(list(sl2_basis), "sl2")
    res = invariant_complex_structures(alg.adjoint_representation())
    assert res.status == "decided" and res.structures == []


def test_complex_structures_none_on_odd_dimension():
    nil = Mat.from_rows([[0, 1], [0, 0]])
    alg = make_algebra([nil], "n")
    rep = Representation(alg, 1, [Mat.zero(1, 1)])
    res = invariant_complex_structures(rep)
    assert res.status == "decided" and res.structures == []


def test_complex_structures_properties(sl2_basis):
    j2 = Mat.from_rows([[0, -1], [1, 0]])
    alg = make_algebra([j2], "so2")
    rep = Representation(alg, 2, [j2])
    res = invariant_complex_structures(rep)
    for j in res.structures:
        assert j @ j == Mat.identity(2).scale(-1)
        for a in rep.action:
            assert j @ a == a @ j


def test_realified_complex_adjoint_commutant_is_C():
    basis = bases.complexify(bases.sl_basis(2))
    alg = make_algebra(basis, "sl2C")
    cls = commutant(alg.adjoint_representation())
    assert cls.label == "C"


# -- invariant subspaces ---------------------------------------------------------


def test_largest_invariant_subspace(sl2_basis):
    e, h, f = sl2_basis
    alg = make_algebra([e, h, f], "sl2")
    assert largest_invariant_subspace_dim(alg, [0]) == 0  # span(E) is not an ideal
    assert largest_invariant_subspace_dim(alg, [0, 1, 2]) == 3


def test_largest_invariant_subspace_finds_proper_ideals(so3_basis):
    def block_sum(a, b):
        n = a.rows + b.rows
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(a.rows):
            for j in range(a.rows):
                rows[i][j] = a[i, j]
        for i in range(b.rows):
            for j in range(b.rows):
                rows[a.rows + i][a.rows + j] = b[i, j]
        return Mat.from_rows(rows)

    zero = Mat.zero(3, 3)
    left = [block_sum(x, zero) for x in so3_basis]
    right = [block_sum(zero, x) for x in so3_basis]
    so3_so3 = make_algebra(left + right, "so3+so3")
    assert largest_invariant_subspace_dim(so3_so3, [0, 1, 2, 3]) == 3
    assert largest_invariant_subspace_dim(so3_so3, [0, 3, 4, 5]) == 3
    assert largest_invariant_subspace_dim(so3_so3, [0, 1, 3, 4]) == 0
    assert largest_invariant_subspace_dim(so3_so3, [0, 1, 2, 3, 4, 5]) == 6

    e = Mat.from_rows([[0, 1], [0, 0]])
    h = Mat.from_rows([[1, 0], [0, -1]])
    f = Mat.from_rows([[0, 0], [1, 0]])
    gl2 = make_algebra([Mat.identity(2), e, h, f], "gl2")
    assert largest_invariant_subspace_dim(gl2, [0, 1]) == 1  # the centre
    assert largest_invariant_subspace_dim(gl2, [1, 2, 3]) == 3  # sl(2)
    assert largest_invariant_subspace_dim(gl2, [1, 2]) == 0


def test_bracket_coords_matches_naive_double_loop():
    import random

    rng = random.Random(29)
    for family, params in (("projective", {"n": 3}), ("conformal", {"p": 1, "q": 2}),
                           ("h_projective", {"n": 2})):
        sc = build_graded(family, params).algebra.constants

        def sparse():
            v = [F(0)] * sc.dim
            for i in rng.sample(range(sc.dim), 2):
                v[i] = F(rng.randint(-3, 3), rng.randint(1, 2))
            return v

        def dense():
            return [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(sc.dim)]

        for u, v in ((sparse(), dense()), (dense(), sparse()), (sparse(), sparse()),
                     (dense(), dense()), ([F(0)] * sc.dim, dense())):
            assert sc.bracket_coords(u, v) == naive_bracket_coords(sc, u, v)


def test_bracket_with_matches_bracket_coords():
    sc = build_graded("projective", {"n": 3}).algebra.constants
    w = {0: F(2), 5: F(-1, 3), sc.dim - 1: F(4)}
    dense_w = [w.get(k, F(0)) for k in range(sc.dim)]
    for i in range(sc.dim):
        e_i = [F(1) if k == i else F(0) for k in range(sc.dim)]
        got = sc.bracket_with(i, w)
        assert [got.get(k, F(0)) for k in range(sc.dim)] == sc.bracket_coords(e_i, dense_w)
