"""Catalog constructors: graded algebras, symmetric pairs, derived data."""

from fractions import Fraction

import pytest

from cartanext import catalog
from cartanext.catalog import (
    build_graded,
    build_pair,
    direct_sum_pairs,
    expected_graded_dims,
    factor_decomposition,
    isotropy_rep,
    restricted_killing,
    verify_graded,
    verify_pair,
)
from cartanext.errors import ClosureError, DependentBasisError, InputError
from cartanext.lie import is_semisimple, make_algebra
from cartanext.linalg import Mat, commutator
from conftest import dense_structure_table

F = Fraction


def test_projective_dims():
    g = build_graded("projective", {"n": 2})
    assert (g.dim, g.dim_gm1, len(g.zero)) == (8, 2, 4)


def test_conformal_dims():
    g = build_graded("conformal", {"p": 1, "q": 2})
    assert (g.dim, g.dim_gm1) == (10, 3)


def test_grassmannian_block_structure():
    g = build_graded("grassmannian", {"p": 2, "q": 2})
    assert (g.dim, g.dim_gm1, len(g.zero)) == (15, 4, 7)


@pytest.mark.parametrize("family,params", [
    ("projective", {"n": 3}),
    ("h_projective", {"n": 2}),
    ("conformal", {"p": 2, "q": 2}),
    ("complex_conformal", {"n": 1}),
    ("quaternionic", {"n": 2}),
    ("para_quaternionic", {"n": 2}),
    ("grassmannian", {"p": 2, "q": 3}),
    ("lagrangean", {"n": 2}),
    ("spinorial", {"n": 3}),
    ("su_pp", {"p": 2}),
])
def test_graded_families_build_and_verify(family, params):
    g = build_graded(family, params)
    expected = expected_graded_dims(family, params)
    assert g.dim == expected["dim_g"]
    assert g.dim_gm1 == expected["dim_gm1"]
    assert len(g.minus_one) == len(g.plus_one)
    assert verify_graded(g) == []
    # grading element acts by the grade on each basis vector
    e_mat = g.algebra.element(g.grading_element)
    for idx, b in enumerate(g.algebra.basis):
        k = g.grade_of(idx)
        assert commutator(e_mat, b) == b.scale(k)
        sign = 1 if k == 0 else -1
        assert g.flip_element @ b @ g.flip_element == b.scale(sign)


def test_spinorial_low_rank_rejected():
    with pytest.raises(InputError):
        build_graded("spinorial", {"n": 2})


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        build_graded("e7", {"n": 1})


def test_ambient_cap_enforced():
    with pytest.raises(InputError):
        build_graded("projective", {"n": 40})


def test_size_cap_checked_before_construction(monkeypatch):
    def never(params):
        raise AssertionError("builder called for a parameter set over the cap")

    monkeypatch.setitem(catalog._GRADED_BUILDERS, "projective", never)
    with pytest.raises(InputError, match="algebra dimension 1002000 exceeds the desk-scale cap 500"):
        build_graded("projective", {"n": 1000})


@pytest.mark.parametrize("params,name", [
    ({"m": 3}, "'n'"),
    ({"n": "3"}, "'n'"),
    ({"n": 2.0}, "'n'"),
    ({"n": True}, "'n'"),
    ({"n": [3]}, "'n'"),
    ({"p": 2}, "'q'"),
])
def test_missing_or_non_integer_param_is_input_error(params, name):
    family = "grassmannian" if "p" in params else "projective"
    with pytest.raises(InputError, match=name):
        build_graded(family, params)


def test_structure_constants_match_dense_reference_on_error_paths():
    basis = build_graded("projective", {"n": 3}).algebra.basis

    def first_error(build, trial):
        try:
            build(trial)
        except (ClosureError, DependentBasisError) as err:
            return type(err), getattr(err, "pair", None), getattr(err, "index", None)
        return None

    closure_pairs = set()
    for drop in range(len(basis)):
        trial = basis[:drop] + basis[drop + 1:]
        expected = first_error(dense_structure_table, trial)
        assert expected is not None and expected[0] is ClosureError
        assert first_error(make_algebra, trial) == expected
        closure_pairs.add(expected[1])
    assert len(closure_pairs) > 1  # the first failing pair varies with the basis
    for pos in (3, 9, 15):
        trial = basis[:pos] + [basis[1] + basis[pos - 1].scale(2)] + basis[pos:]
        expected = (DependentBasisError, None, pos)
        assert first_error(make_algebra, trial) == first_error(dense_structure_table, trial) == expected


def test_builders_are_memoized():
    a = build_graded("projective", {"n": 2})
    b = build_graded("projective", {"n": 2})
    assert a is b


@pytest.mark.parametrize(
    "kind,family,params",
    [("graded", f, p) for f, p in catalog.default_graded_grid()]
    + [("pair", f, p) for f, p in catalog.default_pair_grid()],
)
def test_structure_constants_match_dense_reference(kind, family, params):
    if kind == "graded":
        algebra = build_graded(family, params).algebra
    else:
        algebra = build_pair(family, params).k_algebra
    table = algebra.constants.table
    reference = dense_structure_table(algebra.basis)
    assert [[list(d.items()) for d in row] for row in table] == \
        [[list(d.items()) for d in row] for row in reference]


# -- pairs ---------------------------------------------------------------------


def test_group_type_dims():
    p = build_pair("group_type", {"base": "sl(2,R)"})
    assert (p.dim, p.dim_h, p.dim_m) == (6, 3, 3)


def test_so_block_dims():
    p = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    assert p.dim_m == 4  # (a+c)(b+d)


def test_sp_block_dims():
    p = build_pair("sp_block", {"p": 1, "q": 1})
    assert p.dim_m == 4


@pytest.mark.parametrize("family,params", catalog.default_pair_grid())
def test_pair_grid_invariants(family, params):
    p = build_pair(family, params)
    assert verify_pair(p) == []
    assert is_semisimple(p.k_algebra)
    # sigma is an involutive automorphism: eigenspace relations were checked at
    # construction; double-check the coordinate matrix squares to the identity
    s = p.sigma_matrix
    assert s @ s == Mat.identity(p.dim)
    # sigma respects the bracket
    sc = p.k_algebra.constants
    for i in range(p.dim):
        si = s.col(i)
        for j in range(i + 1, p.dim):
            left = s.apply(sc.bracket_coords(
                [F(1) if t == i else F(0) for t in range(p.dim)],
                [F(1) if t == j else F(0) for t in range(p.dim)],
            ))
            right = sc.bracket_coords(si, s.col(j))
            assert left == right


def test_isotropy_weights_for_sl2_block(sl2_basis):
    p = build_pair("sl_block", {"p": 1, "q": 1})
    rep = isotropy_rep(p)
    assert rep.carrier_dim == 2
    eigs = sorted(rep.action[0][i, i] for i in range(2))
    assert eigs == [-2, 2]
    assert all(rep.action[0][i, j] == 0 for i in range(2) for j in range(2) if i != j)


def test_restricted_killing_sl2_block():
    p = build_pair("sl_block", {"p": 1, "q": 1})
    gram, sig = restricted_killing(p)
    assert gram == Mat.from_rows([[0, 4], [4, 0]])
    assert sig.as_tuple() == (1, 1, 0)


def test_restricted_killing_group_types():
    assert restricted_killing(build_pair("group_type", {"base": "so(3)"}))[1].as_tuple() == (0, 3, 0)
    assert restricted_killing(build_pair("group_type", {"base": "sl(2,R)"}))[1].as_tuple() == (2, 1, 0)


def test_group_type_isotropy_matches_adjoint():
    from cartanext.bases import sl_basis

    base = make_algebra(sl_basis(2), "sl2")
    p = build_pair("group_type", {"base": "sl(2,R)"})
    rep = isotropy_rep(p)
    adj = base.adjoint_representation()
    # the group-type m-basis mirrors the base basis, so the matrices agree
    assert [m.entries for m in rep.action] == [m.entries for m in adj.action]


def test_factor_decomposition_group_type():
    p = build_pair("group_type", {"base": "sl(2,R)"})
    factors = factor_decomposition(p)
    assert len(factors) == 1 and factors[0].group_type
    assert factors[0].pair.dim == 6


def test_factor_decomposition_block_pair():
    p = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    factors = factor_decomposition(p)
    assert len(factors) == 2
    for f in factors:
        assert (f.pair.dim, f.pair.dim_h, f.pair.dim_m) == (3, 1, 2)
        assert not f.group_type


def test_direct_sum_pairs():
    p1 = build_pair("group_type", {"base": "sl(2,R)"})
    p2 = build_pair("group_type", {"base": "so(3)"})
    s = direct_sum_pairs([p1, p2])
    assert (s.dim, s.dim_h, s.dim_m) == (12, 6, 6)
    assert verify_pair(s) == []
    factors = factor_decomposition(s)
    assert len(factors) == 2 and all(f.group_type for f in factors)


def test_killing_membership_in_invariant_forms():
    from cartanext.lie import invariant_bilinear_forms
    from cartanext.linalg import SpanSolver

    for family, params in [
        ("group_type", {"base": "sl(2,R)"}),
        ("group_type", {"base": "so(3)"}),
        ("sl_block", {"p": 1, "q": 1}),
        ("sp_block", {"p": 1, "q": 1}),
    ]:
        p = build_pair(family, params)
        rep = isotropy_rep(p)
        forms = invariant_bilinear_forms(rep, "symmetric")
        gram, _ = restricted_killing(p)
        span = SpanSolver(p.dim_m ** 2)
        for g in forms:
            span.insert(g.entries)
        assert span.contains(gram.entries)


def test_unsupported_pair_family():
    with pytest.raises(InputError):
        build_pair("e8_type", {})


def test_effectivity_holds_for_grid():
    from cartanext.lie import largest_invariant_subspace_dim

    p = build_pair("conformal_model", {"k": 1, "l": 1})
    assert largest_invariant_subspace_dim(p.k_algebra, p.h_indices) == 0
