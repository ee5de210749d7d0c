"""Catalog constructors: graded algebras, symmetric pairs, derived data."""

import copy
import dataclasses
import functools
import random
import re
from fractions import Fraction

import pytest

from cartanext import bases, catalog, classify, lie
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
from cartanext.lie import MatrixLieAlgebra, StructureConstants, is_semisimple, make_algebra
from cartanext.linalg import Mat, commutator
from conftest import (apply, dense_structure_table, reference_assemble_graded,
                      reference_factor_decomposition)

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


def test_verify_graded_reports_a_hand_broken_grading_in_order():
    g = build_graded("projective", {"n": 2})
    m, z, p = g.minus_one, g.zero, g.plus_one
    table = [[dict(d) for d in row] for row in g.algebra.constants.table]

    def put(i, j, k):
        table[i][j][k], table[j][i][k] = F(1), F(-1)

    put(m[0], m[1], z[0])  # grades -1, -1: must vanish
    put(m[0], z[1], p[0])  # grade -1 with a +1 component
    put(z[0], z[2], m[1])  # grade 0 with a -1 component
    put(z[1], p[1], z[3])  # grade +1 with a 0 component
    alg = g.algebra
    broken = MatrixLieAlgebra(alg.ambient_size, alg.basis, "broken",
                              StructureConstants(alg.dim, table))
    assert verify_graded(dataclasses.replace(g, algebra=broken)) == [
        "Jacobi identity fails at triples [(0, 1, 3), (0, 1, 4), (0, 1, 5)]",
        "bracket of grades -1,-1 at (0,1) is nonzero",
        "bracket at (0,3) leaves grade -1",
        "bracket of grades -1,-1 at (1,0) is nonzero",
        "bracket at (2,4) leaves grade 0",
        "bracket at (3,0) leaves grade -1",
        "bracket at (3,7) leaves grade 1",
        "bracket at (4,2) leaves grade 0",
        "bracket at (7,3) leaves grade 1",
    ]
    assert verify_graded(g) == []  # the copy left the catalog table alone


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
    basis = list(build_graded("projective", {"n": 3}).algebra.basis)

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
    # integral constants are stored as int, the others as Fraction
    assert all(type(v) is (int if v.denominator == 1 else Fraction)
               for row in table for d in row for v in d.values())


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
            left = apply(s, sc.bracket_coords(
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


def test_restricted_killing_refuses_a_degenerate_restriction(monkeypatch):
    from cartanext.errors import InternalCheckError

    p = build_pair("group_type", {"base": "sl(2,R)"})
    killing = catalog.killing_form(p.k_algebra)
    h = list(p.h_indices)
    # keep the h block only: the restriction to m is then zero
    monkeypatch.setattr(catalog, "killing_form",
                        lambda algebra: Mat.from_sparse(killing.rows, killing.cols, {
                            r: {c: killing[r, c] for c in h} for r in h}))
    with pytest.raises(InternalCheckError,
                       match=r"^restricted Killing form is degenerate; catalog bug$"):
        restricted_killing(p)


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


# -- assembly checks ---------------------------------------------------------


def _sl_parts(p, q):
    """g_-1, g_0 and g_1 of sl(p+q, R) graded by the (p | q) split, in the
    catalog's order, with its grading element, flip and layout."""
    n = p + q
    g = catalog._sl_target("blk", "grassmannian", {"p": p, "q": q}, p, q)
    basis, n0, n1 = list(g.algebra.basis), len(g.minus_one), len(g.zero)
    e = Mat.diag([Fraction(q, n)] * p + [Fraction(-p, n)] * q)
    return basis[:n0], basis[n0:n0 + n1], basis[n0 + n1:], e, g.flip_element, g.gm1_layout


def test_graded_assembly_rejects_wrong_grading_element():
    from cartanext.errors import InternalCheckError

    gm1, g0, gp1, e, flip, layout = _sl_parts(1, 2)
    wrong = e + Mat.diag([0, 0, 1])  # commutes with E_10 but not with E_20
    # E_20, element 1, reads grade 0 under the wrong E, where the flip gives it sign -1
    with pytest.raises(InternalCheckError,
                       match="^sl3: flip conjugation sign wrong on element 1$"):
        catalog._assemble_graded("sl3", "projective", {"n": 2}, gm1 + g0 + gp1, wrong, flip,
                                 layout)


def test_graded_assembly_rejects_wrong_flip_sign():
    from cartanext.errors import InternalCheckError

    gm1, g0, gp1, e, flip, layout = _sl_parts(1, 2)
    wrong = Mat.diag([1, -1, 1])  # conjugation fixes E_20, which lies in g_-1
    with pytest.raises(InternalCheckError,
                       match="^sl3: flip conjugation sign wrong on element 1$"):
        catalog._assemble_graded("sl3", "projective", {"n": 2}, gm1 + g0 + gp1, e, wrong,
                                 layout)


def _outcome(assemble, *args):
    from cartanext.errors import InternalCheckError

    try:
        return assemble(*args)
    except InternalCheckError as exc:
        return str(exc)


@pytest.mark.parametrize("p, q", [(1, 3), (2, 2), (3, 1)])
def test_graded_checks_by_entry_match_the_product_checks(p, q):
    # seeded diagonal E and flips, most of them wrong somewhere, against the
    # product checks on the pre-split lists: the same algebra, or the same
    # message with the same first failing element.  Where the reference
    # refuses an ad(E), the one-basis assembler, which reads the grades
    # rather than being told them, must refuse too, by any message
    rng = random.Random(f"{p}-{q}")
    gm1, g0, gp1, e, flip, layout = _sl_parts(p, q)
    n = p + q
    outcomes = set()
    for _ in range(40):
        shift = rng.choice([0, 0, 0, 1])  # a multiple of the identity leaves sl(n)
        e_diag = [e[i, i] + shift + (rng.choice([1, Fraction(1, 2)]) if rng.random() < 0.1 else 0)
                  for i in range(n)]
        f_diag = [flip[i, i] * (rng.choice([-1, 2, 0]) if rng.random() < 0.15 else 1)
                  for i in range(n)]
        args = ("blk", "grassmannian", {"p": p, "q": q}, Mat.diag(e_diag), Mat.diag(f_diag),
                layout)
        got = _outcome(catalog._assemble_graded, *args[:3], gm1 + g0 + gp1, *args[3:])
        want = _outcome(reference_assemble_graded, *args[:3], gm1, g0, gp1, *args[3:])
        if isinstance(want, str) and "ad(E)" in want:
            assert isinstance(got, str), (e_diag, f_diag)
        else:
            assert got == want, (e_diag, f_diag)
        outcomes.add(got if isinstance(got, str) else "built")
    assert "built" in outcomes and "blk: grading element not in the span" in outcomes, outcomes
    assert len(outcomes) > 4, outcomes


@pytest.mark.parametrize("which", ["grading", "flip"])
def test_graded_build_refuses_a_non_diagonal_element(which, monkeypatch):
    # a sentinel projective builder whose E or flip gains an off-diagonal
    # entry; the entry-by-entry checks hold only for diagonal ones
    from cartanext.errors import InternalCheckError

    def sentinel(params):
        gm1, g0, gp1, e, flip, layout = _sl_parts(1, params["n"])
        off = Mat.unit(e.rows, e.rows, 0, 1)
        if which == "grading":
            e = e + off
        else:
            flip = flip + off
        return catalog._assemble_graded("sentinel", "projective", params, gm1 + g0 + gp1, e,
                                        flip, layout)

    monkeypatch.setitem(catalog._GRADED_BUILDERS, "projective", sentinel)
    monkeypatch.setattr(catalog, "_build_graded_cached",  # past the memo of real builds
                        lambda family, key: catalog._GRADED_BUILDERS[family](dict(key)))
    with pytest.raises(InternalCheckError,
                       match=f"^sentinel: {which} element is not diagonal$"):
        build_graded("projective", {"n": 2})


def test_pair_assembly_rejects_wrong_conjugator():
    from cartanext.errors import InternalCheckError

    n, p = 3, 2
    h_mats, m_mats = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                (h_mats if (i < p) == (j < p) else m_mats).append(Mat.unit(n, n, i, j))
    h_mats += [Mat.unit(n, n, i, i) - Mat.unit(n, n, 0, 0) for i in range(1, n)]
    right = catalog._assemble_pair("blk", "sl_block", {}, h_mats, m_mats, Mat.diag([-1, -1, 1]))
    assert right.dim_h == 4
    # -1 fixes the whole algebra, so the first m-element (index 4) is the first mismatch
    with pytest.raises(InternalCheckError, match="^blk: conjugator action mismatch at 4$"):
        catalog._assemble_pair("blk", "sl_block", {}, h_mats, m_mats, Mat.diag([-1, -1, -1]))
    # a scalar square other than 1: diag(2, 2, -2) squares to 4 and acts like diag(-1, -1, 1)
    catalog._assemble_pair("blk", "sl_block", {}, h_mats, m_mats, Mat.diag([2, 2, -2]))
    with pytest.raises(InternalCheckError, match="^blk: conjugator action mismatch at 0$"):
        catalog._assemble_pair("blk", "sl_block", {}, h_mats, m_mats, Mat.diag([-1, 1, 1]))


def test_split_keeps_the_basis_order_within_each_class():
    # sl(3) in `bases` order: E_01, E_02, E_10, E_12, E_20, E_21, then the two diagonals
    basis = bases.sl_basis(3)
    h, m = catalog._split("blk", basis, Mat.diag([-1, -1, 1]))
    assert (h, m) == ([basis[i] for i in (0, 2, 6, 7)], [basis[i] for i in (1, 3, 4, 5)])
    # the assembler sorts by grade the same way: g_-1, g_0, g_1, each in the given order
    e = Mat.diag([Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)])
    g = catalog._assemble_graded("blk", "projective", {"n": 2}, basis, e, Mat.diag([-1, 1, 1]),
                                 [(0, 0), (1, 0)])
    assert list(g.algebra.basis) == [basis[i] for i in (2, 4, 3, 5, 6, 7, 0, 1)]
    assert (g.minus_one, g.zero, g.plus_one) == ((0, 1), (2, 3, 4, 5), (6, 7))


def test_split_refuses_a_matrix_of_two_classes_and_a_non_diagonal_element():
    from cartanext.errors import InternalCheckError

    # E_01 + E_02 meets h at (0, 1) and m at (0, 2)
    mixed = [Mat.unit(3, 3, 1, 0), Mat.unit(3, 3, 0, 1) + Mat.unit(3, 3, 0, 2)]
    with pytest.raises(InternalCheckError, match="^blk: basis element 1 does not get one class$"):
        catalog._split("blk", mixed, Mat.diag([-1, -1, 1]))
    # under E = diag(1, 0, -1), E_01 + E_02 has grades 1 and 2, and E_02 alone grade 2
    for two in (mixed, [mixed[0], Mat.unit(3, 3, 0, 2)]):
        with pytest.raises(InternalCheckError,
                           match="^blk: basis element 1 does not get one grade$"):
            catalog._assemble_graded("blk", "projective", {"n": 2}, two, Mat.diag([1, 0, -1]),
                                     Mat.diag([-1, 1, 1]), [])
    with pytest.raises(InternalCheckError, match="^blk: splitting element is not diagonal$"):
        catalog._split("blk", mixed[:1], Mat.diag([-1, -1, 1]) + Mat.unit(3, 3, 0, 1))


def test_group_type_spellings_share_one_memo_entry(monkeypatch):
    # `bases` drops the spaces of a token, so both spellings name one algebra
    fresh = functools.lru_cache(maxsize=None)(catalog._build_pair_cached.__wrapped__)
    monkeypatch.setattr(catalog, "_build_pair_cached", fresh)
    pair = build_pair("group_type", {"base": "sl(2, R)"})
    assert build_pair("group_type", {"base": "sl(2,R)"}) is pair
    assert fresh.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert pair.params["base"] == "sl(2,R)"


def test_a_pair_that_is_not_semisimple_is_an_input_error():
    # group(so(2)) is abelian: its centroid is not a product of fields
    pair = build_pair("group_type", {"base": "so(2)"})
    for call in (factor_decomposition, classify.centralizer_report):
        with pytest.raises(InputError, match="^factor decomposition needs a semisimple algebra$"):
            call(pair)


# -- pair parameters -----------------------------------------------------------


@pytest.mark.parametrize("family,params,match", [
    ("sl_block", [("p", 1), ("q", 1)], "sl_block parameters must be a mapping"),
    ("sl_block", {"p": 1}, "sl_block needs the integer parameter 'q'"),
    ("so_block", {"a": 1, "b": 1, "c": 1}, "so_block needs the integer parameter 'd'"),
    ("sl_block", {"p": "3", "q": 1}, "sl_block parameter 'p' must be an integer, got '3'"),
    ("sp_block", {"p": 1, "q": 2.0}, "sp_block parameter 'q' must be an integer, got 2.0"),
    ("so_star", {"n": True}, "so_star parameter 'n' must be an integer, got True"),
    ("sp1_block", {"p": [1], "q": 1}, r"sp1_block parameter 'p' must be an integer, got \[1\]"),
    ("group_type", {}, "group_type parameter 'base': algebra token must be a string, got None"),
    ("group_type", {"base": 3}, "group_type parameter 'base': algebra token must be a string"),
    ("group_type", {"base": "sl(x,R)"},
     r"group_type parameter 'base': cannot parse algebra token 'sl\(x,R\)'"),
    ("group_type", {"base": "e8(1)"},
     r"group_type parameter 'base': unsupported algebra token 'e8\(1\)'"),
    ("group_type", {"base": "so(1)"}, r"group_type parameter 'base': 'so\(1\)' is the zero algebra"),
    ("group_type", {"base": "so(0)"}, r"group_type parameter 'base': 'so\(0\)' is the zero algebra"),
] + [
    # each of these used to build a pair: a negative count built
    # group(so(3)) or group(su(3)) under the raw name, an extra argument was
    # dropped, and a signed or zero-padded count gave sl(2,R) a second name
    ("group_type", {"base": token}, f"algebra token '{re.escape(token)}'$")
    for token in ("so(3,-1)", "so(-1,3)", "su(3,-1)", "sl(2,3,R)", "so(2,1,7)", "sp(4,1,R)",
                  "sl(02,R)", "sl(+2,R)", "sl(2,R))", "so*(4,1)", "so(3,1,C)")
])
def test_malformed_pair_params_are_input_errors(family, params, match):
    with pytest.raises(InputError, match=match):
        build_pair(family, params)


@pytest.mark.parametrize("token, size, dim", [
    ("sl(2,R)", 2, 3), ("sl(3,R)", 3, 8), ("so(3)", 3, 3), ("so(2,1)", 3, 3),
    ("sl(2,C)", 4, 6), ("su(2)", 4, 3), ("sp(2,R)", 2, 3), ("so(3,C)", 6, 6),
    ("sp(4,C)", 8, 20), ("so*(4)", 8, 6), ("su(2,1)", 6, 8), ("so(10)", 10, 45),
])
def test_well_formed_tokens_keep_their_names(token, size, dim):
    basis, name = bases.parse_simple_algebra(token)
    assert (bases.algebra_token_size(token), len(basis), name) == (size, dim, token)


# The lower bound of each family and token, one below it.
@pytest.mark.parametrize("build, match", [
    (lambda: build_graded("grassmannian", {"p": 1, "q": 2}), "grassmannian needs p, q >= 2"),
    (lambda: build_graded("conformal", {"p": 0, "q": 0}), "conformal needs p"),
    (lambda: build_graded("lagrangean", {"n": 0}), "lagrangean rank n must be >= 1"),
    (lambda: build_pair("so_block", {"a": 1, "b": 1, "c": 0, "d": 0}),
     "so_block needs total size >= 3"),
    (lambda: build_pair("su_block", {"a": 1, "b": 0, "c": 0, "d": 0}),
     "su_block needs total size >= 2"),
    (lambda: build_pair("sp1_block", {"p": 0, "q": 1}), "sp1_block needs p >= 1"),
    (lambda: build_pair("group_type", {"base": "sl(1,R)"}), r"sl\(n\) needs n >= 2"),
    (lambda: build_pair("group_type", {"base": "sl(1,C)"}), r"sl\(n, C\) needs n >= 2"),
    (lambda: bases.so_diag_basis([1, 2]), "signs must be"),
    (lambda: build_pair("group_type", {"base": "sp(0,R)"}), "sp needs n >= 1"),
    (lambda: build_pair("group_type", {"base": "su(1)"}), "su needs size >= 2"),
    (lambda: build_pair("group_type", {"base": "so*(0)"}), r"so\* needs n >= 1"),
    (lambda: bases.sp_pq_basis([]), r"sp\(p, q\) needs size >= 1"),
    (lambda: build_pair("group_type", {"base": "so(1,C)"}), r"so\(n, C\) needs n >= 2"),
    (lambda: build_pair("group_type", {"base": "sp(3,R)"}), r"sp\(2n,R\) needs an even size"),
])
def test_below_each_lower_bound_is_an_input_error(build, match):
    with pytest.raises(InputError, match=match):
        build()


def test_so_complex_3_builds_from_the_spinorial_target():
    pair = build_pair("so_complex", {"n": 3})
    assert verify_pair(pair) == []
    assert classify.centralizer_report(pair).factor_labels == ["R"]


# A negative count used to build a smaller algebra under the family's name
# (conformal p=-1, q=2 gave "so(0,3)-conformal" with dim 6, not 3), or to pass
# the size cap on the formulas it broke (conformal p=-200, q=230 counted
# dim 496 and allocated about 26k basis matrices before a later refusal).
@pytest.mark.parametrize("build, family, params, name", [
    (build_graded, "conformal", {"p": -1, "q": 2}, "p"),
    (build_graded, "conformal", {"p": -200, "q": 230}, "p"),
    (build_graded, "projective", {"n": -2}, "n"),
    (build_pair, "so_block", {"a": -1, "b": 2, "c": 1, "d": 1}, "a"),
    (build_pair, "conformal_model", {"k": -1, "l": 2}, "k"),
    (build_pair, "sl_block", {"p": -1, "q": 3}, "p"),
    (build_pair, "sp1_block", {"p": 1, "q": -1}, "q"),
])
def test_negative_family_params_are_refused_before_building(build, family, params, name,
                                                            monkeypatch):
    def never(*args):
        raise AssertionError("a catalog object was built for a negative parameter")

    monkeypatch.setattr(catalog, "_build_graded_cached", never)
    monkeypatch.setattr(catalog, "_build_pair_cached", never)
    message = f"^{family} parameter '{name}' must not be negative, got {params[name]}$"
    with pytest.raises(InputError, match=message):
        build(family, params)


def test_conformal_model_needs_a_tangent_direction(monkeypatch):
    # k = l = 0 used to reach the graded builder and end in its message,
    # "conformal needs p + q >= 1"
    def never(*args):
        raise AssertionError("a conformal target was built for k = l = 0")

    monkeypatch.setattr(catalog, "build_graded", never)
    with pytest.raises(InputError, match=r"^conformal_model needs k \+ l >= 1$"):
        build_pair("conformal_model", {"k": 0, "l": 0})


@pytest.mark.parametrize("family,params,ambient", [
    ("group_type", {"base": "sl(17,R)"}, 34),
    ("group_type", {"base": "sl(9,C)"}, 36),
    ("group_type", {"base": "so(10,7)"}, 34),
    ("group_type", {"base": "sp(18,R)"}, 36),
    ("group_type", {"base": "sp(10,C)"}, 40),
    ("group_type", {"base": "su(5,4)"}, 36),
    ("group_type", {"base": "so(9,C)"}, 36),
    ("group_type", {"base": "so*(10)"}, 40),
    ("sl_block", {"p": 20, "q": 13}, 33),
    ("so_block", {"a": 9, "b": 8, "c": 8, "d": 8}, 33),
    ("conformal_model", {"k": 20, "l": 11}, 33),
    ("sp_block", {"p": 9, "q": 8}, 34),
    ("su_block", {"a": 5, "b": 4, "c": 4, "d": 4}, 34),
    ("so_complex", {"n": 17}, 34),
    ("sp1_block", {"p": 4, "q": 4}, 36),
    ("so_star", {"n": 8}, 36),
])
def test_pair_ambient_cap_checked_before_construction(monkeypatch, family, params, ambient):
    from cartanext import bases

    def never(*args):
        raise AssertionError("a basis was built for a parameter set over the cap")

    monkeypatch.setitem(catalog._PAIR_BUILDERS, family, never)
    monkeypatch.setattr(bases, "parse_simple_algebra", never)
    with pytest.raises(InputError,
                       match=f"realified ambient size {ambient} exceeds the desk-scale cap 32"):
        build_pair(family, params)


def test_pair_ambient_sizes_match_the_built_pairs():
    # one below or at the cap for each family: the size read from the
    # parameters is the size of the matrices the builder makes
    for family, params, ambient in [
        ("group_type", {"base": "sl(3,R)"}, 6),
        ("group_type", {"base": "su(2,1)"}, 12),
        ("group_type", {"base": "so*(4)"}, 16),
        ("sl_block", {"p": 1, "q": 2}, 3),
        ("so_block", {"a": 1, "b": 2, "c": 0, "d": 0}, 3),
        ("conformal_model", {"k": 1, "l": 1}, 4),
        ("sp_block", {"p": 1, "q": 1}, 4),
        ("su_block", {"a": 1, "b": 1, "c": 1, "d": 0}, 6),
        ("so_complex", {"n": 2}, 4),
        ("sp1_block", {"p": 1, "q": 1}, 12),
        ("so_star", {"n": 2}, 12),
    ]:
        assert build_pair(family, params).k_algebra.ambient_size == ambient
        names, size = catalog._PAIR_SIZES[family]
        assert size(*(params[name] for name in names)) == ambient


# -- cached objects are read-only; derived data is computed once per pair -------


# The 21 pairs of the benchmark's analysis pass: the default grid and three
# direct sums of group-type pairs.
SUM_BASES = (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"))


def _sums() -> list:
    return [direct_sum_pairs([build_pair("group_type", {"base": b}) for b in parts])
            for parts in SUM_BASES]


def _analyzed_pairs() -> list:
    return [build_pair(f, p) for f, p in catalog.default_pair_grid()] + _sums()


def test_cached_index_sets_cannot_be_changed_by_callers():
    g = build_graded("projective", {"n": 2})
    with pytest.raises(AttributeError):
        g.minus_one.append(99)
    assert build_graded("projective", {"n": 2}).minus_one == (0, 1)
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    for seq in (pair.h_indices, pair.m_indices, isotropy_rep(pair).action,
                lie.commutant(isotropy_rep(pair)).commutant_basis,
                catalog.centroid(pair)[0], factor_decomposition(pair)):
        assert isinstance(seq, tuple)


@pytest.mark.parametrize("change", [
    {"h_indices": (0, 1, 2, 99)},  # made verify_pair and isotropy_rep raise IndexError
    {"h_indices": (-1,), "m_indices": (0, 1, 2, 3, 4)},  # -1 wrapped to 5: verify_pair passed
    {"h_indices": (0, 1), "m_indices": (3, 4, 5)},  # index 2 in neither
    {"h_indices": (0, 1, 2, 3), "m_indices": (3, 4, 5)},  # index 3 in both
    {"h_indices": (0, 1, True), "m_indices": (3, 4, 5)},
    {"h_indices": 3},
])
def test_malformed_pair_index_sets_are_refused(change):
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    with pytest.raises(InputError, match="must list each index of range"):
        dataclasses.replace(pair, **change)


@pytest.mark.parametrize("change", [
    lambda g: {"zero": g.zero + (99,)},  # made verify_graded raise TypeError
    lambda g: {"zero": g.zero[::-1]},  # grade_of reads grades off the positions
    lambda g: {"minus_one": g.plus_one, "plus_one": g.minus_one},
    lambda g: {"zero": g.zero[1:]},
    lambda g: {"zero": g.zero[:-1] + (float(g.zero[-1]),)},  # equal to an int, but no index
])
def test_malformed_graded_index_sets_are_refused(change):
    g = build_graded("projective", {"n": 2})
    with pytest.raises(InputError, match="must list each index of range"):
        dataclasses.replace(g, **change(g))


def test_well_formed_index_sets_are_kept():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    swapped = dataclasses.replace(pair, h_indices=pair.m_indices, m_indices=pair.h_indices)
    shuffled = dataclasses.replace(pair, h_indices=(2, 0, 1), m_indices=(5, 3, 4))
    assert verify_pair(swapped) == verify_pair(shuffled) == verify_pair(pair) == []
    g = build_graded("projective", {"n": 2})
    assert dataclasses.replace(g) == g and verify_graded(dataclasses.replace(g)) == []


def test_cached_basis_cannot_be_changed_by_callers():
    algebra = build_graded("projective", {"n": 3}).algebra
    with pytest.raises(AttributeError):
        algebra.basis.append(Mat.identity(4))
    with pytest.raises(TypeError):
        algebra.basis[0] = Mat.identity(4)
    again = build_graded("projective", {"n": 3})
    assert again.algebra is algebra and again.dim == algebra.dim == 15
    assert verify_graded(again) == []


def test_replace_does_not_carry_the_derived_data_over():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    factor_decomposition(pair)
    isotropy_rep(pair)
    other = dataclasses.replace(pair, family="x")
    kept = {"factor_decomposition", "centroid", "isotropy_rep"}
    assert not kept & set(other._derived)
    assert {"factor_decomposition", "isotropy_rep"} <= set(pair._derived)
    assert isotropy_rep(other) is not isotropy_rep(pair)


def test_a_copy_keeps_what_it_computes_to_itself():
    # copy.copy gives the copy its own derived-data dict: a value computed on
    # the copy, here after a new table was put in place, never reaches the
    # original
    pair = dataclasses.replace(build_pair("group_type", {"base": "sl(2,R)"}))
    rep = isotropy_rep(copy.copy(pair))
    assert "isotropy_rep" not in pair._derived and isotropy_rep(pair) is not rep
    original = make_algebra(pair.k_algebra.basis, "sl(2,R)+sl(2,R)")
    abelian = copy.copy(original)
    abelian.constants = StructureConstants(6, [[{} for _ in range(6)] for _ in range(6)])
    assert not is_semisimple(abelian) and is_semisimple(original)


def test_isotropy_rep_and_commutant_are_computed_once():
    for pair in _analyzed_pairs():
        rep = isotropy_rep(pair)
        assert isotropy_rep(pair) is rep
        assert lie.commutant(rep) is lie.commutant(rep)


def _factor_invariants(pair) -> tuple:
    """What the analyses read of a factor: dimensions, commutant, the number
    of invariant symmetric forms and the restricted-Killing signature."""
    rep = isotropy_rep(pair)
    cls = lie.commutant(rep)
    sig = restricted_killing(pair)[1]
    return (pair.dim_h, pair.dim_m, cls.label, cls.dim,
            len(lie.invariant_bilinear_forms(rep, "symmetric")), (sig.positive, sig.negative))


def test_sparse_factor_split_matches_the_dense_reference():
    """A pair with several orbits splits exactly as the dense reference
    does.  A pair with one orbit is its own factor: the reference's rebuilt
    copy must carry the same invariants."""
    simple = 0
    for pair in _analyzed_pairs():
        got = factor_decomposition(pair)
        want = reference_factor_decomposition(dataclasses.replace(pair))
        assert len(got) == len(want)
        if len(want) == 1:
            simple += 1
            (f,), (ref,) = got, want
            assert f.pair is pair
            assert f.m_embedding == Mat.identity(pair.dim_m)
            assert f.group_type == ref.group_type
            assert _factor_invariants(ref.pair) == _factor_invariants(pair)
            continue
        for f, ref in zip(got, want):
            assert f.pair.name == ref.pair.name
            assert f.pair.h_basis() == ref.pair.h_basis()
            assert f.pair.m_basis() == ref.pair.m_basis()
            assert f.m_embedding == ref.m_embedding
            assert f.group_type == ref.group_type
    assert simple == 15  # of the 21 pairs; the other 6 have two orbits


# -- direct sums rebuild from their own parameters ------------------------------


def test_direct_sums_reload_from_their_json():
    from cartanext import io

    for pair in _sums():
        text = io.canonical_dumps(io.pair_to_json(pair))
        again = io.pair_from_json(io.load_json_text(text))
        assert io.canonical_dumps(io.pair_to_json(again)) == text
        assert again is build_pair("direct_sum", pair.params)


def test_direct_sum_parameters_flatten_nested_sums_and_keep_a_name():
    a, b, c = (build_pair("group_type", {"base": t}) for t in ("sl(2,R)", "so(3)", "su(2)"))
    nested = direct_sum_pairs([direct_sum_pairs([a, b]), c])
    flat = direct_sum_pairs([a, b, c])
    assert nested.params == flat.params and nested.name == flat.name
    assert nested.k_algebra.basis == flat.k_algebra.basis
    named = direct_sum_pairs([a, b], "ab")
    assert named.params["name"] == "ab" and build_pair("direct_sum", named.params).name == "ab"


@pytest.mark.parametrize("params,match", [
    ({}, "direct_sum parameter 'parts' must be a nonempty list"),
    ({"parts": []}, "direct_sum parameter 'parts' must be a nonempty list"),
    ({"parts": [3]}, "direct_sum part must hold 'family' and 'params'"),
    ({"parts": [{"family": "group_type"}]}, "direct_sum part must hold 'family' and 'params'"),
    ({"parts": [{"family": "direct_sum", "params": {"parts": []}}]},
     "a direct_sum part cannot itself be a direct sum"),
    ({"parts": [{"family": "nope", "params": {}}]}, "unsupported pair family 'nope'"),
    ({"parts": [{"family": "sl_block", "params": {"p": 1}}]},
     "sl_block needs the integer parameter 'q'"),
    ({"parts": [{"family": "sl_block", "params": {"p": 1, "q": 1}}], "name": 3},
     "direct_sum parameter 'name' must be a string"),
])
def test_malformed_direct_sum_params_are_input_errors(params, match):
    with pytest.raises(InputError, match=match):
        build_pair("direct_sum", params)


def test_direct_sum_cap_is_checked_from_the_parts(monkeypatch):
    def never(*args):
        raise AssertionError("a part was built for a sum over the cap")

    monkeypatch.setattr(catalog, "_build_pair_cached", never)
    parts = [{"family": "so_complex", "params": {"n": 8}},
             {"family": "group_type", "params": {"base": "sl(9,R)"}}]
    with pytest.raises(InputError, match="realified ambient size 34 exceeds the desk-scale cap"):
        build_pair("direct_sum", {"parts": parts})


# -- memoized objects are read-only ----------------------------------------------


def _refused(change):
    with pytest.raises(TypeError, match="read-only"):
        change()


def test_empty_table_cells_are_one_shared_read_only_mapping():
    from cartanext import io

    g = catalog.build_graded("projective", {"n": 3})
    table = g.algebra.constants.table
    text = io.canonical_dumps(io.graded_to_json(g))
    empty = [(i, j) for i in range(g.dim) for j in range(g.dim) if not table[i][j]]
    assert empty and all(table[i][j] is table[0][0] for i, j in empty)
    i, j = empty[-1]
    _refused(lambda: table[i][j].__setitem__(0, 7))
    _refused(lambda: table[i][j].update({0: 7}))
    _refused(lambda: table[i][j].setdefault(0, 7))
    assert dict(table[i][j]) == {} and not table[i][j]
    again = catalog.build_graded("projective", {"n": 3})
    assert again is g and catalog.verify_graded(again) == []
    assert io.canonical_dumps(io.graded_to_json(again)) == text
    fresh = make_algebra(list(g.algebra.basis), "copy")
    assert fresh.constants.table == table


def test_cached_table_cannot_be_changed_by_callers():
    from cartanext import io

    g = build_graded("projective", {"n": 2})
    table = g.algebra.constants.table
    text = io.canonical_dumps(io.graded_to_json(g))
    i, j = next((i, j) for i in range(g.dim) for j in range(g.dim) if table[i][j])
    cell = dict(table[i][j])
    k = next(k for k in range(g.dim) if k not in cell)

    def write_cell():
        table[i][j][k] = 7

    def assign_cell():
        table[i][j] = {k: 7}

    def append_to_row():
        table[i].append({k: 7})

    def assign_row():
        table[i] = ()

    for change, error in ((write_cell, TypeError), (assign_cell, TypeError),
                          (append_to_row, AttributeError), (assign_row, TypeError)):
        with pytest.raises(error):
            change()
        again = build_graded("projective", {"n": 2})
        assert again is g and again.algebra.constants.table is table
        assert table[i][j] == cell and len(table[i]) == g.dim
        assert io.canonical_dumps(io.graded_to_json(again)) == text
        assert verify_graded(again) == []


def test_involution_pair_builds_one_algebra(monkeypatch):
    # the involution's span test needs no structure constants of its own
    built = []
    real = catalog.make_algebra
    monkeypatch.setattr(catalog, "make_algebra",
                        lambda basis, name="": built.append(name) or real(basis, name))
    pair = catalog._PAIR_BUILDERS["so_complex"]({"n": 2})
    assert built == [pair.name] and verify_pair(pair) == []
    basis, j = list(pair.k_algebra.basis), pair.conjugator
    with pytest.raises(DependentBasisError) as err:
        catalog._pair_from_involution("x", "so_complex", {"n": 2}, basis + basis[:1], j)
    assert err.value.index == len(basis)
    mixed = [pair.k_algebra.basis[pair.h_indices[0]] + pair.k_algebra.basis[pair.m_indices[0]]]
    with pytest.raises(InputError, match="conjugation does not preserve the algebra span"):
        catalog._pair_from_involution("x", "so_complex", {"n": 2}, mixed, j)
    assert built == [pair.name]


def test_pair_params_are_read_only():
    from cartanext import io

    pair = build_pair("group_type", {"base": "sl(2,R)"})
    text = io.canonical_dumps(io.pair_to_json(pair))
    _refused(lambda: pair.params.__setitem__("base", "so(3)"))
    _refused(lambda: pair.params.update(base="so(3)"))
    _refused(lambda: pair.params.pop("base"))
    again = build_pair("group_type", {"base": "sl(2,R)"})
    assert again is pair and io.canonical_dumps(io.pair_to_json(again)) == text
    assert '"params":{"base":"sl(2,R)"}' in text


def test_graded_params_are_read_only():
    g = build_graded("projective", {"n": 2})
    _refused(lambda: g.params.__setitem__("n", 7))
    _refused(lambda: g.params.clear())
    assert build_graded("projective", {"n": 2}).params == {"n": 2}
    assert sorted(g.params.items()) == [("n", 2)] and g.params["n"] == 2


def test_certificate_ideal_is_read_only():
    pair = build_pair("sp_block", {"p": 1, "q": 1})
    _refused(lambda: pair.certificate_ideal.__setitem__("H", 5))
    _refused(lambda: pair.certificate_ideal.setdefault("X", 5))
    assert build_pair("sp_block", {"p": 1, "q": 1}).certificate_ideal == {
        "type": "split", "H": 0, "E": 1, "F": 2}


def test_direct_sum_parts_are_read_only():
    from cartanext import io

    pair = build_pair("direct_sum", {"parts": [
        {"family": "group_type", "params": {"base": "sl(2,R)"}},
        {"family": "group_type", "params": {"base": "so(3)"}}]})
    text = io.canonical_dumps(io.pair_to_json(pair))
    with pytest.raises(AttributeError):
        pair.params["parts"].append({"family": "group_type", "params": {"base": "so(3)"}})
    _refused(lambda: pair.params["parts"][0]["params"].__setitem__("base", "so(3)"))
    _refused(lambda: pair.params["parts"][0].__setitem__("family", "sl_block"))
    assert io.canonical_dumps(io.pair_to_json(pair)) == text
    assert ('"params":{"parts":[{"family":"group_type","params":{"base":"sl(2,R)"}},'
            '{"family":"group_type","params":{"base":"so(3)"}}]}') in text


def test_read_only_params_copy_and_pickle():
    import copy
    import pickle

    pair = build_pair("sp_block", {"p": 1, "q": 1})
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        params, cert = clone(pair.params), clone(pair.certificate_ideal)
        assert params == pair.params and cert == pair.certificate_ideal
        _refused(lambda: params.__setitem__("p", 2))
    assert copy.deepcopy(pair).params == {"p": 1, "q": 1}
