"""Existence deciders, structure rows, centralizer reports."""

import pytest

from cartanext import catalog, classify
from cartanext.catalog import build_pair, direct_sum_pairs
from cartanext.extension import curvature, is_flat, torsion_free, validate
from cartanext.linalg import Mat


def test_decide_projective_group_type():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    v = classify.decide_projective(pair)
    assert v.verdict == classify.EXISTS
    assert v.equivalence == {"classes": "unique"}
    assert validate(v.witness).passed
    assert torsion_free(v.witness)
    assert not v.witness.b2_matrix().is_zero()


def test_decide_projective_block_pair():
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    v = classify.decide_projective(pair)
    assert v.verdict == classify.EXISTS and validate(v.witness).passed


def test_decide_projective_needs_semisimple():
    # a solvable pair: upper triangular 2x2 with the diagonal involution
    from cartanext.catalog import SymmetricPair, _assemble_pair

    h = Mat.diag([1, -1])
    m = Mat.from_rows([[0, 1], [0, 0]])
    pair = _assemble_pair("borel-pair", "custom", {}, [h], [m])
    v = classify.decide_projective(pair)
    assert v.verdict == classify.UNDECIDED


def test_normalized_projective_flatness_matches_constant_curvature():
    # the 3-dimensional group manifolds carry constant-curvature metrics, so
    # their normalized projective structures are flat; sl(3,R) is not
    from cartanext.extension import is_flat

    for base, expect_flat in (("sl(2,R)", True), ("so(3)", True), ("sl(3,R)", False)):
        pair = build_pair("group_type", {"base": base})
        v = classify.decide_projective(pair)
        assert is_flat(v.witness) == expect_flat, base


def test_decide_conformal_single_factor():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    rep = classify.decide_conformal(pair)
    assert rep.verdict.verdict == classify.EXISTS
    assert rep.form_space_dim == 1
    assert rep.signatures == [(1, 2), (2, 1)]
    assert rep.killing_is_member
    assert rep.circle_parameters == 0


def test_decide_conformal_two_compact_factors():
    base = build_pair("group_type", {"base": "so(3)"})
    pair = direct_sum_pairs([base, base])
    rep = classify.decide_conformal(pair)
    assert rep.form_space_dim == 2
    assert rep.factor_form_dims == [1, 1]
    assert rep.cross_blocks_zero
    assert rep.signatures == [(0, 6), (3, 3), (6, 0)]


def test_decide_conformal_complex_factor():
    pair = build_pair("group_type", {"base": "sl(2,C)"})
    rep = classify.decide_conformal(pair)
    assert rep.form_space_dim == 2
    assert rep.circle_parameters == 1
    assert rep.signatures == [(3, 3)]


def test_decide_conformal_mixed_sum():
    pair = direct_sum_pairs([
        build_pair("group_type", {"base": "sl(2,C)"}),
        build_pair("group_type", {"base": "so(3)"}),
    ])
    rep = classify.decide_conformal(pair)
    assert rep.form_space_dim == 3
    assert rep.circle_parameters == 1
    assert rep.verdict.equivalence["sign_choices"] == 1
    assert rep.signatures == [(3, 6), (6, 3)]


def test_decide_h_projective_complex_pair():
    pair = build_pair("group_type", {"base": "sl(2,C)"})
    v = classify.decide_h_projective(pair)
    assert v.verdict == classify.EXISTS
    assert v.conjugate_witness is not None
    assert validate(v.witness).passed and validate(v.conjugate_witness).passed
    j = v.complex_structure
    assert j @ j == Mat.identity(pair.dim).scale(-1)


def test_decide_h_projective_real_pair():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    v = classify.decide_h_projective(pair)
    assert v.verdict == classify.NOT_EXISTS


def test_decide_h_projective_odd_dimension():
    pair = build_pair("group_type", {"base": "so(2,1)"})
    v = classify.decide_h_projective(pair)
    assert v.verdict == classify.NOT_EXISTS


FLAT_ROWS = [
    ("grassmannian", "so_block", {"a": 1, "b": 1, "c": 1, "d": 1}),
    ("grassmannian", "so_block", {"a": 2, "b": 1, "c": 1, "d": 1}),
    ("grassmannian", "sp_block", {"p": 1, "q": 1}),
    ("para_quaternionic", "sp_block", {"p": 1, "q": 1}),
    ("para_quaternionic", "so_block", {"a": 2, "b": 2, "c": 0, "d": 1}),
    ("para_quaternionic", "conformal_model", {"k": 1, "l": 1}),
    ("quaternionic", "so_star", {"n": 2}),
    ("quaternionic", "sp1_block", {"p": 1, "q": 1}),
    ("lagrangean", "group_type", {"base": "sp(2,R)"}),
    ("spinorial", "group_type", {"base": "so(2,1)"}),
    ("su_pp", "so_complex", {"n": 2}),
]


@pytest.mark.parametrize("family,pair_family,params", FLAT_ROWS)
def test_verify_family_rows(family, pair_family, params):
    pair = build_pair(pair_family, params)
    v = classify.verify_family_row(family, pair)
    assert v.verdict == classify.EXISTS
    assert validate(v.witness).passed
    kappa = curvature(v.witness)
    assert torsion_free(v.witness, kappa)
    assert is_flat(v.witness, kappa)


# sha256 of the canonical extension JSON of the group-type row witnesses,
# recorded before the rows read their base token through `bases._read_token`
GROUP_ROW_DIGESTS = [
    ("spinorial", "so(2,1)", "a88a7f112544dc2db87785af001dd1c9109e68db5c8cab7a2b5e26dd1f2f3776"),
    ("spinorial", "so(3)", "b6825be89a0c791a29b472860c7f6dab139acde27fa426d478d87d4b779719d7"),
    ("lagrangean", "sp(2,R)", "7066195dc2a0de10179da9df3603d89c250d086fc055ae400b6cdc1dedb139cd"),
    ("lagrangean", "sp(4,R)", "06216cd9d995801d7e11c6c43398c7fd3507b360f61b8934904547846dbf825c"),
]


@pytest.mark.parametrize("family,base,digest", GROUP_ROW_DIGESTS)
def test_group_row_witnesses_are_unchanged(family, base, digest):
    import hashlib

    from cartanext import io

    pair = build_pair("group_type", {"base": base})
    ext = classify._ROW_BUILDERS[(family, "group_type")](pair)
    assert hashlib.sha256(io.canonical_dumps(io.extension_to_json(ext)).encode()).hexdigest() == digest


def test_quaternion_certificates():
    pair = build_pair("sp1_block", {"p": 1, "q": 1})
    cert = classify.quaternion_relation_certificate(pair)
    assert cert == {"type": "quaternion", "verified": True, "algebra_dim": 4}
    pair2 = build_pair("sp_block", {"p": 1, "q": 1})
    cert2 = classify.quaternion_relation_certificate(pair2)
    assert cert2 == {"type": "split", "verified": True, "algebra_dim": 4}


def test_unregistered_row_is_undecided():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    v = classify.verify_family_row("grassmannian", pair)
    assert v.verdict == classify.UNDECIDED


EXPECTED_FACTOR_LABELS = {
    ("group_type", "sl(2,R)"): ["R"],
    ("group_type", "sl(3,R)"): ["R"],
    ("group_type", "so(3)"): ["R"],
    ("group_type", "so(2,1)"): ["R"],
    ("group_type", "sl(2,C)"): ["C"],
    ("group_type", "su(2)"): ["R"],
    ("group_type", "sp(2,R)"): ["R"],
}


def test_centralizer_report_labels():
    seen = set()
    for family, params in catalog.default_pair_grid():
        pair = build_pair(family, params)
        report = classify.centralizer_report(pair)
        assert report.labels_in_contract, (pair.name, report.factor_labels)
        seen.add(pair.name)
        key = (family, params.get("base"))
        if key in EXPECTED_FACTOR_LABELS:
            assert report.factor_labels == EXPECTED_FACTOR_LABELS[key]
    assert len(seen) >= 8


def test_centralizer_report_weight_line_split():
    pair = build_pair("sl_block", {"p": 1, "q": 1})
    report = classify.centralizer_report(pair)
    assert report.factor_labels == ["RxR"]


def test_centralizer_report_block_pair_factors():
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    report = classify.centralizer_report(pair)
    assert sorted(report.factor_labels) == ["RxR", "RxR"]
    assert report.total_dim == 4


def _projective_targets():
    """The projective targets of the default-grid pairs with dim m >= 2,
    and the h-projective targets of complex rank 4 and 5."""
    ranks = sorted({build_pair(f, p).dim_m for f, p in catalog.default_pair_grid()} - {0, 1})
    return ([("projective", {"n": n}) for n in ranks]
            + [("h_projective", {"n": n}) for n in (4, 5)])


@pytest.mark.parametrize("family,params", _projective_targets())
def test_table_driven_operators_match_dense_references(family, params):
    from cartanext.extension import projective_normalization_operator
    from conftest import dense_g0_action, dense_normalization_operator

    target = catalog.build_graded(family, params)
    assert classify.g0_action_solver(target) == dense_g0_action(target)
    op, meta = projective_normalization_operator(target)
    n = target.dim_gm1
    assert op == dense_normalization_operator(target)
    assert meta == {"equations": n * n, "unknowns": n * n}


def test_projective_target_ranks_cover_the_default_grid():
    assert [params["n"] for family, params in _projective_targets()] == [2, 3, 4, 6, 8, 4, 5]


@pytest.mark.parametrize("family,params", [
    ("group_type", {"base": "sl(3,R)"}),
    ("so_block", {"a": 2, "b": 1, "c": 1, "d": 1}),
    ("sp1_block", {"p": 1, "q": 1}),
])
def test_standard_witness_matches_one_solve_per_h_element(family, params):
    from cartanext.linalg import invert, solve_linear
    from conftest import dense_g0_action

    pair = build_pair(family, params)
    target = catalog.build_graded("projective", {"n": pair.dim_m})
    frame = Mat.from_rows([[1 if c == r else (2 if c == r + 1 else 0) for c in range(pair.dim_m)]
                           for r in range(pair.dim_m)])
    witness = classify.standard_witness(pair, target, frame=frame)
    rep = catalog.isotropy_rep(pair)
    solver = dense_g0_action(target)
    for pos, h_idx in enumerate(pair.h_indices):
        framed = frame @ rep.action[pos] @ invert(frame)
        sol = solve_linear(solver, Mat.column(framed.entries))
        assert not sol.kernel
        assert [witness.alpha[z, h_idx] for z in target.zero] == sol.particular.col(0)
    assert validate(witness).passed


def test_standard_witness_errors(monkeypatch):
    from cartanext.errors import InputError, InternalCheckError

    pair = build_pair("group_type", {"base": "sl(2,R)"})
    target = catalog.build_graded("projective", {"n": 3})
    solver = classify.g0_action_solver(target)
    monkeypatch.setattr(classify, "g0_action_solver",
                        lambda t: Mat.zero(solver.rows, solver.cols))
    with pytest.raises(InputError,
                       match="^isotropy action does not land in the grading-preserving block$"):
        classify.standard_witness(pair, target)
    widened = Mat.from_rows([list(solver.row(r)) + [0] for r in range(solver.rows)])
    monkeypatch.setattr(classify, "g0_action_solver", lambda t: widened)
    with pytest.raises(InternalCheckError,
                       match="^g_0 action map is not injective; target not effective$"):
        classify.standard_witness(pair, target)


def test_one_round_builds_the_isotropy_algebra_and_commutant_once(monkeypatch):
    import dataclasses

    from cartanext import lie

    # a copy outside the build cache, with no derived data yet
    pair = dataclasses.replace(build_pair("group_type", {"base": "sl(2,C)"}))
    h_name = pair.name + "#h"
    h_builds, commutants = [], []
    subalgebra, commutant_basis = catalog.subalgebra, lie.commutant_basis

    def counted_subalgebra(algebra, vecs, name):
        if name == h_name:
            h_builds.append(name)
        return subalgebra(algebra, vecs, name)

    def counted_commutant_basis(rep):
        if rep.algebra.name == h_name:
            commutants.append(rep)
        return commutant_basis(rep)

    def no_ambient_build(basis, name=""):
        raise AssertionError(f"{name} rebuilt from its matrices")

    monkeypatch.setattr(catalog, "subalgebra", counted_subalgebra)
    monkeypatch.setattr(catalog, "make_algebra", no_ambient_build)
    monkeypatch.setattr(lie, "commutant_basis", counted_commutant_basis)
    classify.centralizer_report(pair)
    classify.decide_conformal(pair)
    result = lie.invariant_complex_structures(catalog.isotropy_rep(pair))
    assert result.status == "decided"
    assert len(h_builds) == 1 and len(commutants) == 1
