"""Verdict branches of classify, equivalence and cli, each reached by an
input built for it and pinned with its verdict and reason.  Pairs made
through the catalog's assemblers, or as `dataclasses.replace` copies of
catalog pairs, reach the branches that no catalog pair does."""

import dataclasses
import json
from fractions import Fraction

import pytest

from cartanext import bases, classify, equivalence, io
from cartanext.catalog import _assemble_pair, _pair_from_involution, build_graded, build_pair
from cartanext.cli import main
from cartanext.equivalence import EQUIVALENT, NOT_EQUIVALENT, frames_equivalent
from cartanext.errors import InputError
from cartanext.extension import Extension, validate
from cartanext.lie import Representation, invariant_complex_structures, make_algebra
from cartanext.linalg import Mat, block_matrix, invert
from conftest import with_frame


def _verdict(v):
    return v.verdict, v.reason


def _gl2():
    """gl(2) with sigma = Ad(diag(1, -1)): its centre makes it not semisimple."""
    unit = lambda r, c: Mat.unit(2, 2, r, c)  # noqa: E731
    return _assemble_pair("gl(2)", "gl", {}, [unit(0, 0), unit(1, 1)],
                          [unit(0, 1), unit(1, 0)], Mat.diag([1, -1]))


# -- decide_h_projective and decide_conformal -------------------------------------


def test_a_pair_that_is_not_semisimple_is_undecided():
    pair = _gl2()
    assert _verdict(classify.decide_h_projective(pair)) == ("UNDECIDED", "not semisimple")
    report = classify.decide_conformal(pair)
    assert _verdict(report.verdict) == ("UNDECIDED", "not semisimple")
    assert (report.form_space_dim, report.factor_form_dims, report.cross_blocks_zero,
            report.killing_is_member, report.signatures, report.circle_parameters) == \
        (0, [], False, False, [], 0)


def test_a_complex_structure_that_moves_h_rules_the_structure_out():
    """Realified sl(2,C) with sigma = complex conjugation: h = sl(2,R) and
    m = i sl(2,R), and the centroid's J = +-i swaps them."""
    pair = _pair_from_involution("sl(2,C)/sl(2,R)", "api", {}, bases.complexify(bases.sl_basis(2)),
                                 Mat.diag([1, 1, -1, -1]))
    assert (pair.dim_h, pair.dim_m) == (3, 3)
    assert _verdict(classify.decide_h_projective(pair)) == \
        ("NOT_EXISTS", "no invariant complex structure preserves the subalgebra")


def test_a_centroid_without_a_rational_square_root_of_minus_one_is_undecided():
    """sl(2, Q(sqrt -3)), realified by a + b sqrt(-3) -> [[a, -3b], [b, a]],
    with h = K H: its centroid Q(sqrt -3) holds no x with x^2 = -1."""
    zero = Mat.zero(2, 2)
    basis = []
    for x in (Mat.diag([1, -1]), Mat.unit(2, 2, 0, 1), Mat.unit(2, 2, 1, 0)):
        basis += [block_matrix([[x, zero], [zero, x]]),
                  block_matrix([[zero, x.scale(-3)], [x, zero]])]
    pair = _pair_from_involution("sl(2,Q(sqrt-3))", "api", {}, basis, Mat.diag([1, -1, 1, -1]))
    assert (pair.dim_h, pair.dim_m) == (2, 4)
    assert _verdict(classify.decide_h_projective(pair)) == \
        ("UNDECIDED", "centroid complex structure not rational in this basis")


# -- witnesses ----------------------------------------------------------------------


def test_a_witness_needs_matching_dimensions():
    pair = build_pair("group_type", {"base": "sl(2,R)"})  # dim m = 3
    with pytest.raises(InputError, match="frame dimensions do not match"):
        classify.standard_witness(pair, build_graded("projective", {"n": 2}))
    with pytest.raises(InputError, match="ambient sizes differ"):
        classify.inclusion_witness(pair, build_graded("projective", {"n": 2}))


# -- verify_family_row --------------------------------------------------------------


@pytest.mark.parametrize("family, pair_family, params, reason", [
    ("para_quaternionic", "sp_block", {"p": 2, "q": 1},
     "para-quaternionic witness needs the sp(2,R) factor first"),
    ("para_quaternionic", "so_block", {"a": 1, "b": 2, "c": 0, "d": 0},
     "para-quaternionic rows need a rank-2 first block"),
    ("lagrangean", "group_type", {"base": "sl(2,R)"},
     "Lagrangean rows need a symplectic group-type pair"),
    ("spinorial", "group_type", {"base": "sl(2,R)"},
     "spinorial rows need an orthogonal group-type pair"),
    # complex tokens: the rows read the field off the token grammar
    ("lagrangean", "group_type", {"base": "sp(2,C)"},
     "Lagrangean rows need a symplectic group-type pair"),
    ("spinorial", "group_type", {"base": "so(3,C)"},
     "spinorial rows need an orthogonal group-type pair"),
])
def test_a_row_outside_its_rank_bound_is_undecided(family, pair_family, params, reason):
    verdict = classify.verify_family_row(family, build_pair(pair_family, params))
    assert _verdict(verdict) == ("UNDECIDED", f"rank bound: {reason}")


def test_a_witness_that_fails_its_axioms_is_undecided():
    """so_block(2,1,1,1) relabelled as so_block(2,2,0,1): the inclusion into
    grassmannian(2,3) is built, and it does not respect the grading.  That
    shows the construction does not apply, not that no structure exists."""
    pair = dataclasses.replace(build_pair("so_block", {"a": 2, "b": 1, "c": 1, "d": 1}),
                               params={"a": 2, "b": 2, "c": 0, "d": 1})
    assert _verdict(classify.verify_family_row("grassmannian", pair)) == (
        "UNDECIDED",
        "witness violates axioms ['alpha_h_in_g0', 'alpha_m_zero_g0_component', "
        "'frame_invertible']")


@pytest.mark.parametrize("family, pair_family, params, cert, failed", [
    ("quaternionic", "sp1_block", {"p": 1, "q": 1}, {"type": "quaternion", "I": 3, "J": 4, "K": 5},
     {"squares": [False, False, False], "anticommute": [True, True, True],
      "product_aligned": True}),
    ("para_quaternionic", "sp_block", {"p": 1, "q": 1}, {"type": "split", "H": 1, "E": 0, "F": 2},
     {"squares": [False, True, False], "anticommute": [False, False, False],
      "product_aligned": False}),
])
def test_a_failed_certificate_is_undecided(family, pair_family, params, cert, failed):
    pair = build_pair(pair_family, params)
    assert classify.quaternion_relation_certificate(pair) == \
        {"type": cert["type"], "verified": True, "algebra_dim": 4}
    verdict = classify.verify_family_row(family, dataclasses.replace(pair, certificate_ideal=cert))
    assert _verdict(verdict) == ("UNDECIDED", "quaternion relations failed")
    assert verdict.certificates == [{"type": cert["type"], "verified": False, **failed, "rank": 4}]


def test_a_certificate_needs_a_designated_ideal():
    with pytest.raises(InputError, match="pair carries no designated certificate ideal"):
        classify.quaternion_relation_certificate(build_pair("so_star", {"n": 2}))


# -- frames_equivalent --------------------------------------------------------------


@pytest.mark.parametrize("base", ["sl(2,C)", "sl(3,C)", "so(5,C)"])
def test_h_projective_frames_are_equivalent_exactly_when_complex_linear(base):
    """J and -J give the two conjugate classes: the transition between their
    witnesses is antilinear.  Reframing by (I + 2J), complex linear, stays in
    the class."""
    pair = build_pair("group_type", {"base": base})
    verdict = classify.decide_h_projective(pair)
    plus, minus = verdict.witness, verdict.conjugate_witness
    assert frames_equivalent(plus, minus).status == NOT_EQUIVALENT
    assert frames_equivalent(minus, plus).status == NOT_EQUIVALENT
    j = equivalence._gm1_complex_structure(plus.target)
    reframe = Mat.identity(j.rows) + j.scale(2)
    for w in (plus, minus):
        other = classify.standard_witness(pair, w.target, reframe @ w.frame())
        assert validate(other).passed
        assert frames_equivalent(w, other).status == EQUIVALENT
    assert frames_equivalent(plus, classify.standard_witness(
        pair, plus.target, reframe @ minus.frame())).status == NOT_EQUIVALENT


@pytest.mark.parametrize("family, pair_family, params", [
    ("grassmannian", "so_block", {"a": 1, "b": 1, "c": 1, "d": 1}),
    ("spinorial", "group_type", {"base": "so(2,1)"}),
])
def test_a_singular_frame_is_not_equivalent(family, pair_family, params):
    pair = build_pair(pair_family, params)
    witness = classify.verify_family_row(family, pair).witness
    singular = Extension(pair, witness.target, Mat.zero(witness.target.dim, pair.dim))
    assert frames_equivalent(witness, singular).status == NOT_EQUIVALENT


def test_frames_must_share_the_pair_and_the_target():
    w = classify.verify_family_row(
        "grassmannian", build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})).witness
    other_pair = build_pair("sp_block", {"p": 1, "q": 1})
    with pytest.raises(InputError, match="extensions must share the same pair"):
        frames_equivalent(w, Extension(other_pair, w.target, Mat.zero(w.target.dim, other_pair.dim)))
    target = build_graded("projective", {"n": 4})
    with pytest.raises(InputError, match="extensions must share the target family and ranks"):
        frames_equivalent(w, Extension(w.pair, target, Mat.zero(target.dim, w.pair.dim)))


def test_a_twist_that_is_no_automorphism_is_skipped(monkeypatch):
    """On so_block(1,1,1,1) -> grassmannian(2,2), the frame times
    S = diag(1, 1, 1, 2), not a Kronecker product, is no second frame of the
    class.  The twist that is the identity on h and S^-1 on m would carry
    one frame to the other, but it is no automorphism of k, so it is skipped
    and only the identity twist is tested."""
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    witness = classify.verify_family_row("grassmannian", pair).witness
    s = Mat.diag([1, 1, 1, 2])
    other = with_frame(witness, witness.frame() @ s)
    sigma = Mat.diag([1] * pair.dim_h + [1, 1, 1, Fraction(1, 2)])
    assert not equivalence._is_automorphism(pair, sigma)
    tested = []
    predicate = equivalence._PREDICATES["grassmannian"]
    monkeypatch.setitem(equivalence._PREDICATES, "grassmannian",
                        lambda t, target: tested.append(t) or predicate(t, target))
    result = frames_equivalent(witness, other, [sigma])
    assert (result.status, result.sigma_index, len(tested)) == (NOT_EQUIVALENT, None, 1)
    assert predicate(witness.frame() @ s @ sigma.submatrix(pair.m_indices, pair.m_indices)
                     @ invert(witness.frame()), witness.target)


# -- invariant_complex_structures ---------------------------------------------------


def test_a_quaternion_algebra_without_a_rational_unit_is_undecided():
    """D = (-2, -5)_Q, i^2 = -2, j^2 = -5, k = ij, acting on itself by left
    multiplication: the commutant, right multiplication by D, is of type H.
    A pure x = b i + c j + d k squares to -(2b^2 + 5c^2 + 10d^2), and
    2B^2 + 5C^2 + 10D^2 = E^2 has no nonzero integer solution (2 and -2 are
    not squares mod 5, so 5 divides each of B, C, D and E), so no rational
    J with J^2 = -1 exists."""
    table = {"1": {"1": (1, "1"), "i": (1, "i"), "j": (1, "j"), "k": (1, "k")},
             "i": {"1": (1, "i"), "i": (-2, "1"), "j": (1, "k"), "k": (-2, "j")},
             "j": {"1": (1, "j"), "i": (-1, "k"), "j": (-5, "1"), "k": (5, "i")},
             "k": {"1": (1, "k"), "i": (2, "j"), "j": (-5, "i"), "k": (-10, "1")}}
    units = "1ijk"

    def left(x):
        return Mat.from_sparse(4, 4, {units.index(table[x][y][1]): {c: table[x][y][0]}
                                      for c, y in enumerate(units)})

    action = [left(x) for x in "ijk"]
    rep = Representation(make_algebra(action, "D_pure"), 4, action)
    result = invariant_complex_structures(rep)
    assert (result.status, result.structures, result.label, result.note) == \
        ("undecided", [], "H", "no rational unit found")


# -- cli ------------------------------------------------------------------------------


def _write(path, data):
    path.write_text(io.canonical_dumps(data))
    return str(path)


def test_an_empty_params_piece_is_skipped(capsys):
    assert main(["build", "--family", "projective", "--params", "n=2,,"]) == 0
    assert main(["build", "--family", "projective", "--params", "n=2"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


def test_a_build_that_fails_its_invariants_exits_1(capsys):
    assert main(["build", "--family", "group_type", "--params", "base=so(2)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant failures: h contains a nonzero ideal of dimension 1\n"


def test_b2_is_not_unique_at_complex_rank_1(tmp_path, capsys):
    """S^2 = (so(3), so(2)) framed into h_projective(1) passes its axioms, and
    the normalization is not defined at complex rank 1."""
    pair = build_pair("so_block", {"a": 2, "b": 1, "c": 0, "d": 0})
    j = Mat.from_sparse(3, 3, {1: {2: 1}, 2: {1: -1}})
    witness = classify.standard_witness(pair, build_graded("h_projective", {"n": 1}),
                                        classify.complex_adapted_frame(pair, j))
    path = _write(tmp_path / "ext.json", io.extension_to_json(witness))
    assert main(["check-extension", "--extension", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (all(report["axioms"].values()), report["b2_unique"]) == (True, False)


def _verdict_of(capsys):
    data = json.loads(capsys.readouterr().out)
    return data["verdict"], data["reason"]


def test_classify_conformal_and_a_row_family(tmp_path, capsys):
    so2 = _write(tmp_path / "so2.json", io.pair_to_json(build_pair("group_type", {"base": "so(2)"})))
    assert main(["classify", "--pair", so2, "--family", "conformal"]) == 0
    assert _verdict_of(capsys) == ("UNDECIDED", "not semisimple")
    sl2 = _write(tmp_path / "sl2.json",
                 io.pair_to_json(build_pair("group_type", {"base": "sl(2,R)"})))
    assert main(["classify", "--pair", sl2, "--family", "conformal"]) == 0
    assert _verdict_of(capsys) == ("EXISTS", "Killing form restricts nondegenerately")
    block = _write(tmp_path / "block.json",
                   io.pair_to_json(build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})))
    assert main(["classify", "--pair", block, "--family", "grassmannian", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert "Verdict: **EXISTS** (flat inclusion witness)." in out
    assert "Instantiates: the listed pairs carry a unique Grassmannian-type structure" in out


def test_a_verification_error_exits_1(tmp_path, capsys):
    """An extension whose pair has dim m = 3 into projective(2), dim g_-1 = 2:
    validation raises a StructuralError, which is no input error."""
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    target = build_graded("projective", {"n": 2})
    path = _write(tmp_path / "ext.json",
                  io.extension_to_json(Extension(pair, target, Mat.zero(target.dim, pair.dim))))
    assert main(["check-extension", "--extension", path]) == 1
    assert capsys.readouterr().err == ("verification error: no grading-compatible structure "
                                      "possible: dim m = 3 but dim g_-1 = 2\n")
