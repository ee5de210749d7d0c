"""Extension engine: axioms, curvature, torsion, holomorphy, normalization."""

import dataclasses
from fractions import Fraction

import pytest

from cartanext import catalog, classify, extension
from cartanext.catalog import build_graded, build_pair
from cartanext.errors import InputError, InternalCheckError, StructuralError
from cartanext.extension import (
    Curvature,
    Extension,
    _assert_b2_equivariant,
    curvature,
    dstar_projective,
    is_flat,
    is_holomorphic,
    projective_normalization_operator,
    solve_projective_b2,
    torsion_free,
    validate,
)
from cartanext.linalg import Mat, matrix_rank
from conftest import apply, reference_dstar_projective, reference_equivariance_witnesses

F = Fraction


@pytest.fixture(scope="module")
def projective_witness_sl2():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    target = build_graded("projective", {"n": 3})
    return classify.standard_witness(pair, target, label="gt(sl2R)->projective")


def test_validate_passes_for_standard_witness(projective_witness_sl2):
    report = validate(projective_witness_sl2)
    assert report.passed
    assert set(report.axioms) == {
        "alpha_h_in_g0",
        "alpha_m_zero_g0_component",
        "frame_invertible",
        "equivariance",
    }


def test_structural_error_on_dimension_mismatch():
    pair = build_pair("group_type", {"base": "sl(2,R)"})  # dim m = 3
    target = build_graded("projective", {"n": 2})  # dim g_-1 = 2
    ext = Extension(pair, target, Mat.zero(target.dim, pair.dim))
    with pytest.raises(StructuralError):
        validate(ext)


def test_validate_catches_nonzero_g0_component(projective_witness_sl2):
    ext = projective_witness_sl2
    rows = ext.alpha.to_rows()
    rows[ext.target.zero[0]][ext.pair.m_indices[0]] = F(1)
    bad = Extension(ext.pair, ext.target, Mat.from_rows(rows))
    report = validate(bad)
    assert not report.axioms["alpha_m_zero_g0_component"].ok
    assert report.axioms["alpha_m_zero_g0_component"].witnesses


def test_validate_catches_singular_frame(projective_witness_sl2):
    ext = projective_witness_sl2
    rows = ext.alpha.to_rows()
    for r in ext.target.minus_one:
        rows[r][ext.pair.m_indices[0]] = F(0)
    bad = Extension(ext.pair, ext.target, Mat.from_rows(rows))
    assert not validate(bad).axioms["frame_invertible"].ok


def test_homomorphism_gives_zero_curvature():
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    target = build_graded("grassmannian", {"p": 2, "q": 2})
    ext = classify.inclusion_witness(pair, target)
    assert validate(ext).passed
    assert is_flat(ext)


def test_projective_witness_curvature(projective_witness_sl2):
    kappa = curvature(projective_witness_sl2)
    # with zero b2 the whole curvature sits in grade zero and is nonzero
    assert kappa.component_zero(-1)
    assert kappa.component_zero(1)
    assert not kappa.is_zero()
    assert torsion_free(projective_witness_sl2, kappa)
    assert not is_flat(projective_witness_sl2, kappa)


def test_curvature_antisymmetry_and_equivariance(projective_witness_sl2):
    kappa = curvature(projective_witness_sl2)
    for a in range(3):
        for b in range(3):
            va = kappa.get(a, b)
            vb = kappa.get(b, a)
            assert va == [-x for x in vb]
    assert reference_equivariance_witnesses(kappa) == []


def test_graded_rescale_commutes_with_curvature(projective_witness_sl2):
    # the grading dilation acting by s^-k on grade k is an automorphism
    ext = projective_witness_sl2
    s = F(3, 2)
    op = Mat.diag([s ** -ext.target.grade_of(i) for i in range(ext.target.dim)])
    rescaled = ext.map_alpha(op)
    k0 = curvature(ext)
    k1 = curvature(rescaled)
    for key, vec in k0.values.items():
        assert k1.values[key] == apply(op, vec)


def test_b2_solution_unique_and_normalizing(projective_witness_sl2):
    sol = solve_projective_b2(projective_witness_sl2)
    assert sol.homogeneous_kernel_trivial
    assert not sol.b2.is_zero()
    assert all(all(x == 0 for x in vec) for vec in dstar_projective(sol.extension))
    assert validate(sol.extension).passed
    assert torsion_free(sol.extension)
    # every corrupted b2 fails the equivariance check, as it fails on the
    # blocks of the dense ad(alpha(h))
    _assert_b2_equivariant(sol.extension, sol.b2)
    target, alpha = sol.extension.target, sol.extension.alpha
    ads = [target.algebra.constants.ad_of_coords(alpha.col(h))
           for h in sol.extension.pair.h_indices]
    n = target.dim_gm1
    for k in range(n):
        for j in range(n):
            bad = sol.b2 + Mat.unit(n, n, k, j)
            assert any(bad @ ad.submatrix(target.minus_one, target.minus_one)
                       != ad.submatrix(target.plus_one, target.plus_one) @ bad for ad in ads)
            with pytest.raises(InternalCheckError, match="solved b2 is not equivariant"):
                _assert_b2_equivariant(sol.extension, bad)


def _recorded_curvature(monkeypatch, corrupt_call=None):
    """Patch extension.curvature to record the extensions it is called on;
    the result of call number `corrupt_call` (from 1) comes back corrupted."""
    calls = []
    real = extension.curvature

    def recorded(ext):
        calls.append(ext)
        kappa = real(ext)
        return _corrupted(kappa) if len(calls) == corrupt_call else kappa

    monkeypatch.setattr(extension, "curvature", recorded)
    return calls


def _corrupted(kappa):
    """kappa with its first g_-1 coordinate raised by 1 on every pair."""
    t = kappa.ext.target.minus_one[0]
    return Curvature(kappa.ext, {key: [x + 1 if i == t else x for i, x in enumerate(vec)]
                                 for key, vec in kappa.values.items()})


def test_caller_built_curvature_is_read_from_its_own_values(projective_witness_sl2):
    """A Curvature built from caller-given dense values evaluates and feeds
    the contraction, torsion and flatness from those values, also after they
    are changed in place, never from another kappa of the same extension."""
    ext = projective_witness_sl2
    real = curvature(ext)
    n, dim = ext.pair.dim_m, ext.target.dim
    units = [[int(t == s) for t in range(n)] for s in range(n)]
    mutated = _corrupted(real)
    for a in range(n):
        for b in range(n):
            assert mutated.evaluate(units[a], units[b]) == mutated.get(a, b)
    assert mutated.evaluate(units[0], units[1]) != real.evaluate(units[0], units[1])
    assert dstar_projective(ext, mutated) == reference_dstar_projective(ext, mutated)
    assert dstar_projective(ext, mutated) != dstar_projective(ext, real)
    assert torsion_free(ext, real) and not torsion_free(ext, mutated)
    zero = Curvature(ext, {key: [F(0)] * dim for key in real.values})
    assert is_flat(ext, zero) and not is_flat(ext, real)
    assert zero.evaluate(units[0], units[1]) == [0] * dim
    assert dstar_projective(ext, zero) == [[0] * dim for _ in range(n)]
    before = dstar_projective(ext, real)
    real.values[(0, 1)][ext.target.minus_one[0]] += 1
    assert real.evaluate(units[0], units[1]) == real.values[(0, 1)]
    assert dstar_projective(ext, real) == reference_dstar_projective(ext, real) != before
    assert not torsion_free(ext, real)


@pytest.mark.parametrize("base", ["sl(2,R)", "sl(3,R)"])
def test_decide_projective_computes_each_curvature_once(monkeypatch, base):
    calls = _recorded_curvature(monkeypatch)
    verdict = classify.decide_projective(build_pair("group_type", {"base": base}))
    assert verdict.verdict == classify.EXISTS
    # the unnormalized extension (right-hand side of the b2 system), then the
    # normalized one, whose curvature serves the contraction and torsion checks
    assert len(calls) == 2
    assert calls[1].alpha == verdict.witness.alpha


def test_corrupted_curvature_fails_the_contraction_check(monkeypatch, projective_witness_sl2):
    _recorded_curvature(monkeypatch, corrupt_call=2)
    with pytest.raises(InternalCheckError, match="normalized contraction is not zero"):
        solve_projective_b2(projective_witness_sl2)


def test_corrupted_curvature_fails_the_torsion_check(monkeypatch):
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    sol = solve_projective_b2(classify.decide_projective(pair).witness)
    assert torsion_free(sol.extension, sol.kappa)
    assert not torsion_free(sol.extension, _corrupted(sol.kappa))
    real = classify.solve_projective_b2

    def corrupted_solution(ext):
        sol = real(ext)
        return dataclasses.replace(sol, kappa=_corrupted(sol.kappa))

    monkeypatch.setattr(classify, "solve_projective_b2", corrupted_solution)
    with pytest.raises(InternalCheckError, match="projective witness has torsion"):
        classify.decide_projective(pair)


def test_b2_zero_for_flat_inclusion():
    pair = build_pair("sl_block", {"p": 1, "q": 1})
    target = build_graded("projective", {"n": 2})
    ext = classify.standard_witness(pair, target)
    base = curvature(ext)
    sol = solve_projective_b2(ext)
    if base.is_zero():
        assert sol.b2.is_zero()
    # either way the normalized contraction vanishes
    assert all(all(x == 0 for x in vec) for vec in dstar_projective(sol.extension))


def test_b2_rejects_wrong_family():
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    target = build_graded("grassmannian", {"p": 2, "q": 2})
    ext = classify.inclusion_witness(pair, target)
    with pytest.raises(InputError):
        solve_projective_b2(ext)


def test_b2_rejects_degenerate_rank():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    # fake a rank-1 request by restricting to a 1-dim target
    target = build_graded("projective", {"n": 1})
    sub = build_pair("sl_block", {"p": 1, "q": 1})
    # dim m of sl_block(1,1) is 2, so build a synthetic 1-dim mismatch instead
    with pytest.raises(InputError):
        solve_projective_b2(
            Extension(sub, target, Mat.zero(target.dim, sub.dim))
        )


def test_normalization_homogeneous_pattern():
    # the homogeneous system has rows n*b[k,j] - b[j,k] in the elementary bases
    for n in (2, 3):
        target = build_graded("projective", {"n": n})
        op, meta = projective_normalization_operator(target)
        assert meta == {"equations": n * n, "unknowns": n * n}
        expected = [[F(0)] * (n * n) for _ in range(n * n)]
        for j in range(n):
            for k in range(n):
                row = j * n + k
                expected[row][k * n + j] += F(n)
                expected[row][j * n + k] -= F(1)
        assert op == Mat.from_rows(expected)


def test_normalization_operator_is_built_once_per_target(monkeypatch):
    from functools import lru_cache

    from cartanext.cli import default_manifest, run_verify_catalog
    # fresh targets, so no operator kept by an earlier test is read
    fresh = lru_cache(maxsize=None)(catalog._build_graded_cached.__wrapped__)
    monkeypatch.setattr(catalog, "_build_graded_cached", fresh)
    got = []
    memoized = extension.projective_normalization_operator

    def recorded(target):
        got.append((target, memoized(target)))
        return got[-1][1]

    monkeypatch.setattr(extension, "projective_normalization_operator", recorded)
    assert run_verify_catalog(default_manifest(), seed=0)["overall"] == "PASS"
    assert len(got) == 18
    # one operator object per target: 5 builds
    assert len({id(t) for t, _ in got}) == len({id(op) for _, (op, _) in got}) == 5
    target, (op, meta) = got[0]
    assert (op, meta) == memoized.__wrapped__(target)
    with pytest.raises(TypeError):
        meta["unknowns"] = 0
    copy = dataclasses.replace(target)
    op_copy, _ = memoized(copy)
    assert op_copy == op and op_copy is not op
    assert memoized(copy)[0] is op_copy and memoized(target)[0] is op


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalization_kernel_trivial(n):
    target = build_graded("projective", {"n": n})
    op, _ = projective_normalization_operator(target)
    assert matrix_rank(op) == n * n


def test_conformal_extension_over_split_block_pair():
    # the Killing restriction of (so(2,2), so(1,1)+so(1,1)) is diagonal with
    # signs (-,+,+,-), so a permutation frame realizes the (2,2) reduction
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    target = build_graded("conformal", {"p": 2, "q": 2})
    frame = Mat.zero(4, 4)
    entries = list(frame.entries)
    for slot, source in ((0, 1), (1, 2), (2, 0), (3, 3)):
        entries[slot * 4 + source] = F(1)
    ext = classify.standard_witness(pair, target, Mat(4, 4, entries))
    assert validate(ext).passed
    assert torsion_free(ext)


def test_inclusion_so23_into_sl5():
    # conformal-model pair of so(2,3) into the rank-3 two-column grading
    pair = build_pair("conformal_model", {"k": 1, "l": 2})
    verdict = classify.verify_family_row("para_quaternionic", pair)
    assert verdict.verdict == classify.EXISTS
    assert verdict.witness.target.algebra.ambient_size == 5
    assert validate(verdict.witness).passed
    assert is_flat(verdict.witness)


def test_holomorphy_input_validation(projective_witness_sl2):
    ext = projective_witness_sl2
    with pytest.raises(InputError):
        is_holomorphic(ext, Mat.identity(ext.pair.dim), Mat.identity(ext.target.dim))


def test_holomorphy_of_h_projective_witness():
    pair = build_pair("group_type", {"base": "sl(2,C)"})
    verdict = classify.decide_h_projective(pair)
    assert verdict.verdict == classify.EXISTS
    j_pair = verdict.complex_structure
    j_target = classify.coordinate_complex_structure(verdict.witness.target)
    res = is_holomorphic(verdict.witness, j_pair, j_target)
    assert res.holomorphic
    assert res.conjugate is not None
    # the conjugate fails against +J but matches -J
    assert not is_holomorphic(res.conjugate, j_pair, j_target).holomorphic
    assert is_holomorphic(res.conjugate, -j_pair, j_target).holomorphic


def test_holomorphy_broken_by_perturbation():
    pair = build_pair("group_type", {"base": "sl(2,C)"})
    verdict = classify.decide_h_projective(pair)
    j_pair = verdict.complex_structure
    j_target = classify.coordinate_complex_structure(verdict.witness.target)
    ext = verdict.witness
    rows = ext.alpha.to_rows()
    r = ext.target.minus_one[0]
    c = ext.pair.m_indices[0]
    rows[r][c] += F(1)
    bad = Extension(ext.pair, ext.target, Mat.from_rows(rows))
    assert not is_holomorphic(bad, j_pair, j_target).holomorphic
