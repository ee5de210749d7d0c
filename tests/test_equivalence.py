"""Frame-transition equivalence across target families."""

import random
from fractions import Fraction

import pytest

from cartanext import catalog, classify
from cartanext.catalog import build_graded, build_pair, direct_sum_pairs
from cartanext.equivalence import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNDECIDED,
    _is_automorphism,
    _quotient_action_on_m,
    frames_equivalent,
)
from cartanext.errors import InputError
from cartanext.extension import validate
from cartanext.linalg import Mat, invert, matrix_rank
from conftest import reference_quotient_action_on_m, with_frame

F = Fraction


@pytest.fixture(scope="module")
def conformal_witness():
    pair = build_pair("so_block", {"a": 1, "b": 2, "c": 0, "d": 0})
    target = build_graded("conformal", {"p": 0, "q": 2})
    ext = classify.standard_witness(pair, target)
    assert validate(ext).passed
    return ext


@pytest.fixture(scope="module")
def two_factor_conformal_witness():
    base = build_pair("so_block", {"a": 1, "b": 2, "c": 0, "d": 0})
    pair = direct_sum_pairs([base, base])
    target = build_graded("conformal", {"p": 0, "q": 4})
    ext = classify.standard_witness(pair, target)
    assert validate(ext).passed
    return ext


def test_identity_is_equivalent(conformal_witness):
    res = frames_equivalent(conformal_witness, conformal_witness)
    assert res.status == EQUIVALENT and res.sigma_index is None


def test_conformal_scalar_rescale(conformal_witness):
    for s in (F(2), F(-3), F(5, 7)):
        other = with_frame(conformal_witness, Mat.identity(2).scale(s))
        assert frames_equivalent(conformal_witness, other).status == EQUIVALENT


def test_conformal_per_factor_scaling_fails(two_factor_conformal_witness):
    ext = two_factor_conformal_witness
    other = with_frame(ext, Mat.diag([1, 1, 2, 2]))
    assert frames_equivalent(ext, other, autos=()).status == NOT_EQUIVALENT
    uniform = with_frame(ext, Mat.diag([2, 2, 2, 2]))
    assert frames_equivalent(ext, uniform).status == EQUIVALENT


def test_projective_always_equivalent():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    target = build_graded("projective", {"n": 3})
    ext = classify.standard_witness(pair, target)
    rng = random.Random(5)
    while True:
        frame = Mat.from_rows(
            [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        )
        if matrix_rank(frame) == 3:
            break
    assert frames_equivalent(ext, with_frame(ext, frame)).status == EQUIVALENT


def test_grassmannian_tensor_frames():
    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    target = build_graded("grassmannian", {"p": 2, "q": 2})
    ext = classify.inclusion_witness(pair, target)
    a = Mat.from_rows([[1, 1], [0, 1]])
    b = Mat.from_rows([[2, 0], [1, 1]])
    ainv = invert(a)
    t = Mat.from_rows(
        [[b[r, rp] * ainv[cp, c] for rp in range(2) for cp in range(2)]
         for r in range(2) for c in range(2)]
    )
    good = with_frame(ext, t @ ext.frame())
    assert frames_equivalent(ext, good).status == EQUIVALENT
    rows = Mat.identity(4).to_rows()
    rows[0][3], rows[3][0], rows[0][0] = F(1), F(1), F(2)
    bad = with_frame(ext, Mat.from_rows(rows) @ ext.frame())
    assert frames_equivalent(ext, bad).status == NOT_EQUIVALENT


def test_su_pp_family_is_undecided():
    pair = build_pair("so_complex", {"n": 2})
    v = classify.verify_family_row("su_pp", pair)
    ext = v.witness
    res = frames_equivalent(ext, ext)
    assert res.status == UNDECIDED


def test_automorphism_twist_recovers_equivalence():
    # swapping the two sp(2,R) factors acts on the tangent block by a
    # transpose-type map, which is not a pure tensor; only the twist saves it
    pair = build_pair("sp_block", {"p": 1, "q": 1})
    target = build_graded("grassmannian", {"p": 2, "q": 2})
    ext = classify.inclusion_witness(pair, target)
    amb = pair.k_algebra.ambient_size
    perm = [F(0)] * (amb * amb)
    for new, old in enumerate([2, 3, 0, 1]):
        perm[new * amb + old] = F(1)
    u = Mat(amb, amb, perm)
    sigma = pair.k_algebra.coordinate_matrix(u @ b @ invert(u) for b in pair.k_algebra.basis)
    assert sigma is not None
    sigma_m = Mat.from_rows(
        [[sigma[r, c] for c in pair.m_indices] for r in pair.m_indices]
    )
    assert _quotient_action_on_m(ext, sigma) == sigma_m
    assert reference_quotient_action_on_m(ext, sigma) == sigma_m
    swapped = with_frame(ext, sigma_m @ ext.frame())
    res_plain = frames_equivalent(ext, swapped, autos=())
    assert res_plain.status == NOT_EQUIVALENT
    res_twist = frames_equivalent(ext, swapped, autos=(sigma,))
    assert res_twist.status == EQUIVALENT and res_twist.sigma_index == 0


def test_reflexive_and_symmetric_on_samples():
    rng = random.Random(17)
    samples = []
    pair = build_pair("so_block", {"a": 1, "b": 2, "c": 0, "d": 0})
    target = build_graded("conformal", {"p": 0, "q": 2})
    base = classify.standard_witness(pair, target)
    for _ in range(8):
        s = F(rng.randint(1, 5))
        samples.append((base, with_frame(base, Mat.identity(2).scale(s))))
    gpair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    gtarget = build_graded("grassmannian", {"p": 2, "q": 2})
    gext = classify.inclusion_witness(gpair, gtarget)
    for _ in range(6):
        while True:
            frame = Mat.from_rows(
                [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            )
            if matrix_rank(frame) == 4:
                break
        samples.append((gext, with_frame(gext, frame)))
    ppair = build_pair("group_type", {"base": "sl(2,R)"})
    ptarget = build_graded("projective", {"n": 3})
    pext = classify.standard_witness(ppair, ptarget)
    for _ in range(6):
        while True:
            frame = Mat.from_rows(
                [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            )
            if matrix_rank(frame) == 3:
                break
        samples.append((pext, with_frame(pext, frame)))
    assert len(samples) >= 20
    for e1, e2 in samples:
        assert frames_equivalent(e1, e1).status == EQUIVALENT
        assert frames_equivalent(e2, e2).status == EQUIVALENT
        fwd = frames_equivalent(e1, e2)
        bwd = frames_equivalent(e2, e1)
        assert fwd.status == bwd.status


def test_twist_that_moves_h_is_skipped():
    # Ad(diag(g, 1)) on so(3)+so(3) is an automorphism that does not preserve
    # the diagonal h.  Its m block S would make the frame S^-1 equivalent, so
    # only skipping the twist gives NOT_EQUIVALENT.
    pair = build_pair("group_type", {"base": "so(3)"})
    ext = classify.standard_witness(pair, build_graded("conformal", {"p": 0, "q": 3}))
    amb = pair.k_algebra.ambient_size
    u = Mat.identity(amb).to_rows()
    u[0][:3], u[1][:3], u[2][:3] = [0, 0, 1], [1, 0, 0], [0, 1, 0]
    u = Mat.from_rows(u)
    sigma = pair.k_algebra.coordinate_matrix(u @ b @ invert(u) for b in pair.k_algebra.basis)
    assert _is_automorphism(pair, sigma)
    assert _quotient_action_on_m(ext, sigma) is None
    assert reference_quotient_action_on_m(ext, sigma) is None
    s = sigma.submatrix(pair.m_indices, pair.m_indices)
    other = with_frame(ext, ext.frame() @ invert(s))
    res = frames_equivalent(ext, other, autos=(sigma,))
    assert res.status == NOT_EQUIVALENT and res.sigma_index is None


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 1)])
def test_wrong_shaped_twist_is_an_input_error(conformal_witness, shape):
    assert conformal_witness.pair.dim == 3
    with pytest.raises(InputError, match="wrong shape"):
        frames_equivalent(conformal_witness, conformal_witness, autos=(Mat.zero(*shape),))
