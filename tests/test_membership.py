"""G_0-membership predicates of `equivalence` against the ones they replaced.

The Lagrangean and quaternionic predicates are normalizer tests, the
conformal pair shares one form test, and the spinorial predicate builds its
systems sparsely; the verbatim predicates in `conftest.py` decide the same
candidates.  The candidates are G_0 elements (Ad of ambient
group elements, or maps built in g_-1 coordinates), one-entry perturbations
of them, random invertible maps and signed permutations.  Each family with a
bespoke predicate kept has a map that normalizes rho(g_0) and lies outside
G_0; those are pinned here too.  `frames_equivalent` is checked on the
Lagrangean and quaternionic row witnesses, re-framed by G_0 elements and by
perturbations of them.
"""

import random
from fractions import Fraction

import pytest

from cartanext import bases, classify
from cartanext.catalog import build_graded, build_pair, default_graded_grid
from cartanext.classify import g0_action_solver
from cartanext.equivalence import (_PREDICATES, EQUIVALENT, NOT_EQUIVALENT, _normalizes,
                                   frames_equivalent)
from cartanext.linalg import Mat, invert, matrix_rank
from conftest import (reference_predicate_complex_conformal, reference_predicate_conformal,
                      reference_predicate_lagrangean, reference_predicate_quaternionic,
                      reference_predicate_spinorial, with_frame)

F = Fraction

REFERENCES = {
    "lagrangean": reference_predicate_lagrangean,
    "quaternionic": reference_predicate_quaternionic,
    "conformal": reference_predicate_conformal,
    "complex_conformal": reference_predicate_complex_conformal,
    "spinorial": reference_predicate_spinorial,
}


def _random_ints(rng, rows, cols, low=-2, high=2):
    return Mat.from_rows([[rng.randint(low, high) for _ in range(cols)] for _ in range(rows)])


def _random_invertible(rng, n, low=-2, high=2):
    while True:
        m = _random_ints(rng, n, n, low, high)
        if matrix_rank(m) == n:
            return m


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for r, c in enumerate(perm):
        rows[r][c] = rng.choice((-1, 1))
    return Mat.from_rows(rows)


def _block_diag(*blocks):
    size = sum(b.rows for b in blocks)
    rows = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[off + i][off + j] = b[i, j]
        off += b.rows
    return Mat.from_rows(rows)


def ad_on_gm1(target, g):
    """X -> g X g^-1 on g_-1, in its coordinates, for an ambient g in G_0."""
    ginv = invert(g)
    basis = target.algebra.basis
    coords = target.algebra.coordinate_matrix(g @ basis[i] @ ginv for i in target.minus_one)
    assert coords is not None and set(coords.sparse) <= set(target.minus_one)
    return coords.submatrix(target.minus_one, range(coords.cols))


def _lagrangean_element(rng, target):
    """diag(A, c A^-T), which scales the symplectic form by c (and, on
    spinorial targets, the split orthogonal form)."""
    n = target.params["n"]
    a = _random_invertible(rng, n)
    c = rng.choice((1, -1, 2, F(-1, 3)))
    return ad_on_gm1(target, _block_diag(a, invert(a).transpose().scale(c)))


def _quaternionic_element(rng, target):
    """Realified diag(q, A) with q in H* and A in GL(n, H)."""
    n = target.params["n"]
    m = n + 1
    while True:
        parts = []
        for _ in range(4):
            q = Mat.from_rows([[rng.randint(-1, 1)]])
            parts.append(_block_diag(q, _random_ints(rng, n, n, -1, 1)))
        g = bases.realify_quaternion(parts)
        if matrix_rank(g) == 4 * m:
            return ad_on_gm1(target, g)


def _cayley(k):
    """(1 - K)(1 + K)^-1, or None when 1 + K is singular."""
    one = Mat.identity(k.rows)
    if matrix_rank(one + k) < k.rows:
        return None
    return (one - k) @ invert(one + k)


def _conformal_element(rng, target):
    """c R with R in O(p, q) (a Cayley transform times a signed permutation
    inside the sign blocks), for p == q sometimes times the block swap."""
    p, q = target.params["p"], target.params["q"]
    n = p + q
    gram = Mat.diag([1] * p + [-1] * q)
    while True:
        s = _random_ints(rng, n, n)
        rot = _cayley(gram @ (s - s.transpose()))
        if rot is not None:
            break
    flips = [_signed_permutation(rng, k) for k in (p, q) if k]
    t = rot @ _block_diag(*flips).scale(rng.choice((1, -2, F(1, 3))))
    if p == q and rng.random() < 0.5:
        swap = Mat.from_rows([[1 if c == (r + p) % n else 0 for c in range(n)] for r in range(n)])
        t = t @ swap
    return t


def _complex_block(a, b):
    return Mat.from_rows([[a, -b], [b, a]])


def _realify(entries, n):
    """The n x n complex matrix {(r, s): (re, im)} on the (r, comp) layout."""
    blocks = [[_complex_block(*entries.get((r, s), (0, 0))) for s in range(n)] for r in range(n)]
    return Mat.from_rows([[blocks[r][s][i, j] for s in range(n) for j in range(2)]
                          for r in range(n) for i in range(2)])


def _complex_conformal_element(rng, target):
    """c R, R complex orthogonal (a Cayley transform), possibly composed
    with complex conjugation."""
    n = target.params["n"]
    while True:
        skew = {}
        for r in range(n):
            for s in range(r + 1, n):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                skew[(r, s)], skew[(s, r)] = (a, b), (-a, -b)
        rot = _cayley(_realify(skew, n))
        if rot is not None:
            break
    c = (rng.choice((1, -1, 2)), rng.choice((0, 1, -1)))
    t = rot @ _realify({(r, r): c for r in range(n)}, n)
    if rng.random() < 0.5:
        t = t @ Mat.diag([1, -1] * n)
    return t


ELEMENTS = {
    "lagrangean": _lagrangean_element,
    "quaternionic": _quaternionic_element,
    "conformal": _conformal_element,
    "complex_conformal": _complex_conformal_element,
    "spinorial": _lagrangean_element,
}

SWEEP = ([("lagrangean", {"n": n}) for n in range(1, 5)]
         + [("quaternionic", {"n": n}) for n in range(1, 4)]
         + [(f, p) for f, p in default_graded_grid() if f == "conformal"]
         + [("complex_conformal", {"n": n}) for n in range(1, 4)]
         + [("spinorial", {"n": n}) for n in (3, 4)])


def _candidates(rng, family, target, count):
    """(candidate, is a G_0 element by construction) pairs."""
    out = []
    d = target.dim_gm1
    for _ in range(count):
        t = ELEMENTS[family](rng, target)
        out.append((t, True))
        rows = t.to_rows()
        rows[rng.randrange(d)][rng.randrange(d)] += rng.choice((-1, 1))
        out.append((Mat.from_rows(rows), False))
    for _ in range(count // 2):
        out.append((_random_invertible(rng, d), False))
        out.append((_signed_permutation(rng, d), False))
    return out


@pytest.mark.parametrize("family,params", SWEEP, ids=lambda x: str(x))
def test_predicate_agrees_with_reference(family, params):
    target = build_graded(family, params)
    predicate, reference = _PREDICATES[family], REFERENCES[family]
    rng = random.Random(f"{family}{sorted(params.items())}")
    accepted = rejected = 0
    for t, positive in _candidates(rng, family, target, 10):
        want = reference(t, target)
        assert predicate(t, target) == want
        if positive:
            assert want, "a G_0 element was rejected"
        accepted += want
        rejected += not want
    assert accepted >= 10
    # on a line, and on spinorial(3), where Lambda^2 R^3 is the dual of R^3,
    # G_0 is every invertible map
    if target.dim_gm1 > 1 and (family, params) != ("spinorial", {"n": 3}):
        assert rejected >= 10


def _rho_g0(target):
    rho = g0_action_solver(target)
    n = target.dim_gm1
    return [Mat(n, n, rho.col(c)) for c in range(rho.cols)]


def _permutation(images, signs=None):
    """The matrix sending basis vector k to signs[k] * e_images[k]."""
    n = len(images)
    signs = signs or [1] * n
    rows = [[0] * n for _ in range(n)]
    for k, image in enumerate(images):
        rows[image][k] = signs[k]
    return Mat.from_rows(rows)


def _transpose_map(target):
    """X -> X^T on the (r, c) layout of square g_-1 blocks."""
    pos = {key: idx for idx, key in enumerate(target.gm1_layout)}
    return _permutation([pos[(c, r)] for (r, c) in target.gm1_layout])


def _hodge_star(target):
    """e_i ^ e_j -> sign(i, j, k, l) e_k ^ e_l on the wedge layout of R^4."""
    layout = list(target.gm1_layout)
    images, signs = [], []
    for (i, j) in layout:
        k, l = (x for x in range(4) if x not in (i, j))
        perm = [i, j, k, l]
        inversions = sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
        images.append(layout.index((k, l)))
        signs.append(-1 if inversions % 2 else 1)
    return _permutation(images, signs)


EXCEPTIONS = [
    ("grassmannian", {"p": 2, "q": 2}, _transpose_map),
    ("para_quaternionic", {"n": 2}, _transpose_map),
    ("spinorial", {"n": 4}, _hodge_star),
    ("quaternionic", {"n": 1}, lambda g: Mat.diag([1, -1, -1, -1])),
    ("complex_conformal", {"n": 2}, lambda g: _permutation([0, 2, 1, 3])),
]


@pytest.mark.parametrize("family,params,make", EXCEPTIONS, ids=lambda x: str(x))
def test_normalizer_of_rho_g0_is_larger_than_g0(family, params, make):
    # why these families keep a bespoke predicate (quaternionic: why it
    # normalizes R(H) rather than rho(g_0))
    target = build_graded(family, params)
    t = make(target)
    assert _normalizes(t, _rho_g0(target))
    assert _PREDICATES[family](t, target) is False


ROW_WITNESSES = [
    ("lagrangean", "group_type", {"base": "sp(2,R)"}),
    ("quaternionic", "so_star", {"n": 2}),
    ("quaternionic", "sp1_block", {"p": 1, "q": 1}),
]


@pytest.mark.parametrize("family,pair_family,params", ROW_WITNESSES, ids=lambda x: str(x))
def test_row_witness_reframings(family, pair_family, params):
    ext = classify.verify_family_row(family, build_pair(pair_family, params)).witness
    target, d = ext.target, ext.target.dim_gm1
    rng = random.Random(f"{family}{pair_family}")
    for _ in range(3):
        t = ELEMENTS[family](rng, target)
        assert frames_equivalent(ext, with_frame(ext, t @ ext.frame())).status == EQUIVALENT
        while True:
            rows = t.to_rows()
            rows[rng.randrange(d)][rng.randrange(d)] += rng.choice((-1, 1))
            bad = Mat.from_rows(rows)
            if matrix_rank(bad) == d and not REFERENCES[family](bad, target):
                break
        other = with_frame(ext, bad @ ext.frame())
        assert frames_equivalent(ext, other).status == NOT_EQUIVALENT
