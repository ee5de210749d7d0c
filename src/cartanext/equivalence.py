"""Frame-based equivalence of extensions.

Two extensions over the same pair are compared through the transition map
between their frames, twisted by caller-supplied automorphism
representatives; membership in the family's grading-preserving group is
decided by an exact per-family predicate.  Families without an implemented
predicate report "undecided" rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from . import bases
from .catalog import GradedAlgebra
from .errors import InputError
from .extension import Extension, _defect, _sparse_cols
from .linalg import ONE, Mat, SpanSolver, invert, matrix_rank, solve_linear

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNDECIDED = "undecided"


@dataclass
class EquivalenceResult:
    status: str
    sigma_index: Optional[int] = None  # index into the supplied automorphisms
    detail: str = ""


# ---------------------------------------------------------------------------
# Family predicates: is T in the grading-preserving group of the target?
# ---------------------------------------------------------------------------


def _invertible(t: Mat) -> bool:
    return t.is_square() and matrix_rank(t) == t.rows


def _normalizes(t: Mat, algebra: Sequence[Mat]) -> bool:
    """Whether T is invertible and conjugates span(algebra) onto itself,
    tested without T^-1 as T A in span{B T : B in algebra} for each A.
    cT conjugates as T does; integer entries keep the elimination in int."""
    t = t.scale(lcm(*(x.denominator for row in t.sparse.values() for x in row.values())))
    if not _invertible(t):
        return False
    span = SpanSolver(t.rows * t.rows)
    for b in algebra:
        span.insert((b @ t).flat())
    return all(span.contains((t @ a).flat()) for a in algebra)


def _scales_form(t: Mat, forms: Sequence[Mat]) -> bool:
    """Whether T^T forms[0] T is nonzero and in span(forms), the real parts of
    the multiples of one nondegenerate form: all nondegenerate, so T is invertible."""
    m = t.transpose() @ forms[0] @ t
    span = SpanSolver(m.rows * m.cols)
    for form in forms:
        span.insert(form.flat())
    return not m.is_zero() and span.contains(m.flat())


def _predicate_projective(t: Mat, target: GradedAlgebra) -> bool:
    return _invertible(t)


def _predicate_conformal(t: Mat, target: GradedAlgebra) -> bool:
    """CO(p, q): T scales the form diag(1,...,1,-1,...,-1).  The normalizer
    of rho(g_0) agrees on every (p, q) tried but costs 2-4 times as much."""
    p, q = target.params["p"], target.params["q"]
    return _scales_form(t, [Mat.diag([1] * p + [-1] * q)])


def _gm1_complex_structure(target: GradedAlgebra) -> Mat:
    from .classify import coordinate_complex_structure

    j_full = coordinate_complex_structure(target)
    return j_full.submatrix(target.minus_one, target.minus_one)


def _predicate_h_projective(t: Mat, target: GradedAlgebra) -> bool:
    """GL(n, C): T is invertible and complex linear, TJ = JT.  An antilinear
    T, TJ = -JT, carries J to -J: the other of the two conjugate classes."""
    j = _gm1_complex_structure(target)
    return t @ j == j @ t and _invertible(t)


# Not the normalizer test: on complex_conformal(2), g_0 is abelian and a
# coordinate permutation outside G_0 normalizes rho(g_0).
def _predicate_complex_conformal(t: Mat, target: GradedAlgebra) -> bool:
    """T is complex linear or antilinear and scales the complex form
    sum z_r^2, whose real and imaginary parts are G_re and G_im."""
    j = _gm1_complex_structure(target)
    if t @ j != j @ t and t @ j != -(j @ t):
        return False
    n = target.params["n"]
    g_im = Mat.from_sparse(2 * n, 2 * n, {r: {r ^ 1: 1} for r in range(2 * n)})
    return _scales_form(t, [Mat.diag([1, -1] * n), g_im])


def _kron_realign(t: Mat, rows: int, cols: int) -> Mat:
    """Rearrange a map on rows x cols matrices so pure products have rank 1:
    entry (r cols + c, r' cols + c') moves to (r rows + r', c' cols + c)."""
    out: dict = {}
    for i, line in t.sparse.items():
        r, c = divmod(i, cols)
        for j, v in line.items():
            rp, cp = divmod(j, cols)
            out.setdefault(r * rows + rp, {})[cp * cols + c] = v
    return Mat.from_sparse(rows * rows, cols * cols, out)


# Not the normalizer test: the transpose on grassmannian(2,2) and on
# para_quaternionic(2) normalizes rho(g_0) but is not in G_0.
def _predicate_grassmannian(t: Mat, target: GradedAlgebra) -> bool:
    if not _invertible(t):
        return False
    if target.family == "para_quaternionic":
        p, q = 2, target.params["n"]
    else:
        p, q = target.params["p"], target.params["q"]
    r = _kron_realign(t, q, p)
    return matrix_rank(r) == 1


def _right_multiplications(n: int) -> list:
    """R_v: x -> x v on H^n for the units v, in the builder's (r, comp)
    coordinates, where comp indexes the coefficients of 1, i, j, k."""
    out = []
    for v in bases.QUATERNION_UNITS:
        data: dict = {}
        for comp, unit in enumerate(bases.QUATERNION_UNITS):
            for out_comp, val in enumerate(bases.quat_mul(unit, v)):
                for r in range(n):
                    data.setdefault(4 * r + out_comp, {})[4 * r + comp] = val
        out.append(Mat.from_sparse(4 * n, 4 * n, data))
    return out


def _predicate_quaternionic(t: Mat, target: GradedAlgebra) -> bool:
    """G_0 acts on H^n as the maps L_A R_q: x -> A x q, A in GL(n, H), q in H*.

    T lies in G_0 iff it normalizes R(H) = {R_v}.  Each L_A R_q commutes
    with the R_v up to v -> q^-1 v q, so it normalizes R(H).  Conversely
    T R_v T^-1 = R_phi(v) defines an algebra automorphism phi of H, inner by
    Skolem-Noether: phi(v) = q^-1 v q.  Then T R_q^-1 commutes with every
    R_v, so it is H-linear for the right H-module structure of H^n: a left
    multiplication L_A.  So T = L_A R_q.  R(H) rather than rho(g_0) is used
    because quaternion conjugation on quaternionic(1) normalizes rho(g_0)
    and is not in G_0.
    """
    return _normalizes(t, _right_multiplications(target.params["n"]))


def _wedge_image(col: dict, layout: list, n: int) -> Mat:
    """A column of T, sparse on the (i < j) wedge layout, as an antisymmetric matrix."""
    data: dict = {}
    for idx, v in col.items():
        i, j = layout[idx]
        data.setdefault(i, {})[j] = v
        data.setdefault(j, {})[i] = -v
    return Mat.from_sparse(n, n, data)


def _predicate_lagrangean(t: Mat, target: GradedAlgebra) -> bool:
    """G_0 = {c S^2(g)} acting on g_-1 = S^2 R^n, g in GL(n, R), c != 0.

    T lies in G_0 iff it normalizes rho(g_0), the image of g_0 = gl(n, R)
    in gl(g_-1).  Each c S^2(g) conjugates rho(X) to rho(g X g^-1).
    Conversely T rho(X) T^-1 = rho(psi(X)) defines an automorphism psi of
    gl(n) fixing the centre, which acts by scalars.  A non-inner
    automorphism of sl(n) would carry S^2 R^n to S^2 of the dual, not
    isomorphic for n >= 3; sl(2) has only inner ones, and n = 1 no sl part.
    So psi = Ad(g), and S^2(g)^-1 T commutes with the irreducible
    rho(gl(n)): by Schur's lemma it is a nonzero scalar c.
    """
    from .classify import g0_action_solver

    rho = g0_action_solver(target)
    n = target.dim_gm1
    return _normalizes(t, [Mat.from_flat(n, n, col) for col in _sparse_cols(rho)])


def _wedge(u: dict, v: dict, n: int) -> Mat:
    """u v^T - v u^T for sparse vectors u and v."""
    data: dict = {}
    for r, a in u.items():
        for c, b in v.items():
            row = data.setdefault(r, {})
            row[c] = row.get(c, 0) + a * b
            row = data.setdefault(c, {})
            row[r] = row.get(r, 0) - a * b
    return Mat.from_sparse(n, n, data)


# Not the normalizer test, which accepts the Hodge star on spinorial(4).
def _predicate_spinorial(t: Mat, target: GradedAlgebra) -> bool:
    if not _invertible(t):
        return False
    n = target.params["n"]
    layout = target.gm1_layout
    pos = {key: idx for idx, key in enumerate(layout)}
    t_cols = _sparse_cols(t)

    def image(i, j):
        return _wedge_image(t_cols[pos[(min(i, j), max(i, j))]], layout, n)

    w01, w02 = image(0, 1), image(0, 2)
    if matrix_rank(w01) != 2 or matrix_rank(w02) != 2:
        return False
    # direction of a0: intersection of the two column spaces
    rows = {r: {**w01.sparse.get(r, {}), **{n + c: -v for c, v in w02.sparse.get(r, {}).items()}}
            for r in range(n)}
    inter = solve_linear(Mat.from_sparse(n, 2 * n, rows), Mat.zero(n, 1))
    a0 = None
    for k in inter.kernel:
        cand = w01 @ k.submatrix(range(n), (0,))
        if not cand.is_zero():
            a0 = _sparse_cols(cand)[0]
            break
    if a0 is None:
        return False

    # tilde_i solves a0 x^T - x a0^T = image(0, i), one right-hand column per i
    rows = {}
    for r in range(n):
        for c in range(n):
            row = rows[r * n + c] = {}
            if r in a0:
                row[c] = a0[r]
            if c in a0:
                row[r] = row.get(r, 0) - a0[c]
    rhs: dict = {}
    for i in range(1, n):
        for k, v in image(0, i).flat().items():
            rhs.setdefault(k, {})[i - 1] = v
    sol = solve_linear(Mat.from_sparse(n * n, n, rows), Mat.from_sparse(n * n, n - 1, rhs))
    if sol is None:
        return False
    tilde = [None] + _sparse_cols(sol.particular)
    # solve mu, s_1..s_{n-1} from the remaining pairs; n >= 3, as (0, 2) is in the layout
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    rows, rhs = {}, {}
    for block, (i, j) in enumerate(pairs):
        at = block * n * n
        for unknown, w in ((0, _wedge(tilde[i], tilde[j], n)), (j, _wedge(a0, tilde[i], n)),
                           (i, _wedge(tilde[j], a0, n))):
            for k, v in w.flat().items():
                rows.setdefault(at + k, {})[unknown] = v
        for k, v in image(i, j).flat().items():
            rhs[at + k] = {0: v}
    height = len(pairs) * n * n
    sol = solve_linear(Mat.from_sparse(height, n, rows), Mat.from_sparse(height, 1, rhs))
    if sol is None:
        return False
    # mu = x[0] is nonzero: with mu = 0 every image(i, j) would lie in
    # {a0 ^ y}, of dimension n - 1 < n(n - 1)/2 for n >= 3, and T would be
    # singular, which the check at the top rules out
    x = _sparse_cols(sol.particular)[0]
    inv = ONE / x[0]
    # the vectors a_i = tilde_i - (s_i / mu) a0, as the rows of a matrix
    avecs = {0: a0}
    for i in range(1, n):
        f = x.get(i, 0) * inv
        avecs[i] = {r: tilde[i].get(r, 0) - f * a0.get(r, 0) for r in tilde[i].keys() | a0.keys()}
    return _invertible(Mat.from_sparse(n, n, avecs))


_PREDICATES = {
    "projective": _predicate_projective,
    "h_projective": _predicate_h_projective,
    "conformal": _predicate_conformal,
    "complex_conformal": _predicate_complex_conformal,
    "grassmannian": _predicate_grassmannian,
    "para_quaternionic": _predicate_grassmannian,
    "quaternionic": _predicate_quaternionic,
    "lagrangean": _predicate_lagrangean,
    "spinorial": _predicate_spinorial,
}


def _quotient_action_on_m(ext: Extension, sigma: Mat) -> Optional[Mat]:
    """The m block of sigma, or None when sigma does not preserve h (an h
    column has a nonzero m entry)."""
    pair = ext.pair
    h = frozenset(pair.h_indices)
    if any(c in h for r in pair.m_indices for c in sigma.sparse.get(r, ())):
        return None
    return sigma.submatrix(pair.m_indices, pair.m_indices)


def _is_automorphism(pair, sigma: Mat) -> bool:
    table = pair.k_algebra.constants.table
    cols = _sparse_cols(sigma)
    return not any(any(_defect(table, cols[i], cols[j], table[i][j], cols).values())
                   for i in range(pair.dim) for j in range(i + 1, pair.dim))


def frames_equivalent(ext1: Extension, ext2: Extension,
                      autos: Sequence[Mat] = ()) -> EquivalenceResult:
    """Equivalence of two extensions through frame transitions.

    The identity twist is always tried, then each supplied automorphism
    representative.  Which twist succeeded is reported; a family without an
    implemented membership predicate yields "undecided".
    """
    if ext1.pair.dim != ext2.pair.dim or ext1.pair.name != ext2.pair.name:
        raise InputError("extensions must share the same pair")
    if ext1.target.family != ext2.target.family or ext1.target.params != ext2.target.params:
        raise InputError("extensions must share the target family and ranks")
    if any(sigma.shape != (ext1.pair.dim, ext1.pair.dim) for sigma in autos):
        raise InputError("automorphism matrix has wrong shape")
    predicate = _PREDICATES.get(ext1.target.family)
    if predicate is None:
        return EquivalenceResult(UNDECIDED, detail="no membership predicate for this family")
    frame1_inv = invert(ext1.frame())
    frame2 = ext2.frame()
    twists = [None] + list(autos)
    for idx, sigma in enumerate(twists):
        if sigma is None:
            sig_m = Mat.identity(ext1.pair.dim_m)
        else:
            if not _is_automorphism(ext1.pair, sigma):
                continue
            sig_m = _quotient_action_on_m(ext1, sigma)
            if sig_m is None:
                continue
        if predicate(frame2 @ sig_m @ frame1_inv, ext1.target):
            return EquivalenceResult(EQUIVALENT, sigma_index=None if idx == 0 else idx - 1)
    return EquivalenceResult(NOT_EQUIVALENT)
