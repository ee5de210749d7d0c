"""Frame-based equivalence of extensions.

Two extensions over the same pair are compared through the transition map
between their frames, twisted by caller-supplied automorphism
representatives; membership in the family's grading-preserving group is
decided by an exact per-family predicate.  Families without an implemented
predicate report "undecided" rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import bases
from .catalog import GradedAlgebra
from .errors import InputError
from .extension import Extension
from .linalg import ONE, ZERO, Mat, SpanSolver, invert, matrix_rank, solve_linear

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNDECIDED = "undecided"


@dataclass
class EquivalenceResult:
    status: str
    sigma_index: Optional[int] = None  # index into the supplied automorphisms
    detail: str = ""

    @property
    def decided(self) -> bool:
        return self.status != UNDECIDED


# ---------------------------------------------------------------------------
# Family predicates: is T in the grading-preserving group of the target?
# ---------------------------------------------------------------------------


def _invertible(t: Mat) -> bool:
    return t.is_square() and matrix_rank(t) == t.rows


def _predicate_projective(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    return _invertible(t)


def _conformal_gram(target: GradedAlgebra) -> Mat:
    p, q = target.params["p"], target.params["q"]
    return Mat.diag([1] * p + [-1] * q)


def _predicate_conformal(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    g = _conformal_gram(target)
    m = t.transpose() @ g @ t
    lam = None
    for i in range(g.rows):
        if g[i, i] != 0:
            lam = m[i, i] / g[i, i]
            break
    if lam is None or lam == 0:
        return False
    return m == g.scale(lam)


def _gm1_complex_structure(target: GradedAlgebra) -> Mat:
    from .classify import coordinate_complex_structure

    j_full = coordinate_complex_structure(target)
    return j_full.submatrix(target.minus_one, target.minus_one)


def _predicate_h_projective(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    j = _gm1_complex_structure(target)
    return t @ j == j @ t or t @ j == -(j @ t)


def _predicate_complex_conformal(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    j = _gm1_complex_structure(target)
    if t @ j != j @ t and t @ j != -(j @ t):
        return False
    n = target.params["n"]
    g_re = [[ZERO] * (2 * n) for _ in range(2 * n)]
    g_im = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for r in range(n):
        g_re[2 * r][2 * r] = ONE
        g_re[2 * r + 1][2 * r + 1] = -ONE
        g_im[2 * r][2 * r + 1] = ONE
        g_im[2 * r + 1][2 * r] = ONE
    g_re_m, g_im_m = Mat.from_rows(g_re), Mat.from_rows(g_im)
    m = t.transpose() @ g_re_m @ t
    span = SpanSolver(4 * n * n)
    span.insert(g_re_m.entries)
    span.insert(g_im_m.entries)
    return span.contains(m.entries) and not m.is_zero()


def _kron_realign(t: Mat, rows: int, cols: int) -> Mat:
    """Rearrange a map on rows x cols matrices so pure products have rank 1."""
    out = []
    for r in range(rows):
        for rp in range(rows):
            line = []
            for cp in range(cols):
                for c in range(cols):
                    line.append(t[r * cols + c, rp * cols + cp])
            out.append(line)
    return Mat.from_rows(out)


def _predicate_grassmannian(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    if target.family == "para_quaternionic":
        p, q = 2, target.params["n"]
    else:
        p, q = target.params["p"], target.params["q"]
    r = _kron_realign(t, q, p)
    return matrix_rank(r) == 1


def _quaternion_coordinate_maps(n: int) -> list:
    """Basis maps x -> (u E_rs) x v on coordinates of H^n, flattened."""
    out = []
    for r in range(n):
        for s in range(n):
            for u in bases.QUATERNION_UNITS:
                for v in bases.QUATERNION_UNITS:
                    entries = [ZERO] * (16 * n * n)
                    for comp in range(4):
                        x = [0, 0, 0, 0]
                        x[comp] = 1
                        prod = bases.quat_mul(bases.quat_mul(u, tuple(x)), v)
                        for out_comp, val in enumerate(prod):
                            if val:
                                row = r * 4 + out_comp
                                col = s * 4 + comp
                                entries[row * 4 * n + col] = Fraction(val)
                    out.append(Mat(4 * n, 4 * n, entries))
    return out


def _predicate_quaternionic(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    n = target.params["n"]
    # reorder coordinates from the builder layout (r, comp) to match
    maps = _quaternion_coordinate_maps(n)
    cols = Mat.from_rows(
        [[maps[c].entries[r] for c in range(len(maps))] for r in range(16 * n * n)]
    )
    sol = solve_linear(cols, Mat.column(t.entries))
    if sol is None:
        return False
    coeffs = sol.particular
    # pure L_A R_b means the coefficient table is a rank-1 pairing of the
    # left index (r, s, u) against the right unit v
    big = Mat.from_rows(
        [
            [
                coeffs[((r * n + s) * 4 + u) * 4 + v, 0]
                for v in range(4)
            ]
            for r in range(n)
            for s in range(n)
            for u in range(4)
        ]
    )
    return matrix_rank(big) == 1


def _image_as_matrix(t: Mat, layout: list, n: int, col: int, antisym: bool) -> Mat:
    out = [[ZERO] * n for _ in range(n)]
    for idx, key in enumerate(layout):
        i, j = key
        v = t[idx, col]
        if antisym:
            out[i][j] += v
            out[j][i] -= v
        else:
            out[i][j] += v
            if i != j:
                out[j][i] += v
    return Mat.from_rows(out)


def _rank_one_symmetric(m: Mat) -> Optional[tuple]:
    """Write a symmetric matrix as c * u u^T, or None."""
    if matrix_rank(m) != 1:
        return None
    n = m.rows
    col = next(j for j in range(n) if any(m[i, j] != 0 for i in range(n)))
    u = [m[i, col] for i in range(n)]
    lead = next(x for x in u if x != 0)
    u = [x / lead for x in u]
    k = next(i for i in range(n) if u[i] != 0)
    c = m[k, k] / (u[k] * u[k]) if u[k] != 0 else None
    if c is None:
        return None
    uu = Mat.from_rows([[c * a * b for b in u] for a in u])
    if uu != m:
        return None
    return c, u


def _predicate_lagrangean(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    n = target.params["n"]
    layout = target.gm1_layout
    pos = {key: idx for idx, key in enumerate(layout)}

    def image(i, j):
        return _image_as_matrix(t, layout, n, pos[(min(i, j), max(i, j))], antisym=False)

    first = _rank_one_symmetric(image(0, 0))
    if first is None:
        return False
    lam, a0 = first
    a = [list(a0)]
    for i in range(1, n):
        m = image(0, i).scale(ONE / lam)
        rows = []
        rhs = []
        for r in range(n):
            for c in range(n):
                rows.append([(a0[r] if k == c else ZERO) + (a0[c] if k == r else ZERO)
                             for k in range(n)])
                rhs.append(m[r, c])
        sol = solve_linear(Mat.from_rows(rows), Mat.column(rhs))
        if sol is None:
            return False
        a.append(sol.particular.col(0))
    amat = Mat.from_columns(a, n)
    if not _invertible(amat):
        return False
    for i in range(n):
        for j in range(i, n):
            expect = Mat.from_rows(
                [[lam * (a[i][r] * a[j][c] + a[j][r] * a[i][c]) for c in range(n)]
                 for r in range(n)]
            )
            if i == j:
                expect = expect.scale(Fraction(1, 2))
            if expect != image(i, j):
                return False
    return True


def _wedge(u: list, v: list) -> Mat:
    n = len(u)
    return Mat.from_rows([[u[r] * v[c] - v[r] * u[c] for c in range(n)] for r in range(n)])


def _predicate_spinorial(t: Mat, target: GradedAlgebra) -> Optional[bool]:
    if not _invertible(t):
        return False
    n = target.params["n"]
    layout = target.gm1_layout
    pos = {key: idx for idx, key in enumerate(layout)}

    def image(i, j):
        return _image_as_matrix(t, layout, n, pos[(min(i, j), max(i, j))], antisym=True)

    w01, w02 = image(0, 1), image(0, 2)
    if matrix_rank(w01) != 2 or matrix_rank(w02) != 2:
        return False
    # direction of a0: intersection of the two column spaces
    rows = []
    for r in range(n):
        rows.append([w01[r, c] for c in range(n)] + [-w02[r, c] for c in range(n)])
    inter = solve_linear(Mat.from_rows(rows), Mat.zero(n, 1))
    a0 = None
    for k in inter.kernel:
        cand = w01.apply([k[i, 0] for i in range(n)])
        if any(x != 0 for x in cand):
            a0 = cand
            break
    if a0 is None:
        return False

    def solve_pair(m):
        rows, rhs = [], []
        for r in range(n):
            for c in range(n):
                rows.append([(a0[r] if k == c else ZERO) - (a0[c] if k == r else ZERO)
                             for k in range(n)])
                rhs.append(m[r, c])
        sol = solve_linear(Mat.from_rows(rows), Mat.column(rhs))
        return None if sol is None else sol.particular.col(0)

    tilde = [None]
    for i in range(1, n):
        ai = solve_pair(image(0, i))
        if ai is None:
            return False
        tilde.append(ai)
    # solve mu, s_i from the remaining pairs
    unknown = n  # mu, s_1..s_{n-1}
    rows, rhs = [], []
    for i in range(1, n):
        for j in range(i + 1, n):
            wij = image(i, j)
            base = _wedge(tilde[i], tilde[j])
            wi0 = _wedge(tilde[i], a0)
            wj0 = _wedge(tilde[j], a0)
            for r in range(n):
                for c in range(n):
                    row = [ZERO] * unknown
                    row[0] = base[r, c]
                    row[j] = -wi0[r, c]
                    row[i] = wj0[r, c]
                    rows.append(row)
                    rhs.append(wij[r, c])
    if rows:
        sol = solve_linear(Mat.from_rows(rows), Mat.column(rhs))
        if sol is None:
            return False
        mu = sol.particular[0, 0]
        if mu == 0:
            return False
        s = [sol.particular[i, 0] for i in range(1, n)]
        avecs = [a0] + [
            [(tilde[i][r] - (s[i - 1] / mu) * a0[r]) for r in range(n)]
            for i in range(1, n)
        ]
    else:
        avecs = [a0] + tilde[1:]
    amat = Mat.from_columns(avecs, n)
    return _invertible(amat)


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
    pair = ext.pair
    if sigma.shape != (pair.dim, pair.dim):
        raise InputError("automorphism matrix has wrong shape")
    h_span = SpanSolver(pair.dim)
    for i in pair.h_indices:
        e = [ZERO] * pair.dim
        e[i] = ONE
        h_span.insert(e)
    for i in pair.h_indices:
        if not h_span.contains(sigma.col(i)):
            return None
    rows = []
    for r in pair.m_indices:
        rows.append([sigma[r, c] for c in pair.m_indices])
    return Mat.from_rows(rows)


def _is_automorphism(pair, sigma: Mat) -> bool:
    sc = pair.k_algebra.constants
    dim = pair.dim
    cols = [sigma.col(i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            expect = [ZERO] * dim
            for k, c in sc.row(i, j).items():
                for t in range(dim):
                    if cols[k][t] != 0:
                        expect[t] += c * cols[k][t]
            if sc.bracket_coords(cols[i], cols[j]) != expect:
                return False
    return True


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
        t = frame2 @ sig_m @ frame1_inv
        verdict = predicate(t, ext1.target)
        if verdict is None:
            return EquivalenceResult(UNDECIDED, detail="membership test undecided")
        if verdict:
            return EquivalenceResult(EQUIVALENT, sigma_index=None if idx == 0 else idx - 1)
    return EquivalenceResult(NOT_EQUIVALENT)
