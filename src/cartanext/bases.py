"""Explicit rational bases for the classical matrix algebras.

Complex matrices realify to 2m x 2m blocks [[Re, -Im], [Im, Re]] (real part
stacked over imaginary part); quaternionic matrices to 4m x 4m blocks acting
on the (1, i, j, k) component stacking.  Both realifications are algebra
homomorphisms, so bracket closure is inherited from the complex or
quaternionic matrix algebra.  The complex forms are `complexify` of a real
basis.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import InputError
from .linalg import Mat, block_matrix

# ---------------------------------------------------------------------------
# Realification
# ---------------------------------------------------------------------------


def realify_complex(re: Mat, im: Mat) -> Mat:
    if re.shape != im.shape or not re.is_square():
        raise InputError("complex parts must be square and equal-sized")
    return block_matrix([[re, -im], [im, re]])


def complex_unit_matrix(m: int) -> Mat:
    """Realification of i * identity, the ambient complex structure."""
    return realify_complex(Mat.zero(m, m), Mat.identity(m))


# Quaternion units as (a, b, c, d) coefficients of 1, i, j, k.
Q_ONE = (1, 0, 0, 0)
Q_I = (0, 1, 0, 0)
Q_J = (0, 0, 1, 0)
Q_K = (0, 0, 0, 1)
QUATERNION_UNITS = (Q_ONE, Q_I, Q_J, Q_K)


def quat_mul(p: tuple, q: tuple) -> tuple:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def quat_conj(q: tuple) -> tuple:
    a, b, c, d = q
    return (a, -b, -c, -d)


def realify_quaternion(parts: Sequence[Mat]) -> Mat:
    """Realify A + Bi + Cj + Dk to the 4m x 4m left-multiplication blocks."""
    a, b, c, d = parts
    nb, nc, nd = -b, -c, -d
    return block_matrix([[a, nb, nc, nd], [b, a, nd, c], [c, d, a, nb], [d, nc, b, a]])


def quaternion_elementary(m: int, r: int, s: int, unit: tuple) -> Mat:
    """Realification of unit * E_rs inside gl(m, H)."""
    return realify_quaternion([Mat.unit(m, m, r, s, x) for x in unit])


# ---------------------------------------------------------------------------
# Classical algebra bases
# ---------------------------------------------------------------------------


def sl_basis(n: int) -> list:
    """sl(n, R): the off-diagonal units E_ij in row-major order, then
    E_ii - E_00."""
    if n < 2:
        raise InputError("sl(n) needs n >= 2")
    out = [Mat.unit(n, n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(1, n):
        out.append(Mat.unit(n, n, i, i) - Mat.unit(n, n, 0, 0))
    return out


def so_form_basis(form: Mat) -> list:
    """so of a symmetric signed-permutation form F, the X with X^T F + F X = 0.

    With F e_c = s_c e_p(c), each position (r, c) in row-major order gives
    E_rc - s_r s_c E_p(c)p(r), and the first position of each such pair is
    kept; a position that is its own partner gives 0 and is skipped."""
    n = form.rows
    cells = [list(form.sparse.get(r, {}).items()) for r in range(n)]
    if (form.cols != n or any(len(c) != 1 or c[0][1] not in (1, -1) for c in cells)
            or form != form.transpose()):
        raise InputError("so needs a symmetric signed-permutation form: signs must be +-1")
    p, s = zip(*(c[0] for c in cells)) if n else ((), ())
    out = []
    for r in range(n):
        for c in range(n):
            if (r, c) < (p[c], p[r]):
                rows = {r: {c: 1}}
                rows.setdefault(p[c], {})[p[r]] = -s[r] * s[c]
                out.append(Mat.from_sparse(n, n, rows))
    return out


def so_diag_basis(signs: Sequence[int]) -> list:
    """so of a diagonal +-1 form: E_ij - g_i g_j E_ji for i < j."""
    return so_form_basis(Mat.diag(signs))


def sp_split_basis(n: int) -> list:
    """sp(2n, R) for the form [[0, I], [-I, 0]]: blocks [[A, B], [C, -A^T]]."""
    if n < 1:
        raise InputError("sp needs n >= 1")
    out = []
    m = 2 * n
    for i in range(n):
        for j in range(n):
            out.append(Mat.unit(m, m, i, j) - Mat.unit(m, m, n + j, n + i))
    for i in range(n):
        for j in range(i, n):
            b = Mat.unit(m, m, i, n + j) + (Mat.unit(m, m, j, n + i) if i != j else Mat.zero(m, m))
            out.append(b)
    for i in range(n):
        for j in range(i, n):
            c = Mat.unit(m, m, n + i, j) + (Mat.unit(m, m, n + j, i) if i != j else Mat.zero(m, m))
            out.append(c)
    return out


def symplectic_form(n: int) -> Mat:
    """The form [[0, I], [-I, 0]] of size 2n that `sp_split_basis` preserves."""
    return Mat.from_sparse(2 * n, 2 * n, {r: {(r + n) % (2 * n): 1 if r < n else -1}
                                          for r in range(2 * n)})


def su_basis(signs: Sequence[int]) -> list:
    """Realified su(p, q) for the diagonal Hermitian form given by signs."""
    n = len(signs)
    if n < 2:
        raise InputError("su needs size >= 2")
    out = []
    zero = Mat.zero(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            gij = signs[i] * signs[j]
            out.append(realify_complex(Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i, gij), zero))
            out.append(realify_complex(zero, Mat.unit(n, n, i, j) + Mat.unit(n, n, j, i, gij)))
    for i in range(n - 1):
        diag = Mat.unit(n, n, i, i) - Mat.unit(n, n, i + 1, i + 1)
        out.append(realify_complex(zero, diag))
    return out


def so_star_basis(n: int) -> list:
    """Realified so*(2n): quaternionic matrices with conj(M)^T i + i M = 0."""
    if n < 1:
        raise InputError("so* needs n >= 1")
    out = []
    for r in range(n):
        out.append(quaternion_elementary(n, r, r, Q_I))
    for r in range(n):
        for s in range(r + 1, n):
            # q E_rs + conj(i q i) E_sr stays in the algebra for each unit q
            for q in QUATERNION_UNITS:
                partner = quat_conj(quat_mul(quat_mul(Q_I, q), Q_I))
                m1 = quaternion_elementary(n, r, s, q)
                m2 = quaternion_elementary(n, s, r, partner)
                out.append(m1 + m2)
    return out


def sp_pq_basis(signs: Sequence[int]) -> list:
    """Realified sp(p, q): quaternionic anti-Hermitian for a diagonal form."""
    n = len(signs)
    if n < 1:
        raise InputError("sp(p, q) needs size >= 1")
    out = []
    for r in range(n):
        for q in (Q_I, Q_J, Q_K):
            out.append(quaternion_elementary(n, r, r, q))
    for r in range(n):
        for s in range(r + 1, n):
            grs = signs[r] * signs[s]
            for q in QUATERNION_UNITS:
                partner = tuple(-grs * x for x in quat_conj(q))
                m1 = quaternion_elementary(n, r, s, q)
                m2 = quaternion_elementary(n, s, r, partner)
                out.append(m1 + m2)
    return out


def sl_quaternion_basis(m: int) -> list:
    """Realified sl(m, H), the quaternionic matrices of real trace 0: each
    unit times E_rs off the diagonal in row-major order, then i, j, k times
    E_ii, then E_ii - E_00."""
    out = [quaternion_elementary(m, r, s, q) for r in range(m) for s in range(m) if r != s
           for q in QUATERNION_UNITS]
    out += [quaternion_elementary(m, i, i, q) for i in range(m) for q in (Q_I, Q_J, Q_K)]
    one = quaternion_elementary(m, 0, 0, Q_ONE)
    return out + [quaternion_elementary(m, i, i, Q_ONE) - one for i in range(1, m)]


def complexify(basis: Sequence[Mat]) -> list:
    """The realified complex span of a real basis: each element as a real
    part, then as an imaginary part."""
    zero = Mat.zero(*basis[0].shape)
    return [z for x in basis for z in (realify_complex(x, zero), realify_complex(zero, x))]


def _least(n: int, name: str) -> int:
    if n < 2:
        raise InputError(f"{name} needs n >= 2")
    return n


def _half(size: int, name: str) -> int:
    if size % 2:
        raise InputError(f"{name} needs an even size")
    return size // 2


def _signs(a: list) -> list:
    return [1] * a[0] + [-1] * (a[1] if len(a) > 1 else 0)


# (head, field) -> (most integer arguments, realified ambient size, basis),
# the size and the basis both from the integer arguments
_TOKENS = {
    ("sl", "R"): (1, lambda a: a[0], lambda a: sl_basis(a[0])),
    ("sl", "C"): (1, lambda a: 2 * a[0], lambda a: complexify(sl_basis(_least(a[0], "sl(n, C)")))),
    ("so", "C"): (1, lambda a: 2 * a[0],
                  lambda a: complexify(so_diag_basis([1] * _least(a[0], "so(n, C)")))),
    ("so", ""): (2, sum, lambda a: so_diag_basis(_signs(a))),
    ("sp", "R"): (1, lambda a: a[0], lambda a: sp_split_basis(_half(a[0], "sp(2n,R)"))),
    ("sp", "C"): (1, lambda a: 2 * a[0],
                  lambda a: complexify(sp_split_basis(_half(a[0], "sp(2n,C)")))),
    ("su", ""): (2, lambda a: 2 * sum(a), lambda a: su_basis(_signs(a))),
    ("so*", ""): (1, lambda a: 2 * a[0], lambda a: so_star_basis(_half(a[0], "so*(2n)"))),
}

# head(count[,count][,field]) with counts in canonical decimal: no sign, no
# leading zero, so each algebra has one token and one memo entry
_NUMBER = "(0|[1-9][0-9]*)"
_GRAMMAR = re.compile(rf"([^(]*)\({_NUMBER}(?:,{_NUMBER})?(?:,([RC]))?\)")


def _read_token(token: str) -> tuple:
    """(ambient size, basis builder, integer arguments, normalized name,
    (head, field)), the field "" for a token without one."""
    if not isinstance(token, str):
        raise InputError(f"algebra token must be a string, got {token!r}")
    tok = token.replace(" ", "")
    match = _GRAMMAR.fullmatch(tok)
    if match is None:
        raise InputError(f"cannot parse algebra token {token!r}")
    head, first, second, field = match.groups()
    ints = [int(first)] + ([int(second)] if second else [])
    key = (head, field or "")
    arity, size, build = _TOKENS.get(key, (0, None, None))
    if len(ints) > arity:
        raise InputError(f"unsupported algebra token {token!r}")
    return size, build, ints, tok, key


def algebra_token_size(token: str) -> int:
    """Realified ambient size of `parse_simple_algebra(token)`, read from the
    token alone, without building the basis."""
    size, _build, ints, _name, _key = _read_token(token)
    return size(ints)


def parse_simple_algebra(token: str) -> tuple[list, str]:
    """Parse a token like sl(2,R), so(2,1), sp(4,R), su(1,1), sl(2,C).

    Returns (basis, normalized name).  `sp(2n,R)` takes the full matrix size,
    so sp(2,R) is the 2x2 realization.
    """
    _size, build, ints, name, _key = _read_token(token)
    return build(ints), name
