"""Explicit rational bases for the classical matrix algebras.

Complex matrices realify to 2m x 2m blocks [[Re, -Im], [Im, Re]] (real part
stacked over imaginary part); quaternionic matrices to 4m x 4m blocks acting
on the (1, i, j, k) component stacking.  Both realifications are algebra
homomorphisms, so bracket closure is inherited from the complex or
quaternionic matrix algebra.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .linalg import ZERO, Mat

# ---------------------------------------------------------------------------
# Realification
# ---------------------------------------------------------------------------


def realify_complex(re: Mat, im: Mat) -> Mat:
    if re.shape != im.shape or not re.is_square():
        raise InputError("complex parts must be square and equal-sized")
    m = re.rows
    out = [ZERO] * (4 * m * m)
    width = 2 * m
    for i in range(m):
        for j in range(m):
            a, b = re[i, j], im[i, j]
            out[i * width + j] = a
            out[i * width + m + j] = -b
            out[(m + i) * width + j] = b
            out[(m + i) * width + m + j] = a
    return Mat(width, width, out)


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
    m = a.rows
    width = 4 * m
    out = [ZERO] * (width * width)
    blocks = [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]
    for bi in range(4):
        for bj in range(4):
            blk = blocks[bi][bj]
            for i in range(m):
                row = (bi * m + i) * width + bj * m
                for j in range(m):
                    v = blk[i, j]
                    if v != 0:
                        out[row + j] = out[row + j] + v
    return Mat(width, width, out)


def quaternion_elementary(m: int, r: int, s: int, unit: tuple) -> Mat:
    """Realification of unit * E_rs inside gl(m, H)."""
    parts = []
    for comp in range(4):
        parts.append(Mat.unit(m, m, r, s, unit[comp]) if unit[comp] else Mat.zero(m, m))
    return realify_quaternion(parts)


def complex_elementary(m: int, r: int, s: int, re: int = 1, im: int = 0) -> Mat:
    return realify_complex(Mat.unit(m, m, r, s, re), Mat.unit(m, m, r, s, im))


# ---------------------------------------------------------------------------
# Classical algebra bases
# ---------------------------------------------------------------------------


def sl_basis(n: int) -> list:
    """sl(n, R): off-diagonal units plus E_ii - E_00."""
    if n < 2:
        raise InputError("sl(n) needs n >= 2")
    out = [Mat.unit(n, n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(1, n):
        out.append(Mat.unit(n, n, i, i) - Mat.unit(n, n, 0, 0))
    return out


def sl_complex_basis(n: int) -> list:
    """Realified sl(n, C)."""
    if n < 2:
        raise InputError("sl(n, C) needs n >= 2")
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                out.append(complex_elementary(n, i, j, 1, 0))
                out.append(complex_elementary(n, i, j, 0, 1))
    for i in range(1, n):
        diag = Mat.unit(n, n, i, i) - Mat.unit(n, n, 0, 0)
        out.append(realify_complex(diag, Mat.zero(n, n)))
        out.append(realify_complex(Mat.zero(n, n), diag))
    return out


def so_diag_basis(signs: Sequence[int]) -> list:
    """so of a diagonal +-1 form: E_ij - g_i g_j E_ji for i < j."""
    n = len(signs)
    if any(s not in (1, -1) for s in signs):
        raise InputError("signs must be +-1")
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i, signs[i] * signs[j]))
    return out


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


def so_complex_basis(n: int) -> list:
    """Realified so(n, C): complex antisymmetric matrices."""
    if n < 2:
        raise InputError("so(n, C) needs n >= 2")
    zero = Mat.zero(n, n)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            anti = Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i)
            out.append(realify_complex(anti, zero))
            out.append(realify_complex(zero, anti))
    return out


def sp_complex_basis(n: int) -> list:
    """Realified sp(2n, C) for the split form."""
    out = []
    m = 2 * n
    zero = Mat.zero(m, m)
    for real in sp_split_basis(n):
        out.append(realify_complex(real, zero))
        out.append(realify_complex(zero, real))
    return out


def parse_simple_algebra(token: str) -> tuple[list, str]:
    """Parse a token like sl(2,R), so(2,1), sp(4,R), su(1,1), sl(2,C).

    Returns (basis, normalized name).  `sp(2n,R)` takes the full matrix size,
    so sp(2,R) is the 2x2 realization.
    """
    tok = token.replace(" ", "")
    name = tok
    try:
        head, rest = tok.split("(", 1)
        args = rest.rstrip(")").split(",")
    except ValueError as exc:
        raise InputError(f"cannot parse algebra token {token!r}") from exc
    if head == "sl" and args[-1] in ("R", "C"):
        n = int(args[0])
        return (sl_basis(n) if args[-1] == "R" else sl_complex_basis(n)), name
    if head == "so" and args[-1] == "C":
        return so_complex_basis(int(args[0])), name
    if head == "so":
        dims = [int(a) for a in args]
        p = dims[0]
        q = dims[1] if len(dims) > 1 else 0
        return so_diag_basis([1] * p + [-1] * q), name
    if head == "sp" and args[-1] == "R":
        size = int(args[0])
        if size % 2:
            raise InputError("sp(2n,R) needs an even size")
        return sp_split_basis(size // 2), name
    if head == "sp" and args[-1] == "C":
        size = int(args[0])
        if size % 2:
            raise InputError("sp(2n,C) needs an even size")
        return sp_complex_basis(size // 2), name
    if head == "su":
        p, q = int(args[0]), int(args[1]) if len(args) > 1 else 0
        return su_basis([1] * p + [-1] * q), name
    if head == "so*":
        size = int(args[0])
        if size % 2:
            raise InputError("so*(2n) needs an even size")
        return so_star_basis(size // 2), name
    raise InputError(f"unsupported algebra token {token!r}")
