"""Extensions of symmetric pairs into one-graded targets.

An extension is a linear map alpha from the pair's algebra into the graded
target, stored as a coordinate matrix.  This module validates the shape
axioms, computes curvature and torsion exactly, tests holomorphy against
explicit complex structures, and solves the normalization system that pins
the unique grade-one part in the projective families.

Curvature is kept as sparse vectors, and the contraction, the torsion and
flatness checks and `Curvature.evaluate` read them so; the dense
`Curvature.values` is formed only when a caller reads it.  The solved b2 is
checked for equivariance on the generator picks of h, by the argument in
`_assert_b2_equivariant`, and on all of h when that argument's conditions
are not seen to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import GradedAlgebra, SymmetricPair, isotropy_rep
from .errors import InputError, InternalCheckError, StructuralError
from .lie import FrozenDict, derived, generating_indices, generator_chain
from .linalg import ZERO, Mat, _dense, _sparse, invert, solve_linear


@dataclass
class Extension:
    """A candidate extension alpha: pair algebra -> graded target."""

    pair: SymmetricPair
    target: GradedAlgebra
    alpha: Mat  # (target dim) x (pair dim)
    label: str = ""

    def __post_init__(self):
        if self.alpha.shape != (self.target.dim, self.pair.dim):
            raise InputError(
                f"alpha must be {self.target.dim}x{self.pair.dim}, got {self.alpha.shape}"
            )

    def frame(self) -> Mat:
        """Restriction of alpha to the (-1)-eigenspace followed by the
        projection to g_-1, as a matrix in the chosen bases."""
        return self.alpha.submatrix(self.target.minus_one, self.pair.m_indices)

    def g1_block(self) -> Mat:
        return self.alpha.submatrix(self.target.plus_one, self.pair.m_indices)

    def b2_matrix(self) -> Mat:
        """The induced map g_-1 -> g_1 (zero for purely frame-shaped alpha):
        the B with B F = G for the frame F and the g_1 block G, from one
        solve of F^T B^T = G^T.  `InputError` when F is singular or not
        square."""
        frame = self.frame()
        sol = frame.is_square() and solve_linear(frame.transpose(), self.g1_block().transpose())
        if not sol or sol.kernel:
            raise InputError("the frame is singular or not square")
        return sol.particular.transpose()

    def with_g1_block(self, block: Mat) -> "Extension":
        """Copy of the extension with the g_1-part of alpha|m replaced."""
        plus, m_idx = self.target.plus_one, self.pair.m_indices
        m_set = frozenset(m_idx)
        rows = {r: dict(row) for r, row in self.alpha.sparse.items()}
        for r in plus:
            rows[r] = {c: v for c, v in rows.get(r, {}).items() if c not in m_set}
        for r, row in block.sparse.items():
            rows[plus[r]].update({m_idx[c]: v for c, v in row.items()})
        alpha = Mat.from_sparse(self.alpha.rows, self.alpha.cols, rows)
        return Extension(self.pair, self.target, alpha, self.label)

    def map_alpha(self, operator: Mat, label: str = "") -> "Extension":
        return Extension(self.pair, self.target, operator @ self.alpha, label or self.label)


@dataclass
class AxiomCheck:
    ok: bool
    witnesses: list = field(default_factory=list)


@dataclass
class ValidationReport:
    axioms: dict

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.axioms.values())

    def failed_axioms(self) -> list:
        return [name for name, a in self.axioms.items() if not a.ok]


WITNESS_CAP = 4


def _sparse_cols(a: Mat) -> list:
    """The columns of a matrix as sparse vectors {row: value}."""
    cols = a.transpose().sparse
    return [cols.get(c, {}) for c in range(a.cols)]


def _defect(table: list, u: dict, v: dict, combo: dict, cols: list) -> dict:
    """[u, v] - sum c cols[k] over combo = {k: c}, all sparse, brackets read
    from the table; zero sums kept.  Zero for u, v, combo = phi X, phi Y,
    [X, Y] iff phi intertwines the bracket there."""
    out: dict = {}
    for i, a in u.items():
        row_i = table[i]
        for j, b in v.items():
            cell = row_i[j]
            if cell:
                ab = a * b
                for k, c in cell.items():
                    out[k] = out.get(k, 0) + ab * c
    for k, c in combo.items():
        for t, x in cols[k].items():
            out[t] = out.get(t, 0) - c * x
    return out


def validate(ext: Extension) -> ValidationReport:
    """Exact check of the four extension axioms, with failure witnesses."""
    pair, target = ext.pair, ext.target
    if pair.dim_m != target.dim_gm1:
        raise StructuralError(
            f"no grading-compatible structure possible: dim m = {pair.dim_m} "
            f"but dim g_-1 = {target.dim_gm1}"
        )
    cols = _sparse_cols(ext.alpha)
    h_in_g0 = AxiomCheck(True)
    for c in pair.h_indices:
        if any(target.grade_of(r) for r in cols[c]):
            h_in_g0.ok = False
            if len(h_in_g0.witnesses) < WITNESS_CAP:
                h_in_g0.witnesses.append(c)
    m_no_g0 = AxiomCheck(True)
    for c in pair.m_indices:
        if not all(target.grade_of(r) for r in cols[c]):
            m_no_g0.ok = False
            if len(m_no_g0.witnesses) < WITNESS_CAP:
                m_no_g0.witnesses.append(c)
    frame = ext.frame()
    sol = solve_linear(frame, Mat.identity(frame.rows)) if frame.rows == frame.cols else None
    invertible = sol is not None and not sol.kernel
    frame_ok = AxiomCheck(bool(invertible))
    if not invertible:
        frame_ok.witnesses.append("frame is singular")
    equivariance = AxiomCheck(True)
    table_k = pair.k_algebra.constants.table
    table_g = target.algebra.constants.table
    for x in pair.h_indices:
        for y in range(pair.dim):
            if any(_defect(table_g, cols[x], cols[y], table_k[x][y], cols).values()):
                equivariance.ok = False
                if len(equivariance.witnesses) < WITNESS_CAP:
                    equivariance.witnesses.append((x, y))
    return ValidationReport(
        {
            "alpha_h_in_g0": h_in_g0,
            "alpha_m_zero_g0_component": m_no_g0,
            "frame_invertible": frame_ok,
            "equivariance": equivariance,
        }
    )


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


class Curvature:
    """kappa(X, Y) = [alpha X, alpha Y] - alpha([X, Y]) on the m-basis.

    `curvature` keeps kappa as sparse vectors {(a, b): {t: x}}, a < b, with
    no zeros, and the readers below read that form.  `values`, the same
    vectors as dense lists of Fractions, is formed when it is first read,
    and from then on it is the one source of every reader: a Curvature
    built from caller-given dense values, or values changed in place, is
    read as it stands.
    """

    def __init__(self, ext: Extension, values: Optional[dict] = None,
                 vectors: Optional[dict] = None):
        self.ext = ext
        self._values = values
        self._vectors = vectors

    @property
    def values(self) -> dict:
        """(a, b) with a < b -> target coordinate vector, dense."""
        if self._values is None:
            dim = self.ext.target.dim
            self._values = {key: _dense(vec, dim) for key, vec in self._vectors.items()}
            self._vectors = None
        return self._values

    def _rows(self) -> dict:
        """kappa's values as {(a, b): {t: x}}, from `values` once it exists."""
        if self._values is None:
            return self._vectors
        return {key: _sparse(vec) for key, vec in self._values.items()}

    def get(self, a: int, b: int) -> list:
        dim = self.ext.target.dim
        if a == b:
            return [ZERO] * dim
        key = (min(a, b), max(a, b))
        vec = list(self._values[key]) if self._values is not None else _dense(self._vectors[key], dim)
        return vec if a < b else [-x for x in vec]

    def evaluate(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list:
        return _dense(_evaluate(self._rows(), _sparse(u), _sparse(v)), self.ext.target.dim)

    def component_zero(self, grade: int) -> bool:
        idx = frozenset(self.ext.target.grade_indices(grade))
        return not any(idx.intersection(vec) for vec in self._rows().values())

    def is_zero(self) -> bool:
        return not any(self._rows().values())

    def nonzero_entries(self) -> int:
        return sum(map(len, self._rows().values()))


def _evaluate(values: dict, u: dict, v: dict) -> dict:
    """kappa(u, v) for sparse u, v, from kappa's values as {(a, b): {t: x}}."""
    out: dict = {}
    for a, ua in u.items():
        for b, vb in v.items():
            if a != b:
                key, f = ((a, b), ua * vb) if a < b else ((b, a), -ua * vb)
                for t, x in values[key].items():
                    out[t] = out.get(t, 0) + f * x
    return out


def curvature(ext: Extension) -> Curvature:
    pair, target = ext.pair, ext.target
    table_k = pair.k_algebra.constants.table
    table_g = target.algebra.constants.table
    cols = _sparse_cols(ext.alpha)
    m = pair.m_indices
    vectors = {}
    for a in range(pair.dim_m):
        for b in range(a + 1, pair.dim_m):
            defect = _defect(table_g, cols[m[a]], cols[m[b]], table_k[m[a]][m[b]], cols)
            vectors[(a, b)] = {t: x for t, x in defect.items() if x}
    return Curvature(ext, vectors=vectors)


def torsion_free(ext: Extension, kappa: Optional[Curvature] = None) -> bool:
    kappa = kappa or curvature(ext)
    return kappa.component_zero(-1)


def is_flat(ext: Extension, kappa: Optional[Curvature] = None) -> bool:
    kappa = kappa or curvature(ext)
    return kappa.is_zero()


# ---------------------------------------------------------------------------
# Holomorphy
# ---------------------------------------------------------------------------


@dataclass
class HolomorphyResult:
    holomorphic: bool
    conjugate: Optional[Extension] = None


def target_conjugation(target: GradedAlgebra) -> Mat:
    """Coordinate matrix of entrywise conjugation on a realified target."""
    if target.ambient_J is None:
        raise InputError("target carries no ambient complex structure")
    amb = target.algebra.ambient_size
    half = amb // 2
    s = Mat.diag([1] * half + [-1] * half)
    conj = target.algebra.coordinate_matrix(s @ b @ s for b in target.algebra.basis)
    if conj is None:
        raise InternalCheckError("conjugation does not preserve the target span")
    return conj


def is_holomorphic(ext: Extension, j_pair: Mat, j_target: Mat) -> HolomorphyResult:
    """True iff alpha intertwines the two complex structures exactly.

    On success the conjugate extension (alpha composed with the target's
    conjugation automorphism) is returned; it is the inequivalent partner
    that intertwines -J instead.
    """
    dim_k, dim_g = ext.pair.dim, ext.target.dim
    if j_pair.shape != (dim_k, dim_k) or j_target.shape != (dim_g, dim_g):
        raise InputError("complex structure matrices have wrong shapes")
    if j_pair @ j_pair != Mat.identity(dim_k).scale(-1):
        raise InputError("pair-side J fails J^2 = -I")
    if j_target @ j_target != Mat.identity(dim_g).scale(-1):
        raise InputError("target-side J fails J^2 = -I")
    holomorphic = ext.alpha @ j_pair == j_target @ ext.alpha
    if not holomorphic:
        return HolomorphyResult(False)
    conj = target_conjugation(ext.target)
    return HolomorphyResult(True, ext.map_alpha(conj, ext.label + "~conjugate"))


# ---------------------------------------------------------------------------
# Normalization of the grade-one part (projective families)
# ---------------------------------------------------------------------------


@dataclass
class B2Solution:
    extension: Extension
    b2: Mat
    homogeneous_kernel_trivial: bool
    kappa: Curvature  # curvature of `extension`, computed for the final check


def dstar_projective(ext: Extension, kappa: Optional[Curvature] = None) -> list:
    """The contraction sum_i [Z_i, kappa(X^i, X_j)] per elementary X_j.

    X^i and Z_i run over the matched elementary bases of g_-1 and g_1; the
    curvature (computed unless given) is pulled back through the frame so
    that the contraction is evaluated on the grading coordinates themselves.
    """
    return [_dense(vec, ext.target.dim) for vec in _dstar(ext, kappa or curvature(ext))]


def _dstar(ext: Extension, kappa: Curvature) -> list:
    """`dstar_projective` as sparse vectors, zero sums kept.

    With F the inverse frame, X^i = sum_a F_ai X_a, so the contraction at
    X_j is sum_b F_bj D_b with D_b = sum_a [W_a, kappa(X_a, X_b)] and W_a =
    sum_i F_ai Z_i: n^2 brackets for any frame."""
    target = ext.target
    frame_inv = invert(ext.frame())
    values = kappa._rows()
    bracket_with = target.algebra.constants.bracket_with
    d = []
    for b in range(target.dim_gm1):
        acc: dict = {}
        for a, row in frame_inv.sparse.items():
            if a != b:
                key, sign = ((a, b), 1) if a < b else ((b, a), -1)
                for i, f in row.items():
                    for t, c in bracket_with(target.plus_one[i], values[key]).items():
                        acc[t] = acc.get(t, 0) + sign * f * c
        d.append(acc)
    out = []
    for col in _sparse_cols(frame_inv):
        total: dict = {}
        for b, f in col.items():
            for t, c in d[b].items():
                total[t] = total.get(t, 0) + f * c
        out.append(total)
    return out


@derived
def projective_normalization_operator(target: GradedAlgebra) -> tuple[Mat, dict]:
    """The linear operator taking b2 to its contribution to the contraction.

    Returns (L, index) with L acting on flattened b2 entries b[k, j]
    (b sends the j-th elementary g_-1 vector to b[k, j] times the k-th
    elementary g_1 vector); equations are indexed by (j, t) for the
    g_1-coordinate t of the contraction at X_j.  Every bracket is read from
    the structure-constant table: u[i][k] = [X^-_i, X^+_k] is a table row,
    and each [X^+_i, u] is summed over the rows table[X^+_i][m].  It
    depends on the target alone, so it is built once per target and kept
    on it (see `lie.derived`); the index is a read-only `FrozenDict`.
    """
    n = target.dim_gm1
    sc_g = target.algebra.constants
    minus, plus = target.minus_one, target.plus_one
    local = {t: r for r, t in enumerate(plus)}
    u_table = [[sc_g.table[minus[i]][plus[k]] for k in range(n)] for i in range(n)]
    s_table = []
    for k in range(n):
        acc: dict = {}
        for i in range(n):
            for t, c in sc_g.bracket_with(plus[i], u_table[i][k]).items():
                acc[t] = acc.get(t, 0) + c
        s_table.append(acc)
    width = n * n
    data: dict = {}

    def add(t: int, j: int, col: int, c) -> None:
        if t in local:
            row = data.setdefault(j * len(plus) + local[t], {})
            row[col] = row.get(col, 0) + c

    for j in range(n):
        for k0 in range(n):
            for t, c in s_table[k0].items():
                add(t, j, k0 * n + j, c)
            for j0 in range(n):
                for t, c in sc_g.bracket_with(plus[j0], u_table[j][k0]).items():
                    add(t, j, k0 * n + j0, -c)
    return (Mat.from_sparse(n * len(plus), width, data),
            FrozenDict({"equations": width, "unknowns": width}))


def solve_projective_b2(ext: Extension) -> B2Solution:
    """Unique b2 making the curvature contraction vanish, with verification.

    Only the projective and h_projective targets carry this normalization;
    the homogeneous system is checked to have trivial kernel and the final
    contraction is recomputed to be exactly zero.  The curvature of the
    normalized extension is returned with it for later checks.
    """
    target = ext.target
    if target.family not in ("projective", "h_projective"):
        raise InputError("b2 normalization is defined for the projective families only")
    n = target.dim_gm1
    if (target.family == "projective" and n < 2) or (target.family == "h_projective" and n < 4):
        raise InputError("projective normalization degenerates at rank 1")
    base = ext.with_g1_block(Mat.zero(len(target.plus_one), ext.pair.dim_m))
    rhs_full = _dstar(base, curvature(base))
    for vec in rhs_full:
        if any(vec.get(i) for i in target.minus_one + target.zero):
            raise InternalCheckError("contraction has unexpected off-grade components")
    l_op, _ = projective_normalization_operator(target)
    rhs = [-vec.get(t, 0) for vec in rhs_full for t in target.plus_one]
    sol = solve_linear(l_op, Mat.column(rhs))
    if sol is None:
        raise InternalCheckError("normalization system is inconsistent")
    kernel_trivial = not sol.kernel
    b2_rows: dict = {}
    for idx, row in sol.particular.sparse.items():  # unknown k * n + j is b2[k, j]
        k, j = divmod(idx, n)
        b2_rows.setdefault(k, {})[j] = row[0]
    b2 = Mat.from_sparse(n, n, b2_rows)
    fixed = base.with_g1_block(b2 @ base.frame())
    kappa = curvature(fixed)
    if any(any(vec.values()) for vec in _dstar(fixed, kappa)):
        raise InternalCheckError("normalized contraction is not zero")
    _assert_b2_equivariant(fixed, b2)
    return B2Solution(fixed, b2, kernel_trivial, kappa)


def _assert_b2_equivariant(ext: Extension, b2: Mat) -> None:
    """b2 must intertwine the induced actions on g_-1 and g_1: b2 A_-(X) =
    A_+(X) b2 for every X in h, where A_-(X) and A_+(X) are the g_-1 and g_1
    blocks of ad(alpha X).

    Only the generator picks of h (`lie.generating_indices` of the isotropy
    algebra) are checked when `_chain_picks` returns them and each ad(alpha
    X_s) of a pick s maps g_-1 and g_1 into themselves, which is seen while
    its blocks are formed.  Proof: let V be g_-1 or g_1.  Both sides of the
    condition are linear in X, so the X in h for which ad(alpha X) maps V
    into V, and the X for which moreover b2 intertwines, form subspaces T
    and S, and the picks lie in both.  Take the vectors v_k of
    `lie.generator_chain` in order.  If v_k = [X_s, v_j] with v_j in S, then
    alpha v_k = [alpha X_s, alpha v_j] (`_chain_picks`), and the target's
    table is antisymmetric and satisfies Jacobi (its recorded realization
    certificate), so ad(alpha v_k) = [ad(alpha X_s), ad(alpha v_j)]: it maps
    V into V, and its blocks are the commutators of the blocks, which b2
    intertwines.  So every v_k lies in S, and the v_k span h.  When a
    condition fails, every basis element of h is checked.
    """
    target, h = ext.target, ext.pair.h_indices
    sc_g = target.algebra.constants
    cols = _sparse_cols(ext.alpha)

    def check(xs) -> bool:
        """Raise unless b2 intertwines at each x in xs; whether each
        ad(alpha X_x) maps g_-1 and g_1 into themselves."""
        kept = True
        for x in xs:
            a_minus, kept_minus = _ad_block(sc_g, cols[x], target.minus_one)
            a_plus, kept_plus = _ad_block(sc_g, cols[x], target.plus_one)
            if b2 @ a_minus != a_plus @ b2:
                raise InternalCheckError("solved b2 is not equivariant")
            kept = kept and kept_minus and kept_plus
        return kept

    picks = _chain_picks(ext, cols)
    if not (picks and check(picks)):
        check(x for x in h if x not in picks)


def _ad_block(sc_g, az: dict, idx: Sequence[int]) -> tuple:
    """ad(az) on span(idx) followed by the projection to it, as a matrix,
    and whether ad(az) maps span(idx) into itself.  Column c is [az, X_c] =
    -[X_c, az]."""
    local = {t: r for r, t in enumerate(idx)}
    rows: dict = {}
    kept = True
    for c, x in enumerate(idx):
        for t, v in sc_g.bracket_with(x, az).items():
            if t in local:
                rows.setdefault(local[t], {})[c] = -v
            elif v:
                kept = False
    return Mat.from_sparse(len(idx), len(idx), rows), kept


def _chain_picks(ext: Extension, cols: list) -> list:
    """The generator picks of h, in the pair's basis, when the target's table
    carries its recorded realization certificate and alpha v = [alpha X_s,
    alpha v_j] for each vector v = [X_s, v_j] of `lie.generator_chain` of
    the isotropy algebra, read in the pair's basis; [] otherwise."""
    target, h = ext.target, ext.pair.h_indices
    if not (h and target.algebra._recorded()):
        return []
    table_g = target.algebra.constants.table
    algebra = isotropy_rep(ext.pair).algebra
    images = []  # alpha of each chain vector
    for v, s, j in generator_chain(algebra):
        coords = {h[i]: c for i, c in v.items()}
        if s is not None and any(_defect(table_g, cols[h[s]], images[j], coords, cols).values()):
            return []
        image: dict = {}
        for k, c in coords.items():
            for t, x in cols[k].items():
                image[t] = image.get(t, 0) + c * x
        images.append(image)
    return [h[s] for s in generating_indices(algebra)]
