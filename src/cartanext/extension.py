"""Extensions of symmetric pairs into one-graded targets.

An extension is a linear map alpha from the pair's algebra into the graded
target, stored as a coordinate matrix.  This module validates the shape
axioms, computes curvature and torsion exactly, tests holomorphy against
explicit complex structures, and solves the normalization system that pins
the unique grade-one part in the projective families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import GradedAlgebra, SymmetricPair
from .errors import InputError, InternalCheckError, StructuralError
from .linalg import ONE, ZERO, Mat, invert, solve_linear


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
        """The induced map g_-1 -> g_1 (zero for purely frame-shaped alpha)."""
        return self.g1_block() @ invert(self.frame())

    def with_g1_block(self, block: Mat) -> "Extension":
        """Copy of the extension with the g_1-part of alpha|m replaced."""
        rows = self.alpha.to_rows()
        for r_local, r in enumerate(self.target.plus_one):
            for c_local, c in enumerate(self.pair.m_indices):
                rows[r][c] = block[r_local, c_local]
        return Extension(self.pair, self.target, Mat.from_rows(rows), self.label)

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


def validate(ext: Extension) -> ValidationReport:
    """Exact check of the four extension axioms, with failure witnesses."""
    pair, target = ext.pair, ext.target
    if pair.dim_m != target.dim_gm1:
        raise StructuralError(
            f"no grading-compatible structure possible: dim m = {pair.dim_m} "
            f"but dim g_-1 = {target.dim_gm1}"
        )
    h_in_g0 = AxiomCheck(True)
    for c in pair.h_indices:
        col = ext.alpha.col(c)
        if not (target.component_is_zero(col, -1) and target.component_is_zero(col, 1)):
            h_in_g0.ok = False
            if len(h_in_g0.witnesses) < WITNESS_CAP:
                h_in_g0.witnesses.append(c)
    m_no_g0 = AxiomCheck(True)
    for c in pair.m_indices:
        col = ext.alpha.col(c)
        if not target.component_is_zero(col, 0):
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
    sc_k = pair.k_algebra.constants
    sc_g = target.algebra.constants
    alpha_cols = [ext.alpha.col(c) for c in range(pair.dim)]
    for x in pair.h_indices:
        ax = alpha_cols[x]
        for y in range(pair.dim):
            lhs = [ZERO] * target.dim
            for k, c in sc_k.row(x, y).items():
                col = alpha_cols[k]
                for t in range(target.dim):
                    if col[t] != 0:
                        lhs[t] += c * col[t]
            rhs = sc_g.bracket_coords(ax, alpha_cols[y])
            if lhs != rhs:
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


@dataclass
class Curvature:
    """kappa(X, Y) = [alpha X, alpha Y] - alpha([X, Y]) on the m-basis."""

    ext: Extension
    values: dict  # (a, b) with a < b -> target coordinate vector

    def get(self, a: int, b: int) -> list:
        if a == b:
            return [ZERO] * self.ext.target.dim
        if a < b:
            return list(self.values[(a, b)])
        return [-x for x in self.values[(b, a)]]

    def evaluate(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list:
        out = [ZERO] * self.ext.target.dim
        for a, ua in enumerate(u):
            if ua == 0:
                continue
            for b, vb in enumerate(v):
                if vb == 0 or a == b:
                    continue
                w = self.get(a, b)
                f = ua * vb
                for t, x in enumerate(w):
                    if x != 0:
                        out[t] += f * x
        return out

    def component_zero(self, grade: int) -> bool:
        idx = self.ext.target.grade_indices(grade)
        return all(all(vec[i] == 0 for i in idx) for vec in self.values.values())

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in vec) for vec in self.values.values())

    def nonzero_entries(self) -> int:
        return sum(1 for vec in self.values.values() for x in vec if x != 0)

    def equivariance_witnesses(self, limit: int = 3) -> list:
        """Violations of kappa([Z,X],Y) + kappa(X,[Z,Y]) = [alpha Z, kappa(X,Y)]."""
        ext = self.ext
        pair, target = ext.pair, ext.target
        sc_k = pair.k_algebra.constants
        sc_g = target.algebra.constants
        m_pos = {k: t for t, k in enumerate(pair.m_indices)}
        bad = []
        for z in pair.h_indices:
            az = ext.alpha.col(z)
            for a in range(pair.dim_m):
                xa = pair.m_indices[a]
                za = sc_k.row(z, xa)
                u = [ZERO] * pair.dim_m
                for k, c in za.items():
                    u[m_pos[k]] = c
                for b in range(a + 1, pair.dim_m):
                    xb = pair.m_indices[b]
                    zb = sc_k.row(z, xb)
                    v = [ZERO] * pair.dim_m
                    for k, c in zb.items():
                        v[m_pos[k]] = c
                    eb = [ONE if t == b else ZERO for t in range(pair.dim_m)]
                    ea = [ONE if t == a else ZERO for t in range(pair.dim_m)]
                    lhs1 = self.evaluate(u, eb)
                    lhs2 = self.evaluate(ea, v)
                    lhs = [p + q for p, q in zip(lhs1, lhs2)]
                    rhs = sc_g.bracket_coords(az, self.get(a, b))
                    if lhs != rhs:
                        bad.append((z, a, b))
                        if len(bad) >= limit:
                            return bad
        return bad


def curvature(ext: Extension) -> Curvature:
    pair, target = ext.pair, ext.target
    sc_k = pair.k_algebra.constants
    sc_g = target.algebra.constants
    cols = [ext.alpha.col(c) for c in pair.m_indices]
    values = {}
    for a in range(pair.dim_m):
        for b in range(a + 1, pair.dim_m):
            bracket = sc_g.bracket_coords(cols[a], cols[b])
            correction = [ZERO] * target.dim
            for k, c in sc_k.row(pair.m_indices[a], pair.m_indices[b]).items():
                col = ext.alpha.col(k)
                for t in range(target.dim):
                    if col[t] != 0:
                        correction[t] += c * col[t]
            values[(a, b)] = [p - q for p, q in zip(bracket, correction)]
    return Curvature(ext, values)


def torsion_free(ext: Extension, kappa: Optional[Curvature] = None) -> bool:
    kappa = kappa or curvature(ext)
    return kappa.component_zero(-1)


def is_flat(ext: Extension, kappa: Optional[Curvature] = None) -> bool:
    kappa = kappa or curvature(ext)
    return kappa.is_zero()


def graded_rescale_operator(target: GradedAlgebra, s: Fraction) -> Mat:
    """Coordinate operator acting by s^k on grade k (an exact grading dilation)."""
    if s == 0:
        raise InputError("rescale factor must be nonzero")
    diag = [ZERO] * target.dim
    for i in range(target.dim):
        k = target.grade_of(i)
        diag[i] = ONE if k == 0 else (Fraction(s) if k == -1 else ONE / Fraction(s))
    return Mat.diag(diag)


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
    cols = []
    for b in target.algebra.basis:
        image = s @ b @ s
        coords = target.algebra.coordinates(image)
        if coords is None:
            raise InternalCheckError("conjugation does not preserve the target span")
        cols.append(coords)
    return Mat.from_rows([[cols[c][r] for c in range(len(cols))] for r in range(target.dim)])


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


def dstar_projective(ext: Extension) -> list:
    """The contraction sum_i [Z_i, kappa(X^i, X_j)] per elementary X_j.

    X^i and Z_i run over the matched elementary bases of g_-1 and g_1; the
    curvature is pulled back through the frame so that the contraction is
    evaluated on the grading coordinates themselves.
    """
    target = ext.target
    n = target.dim_gm1
    frame_inv = invert(ext.frame())
    kappa = curvature(ext)
    sc_g = target.algebra.constants
    out = []
    for j in range(n):
        uj = frame_inv.col(j)
        total = [ZERO] * target.dim
        for i in range(n):
            ui = frame_inv.col(i)
            kij = kappa.evaluate(ui, uj)
            zi = [ZERO] * target.dim
            zi[target.plus_one[i]] = ONE
            term = sc_g.bracket_coords(zi, kij)
            total = [p + q for p, q in zip(total, term)]
        out.append(total)
    return out


def projective_normalization_operator(target: GradedAlgebra) -> tuple[Mat, dict]:
    """The linear operator taking b2 to its contribution to the contraction.

    Returns (L, index) with L acting on flattened b2 entries b[k, j]
    (b sends the j-th elementary g_-1 vector to b[k, j] times the k-th
    elementary g_1 vector); equations are indexed by (j, t) for the
    g_1-coordinate t of the contraction at X_j.
    """
    n = target.dim_gm1
    sc_g = target.algebra.constants
    dim = target.dim

    def unit(i, grade):
        v = [ZERO] * dim
        v[(target.minus_one if grade == -1 else target.plus_one)[i]] = ONE
        return v

    u_table = [[sc_g.bracket_coords(unit(i, -1), unit(k, 1)) for k in range(n)] for i in range(n)]
    s_table = []
    for k in range(n):
        acc = [ZERO] * dim
        for i in range(n):
            term = sc_g.bracket_coords(unit(i, 1), u_table[i][k])
            acc = [p + q for p, q in zip(acc, term)]
        s_table.append(acc)
    rows = []
    for j in range(n):
        contributions = {}
        for k0 in range(n):
            for j0 in range(n):
                vec = list(s_table[k0]) if j == j0 else [ZERO] * dim
                cross = sc_g.bracket_coords(unit(j0, 1), u_table[j][k0])
                contributions[(k0, j0)] = [p - q for p, q in zip(vec, cross)]
        for t in target.plus_one:
            row = [ZERO] * (n * n)
            for (k0, j0), vec in contributions.items():
                if vec[t] != 0:
                    row[k0 * n + j0] = vec[t]
            rows.append(row)
    return Mat.from_rows(rows), {"equations": n * n, "unknowns": n * n}


def solve_projective_b2(ext: Extension) -> B2Solution:
    """Unique b2 making the curvature contraction vanish, with verification.

    Only the projective and h_projective targets carry this normalization;
    the homogeneous system is checked to have trivial kernel and the final
    contraction is recomputed to be exactly zero.
    """
    target = ext.target
    if target.family not in ("projective", "h_projective"):
        raise InputError("b2 normalization is defined for the projective families only")
    n = target.dim_gm1
    if (target.family == "projective" and n < 2) or (target.family == "h_projective" and n < 4):
        raise InputError("projective normalization degenerates at rank 1")
    base = ext.with_g1_block(Mat.zero(len(target.plus_one), ext.pair.dim_m))
    rhs_full = dstar_projective(base)
    for j, vec in enumerate(rhs_full):
        for i in target.minus_one + target.zero:
            if vec[i] != 0:
                raise InternalCheckError("contraction has unexpected off-grade components")
    l_op, _ = projective_normalization_operator(target)
    rhs = []
    for j in range(n):
        for t in target.plus_one:
            rhs.append(-rhs_full[j][t])
    sol = solve_linear(l_op, Mat.column(rhs))
    if sol is None:
        raise InternalCheckError("normalization system is inconsistent")
    kernel_trivial = not sol.kernel
    b2 = Mat.from_rows(
        [[sol.particular[k * n + j, 0] for j in range(n)] for k in range(n)]
    )
    fixed = base.with_g1_block(b2 @ base.frame())
    check = dstar_projective(fixed)
    if any(any(x != 0 for x in vec) for vec in check):
        raise InternalCheckError("normalized contraction is not zero")
    _assert_b2_equivariant(fixed, b2)
    return B2Solution(fixed, b2, kernel_trivial)


def _assert_b2_equivariant(ext: Extension, b2: Mat) -> None:
    """b2 must intertwine the induced actions on g_-1 and g_1."""
    target = ext.target
    sc_g = target.algebra.constants
    n = target.dim_gm1
    for h in ext.pair.h_indices:
        az = ext.alpha.col(h)
        ad = sc_g.ad_of_coords(az)
        a_minus = ad.submatrix(target.minus_one, target.minus_one)
        a_plus = ad.submatrix(target.plus_one, target.plus_one)
        if b2 @ a_minus != a_plus @ b2:
            raise InternalCheckError("solved b2 is not equivariant")
