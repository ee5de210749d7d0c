"""Catalog of one-graded target algebras and semisimple symmetric pairs.

Every object is built from explicit elementary-matrix patterns at
user-chosen small ranks (realified ambient size capped at 32), so each
construction is deterministic, exact and auditable against the block
displays it implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional, Sequence

from . import bases
from .errors import InputError, InternalCheckError
from .lie import (
    MatrixLieAlgebra,
    Representation,
    is_semisimple,
    killing_form,
    largest_invariant_subspace_dim,
    make_algebra,
)
from .linalg import (ONE, ZERO, Mat, Signature, SpanSolver, sparse_commutator, sparse_product,
                     sparse_rows, symmetric_signature)

MAX_AMBIENT = 32
MAX_DIM = 500

GRADED_FAMILIES = (
    "projective",
    "h_projective",
    "conformal",
    "complex_conformal",
    "quaternionic",
    "para_quaternionic",
    "grassmannian",
    "lagrangean",
    "spinorial",
    "su_pp",
)

PAIR_FAMILIES = (
    "group_type",
    "sl_block",
    "so_block",
    "conformal_model",
    "sp_block",
    "su_block",
    "so_complex",
    "sp1_block",
    "so_star",
)


# ---------------------------------------------------------------------------
# Graded algebras
# ---------------------------------------------------------------------------


@dataclass
class GradedAlgebra:
    """A one-graded algebra with explicit grade index sets and flip element."""

    algebra: MatrixLieAlgebra
    family: str
    params: dict
    grading_element: list  # coordinates of E in the basis
    minus_one: list
    zero: list
    plus_one: list
    flip_element: Mat
    gm1_layout: list
    gp1_layout: list
    ambient_J: Optional[Mat] = None

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def dim_gm1(self) -> int:
        return len(self.minus_one)

    def grade_of(self, index: int) -> int:
        if index < len(self.minus_one):
            return -1
        if index < len(self.minus_one) + len(self.zero):
            return 0
        return 1

    def grade_indices(self, k: int) -> list:
        return {-1: self.minus_one, 0: self.zero, 1: self.plus_one}[k]

    def component_is_zero(self, coords: Sequence[Fraction], k: int) -> bool:
        return all(coords[i] == 0 for i in self.grade_indices(k))


def _int_param(family: str, params: dict, name: str) -> int:
    """The integer parameter `name`; InputError naming it when it is missing
    or not an integer (strings, floats and booleans included)."""
    if name not in params:
        raise InputError(f"{family} needs the integer parameter {name!r}")
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{family} parameter {name!r} must be an integer, got {value!r}")
    return value


def _check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise InputError(f"algebra dimension {dim} exceeds the desk-scale cap {MAX_DIM}")


def _check_bounds(ambient: int, dim: int = 0) -> None:
    if ambient > MAX_AMBIENT:
        raise InputError(f"realified ambient size {ambient} exceeds the desk-scale cap {MAX_AMBIENT}")
    _check_dim(dim)


def _conjugates_to(left: dict, right: dict, b: dict, sign: int) -> bool:
    """Whether left @ b @ right == sign * b, all in `sparse_rows` form: the
    conjugation by an involution sends the basis element b to +-itself."""
    image = sparse_product(sparse_product(left, b), right)
    return image == {r: {c: sign * v for c, v in row.items()} for r, row in b.items()}


def _assemble_graded(name, family, params, gm1, g0, gp1, e_mat, flip,
                     gm1_layout, gp1_layout, ambient_j=None) -> GradedAlgebra:
    basis = list(gm1) + list(g0) + list(gp1)
    _check_bounds(basis[0].rows, len(basis))
    algebra = make_algebra(basis, name)
    n0, n1 = len(gm1), len(g0)
    minus_one = list(range(n0))
    zero = list(range(n0, n0 + n1))
    plus_one = list(range(n0 + n1, len(basis)))
    e_rows, flip_rows = sparse_rows(e_mat), sparse_rows(flip)
    for idx, b in enumerate(basis):
        k = -1 if idx < n0 else (0 if idx < n0 + n1 else 1)
        b_rows = sparse_rows(b)
        k_b = {r * b.rows + c: k * v for r, row in b_rows.items() for c, v in row.items() if k}
        if sparse_commutator(e_rows, b_rows, b.rows) != k_b:
            raise InternalCheckError(f"{name}: ad(E) is not {k} on basis element {idx}")
        if not _conjugates_to(flip_rows, flip_rows, b_rows, 1 if k == 0 else -1):
            raise InternalCheckError(f"{name}: flip conjugation sign wrong on element {idx}")
    coords = algebra.coordinates(e_mat)
    if coords is None:
        raise InternalCheckError(f"{name}: grading element not in the span")
    if any(coords[i] != 0 for i in minus_one + plus_one):
        raise InternalCheckError(f"{name}: grading element has nonzero off-grade part")
    if flip @ flip != Mat.identity(flip.rows):
        raise InternalCheckError(f"{name}: flip element does not square to the identity")
    return GradedAlgebra(
        algebra, family, dict(params), coords, minus_one, zero, plus_one,
        flip, gm1_layout, gp1_layout, ambient_j,
    )


def _sl_split_parts(p: int, q: int):
    """Blocks of sl(p+q, R) graded by the (p | q) coordinate split."""
    n = p + q
    gm1, gp1, layout = [], [], []
    for r in range(q):
        for c in range(p):
            gm1.append(Mat.unit(n, n, p + r, c))
            layout.append((r, c))
    for r in range(q):
        for c in range(p):
            gp1.append(Mat.unit(n, n, c, p + r))
    g0 = []
    for i in range(p):
        for j in range(p):
            if i != j:
                g0.append(Mat.unit(n, n, i, j))
    for i in range(q):
        for j in range(q):
            if i != j:
                g0.append(Mat.unit(n, n, p + i, p + j))
    for i in range(1, n):
        g0.append(Mat.unit(n, n, i, i) - Mat.unit(n, n, 0, 0))
    e_mat = Mat.diag([Fraction(q, n)] * p + [Fraction(-p, n)] * q)
    flip = Mat.diag([-1] * p + [1] * q)
    return gm1, g0, gp1, e_mat, flip, layout


def _build_projective(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("projective rank n must be >= 1")
    gm1, g0, gp1, e, flip, layout = _sl_split_parts(1, n)
    return _assemble_graded(
        f"sl({n + 1},R)-projective", "projective", {"n": n},
        gm1, g0, gp1, e, flip, layout, layout,
    )


def _build_grassmannian(params: dict) -> GradedAlgebra:
    p, q = int(params["p"]), int(params["q"])
    if p < 2 or q < 2:
        raise InputError("grassmannian needs p, q >= 2 (smaller ranks are projective)")
    gm1, g0, gp1, e, flip, layout = _sl_split_parts(p, q)
    return _assemble_graded(
        f"sl({p + q},R)-grassmannian({p},{q})", "grassmannian", {"p": p, "q": q},
        gm1, g0, gp1, e, flip, layout, layout,
    )


def _build_para_quaternionic(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 2:
        raise InputError("para-quaternionic rank n must be >= 2")
    gm1, g0, gp1, e, flip, layout = _sl_split_parts(2, n)
    return _assemble_graded(
        f"sl({n + 2},R)-para-quaternionic", "para_quaternionic", {"n": n},
        gm1, g0, gp1, e, flip, layout, layout,
    )


def _build_h_projective(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("h_projective rank n must be >= 1")
    m = n + 1
    zero = Mat.zero(m, m)
    gm1, gp1, layout = [], [], []
    for r in range(n):
        for comp in range(2):
            gm1.append(bases.complex_elementary(m, 1 + r, 0, 1 - comp, comp))
            gp1.append(bases.complex_elementary(m, 0, 1 + r, 1 - comp, comp))
            layout.append((r, comp))
    g0 = []
    for i in range(n):
        for j in range(n):
            if i != j:
                g0.append(bases.complex_elementary(m, 1 + i, 1 + j, 1, 0))
                g0.append(bases.complex_elementary(m, 1 + i, 1 + j, 0, 1))
    for i in range(n):
        diag = Mat.unit(m, m, 1 + i, 1 + i) - Mat.unit(m, m, 0, 0)
        g0.append(bases.realify_complex(diag, zero))
        g0.append(bases.realify_complex(zero, diag))
    e_c = Mat.diag([Fraction(n, m)] + [Fraction(-1, m)] * n)
    e_mat = bases.realify_complex(e_c, zero)
    flip = bases.realify_complex(Mat.diag([-1] + [1] * n), zero)
    return _assemble_graded(
        f"sl({m},C)-h-projective", "h_projective", {"n": n},
        gm1, g0, gp1, e_mat, flip, layout, layout,
        ambient_j=bases.complex_unit_matrix(m),
    )


def _conformal_parts(signs: Sequence[int]):
    """Blocks of so(p+1, q+1) with isotropic first and last coordinates."""
    n = len(signs)
    m = n + 2
    gm1, gp1 = [], []
    for r in range(n):
        gm1.append(Mat.unit(m, m, 1 + r, 0) - Mat.unit(m, m, m - 1, 1 + r, signs[r]))
        gp1.append(Mat.unit(m, m, 0, 1 + r) - Mat.unit(m, m, 1 + r, m - 1, signs[r]))
    g0 = [Mat.unit(m, m, 0, 0) - Mat.unit(m, m, m - 1, m - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            g0.append(
                Mat.unit(m, m, 1 + i, 1 + j) - Mat.unit(m, m, 1 + j, 1 + i, signs[i] * signs[j])
            )
    e_mat = g0[0]
    flip = Mat.diag([-1] + [1] * n + [-1])
    layout = list(range(n))
    return gm1, g0, gp1, e_mat, flip, layout


def _build_conformal(params: dict) -> GradedAlgebra:
    p, q = int(params["p"]), int(params["q"])
    if p + q < 1:
        raise InputError("conformal needs p + q >= 1")
    signs = [1] * p + [-1] * q
    gm1, g0, gp1, e, flip, layout = _conformal_parts(signs)
    return _assemble_graded(
        f"so({p + 1},{q + 1})-conformal", "conformal", {"p": p, "q": q},
        gm1, g0, gp1, e, flip, layout, layout,
    )


def _build_complex_conformal(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("complex conformal needs n >= 1")
    m = n + 2
    zero = Mat.zero(m, m)
    real_gm1, real_g0, real_gp1, e_real, flip_real, _ = _conformal_parts([1] * n)
    gm1, gp1, layout = [], [], []
    for r in range(n):
        for comp in range(2):
            re = real_gm1[r] if comp == 0 else zero
            im = zero if comp == 0 else real_gm1[r]
            gm1.append(bases.realify_complex(re, im))
            re = real_gp1[r] if comp == 0 else zero
            im = zero if comp == 0 else real_gp1[r]
            gp1.append(bases.realify_complex(re, im))
            layout.append((r, comp))
    g0 = []
    for b in real_g0:
        g0.append(bases.realify_complex(b, zero))
        g0.append(bases.realify_complex(zero, b))
    e_mat = bases.realify_complex(e_real, zero)
    flip = bases.realify_complex(flip_real, zero)
    return _assemble_graded(
        f"so({m},C)-conformal", "complex_conformal", {"n": n},
        gm1, g0, gp1, e_mat, flip, layout, layout,
        ambient_j=bases.complex_unit_matrix(m),
    )


def _build_quaternionic(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("quaternionic rank n must be >= 1")
    m = n + 1
    gm1, gp1, layout = [], [], []
    for r in range(n):
        for comp, unit in enumerate(bases.QUATERNION_UNITS):
            gm1.append(bases.quaternion_elementary(m, 1 + r, 0, unit))
            gp1.append(bases.quaternion_elementary(m, 0, 1 + r, unit))
            layout.append((r, comp))
    g0 = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for unit in bases.QUATERNION_UNITS:
                    g0.append(bases.quaternion_elementary(m, 1 + i, 1 + j, unit))
    for i in range(m):
        for unit in (bases.Q_I, bases.Q_J, bases.Q_K):
            g0.append(bases.quaternion_elementary(m, i, i, unit))
    for i in range(n):
        g0.append(
            bases.quaternion_elementary(m, 1 + i, 1 + i, bases.Q_ONE)
            - bases.quaternion_elementary(m, 0, 0, bases.Q_ONE)
        )
    e_parts = [Mat.diag([Fraction(n, m)] + [Fraction(-1, m)] * n)] + [Mat.zero(m, m)] * 3
    e_mat = bases.realify_quaternion(e_parts)
    flip = bases.realify_quaternion([Mat.diag([-1] + [1] * n)] + [Mat.zero(m, m)] * 3)
    return _assemble_graded(
        f"sl({m},H)-quaternionic", "quaternionic", {"n": n},
        gm1, g0, gp1, e_mat, flip, layout, layout,
    )


def _sym_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _alt_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _build_lagrangean(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("lagrangean rank n must be >= 1")
    m = 2 * n
    layout = _sym_pairs(n)
    gm1, gp1 = [], []
    for (i, j) in layout:
        if i == j:
            gm1.append(Mat.unit(m, m, n + i, i))
            gp1.append(Mat.unit(m, m, i, n + i))
        else:
            gm1.append(Mat.unit(m, m, n + i, j) + Mat.unit(m, m, n + j, i))
            gp1.append(Mat.unit(m, m, i, n + j) + Mat.unit(m, m, j, n + i))
    g0 = [
        Mat.unit(m, m, i, j) - Mat.unit(m, m, n + j, n + i)
        for i in range(n)
        for j in range(n)
    ]
    e_mat = Mat.diag([Fraction(1, 2)] * n + [Fraction(-1, 2)] * n)
    flip = Mat.diag([-1] * n + [1] * n)
    return _assemble_graded(
        f"sp({m},R)-lagrangean", "lagrangean", {"n": n},
        gm1, g0, gp1, e_mat, flip, layout, layout,
    )


def _build_spinorial(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 3:
        raise InputError("spinorial rank n must be >= 3 (lower ranks are not effective)")
    m = 2 * n
    layout = _alt_pairs(n)
    gm1 = [Mat.unit(m, m, n + i, j) - Mat.unit(m, m, n + j, i) for (i, j) in layout]
    gp1 = [Mat.unit(m, m, i, n + j) - Mat.unit(m, m, j, n + i) for (i, j) in layout]
    g0 = [
        Mat.unit(m, m, i, j) - Mat.unit(m, m, n + j, n + i)
        for i in range(n)
        for j in range(n)
    ]
    e_mat = Mat.diag([Fraction(1, 2)] * n + [Fraction(-1, 2)] * n)
    flip = Mat.diag([-1] * n + [1] * n)
    return _assemble_graded(
        f"so({n},{n})-spinorial", "spinorial", {"n": n},
        gm1, g0, gp1, e_mat, flip, layout, layout,
    )


def _u_block_matrices(n: int) -> tuple[list, list]:
    """Basis of anti-Hermitian n x n complex matrices as (re, im) pairs."""
    out, layout = [], []
    for i in range(n):
        for j in range(i + 1, n):
            out.append((Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i), Mat.zero(n, n)))
            layout.append(("a", i, j))
    for i in range(n):
        for j in range(i + 1, n):
            out.append((Mat.zero(n, n), Mat.unit(n, n, i, j) + Mat.unit(n, n, j, i)))
            layout.append(("s", i, j))
    for i in range(n):
        out.append((Mat.zero(n, n), Mat.unit(n, n, i, i)))
        layout.append(("d", i))
    return out, layout


def _build_su_pp(params: dict) -> GradedAlgebra:
    p = int(params["p"])
    if p < 1:
        raise InputError("su(p,p) rank p must be >= 1")
    n = p
    m = 2 * n
    zero_n = Mat.zero(n, n)
    zero_m = Mat.zero(m, m)
    u_parts, layout = _u_block_matrices(n)

    gm1 = [bases.realify_complex(_embed(re, m, n, 0), _embed(im, m, n, 0)) for re, im in u_parts]
    gp1 = [bases.realify_complex(_embed(re, m, 0, n), _embed(im, m, 0, n)) for re, im in u_parts]
    g0 = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for comp in range(2):
                    re = Mat.unit(n, n, i, j) if comp == 0 else zero_n
                    im = zero_n if comp == 0 else Mat.unit(n, n, i, j)
                    g0.append(_g0_su(m, n, re, im))
    for i in range(n):
        g0.append(_g0_su(m, n, Mat.unit(n, n, i, i), zero_n))
    for i in range(n - 1):
        diag = Mat.unit(n, n, i, i) - Mat.unit(n, n, i + 1, i + 1)
        g0.append(_g0_su(m, n, zero_n, diag))
    e_mat = _g0_su(m, n, Mat.identity(n).scale(Fraction(1, 2)), zero_n)
    flip = bases.realify_complex(Mat.diag([-1] * n + [1] * n), zero_m)
    return _assemble_graded(
        f"su({p},{p})", "su_pp", {"p": p},
        gm1, g0, gp1, e_mat, flip, layout, layout,
        ambient_j=bases.complex_unit_matrix(m),
    )


def _embed(x: Mat, size: int, row: int = 0, col: Optional[int] = None) -> Mat:
    """x placed in a size x size zero matrix with its corner at (row, col),
    on the diagonal when col is omitted."""
    col = row if col is None else col
    entries = [ZERO] * (size * size)
    for i in range(x.rows):
        for j in range(x.cols):
            entries[(row + i) * size + col + j] = x[i, j]
    return Mat(size, size, entries)


def _g0_su(m: int, n: int, re: Mat, im: Mat) -> Mat:
    """Realified [[A, 0], [0, -A^dagger]] for A = re + i im."""
    # -A^dagger = -conj(A)^T: real part -re^T, imaginary part im^T
    return bases.realify_complex(_embed(re, m) + _embed(-re.transpose(), m, n),
                                 _embed(im, m) + _embed(im.transpose(), m, n))


_GRADED_BUILDERS = {
    "projective": _build_projective,
    "h_projective": _build_h_projective,
    "conformal": _build_conformal,
    "complex_conformal": _build_complex_conformal,
    "quaternionic": _build_quaternionic,
    "para_quaternionic": _build_para_quaternionic,
    "grassmannian": _build_grassmannian,
    "lagrangean": _build_lagrangean,
    "spinorial": _build_spinorial,
    "su_pp": _build_su_pp,
}


@lru_cache(maxsize=None)
def _build_graded_cached(family: str, key: tuple) -> GradedAlgebra:
    return _GRADED_BUILDERS[family](dict(key))


def build_graded(family: str, params: dict) -> GradedAlgebra:
    """Construct a catalog graded algebra; results are memoized.

    The dimension cap is checked from the parameters, before any basis
    matrix is allocated.
    """
    if family not in _GRADED_BUILDERS:
        raise InputError(f"unsupported graded family {family!r}")
    if not isinstance(params, dict):
        raise InputError(f"{family} parameters must be a mapping, got {params!r}")
    _check_dim(expected_graded_dims(family, params)["dim_g"])
    key = tuple(sorted(params.items()))
    return _build_graded_cached(family, key)


def verify_graded(g: GradedAlgebra) -> list:
    """All type invariants, exactly; returns a list of failure descriptions."""
    failures = []
    sc = g.algebra.constants
    if not sc.antisymmetry_holds():
        failures.append("structure constants are not antisymmetric")
    witnesses = sc.jacobi_witnesses()
    if witnesses:
        failures.append(f"Jacobi identity fails at triples {witnesses}")
    grades = [g.grade_of(i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            target = grades[i] + grades[j]
            row = sc.row(i, j)
            if abs(target) > 1:
                if row:
                    failures.append(f"bracket of grades {grades[i]},{grades[j]} at ({i},{j}) is nonzero")
                continue
            allowed = set(g.grade_indices(target))
            if any(k not in allowed for k in row):
                failures.append(f"bracket at ({i},{j}) leaves grade {target}")
    if len(g.minus_one) != len(g.plus_one):
        failures.append("dim g_-1 != dim g_+1")
    bad = largest_invariant_subspace_dim(g.algebra, g.zero)
    if bad:
        failures.append(f"g_0 contains a nonzero ideal of dimension {bad}")
    return failures


# ---------------------------------------------------------------------------
# Symmetric pairs
# ---------------------------------------------------------------------------


@dataclass
class SymmetricPair:
    """An algebra with involution, basis adapted to the eigenspace split."""

    k_algebra: MatrixLieAlgebra
    family: str
    params: dict
    h_indices: list
    m_indices: list
    sigma_matrix: Mat  # coordinate action of the involution on the basis
    conjugator: Optional[Mat] = None  # ambient h with sigma = Ad(h), when available
    certificate_ideal: Optional[dict] = None
    _factors: Optional[list] = None

    @property
    def name(self) -> str:
        return self.k_algebra.name

    @property
    def dim(self) -> int:
        return self.k_algebra.dim

    @property
    def dim_h(self) -> int:
        return len(self.h_indices)

    @property
    def dim_m(self) -> int:
        return len(self.m_indices)

    def h_basis(self) -> list:
        return [self.k_algebra.basis[i] for i in self.h_indices]

    def m_basis(self) -> list:
        return [self.k_algebra.basis[i] for i in self.m_indices]


def _assemble_pair(name, family, params, h_mats, m_mats, conjugator=None,
                   certificate_ideal=None) -> SymmetricPair:
    basis = list(h_mats) + list(m_mats)
    _check_bounds(basis[0].rows, len(basis))
    algebra = make_algebra(basis, name)
    nh = len(h_mats)
    h_idx = list(range(nh))
    m_idx = list(range(nh, len(basis)))
    sc = algebra.constants
    for i in range(algebra.dim):
        gi = 1 if i < nh else -1
        for j in range(i + 1, algebra.dim):
            gj = 1 if j < nh else -1
            target_h = gi * gj == 1
            for k in sc.row(i, j):
                if (k < nh) != target_h:
                    raise InternalCheckError(
                        f"{name}: eigenspace bracket relation fails at ({i},{j})"
                    )
    sigma = Mat.diag([1] * nh + [-1] * len(m_idx))
    if conjugator is not None:
        inv_check = conjugator @ conjugator
        scalar = inv_check[0, 0]
        if inv_check != Mat.identity(conjugator.rows).scale(scalar) or scalar == 0:
            raise InternalCheckError(f"{name}: conjugator squared is not a scalar")
        left, right = sparse_rows(conjugator), sparse_rows(conjugator.scale(ONE / scalar))
        for i, b in enumerate(basis):
            if not _conjugates_to(left, right, sparse_rows(b), 1 if i < nh else -1):
                raise InternalCheckError(f"{name}: conjugator action mismatch at {i}")
    return SymmetricPair(algebra, family, dict(params), h_idx, m_idx, sigma,
                         conjugator, certificate_ideal)


def _pair_from_involution(name, family, params, k_mats, conjugator,
                          certificate_ideal=None) -> SymmetricPair:
    """Build a pair from a basis and an ambient conjugation involution."""
    probe = make_algebra(k_mats, name + "#probe")
    sq = conjugator @ conjugator
    scalar = sq[0, 0]
    if sq != Mat.identity(conjugator.rows).scale(scalar) or scalar == 0:
        raise InputError("conjugator must square to a nonzero scalar")
    inv = conjugator.scale(ONE / scalar)
    h_span = SpanSolver(probe.ambient_size ** 2)
    m_span = SpanSolver(probe.ambient_size ** 2)
    h_mats, m_mats = [], []
    for b in k_mats:
        image = conjugator @ b @ inv
        if probe.coordinates(image) is None:
            raise InputError("conjugation does not preserve the algebra span")
        plus = (b + image).scale(Fraction(1, 2))
        minus = (b - image).scale(Fraction(1, 2))
        if not plus.is_zero() and h_span.insert(plus.entries):
            h_mats.append(plus)
        if not minus.is_zero() and m_span.insert(minus.entries):
            m_mats.append(minus)
    return _assemble_pair(name, family, params, h_mats, m_mats, conjugator,
                          certificate_ideal)


# -- pair family builders ----------------------------------------------------


def _pair_group_type(params: dict) -> SymmetricPair:
    token = params["base"]
    base, norm = bases.parse_simple_algebra(token)
    if not base:
        raise InputError(f"group_type parameter 'base': {token!r} is the zero algebra")
    m = base[0].rows
    size = 2 * m
    h_mats = [_embed(x, size) + _embed(x, size, m) for x in base]
    m_mats = [_embed(x, size) - _embed(x, size, m) for x in base]
    swap = Mat.from_rows(
        [[ONE if j == i + m or j == i - m else ZERO for j in range(size)] for i in range(size)]
    )
    return _assemble_pair(
        f"group({norm})", "group_type", {"base": norm}, h_mats, m_mats, swap
    )


def _pair_sl_block(params: dict) -> SymmetricPair:
    p, q = int(params["p"]), int(params["q"])
    n = p + q
    if n < 2:
        raise InputError("sl_block needs p + q >= 2")
    h_mats, m_mats = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same = (i < p) == (j < p)
            (h_mats if same else m_mats).append(Mat.unit(n, n, i, j))
    for i in range(1, n):
        h_mats.append(Mat.unit(n, n, i, i) - Mat.unit(n, n, 0, 0))
    conj = Mat.diag([-1] * p + [1] * q)
    return _assemble_pair(
        f"(sl({n},R),s(gl({p})+gl({q})))", "sl_block", {"p": p, "q": q},
        h_mats, m_mats, conj,
    )


def _pair_so_block(params: dict) -> SymmetricPair:
    a, b, c, d = (int(params[k]) for k in ("a", "b", "c", "d"))
    signs = [1] * a + [-1] * c + [1] * b + [-1] * d
    n = len(signs)
    if n < 3:
        raise InputError("so_block needs total size >= 3")
    split = a + c
    h_mats, m_mats = [], []
    for i in range(n):
        for j in range(i + 1, n):
            mat = Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i, signs[i] * signs[j])
            same = (i < split) == (j < split)
            (h_mats if same else m_mats).append(mat)
    conj = Mat.diag([-1] * split + [1] * (n - split))
    return _assemble_pair(
        f"(so({a + b},{c + d}),so({a},{c})+so({b},{d}))", "so_block",
        {"a": a, "b": b, "c": c, "d": d}, h_mats, m_mats, conj,
    )


def _pair_conformal_model(params: dict) -> SymmetricPair:
    k, l = int(params["k"]), int(params["l"])
    graded = build_graded("conformal", {"p": k, "q": l})
    alg = graded.algebra
    h_mats = [alg.basis[i] for i in graded.zero]
    m_mats = [alg.basis[i] for i in graded.minus_one + graded.plus_one]
    return _assemble_pair(
        f"(so({k + 1},{l + 1}),so(1,1)+so({k},{l}))", "conformal_model",
        {"k": k, "l": l}, h_mats, m_mats, graded.flip_element,
    )


def _sp_paired_omega(p: int, q: int) -> Mat:
    m = 2 * (p + q)
    out = Mat.zero(m, m)
    entries = list(out.entries)
    for (off, size) in ((0, p), (2 * p, q)):
        for i in range(size):
            entries[(off + i) * m + off + size + i] = ONE
            entries[(off + size + i) * m + off + i] = -ONE
    return Mat(m, m, entries)


def _pair_sp_block(params: dict) -> SymmetricPair:
    p, q = int(params["p"]), int(params["q"])
    if p < 1 or q < 1:
        raise InputError("sp_block needs p, q >= 1")
    m = 2 * (p + q)
    h_mats = [_embed(x, m) for x in bases.sp_split_basis(p)]
    h_mats += [_embed(x, m, 2 * p) for x in bases.sp_split_basis(q)]
    omega1 = _sp_paired_omega(p, 0).submatrix(range(2 * p), range(2 * p))
    omega2 = _sp_paired_omega(q, 0).submatrix(range(2 * q), range(2 * q))
    m_mats = []
    for i in range(2 * p):
        for j in range(2 * q):
            r = Mat.unit(2 * p, 2 * q, i, j)
            s = omega2 @ r.transpose() @ omega1
            m_mats.append(_embed(r, m, 0, 2 * p) + _embed(s, m, 2 * p, 0))
    conj = Mat.diag([-1] * (2 * p) + [1] * (2 * q))
    cert = None
    if p == 1:
        cert = {"type": "split", "H": 0, "E": 1, "F": 2}
    return _assemble_pair(
        f"(sp({m},R),sp({2 * p},R)+sp({2 * q},R))", "sp_block", {"p": p, "q": q},
        h_mats, m_mats, conj, certificate_ideal=cert,
    )


def _pair_su_block(params: dict) -> SymmetricPair:
    a, b, c, d = (int(params[k]) for k in ("a", "b", "c", "d"))
    signs = [1] * a + [-1] * c + [1] * b + [-1] * d
    n = len(signs)
    if n < 2:
        raise InputError("su_block needs total size >= 2")
    split = a + c
    zero = Mat.zero(n, n)
    h_mats, m_mats = [], []
    for i in range(n):
        for j in range(i + 1, n):
            gij = signs[i] * signs[j]
            re = bases.realify_complex(Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i, gij), zero)
            im = bases.realify_complex(zero, Mat.unit(n, n, i, j) + Mat.unit(n, n, j, i, gij))
            same = (i < split) == (j < split)
            (h_mats if same else m_mats).extend([re, im])
    for i in range(n - 1):
        diag = Mat.unit(n, n, i, i) - Mat.unit(n, n, i + 1, i + 1)
        h_mats.append(bases.realify_complex(zero, diag))
    conj = bases.realify_complex(Mat.diag([-1] * split + [1] * (n - split)), zero)
    return _assemble_pair(
        f"(su({a + b},{c + d}),su({a},{c})+su({b},{d})+so(2))", "su_block",
        {"a": a, "b": b, "c": c, "d": d}, h_mats, m_mats, conj,
    )


def _pair_so_complex(params: dict) -> SymmetricPair:
    n = int(params["n"])
    if n < 2:
        raise InputError("so_complex needs n >= 2")
    graded = build_graded("spinorial", {"n": n}) if n >= 3 else None
    if graded is not None:
        k_mats = list(graded.algebra.basis)
    else:
        m = 2 * n
        k_mats = []
        for (i, j) in _alt_pairs(n):
            k_mats.append(Mat.unit(m, m, n + i, j) - Mat.unit(m, m, n + j, i))
            k_mats.append(Mat.unit(m, m, i, n + j) - Mat.unit(m, m, j, n + i))
        k_mats += [
            Mat.unit(m, m, i, j) - Mat.unit(m, m, n + j, n + i)
            for i in range(n)
            for j in range(n)
        ]
    m2 = 2 * n
    entries = [ZERO] * (m2 * m2)
    for i in range(n):
        entries[i * m2 + n + i] = -ONE
        entries[(n + i) * m2 + i] = ONE
    j_mat = Mat(m2, m2, entries)
    return _pair_from_involution(
        f"(so({n},{n}),so({n},C))", "so_complex", {"n": n}, k_mats, j_mat
    )


def _pair_sp1_block(params: dict) -> SymmetricPair:
    p, q = int(params["p"]), int(params["q"])
    if p < 1 or q < 0:
        raise InputError("sp1_block needs p >= 1")
    signs = [1] * (1 + p) + [-1] * q
    n = len(signs)
    h_mats = [bases.quaternion_elementary(n, 0, 0, u) for u in (bases.Q_I, bases.Q_J, bases.Q_K)]
    sub = bases.sp_pq_basis(signs[1:])
    size = 4 * n

    def shift(x: Mat) -> Mat:
        # embed a 4(n-1) realified block into coordinates 1..n-1 of H^n
        sub_n = n - 1
        entries = [ZERO] * (size * size)
        for bi in range(4):
            for bj in range(4):
                for i in range(sub_n):
                    for j in range(sub_n):
                        v = x[bi * sub_n + i, bj * sub_n + j]
                        if v != 0:
                            entries[(bi * n + 1 + i) * size + bj * n + 1 + j] = v
        return Mat(size, size, entries)

    h_mats += [shift(x) for x in sub]
    m_mats = []
    for s in range(1, n):
        gs = signs[0] * signs[s]
        for u in bases.QUATERNION_UNITS:
            partner = tuple(-gs * x for x in bases.quat_conj(u))
            m_mats.append(
                bases.quaternion_elementary(n, 0, s, u)
                + bases.quaternion_elementary(n, s, 0, partner)
            )
    conj = bases.realify_quaternion([Mat.diag([-1] + [1] * (n - 1))] + [Mat.zero(n, n)] * 3)
    cert = {"type": "quaternion", "I": 0, "J": 1, "K": 2}
    return _assemble_pair(
        f"(sp({1 + p},{q}),sp(1)+sp({p},{q}))", "sp1_block", {"p": p, "q": q},
        h_mats, m_mats, conj, certificate_ideal=cert,
    )


def _pair_so_star(params: dict) -> SymmetricPair:
    n = int(params["n"])
    if n < 1:
        raise InputError("so_star needs n >= 1")
    total = n + 1
    h_mats = [bases.quaternion_elementary(total, 0, 0, bases.Q_I)]
    sub = bases.so_star_basis(n)
    size = 4 * total

    def shift(x: Mat) -> Mat:
        entries = [ZERO] * (size * size)
        for bi in range(4):
            for bj in range(4):
                for i in range(n):
                    for j in range(n):
                        v = x[bi * n + i, bj * n + j]
                        if v != 0:
                            entries[(bi * total + 1 + i) * size + bj * total + 1 + j] = v
        return Mat(size, size, entries)

    h_mats += [shift(x) for x in sub]
    m_mats = []
    for s in range(1, total):
        for u in bases.QUATERNION_UNITS:
            partner = bases.quat_conj(
                bases.quat_mul(bases.quat_mul(bases.Q_I, u), bases.Q_I)
            )
            m_mats.append(
                bases.quaternion_elementary(total, 0, s, u)
                + bases.quaternion_elementary(total, s, 0, partner)
            )
    conj = bases.realify_quaternion([Mat.diag([-1] + [1] * n)] + [Mat.zero(total, total)] * 3)
    return _assemble_pair(
        f"(so*({2 * total}),so*(2)+so*({2 * n}))", "so_star", {"n": n},
        h_mats, m_mats, conj,
    )


_PAIR_BUILDERS = {
    "group_type": _pair_group_type,
    "sl_block": _pair_sl_block,
    "so_block": _pair_so_block,
    "conformal_model": _pair_conformal_model,
    "sp_block": _pair_sp_block,
    "su_block": _pair_su_block,
    "so_complex": _pair_so_complex,
    "sp1_block": _pair_sp1_block,
    "so_star": _pair_so_star,
}


@lru_cache(maxsize=None)
def _build_pair_cached(family: str, key: tuple) -> SymmetricPair:
    return _PAIR_BUILDERS[family](dict(key))


def _group_ambient(token) -> int:
    try:
        return 2 * bases.algebra_token_size(token)
    except InputError as exc:
        raise InputError(f"group_type parameter 'base': {exc}") from None


def _nonneg(*counts: int) -> int:
    return sum(max(c, 0) for c in counts)


# Parameters of each pair family and the realified ambient size they give.
_PAIR_SIZES = {
    "group_type": (("base",), _group_ambient),
    "sl_block": (("p", "q"), lambda p, q: p + q),
    "so_block": (("a", "b", "c", "d"), _nonneg),
    "conformal_model": (("k", "l"), lambda k, l: _nonneg(k, l) + 2),
    "sp_block": (("p", "q"), lambda p, q: 2 * (p + q)),
    "su_block": (("a", "b", "c", "d"), lambda *counts: 2 * _nonneg(*counts)),
    "so_complex": (("n",), lambda n: 2 * n),
    "sp1_block": (("p", "q"), lambda p, q: 4 * _nonneg(1 + p, q)),
    "so_star": (("n",), lambda n: 4 * (n + 1)),
}


def build_pair(family: str, params: dict) -> SymmetricPair:
    """Construct a catalog symmetric pair; results are memoized.

    The parameters and the realified ambient size are checked before any
    basis matrix is allocated.
    """
    if family not in _PAIR_BUILDERS:
        raise InputError(f"unsupported pair family {family!r}")
    if not isinstance(params, dict):
        raise InputError(f"{family} parameters must be a mapping, got {params!r}")
    names, ambient = _PAIR_SIZES[family]
    values = [params.get(name) if family == "group_type" else _int_param(family, params, name)
              for name in names]
    _check_bounds(ambient(*values))
    return _build_pair_cached(family, tuple(zip(names, values)))


def verify_pair(pair: SymmetricPair) -> list:
    """Pair invariants: eigenspace brackets are checked at construction, so
    this adds the Jacobi identity and effectivity."""
    failures = []
    sc = pair.k_algebra.constants
    if not sc.antisymmetry_holds():
        failures.append("structure constants are not antisymmetric")
    if sc.jacobi_witnesses(limit=1):
        failures.append("Jacobi identity fails")
    bad = largest_invariant_subspace_dim(pair.k_algebra, pair.h_indices)
    if bad:
        failures.append(f"h contains a nonzero ideal of dimension {bad}")
    return failures


# ---------------------------------------------------------------------------
# Derived data
# ---------------------------------------------------------------------------


def isotropy_rep(pair: SymmetricPair) -> Representation:
    """Action of the fixed subalgebra on the (-1)-eigenspace, in its basis."""
    sc = pair.k_algebra.constants
    m_pos = {k: t for t, k in enumerate(pair.m_indices)}
    dim_m = pair.dim_m
    mats = []
    for hi in pair.h_indices:
        entries = [ZERO] * (dim_m * dim_m)
        for col, mi in enumerate(pair.m_indices):
            for k, c in sc.row(hi, mi).items():
                entries[m_pos[k] * dim_m + col] = c
        mats.append(Mat(dim_m, dim_m, entries))
    if not pair.dim_h:
        raise InputError("isotropy representation needs a nonzero fixed subalgebra")
    sub = make_algebra(pair.h_basis(), pair.name + "#h")
    return Representation(sub, dim_m, mats, check=True)


def restricted_killing(pair: SymmetricPair) -> tuple[Mat, Signature]:
    """Killing form of the big algebra restricted to the (-1)-eigenspace."""
    if not is_semisimple(pair.k_algebra):
        raise InputError("restricted Killing form needs a semisimple algebra")
    gram = killing_form(pair.k_algebra).submatrix(pair.m_indices, pair.m_indices)
    from .linalg import matrix_rank

    if matrix_rank(gram) != pair.dim_m:
        raise InternalCheckError("restricted Killing form is degenerate; catalog bug")
    return gram, symmetric_signature(gram)


def direct_sum_pairs(parts: Sequence[SymmetricPair], name: str = "") -> SymmetricPair:
    """Block-diagonal direct sum with the summed involution."""
    if not parts:
        raise InputError("empty direct sum")
    total = sum(p.k_algebra.ambient_size for p in parts)
    h_mats, m_mats = [], []
    offset = 0
    for p in parts:
        h_mats += [_embed(x, total, offset) for x in p.h_basis()]
        m_mats += [_embed(x, total, offset) for x in p.m_basis()]
        offset += p.k_algebra.ambient_size
    label = name or "+".join(p.name for p in parts)
    return _assemble_pair(label, "direct_sum", {"parts": len(parts)}, h_mats, m_mats)


@dataclass
class PairFactor:
    """One simple factor of a pair, with its embedding into the parent."""

    pair: SymmetricPair
    m_embedding: Mat  # parent dim_m x factor dim_m, columns in parent m-coordinates
    group_type: bool  # True when sigma swaps two simple ideals


def factor_decomposition(pair: SymmetricPair) -> list:
    """Split a semisimple pair into simple symmetric-pair factors.

    Simple ideals are separated by the primitive idempotents of the centroid
    (the commutant of the adjoint representation); the involution either
    fixes an ideal or swaps two, a swapped orbit giving a group-type factor.
    """
    if pair._factors is not None:
        return pair._factors
    from .lie import commutant_basis, split_idempotents

    alg = pair.k_algebra
    dim = alg.dim
    adj = alg.adjoint_representation()
    centroid = commutant_basis(adj)
    projs = split_idempotents(centroid)
    if projs is None:
        raise InternalCheckError("centroid idempotent split failed")
    ideals, spans = [], []  # each ideal is the column space of its projector
    for p in projs:
        span = SpanSolver(dim)
        ideals.append([col for col in map(p.col, range(dim)) if span.insert(col)])
        spans.append(span)
    sigma_sign = [1 if i in pair.h_indices else -1 for i in range(dim)]

    def apply_sigma(vec):
        return [v * s for v, s in zip(vec, sigma_sign)]

    orbits, seen = [], set()
    for i, cols in enumerate(ideals):
        if i in seen:
            continue
        img = apply_sigma(cols[0])
        j = next((j for j, sp in enumerate(spans) if sp.contains(img)), i)
        seen.update((i, j))
        orbits.append((i,) if i == j else (i, j))

    factors = []
    for orbit in orbits:
        vectors = []
        for i in orbit:
            vectors.extend(ideals[i])
        h_sp, m_sp = SpanSolver(dim), SpanSolver(dim)
        h_vecs, m_vecs = [], []
        for v in vectors:
            sv = apply_sigma(v)
            plus = [(a + b) / 2 for a, b in zip(v, sv)]
            minus = [(a - b) / 2 for a, b in zip(v, sv)]
            if any(x != 0 for x in plus) and h_sp.insert(plus):
                h_vecs.append(plus)
            if any(x != 0 for x in minus) and m_sp.insert(minus):
                m_vecs.append(minus)
        h_mats = [alg.element(v) for v in h_vecs]
        m_mats = [alg.element(v) for v in m_vecs]
        sub = _assemble_pair(
            f"{pair.name}#f{len(factors)}", pair.family + "_factor", {}, h_mats, m_mats
        )
        m_pos = {k: t for t, k in enumerate(pair.m_indices)}
        cols = []
        for v in m_vecs:
            col = [ZERO] * pair.dim_m
            for idx, val in enumerate(v):
                if val != 0:
                    col[m_pos[idx]] = val
            cols.append(col)
        emb = Mat.from_columns(cols, pair.dim_m)
        factors.append(PairFactor(sub, emb, group_type=len(orbit) == 2))
    pair._factors = factors
    return factors


# ---------------------------------------------------------------------------
# Default desk-scale grid
# ---------------------------------------------------------------------------


def default_graded_grid() -> list:
    grid = []
    for n in range(2, 6):
        grid.append(("projective", {"n": n}))
    for p in range(0, 4):
        for q in range(max(p, 1), 7 - p):
            if p + q < 2 or p + q > 6:
                continue
            grid.append(("conformal", {"p": p, "q": q}))
    for (p, q) in ((2, 2), (2, 3), (3, 3)):
        grid.append(("grassmannian", {"p": p, "q": q}))
    for n in (2, 3):
        grid.append(("lagrangean", {"n": n}))
    for n in (3, 4):
        grid.append(("spinorial", {"n": n}))
    for n in (2, 3, 4):
        grid.append(("para_quaternionic", {"n": n}))
    grid.append(("quaternionic", {"n": 2}))
    for p in (1, 2):
        grid.append(("su_pp", {"p": p}))
    return grid


def default_pair_grid() -> list:
    return [
        ("group_type", {"base": "sl(2,R)"}),
        ("group_type", {"base": "sl(3,R)"}),
        ("group_type", {"base": "so(3)"}),
        ("group_type", {"base": "so(2,1)"}),
        ("group_type", {"base": "sl(2,C)"}),
        ("group_type", {"base": "su(2)"}),
        ("group_type", {"base": "sp(2,R)"}),
        ("sl_block", {"p": 1, "q": 1}),
        ("so_block", {"a": 1, "b": 1, "c": 1, "d": 1}),
        ("so_block", {"a": 2, "b": 1, "c": 1, "d": 1}),
        ("conformal_model", {"k": 1, "l": 1}),
        ("conformal_model", {"k": 2, "l": 1}),
        ("sp_block", {"p": 1, "q": 1}),
        ("su_block", {"a": 1, "b": 1, "c": 0, "d": 0}),
        ("su_block", {"a": 1, "b": 1, "c": 1, "d": 0}),
        ("so_complex", {"n": 2}),
        ("sp1_block", {"p": 1, "q": 1}),
        ("so_star", {"n": 2}),
    ]


def expected_graded_dims(family: str, params: dict) -> dict:
    """Dimension formulas used by the verification manifest and the size cap.

    Raises InputError naming a parameter that is missing or not an integer.
    """
    param = partial(_int_param, family, params)
    if family == "projective":
        n = param("n")
        return {"dim_g": (n + 1) ** 2 - 1, "dim_gm1": n}
    if family == "h_projective":
        n = param("n")
        return {"dim_g": 2 * ((n + 1) ** 2 - 1), "dim_gm1": 2 * n}
    if family == "conformal":
        n = param("p") + param("q")
        return {"dim_g": (n + 2) * (n + 1) // 2, "dim_gm1": n}
    if family == "complex_conformal":
        n = param("n")
        return {"dim_g": (n + 2) * (n + 1), "dim_gm1": 2 * n}
    if family == "quaternionic":
        n = param("n")
        return {"dim_g": 4 * (n + 1) ** 2 - 1, "dim_gm1": 4 * n}
    if family == "para_quaternionic":
        n = param("n")
        return {"dim_g": (n + 2) ** 2 - 1, "dim_gm1": 2 * n}
    if family == "grassmannian":
        p, q = param("p"), param("q")
        return {"dim_g": (p + q) ** 2 - 1, "dim_gm1": p * q}
    if family == "lagrangean":
        n = param("n")
        return {"dim_g": n * (2 * n + 1), "dim_gm1": n * (n + 1) // 2}
    if family == "spinorial":
        n = param("n")
        return {"dim_g": n * (2 * n - 1), "dim_gm1": n * (n - 1) // 2}
    if family == "su_pp":
        p = param("p")
        return {"dim_g": 4 * p * p - 1, "dim_gm1": p * p}
    raise InputError(f"no dimension formula for family {family!r}")
