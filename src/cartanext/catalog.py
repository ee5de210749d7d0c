"""Catalog of one-graded target algebras and semisimple symmetric pairs.

Every object is built at user-chosen small ranks (realified ambient size
capped at 32), so each construction is deterministic, exact and auditable
against the block displays it implements.  Every graded target but su(p, p)
and every block pair takes one basis from `cartanext.bases`; the
`conformal_model` and `so_complex` pairs take the conformal and spinorial
targets'.  One entry loop sorts such a basis, keeping its order, and
checks it: a matrix nonzero at (r, c) falls in the class f_r f_c of a
diagonal involution f (+1 in h, -1 in m; `_split`), or has the grade
e_r - e_c of a diagonal grading element e and the flip sign f_r f_c of
that grade (`_by_grade`, which `_assemble_graded` runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import operator
from functools import lru_cache
from itertools import compress
from typing import Optional, Sequence

from . import bases
from .errors import DependentBasisError, InputError, InternalCheckError
from .lie import (
    DerivedData,
    FrozenDict,
    MatrixLieAlgebra,
    Representation,
    commutant_basis,
    derived,
    is_semisimple,
    killing_form,
    largest_invariant_subspace_dim,
    make_algebra,
    split_idempotents,
    subalgebra,
)
from .linalg import ONE, Mat, Signature, SpanSolver, _clean, symmetric_signature

MAX_AMBIENT = 32
MAX_DIM = 500


# ---------------------------------------------------------------------------
# Graded algebras
# ---------------------------------------------------------------------------


@dataclass
class GradedAlgebra(DerivedData):
    """A one-graded algebra with explicit grade index sets and flip element.

    Builds are memoized and shared, so the index sets, layouts and grading
    coordinates are tuples and the parameters a FrozenDict.  Data derived
    once per target (`extension.projective_normalization_operator`) is kept
    in the `_derived` dict (see `lie.DerivedData`), which `==` and
    `dataclasses.replace` ignore."""

    algebra: MatrixLieAlgebra
    family: str
    params: dict
    grading_element: tuple  # coordinates of E in the basis
    minus_one: tuple
    zero: tuple
    plus_one: tuple
    flip_element: Mat
    gm1_layout: tuple
    ambient_J: Optional[Mat] = None

    def __post_init__(self):
        # `grade_of` reads a grade off the position of an index
        _check_index_sets(self.algebra.dim, (self.minus_one, self.zero, self.plus_one),
                          "minus_one + zero + plus_one", in_order=True)

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

    def grade_indices(self, k: int) -> tuple:
        return {-1: self.minus_one, 0: self.zero, 1: self.plus_one}[k]


def _check_index_sets(dim: int, sets: tuple, what: str, in_order: bool) -> None:
    """InputError unless the index tuples `sets` together hold each int of
    range(dim) exactly once, listed in increasing order when `in_order`.  A
    `dataclasses.replace` copy comes through here too."""
    listed = ([i for s in sets for i in s] if all(isinstance(s, (tuple, list)) for s in sets)
              else [None])
    if (any(type(i) is not int for i in listed)
            or (listed if in_order else sorted(listed)) != list(range(dim))):
        order = " in order" if in_order else ""
        raise InputError(f"{what} must list each index of range({dim}) exactly once{order}")


def _frozen(value):
    """Read-only deep copy of JSON-shaped data: mappings become FrozenDict
    and lists tuples, which serialize to the same JSON."""
    if isinstance(value, dict):
        return FrozenDict((k, _frozen(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _int_param(family: str, params: dict, name: str) -> int:
    """The integer parameter `name`; InputError naming it when it is missing,
    not an integer (strings, floats and booleans included) or negative: no
    family takes a negative count."""
    if name not in params:
        raise InputError(f"{family} needs the integer parameter {name!r}")
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{family} parameter {name!r} must be an integer, got {value!r}")
    if value < 0:
        raise InputError(f"{family} parameter {name!r} must not be negative, got {value}")
    return value


def _check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise InputError(f"algebra dimension {dim} exceeds the desk-scale cap {MAX_DIM}")


def _check_bounds(ambient: int, dim: int = 0) -> None:
    if ambient > MAX_AMBIENT:
        raise InputError(f"realified ambient size {ambient} exceeds the desk-scale cap {MAX_AMBIENT}")
    _check_dim(dim)


def _conjugates_to(left: Mat, right: Mat, b: Mat, sign: int) -> bool:
    """Whether left @ b @ right == sign * b: the conjugation by an
    involution sends the basis element b to +-itself."""
    return left @ b @ right == (b if sign == 1 else -b)


def _diagonal(name: str, what: str, m: Mat) -> list:
    """The diagonal of m, which must be diagonal."""
    if any(row.keys() != {r} for r, row in m.sparse.items()):
        raise InternalCheckError(f"{name}: {what} element is not diagonal")
    return [m.sparse[i][i] if i in m.sparse else 0 for i in range(m.rows)]


def _rule_table(d: list, rule) -> tuple:
    """(at, table) with table[at[r]][at[c]] = rule(d_r, d_c), the rule taken
    once for each pair of the few distinct values of d, so that no matrix
    entry pays a Fraction operation; the values are told apart by ==, since
    hashing a Fraction costs more than a few comparisons."""
    values = []
    for x in d:
        if x not in values:
            values.append(x)
    return [values.index(x) for x in d], [[rule(x, y) for y in values] for x in values]


def _split(name: str, basis: Sequence[Mat], diagonal: Mat) -> list:
    """`basis` sorted into the classes +1 (h) then -1 (m) of a diagonal
    involution d, each kept in the given order: a matrix nonzero at (r, c)
    falls in the class d_r d_c.  InternalCheckError when a matrix gets no
    class or two."""
    at, rule = _rule_table(_diagonal(name, "splitting", diagonal), operator.mul)
    classes = {1: [], -1: []}
    for idx, b in enumerate(basis):
        found = {rule[at[r]][at[c]] for r, row in b.sparse.items() for c in row}
        k = found.pop() if len(found) == 1 else None
        if k not in classes:
            raise InternalCheckError(f"{name}: basis element {idx} does not get one class")
        classes[k].append(b)
    return list(classes.values())


def _grade_code(x: tuple, y: tuple):
    """The grade e_r - e_c of an entry as an int, when it is -1, 0 or 1 and
    its flip sign f_r f_c is the one of that grade, else the pair (grade,
    sign); x = (e_r, f_r) and y = (e_c, f_c)."""
    k, sign = x[0] - y[0], x[1] * y[1]
    if k in (-1, 0, 1) and sign == (1 if k == 0 else -1):
        return int(k)
    return k, sign


def _by_grade(name: str, basis: Sequence[Mat], e_mat: Mat, flip: Mat) -> tuple:
    """(g_-1, g_0, g_1): `basis` sorted stably by the grades of the diagonal
    grading element E and checked against the diagonal flip.

    [E, X] = kX and flip X flip = +-X hold entry by entry: a matrix nonzero
    at (r, c) has grade e_r - e_c and flip sign f_r f_c there.  Each matrix
    must get one grade k in {-1, 0, 1}, and the sign -1 for k = +-1, +1 for
    k = 0; InternalCheckError naming its index in `basis` otherwise, or
    when the flip does not square to the identity."""
    e, f = _diagonal(name, "grading", e_mat), _diagonal(name, "flip", flip)
    at, rule = _rule_table(list(zip(e, f)), _grade_code)
    grades = {-1: [], 0: [], 1: []}
    for idx, b in enumerate(basis):
        found = {rule[at[r]][at[c]] for r, row in b.sparse.items() for c in row}
        k = next(iter(found)) if len(found) == 1 else None
        if k not in grades:  # no grade, two, one outside -1, 0, 1, or a wrong sign
            ks = {c[0] if isinstance(c, tuple) else c for c in found}
            if len(ks) != 1 or ks.pop() not in grades:
                raise InternalCheckError(f"{name}: basis element {idx} does not get one grade")
            raise InternalCheckError(f"{name}: flip conjugation sign wrong on element {idx}")
        grades[k].append(b)
    if any(x * x != 1 for x in f):
        raise InternalCheckError(f"{name}: flip element does not square to the identity")
    return tuple(grades.values())


def _assemble_graded(name, family, params, basis, e_mat, flip, gm1_layout,
                     ambient_j=None) -> GradedAlgebra:
    """The graded algebra of `basis`, in the order `_by_grade` sorts it."""
    _check_bounds(basis[0].rows, len(basis))
    gm1, g0, gp1 = _by_grade(name, basis, e_mat, flip)
    algebra = make_algebra(gm1 + g0 + gp1, name)
    n0, n1 = len(gm1), len(g0)
    minus_one = tuple(range(n0))
    zero = tuple(range(n0, n0 + n1))
    plus_one = tuple(range(n0 + n1, algebra.dim))
    coords = algebra.coordinate_matrix([e_mat])
    if coords is None:
        raise InternalCheckError(f"{name}: grading element not in the span")
    if any(i in coords.sparse for i in minus_one + plus_one):
        raise InternalCheckError(f"{name}: grading element has nonzero off-grade part")
    return GradedAlgebra(
        algebra, family, _frozen(params), tuple(coords.col(0)), minus_one, zero, plus_one,
        flip, tuple(gm1_layout), ambient_j,
    )


def _sl_target(name: str, family: str, params: dict, p: int, q: int) -> GradedAlgebra:
    """sl(p+q, R) graded by the (p | q) coordinate split.  Its g_1 lists the
    transposes of g_-1 in their order, which is by columns; `bases.sl_basis`
    lists g_1 by rows, another order once p >= 2."""
    n = p + q
    basis = bases.sl_basis(n)
    # sl_basis lists E_ij, i != j, row by row: E_ij for i < j is element i (n - 1) + j - 1
    g1 = [c * (n - 1) + j - 1 for j in range(p, n) for c in range(p)]
    skip = set(g1)
    basis = [b for i, b in enumerate(basis) if i not in skip] + [basis[i] for i in g1]
    return _assemble_graded(
        name, family, params, basis, Mat.diag([Fraction(q, n)] * p + [Fraction(-p, n)] * q),
        Mat.diag([-1] * p + [1] * q), [(r, c) for r in range(q) for c in range(p)],
    )


def _build_projective(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("projective rank n must be >= 1")
    return _sl_target(f"sl({n + 1},R)-projective", "projective", {"n": n}, 1, n)


def _build_grassmannian(params: dict) -> GradedAlgebra:
    p, q = int(params["p"]), int(params["q"])
    if p < 2 or q < 2:
        raise InputError("grassmannian needs p, q >= 2 (smaller ranks are projective)")
    return _sl_target(f"sl({p + q},R)-grassmannian({p},{q})", "grassmannian", {"p": p, "q": q},
                      p, q)


def _build_para_quaternionic(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 2:
        raise InputError("para-quaternionic rank n must be >= 2")
    return _sl_target(f"sl({n + 2},R)-para-quaternionic", "para_quaternionic", {"n": n}, 2, n)


def _build_h_projective(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("h_projective rank n must be >= 1")
    m = n + 1
    zero = Mat.zero(m, m)
    return _assemble_graded(
        f"sl({m},C)-h-projective", "h_projective", {"n": n},
        bases.complexify(bases.sl_basis(m)),
        bases.realify_complex(Mat.diag([Fraction(n, m)] + [Fraction(-1, m)] * n), zero),
        bases.realify_complex(Mat.diag([-1] + [1] * n), zero),
        [(r, comp) for r in range(n) for comp in range(2)],
        ambient_j=bases.complex_unit_matrix(m),
    )


def _light_cone(signs: Sequence[int]) -> Mat:
    """The form of so(p+1, q+1) with isotropic first and last coordinates."""
    m = len(signs) + 2
    return Mat.from_sparse(m, m, {0: {m - 1: 1}, m - 1: {0: 1},
                                  **{1 + r: {1 + r: s} for r, s in enumerate(signs)}})


def _build_conformal(params: dict) -> GradedAlgebra:
    p, q = int(params["p"]), int(params["q"])
    if p + q < 1:
        raise InputError("conformal needs p + q >= 1")
    n = p + q
    basis = bases.so_form_basis(_light_cone([1] * p + [-1] * q))
    # the first element, E_00 - E_(n+1)(n+1), is the grading element
    return _assemble_graded(f"so({p + 1},{q + 1})-conformal", "conformal", {"p": p, "q": q},
                            basis, basis[0], Mat.diag([-1] + [1] * n + [-1]), range(n))


def _build_complex_conformal(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("complex conformal needs n >= 1")
    m = n + 2
    basis = bases.complexify(bases.so_form_basis(_light_cone([1] * n)))
    # the first element, the real E_00 - E_(n+1)(n+1), is the grading element
    return _assemble_graded(
        f"so({m},C)-conformal", "complex_conformal", {"n": n}, basis, basis[0],
        bases.realify_complex(Mat.diag([-1] + [1] * n + [-1]), Mat.zero(m, m)),
        [(r, comp) for r in range(n) for comp in range(2)],
        ambient_j=bases.complex_unit_matrix(m),
    )


def _build_quaternionic(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("quaternionic rank n must be >= 1")
    m = n + 1
    zeros = [Mat.zero(m, m)] * 3
    return _assemble_graded(
        f"sl({m},H)-quaternionic", "quaternionic", {"n": n}, bases.sl_quaternion_basis(m),
        bases.realify_quaternion([Mat.diag([Fraction(n, m)] + [Fraction(-1, m)] * n)] + zeros),
        bases.realify_quaternion([Mat.diag([-1] + [1] * n)] + zeros),
        [(r, comp) for r in range(n) for comp in range(4)],
    )


def _build_lagrangean(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 1:
        raise InputError("lagrangean rank n must be >= 1")
    return _assemble_graded(
        f"sp({2 * n},R)-lagrangean", "lagrangean", {"n": n}, bases.sp_split_basis(n),
        Mat.diag([Fraction(1, 2)] * n + [Fraction(-1, 2)] * n), Mat.diag([-1] * n + [1] * n),
        [(i, j) for i in range(n) for j in range(i, n)],
    )


def _spinorial_parts(n: int) -> tuple:
    """so(n, n) of the split form [[0, I], [I, 0]], with the grading element
    and flip of its halves."""
    m = 2 * n
    split = Mat.from_sparse(m, m, {r: {(r + n) % m: 1} for r in range(m)})
    return (bases.so_form_basis(split), Mat.diag([Fraction(1, 2)] * n + [Fraction(-1, 2)] * n),
            Mat.diag([-1] * n + [1] * n))


def _build_spinorial(params: dict) -> GradedAlgebra:
    n = int(params["n"])
    if n < 3:
        raise InputError("spinorial rank n must be >= 3 (lower ranks are not effective)")
    return _assemble_graded(f"so({n},{n})-spinorial", "spinorial", {"n": n}, *_spinorial_parts(n),
                            [(i, j) for i in range(n) for j in range(i + 1, n)])


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
    # written by hand: the u(n) blocks of g_-1 and g_1 list every "a", then
    # every "s", then every "d" matrix, an order no row-major read gives
    return _assemble_graded(
        f"su({p},{p})", "su_pp", {"p": p}, gm1 + g0 + gp1, e_mat, flip, layout,
        ambient_j=bases.complex_unit_matrix(m),
    )


def _embed(x: Mat, size: int, row: int = 0, col: Optional[int] = None) -> Mat:
    """x placed in a size x size zero matrix with its corner at (row, col),
    on the diagonal when col is omitted."""
    col = row if col is None else col
    return Mat.from_sparse(size, size, {row + i: {col + j: v for j, v in line.items()}
                                        for i, line in x.sparse.items()})


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

GRADED_FAMILIES = tuple(_GRADED_BUILDERS)


# Parameters of each graded family and the (dim g, dim g_-1) they give;
# `expected_graded_dims` reads and checks them.
_GRADED_SIZES = {
    "projective": (("n",), lambda n: ((n + 1) ** 2 - 1, n)),
    "h_projective": (("n",), lambda n: (2 * ((n + 1) ** 2 - 1), 2 * n)),
    "conformal": (("p", "q"), lambda p, q: ((p + q + 2) * (p + q + 1) // 2, p + q)),
    "complex_conformal": (("n",), lambda n: ((n + 2) * (n + 1), 2 * n)),
    "quaternionic": (("n",), lambda n: (4 * (n + 1) ** 2 - 1, 4 * n)),
    "para_quaternionic": (("n",), lambda n: ((n + 2) ** 2 - 1, 2 * n)),
    "grassmannian": (("p", "q"), lambda p, q: ((p + q) ** 2 - 1, p * q)),
    "lagrangean": (("n",), lambda n: (n * (2 * n + 1), n * (n + 1) // 2)),
    "spinorial": (("n",), lambda n: (n * (2 * n - 1), n * (n - 1) // 2)),
    "su_pp": (("p",), lambda p: (4 * p * p - 1, p * p)),
}


@lru_cache(maxsize=None)
def _build_graded_cached(family: str, key: tuple) -> GradedAlgebra:
    return _GRADED_BUILDERS[family](dict(key))


def build_graded(family: str, params: dict) -> GradedAlgebra:
    """Construct a catalog graded algebra; results are memoized.

    The dimension cap is checked from the parameters, before any basis
    matrix is allocated.
    """
    if not isinstance(family, str) or family not in _GRADED_BUILDERS:
        raise InputError(f"unsupported graded family {family!r}")
    if not isinstance(params, dict):
        raise InputError(f"{family} parameters must be a mapping, got {params!r}")
    _check_dim(expected_graded_dims(family, params)["dim_g"])
    key = tuple((name, params[name]) for name in _GRADED_SIZES[family][0])
    return _build_graded_cached(family, key)


def verify_graded(g: GradedAlgebra) -> list:
    """All type invariants, exactly; returns a list of failure descriptions.

    The Jacobi identity is certified by the basis matrices realizing the
    structure constants, and once every other check has passed, effectivity
    is one kernel (`MatrixLieAlgebra.realization_certified` and
    `largest_ideal_dim` hold the proofs).  For an algebra built by
    `make_algebra` the realization was established during that build and
    is read here; any other algebra is checked here.  Antisymmetry is read
    off the same record: a recorded table (`MatrixLieAlgebra._recorded`)
    was written antisymmetric when it was built, each cell (j, i) as the
    negation of the cell (i, j) in one step and the diagonal empty, so
    only an unrecorded table takes the `antisymmetry_holds` scan.  Where a
    certificate does not apply, the full scans `jacobi_witnesses` and
    `largest_invariant_subspace_dim` run instead, so failing tables report
    the same witnesses and dimensions."""
    failures = []
    sc = g.algebra.constants
    antisymmetric = g.algebra._recorded() or sc.antisymmetry_holds()
    if not antisymmetric:
        failures.append("structure constants are not antisymmetric")
    if not (antisymmetric and g.algebra.realization_certified()):
        witnesses = sc.jacobi_witnesses()
        if witnesses:
            failures.append(f"Jacobi identity fails at triples {witnesses}")
    grades = [g.grade_of(i) for i in range(g.dim)]
    allowed_in = {t: set(g.grade_indices(t)) for t in (-1, 0, 1)}
    for i in range(g.dim):
        row_i = sc.table[i]
        for j in compress(range(g.dim), row_i):  # the nonzero rows only
            target = grades[i] + grades[j]
            if abs(target) > 1:
                failures.append(f"bracket of grades {grades[i]},{grades[j]} at ({i},{j}) is nonzero")
            elif not row_i[j].keys() <= allowed_in[target]:
                failures.append(f"bracket at ({i},{j}) leaves grade {target}")
    if len(g.minus_one) != len(g.plus_one):
        failures.append("dim g_-1 != dim g_+1")
    bad = None if failures else sc.largest_ideal_dim(g.zero)
    if bad is None:
        bad = largest_invariant_subspace_dim(g.algebra, g.zero)
    if bad:
        failures.append(f"g_0 contains a nonzero ideal of dimension {bad}")
    return failures


# ---------------------------------------------------------------------------
# Symmetric pairs
# ---------------------------------------------------------------------------


@dataclass
class SymmetricPair(DerivedData):
    """An algebra with involution, basis adapted to the eigenspace split.

    Builds are memoized and shared, so the index sets are tuples and the
    parameters and ideal certificate FrozenDicts.  `==` compares the fields,
    the algebra by its content.  The data derived once per pair
    (`isotropy_rep`, `centroid`, `factor_decomposition`) is kept in the
    `_derived` dict (see `lie.DerivedData`), not in a field:
    `dataclasses.replace` does not carry it over, and `asdict` does not
    recurse into a simple pair's factors, which hold the pair itself."""

    k_algebra: MatrixLieAlgebra
    family: str
    params: dict
    h_indices: tuple
    m_indices: tuple
    sigma_matrix: Mat  # coordinate action of the involution on the basis
    conjugator: Optional[Mat] = None  # ambient h with sigma = Ad(h), when available
    certificate_ideal: Optional[dict] = None

    def __post_init__(self):
        _check_index_sets(self.k_algebra.dim, (self.h_indices, self.m_indices),
                          "h_indices + m_indices", in_order=False)

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
    h_idx = tuple(range(nh))
    m_idx = tuple(range(nh, len(basis)))
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
        right = conjugator.scale(ONE / scalar)
        for i, b in enumerate(basis):
            if not _conjugates_to(conjugator, right, b, 1 if i < nh else -1):
                raise InternalCheckError(f"{name}: conjugator action mismatch at {i}")
    return SymmetricPair(algebra, family, _frozen(params), h_idx, m_idx, sigma,
                         conjugator, _frozen(certificate_ideal))


def _pair_from_involution(name, family, params, k_mats, conjugator,
                          certificate_ideal=None) -> SymmetricPair:
    """Build a pair from a basis and an ambient conjugation involution.
    The basis must be independent; `_assemble_pair` checks closure."""
    size = conjugator.rows ** 2
    k_span = SpanSolver(size)
    for idx, b in enumerate(k_mats):
        if not k_span.insert(b.flat()):
            raise DependentBasisError(idx)
    sq = conjugator @ conjugator
    scalar = sq[0, 0]
    if sq != Mat.identity(conjugator.rows).scale(scalar) or scalar == 0:
        raise InputError("conjugator must square to a nonzero scalar")
    inv = conjugator.scale(ONE / scalar)
    h_span = SpanSolver(size)
    m_span = SpanSolver(size)
    h_mats, m_mats = [], []
    for b in k_mats:
        image = conjugator @ b @ inv
        if not k_span.contains(image.flat()):
            raise InputError("conjugation does not preserve the algebra span")
        plus = (b + image).scale(Fraction(1, 2))
        minus = (b - image).scale(Fraction(1, 2))
        if not plus.is_zero() and h_span.insert(plus.flat()):
            h_mats.append(plus)
        if not minus.is_zero() and m_span.insert(minus.flat()):
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
    swap = Mat.from_sparse(size, size, {i: {(i + m) % size: 1} for i in range(size)})
    return _assemble_pair(
        f"group({norm})", "group_type", {"base": norm}, h_mats, m_mats, swap
    )


def _pair_sl_block(params: dict) -> SymmetricPair:
    p, q = int(params["p"]), int(params["q"])
    n = p + q
    if n < 2:
        raise InputError("sl_block needs p + q >= 2")
    name = f"(sl({n},R),s(gl({p})+gl({q})))"
    conj = Mat.diag([-1] * p + [1] * q)
    return _assemble_pair(name, "sl_block", {"p": p, "q": q},
                          *_split(name, bases.sl_basis(n), conj), conj)


def _pair_so_block(params: dict) -> SymmetricPair:
    a, b, c, d = (int(params[k]) for k in ("a", "b", "c", "d"))
    signs = [1] * a + [-1] * c + [1] * b + [-1] * d
    if len(signs) < 3:
        raise InputError("so_block needs total size >= 3")
    name = f"(so({a + b},{c + d}),so({a},{c})+so({b},{d}))"
    conj = Mat.diag([-1] * (a + c) + [1] * (b + d))
    return _assemble_pair(name, "so_block", {"a": a, "b": b, "c": c, "d": d},
                          *_split(name, bases.so_diag_basis(signs), conj), conj)


def _pair_conformal_model(params: dict) -> SymmetricPair:
    k, l = int(params["k"]), int(params["l"])
    if k + l < 1:
        raise InputError("conformal_model needs k + l >= 1")
    name = f"(so({k + 1},{l + 1}),so(1,1)+so({k},{l}))"
    graded = build_graded("conformal", {"p": k, "q": l})
    flip = graded.flip_element
    return _assemble_pair(name, "conformal_model", {"k": k, "l": l},
                          *_split(name, graded.algebra.basis, flip), flip)


def _pair_sp_block(params: dict) -> SymmetricPair:
    p, q = int(params["p"]), int(params["q"])
    if p < 1 or q < 1:
        raise InputError("sp_block needs p, q >= 1")
    m = 2 * (p + q)
    h_mats = [_embed(x, m) for x in bases.sp_split_basis(p)]
    h_mats += [_embed(x, m, 2 * p) for x in bases.sp_split_basis(q)]
    omega1, omega2 = bases.symplectic_form(p), bases.symplectic_form(q)
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
    name = f"(su({a + b},{c + d}),su({a},{c})+su({b},{d})+so(2))"
    conj = bases.realify_complex(Mat.diag([-1] * (a + c) + [1] * (b + d)), Mat.zero(n, n))
    return _assemble_pair(name, "su_block", {"a": a, "b": b, "c": c, "d": d},
                          *_split(name, bases.su_basis(signs), conj), conj)


def _pair_so_complex(params: dict) -> SymmetricPair:
    n = int(params["n"])
    if n < 2:
        raise InputError("so_complex needs n >= 2")
    name = f"(so({n},{n}),so({n},C))"
    # the spinorial target's basis in its graded order, also at n = 2
    k_mats = [b for grade in _by_grade(name, *_spinorial_parts(n)) for b in grade]
    return _pair_from_involution(name, "so_complex", {"n": n}, k_mats, -bases.symplectic_form(n))


def _pair_sp1_block(params: dict) -> SymmetricPair:
    p, q = int(params["p"]), int(params["q"])
    if p < 1 or q < 0:
        raise InputError("sp1_block needs p >= 1")
    n = 1 + p + q
    name = f"(sp({1 + p},{q}),sp(1)+sp({p},{q}))"
    conj = bases.realify_quaternion([Mat.diag([-1] + [1] * (n - 1))] + [Mat.zero(n, n)] * 3)
    return _assemble_pair(name, "sp1_block", {"p": p, "q": q},
                          *_split(name, bases.sp_pq_basis([1] * (1 + p) + [-1] * q), conj), conj,
                          certificate_ideal={"type": "quaternion", "I": 0, "J": 1, "K": 2})


def _pair_so_star(params: dict) -> SymmetricPair:
    n = int(params["n"])
    if n < 1:
        raise InputError("so_star needs n >= 1")
    total = n + 1
    name = f"(so*({2 * total}),so*(2)+so*({2 * n}))"
    conj = bases.realify_quaternion([Mat.diag([-1] + [1] * n)] + [Mat.zero(total, total)] * 3)
    return _assemble_pair(name, "so_star", {"n": n},
                          *_split(name, bases.so_star_basis(total), conj), conj)


def _pair_direct_sum(params: dict) -> SymmetricPair:
    """The direct sum of the pairs keyed by params["parts"]."""
    parts = [_build_pair_cached(family, key) for family, key in params["parts"]]
    return direct_sum_pairs(parts, params["name"])


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
    "direct_sum": _pair_direct_sum,
}

PAIR_FAMILIES = tuple(f for f in _PAIR_BUILDERS if f != "direct_sum")


@lru_cache(maxsize=None)
def _build_pair_cached(family: str, key: tuple) -> SymmetricPair:
    return _PAIR_BUILDERS[family](dict(key))


def _group_base(token) -> str:
    """The base token as `bases` normalizes it, so that the memo keys each
    algebra once however its token is spaced."""
    try:
        return bases._read_token(token)[3]
    except InputError as exc:
        raise InputError(f"group_type parameter 'base': {exc}") from None


# Parameters of each pair family and the realified ambient size they give.
_PAIR_SIZES = {
    "group_type": (("base",), lambda base: 2 * bases.algebra_token_size(base)),
    "sl_block": (("p", "q"), lambda p, q: p + q),
    "so_block": (("a", "b", "c", "d"), lambda *counts: sum(counts)),
    "conformal_model": (("k", "l"), lambda k, l: k + l + 2),
    "sp_block": (("p", "q"), lambda p, q: 2 * (p + q)),
    "su_block": (("a", "b", "c", "d"), lambda *counts: 2 * sum(counts)),
    "so_complex": (("n",), lambda n: 2 * n),
    "sp1_block": (("p", "q"), lambda p, q: 4 * (1 + p + q)),
    "so_star": (("n",), lambda n: 4 * (n + 1)),
}


def _pair_key(family: str, params: dict, nested: bool = False) -> tuple:
    """(memo key, realified ambient size) of a pair build, read from its
    parameters and checked, without building anything.  A direct sum's key
    holds its parts' keys, and its size is the sum of theirs."""
    if not isinstance(family, str) or family not in _PAIR_BUILDERS:
        raise InputError(f"unsupported pair family {family!r}")
    if not isinstance(params, dict):
        raise InputError(f"{family} parameters must be a mapping, got {params!r}")
    if family != "direct_sum":
        names, ambient = _PAIR_SIZES[family]
        values = ([_group_base(params.get("base"))] if family == "group_type"
                  else [_int_param(family, params, name) for name in names])
        return tuple(zip(names, values)), ambient(*values)
    if nested:
        raise InputError("a direct_sum part cannot itself be a direct sum")
    parts, name = params.get("parts"), params.get("name", "")
    if not isinstance(parts, (list, tuple)) or not parts:
        raise InputError(f"direct_sum parameter 'parts' must be a nonempty list, got {parts!r}")
    if not isinstance(name, str):
        raise InputError(f"direct_sum parameter 'name' must be a string, got {name!r}")
    keys, total = [], 0
    for part in parts:
        if not isinstance(part, dict) or "family" not in part or "params" not in part:
            raise InputError(f"direct_sum part must hold 'family' and 'params', got {part!r}")
        key, ambient = _pair_key(part["family"], part["params"], nested=True)
        keys.append((part["family"], key))
        total += ambient
    return (("name", name), ("parts", tuple(keys))), total


def build_pair(family: str, params: dict) -> SymmetricPair:
    """Construct a catalog symmetric pair; results are memoized.

    The parameters and the realified ambient size are checked before any
    basis matrix is allocated.  Besides the families of `PAIR_FAMILIES`,
    "direct_sum" rebuilds the pairs `direct_sum_pairs` makes, from the
    parameters it records.
    """
    key, ambient = _pair_key(family, params)
    _check_bounds(ambient)
    return _build_pair_cached(family, key)


def verify_pair(pair: SymmetricPair) -> list:
    """Pair invariants: antisymmetry, the Jacobi identity and effectivity
    (no nonzero ideal of k inside h).

    As in `verify_graded`, the Jacobi identity is certified by the basis
    matrices realizing the structure constants (established by
    `make_algebra` during the build, or checked here for an algebra made
    any other way), a recorded table counts as antisymmetric without the
    `antisymmetry_holds` scan, and, once both hold, effectivity is one
    kernel.  The kernel needs [h, h] inside h and [h, m] inside m.
    Construction checks the eigenspace brackets, but a pair made by
    `dataclasses.replace` skips that, so the certificate reads them off the
    table itself, and the full search runs where they fail."""
    failures = []
    sc = pair.k_algebra.constants
    antisymmetric = pair.k_algebra._recorded() or sc.antisymmetry_holds()
    if not antisymmetric:
        failures.append("structure constants are not antisymmetric")
    if not (antisymmetric and pair.k_algebra.realization_certified()):
        if sc.jacobi_witnesses(limit=1):
            failures.append("Jacobi identity fails")
    bad = None if failures else sc.largest_ideal_dim(pair.h_indices)
    if bad is None:
        bad = largest_invariant_subspace_dim(pair.k_algebra, pair.h_indices)
    if bad:
        failures.append(f"h contains a nonzero ideal of dimension {bad}")
    return failures


# ---------------------------------------------------------------------------
# Derived data
# ---------------------------------------------------------------------------


@derived
def isotropy_rep(pair: SymmetricPair) -> Representation:
    """Action of the fixed subalgebra on the (-1)-eigenspace, in its basis,
    built once per pair and kept on it.

    Everything is read off the pair's table.  A key-set test over the cells
    of the h rows checks [h, h] inside h and [h, m] inside m (`InputError`
    otherwise); the action of X_h on m is built from the cells [X_h, X_m]
    alone, column by column; and h's table is the parent's on the unit
    vectors of h (`subalgebra`).  When the parent's realization certificate
    is recorded, so is h's, and the homomorphism check is skipped: the parent's table
    then satisfies the Jacobi identity, so ad restricted to the invariant m
    is a homomorphism.  Otherwise `Representation` checks it."""
    if not pair.dim_h:
        raise InputError("isotropy representation needs a nonzero fixed subalgebra")
    table = pair.k_algebra.constants.table
    h_set, m_pos = frozenset(pair.h_indices), {k: t for t, k in enumerate(pair.m_indices)}
    mats = []
    for hi in pair.h_indices:
        if any(not cell.keys() <= (h_set if x in h_set else m_pos.keys())
               for x, cell in enumerate(table[hi])):
            raise InputError(f"{pair.name}: [h, h] or [h, m] leaves its eigenspace at {hi}")
        cells = {t: {m_pos[k]: c for k, c in table[hi][x].items()}  # ad X_hi on m, by columns
                 for t, x in enumerate(pair.m_indices)}
        mats.append(Mat._of(pair.dim_m, pair.dim_m, _clean(cells)).transpose())
    sub = subalgebra(pair.k_algebra, [{i: 1} for i in pair.h_indices], pair.name + "#h")
    return Representation(sub, pair.dim_m, mats, check=not sub._recorded())


def restricted_killing(pair: SymmetricPair) -> tuple[Mat, Signature]:
    """Killing form of the big algebra restricted to the (-1)-eigenspace."""
    if not is_semisimple(pair.k_algebra):
        raise InputError("restricted Killing form needs a semisimple algebra")
    gram = killing_form(pair.k_algebra).submatrix(pair.m_indices, pair.m_indices)
    sig = symmetric_signature(gram)
    if sig.nullity:
        raise InternalCheckError("restricted Killing form is degenerate; catalog bug")
    return gram, sig


def direct_sum_pairs(parts: Sequence[SymmetricPair], name: str = "") -> SymmetricPair:
    """Block-diagonal direct sum with the summed involution.

    The parameters record each part as {"family", "params"}, so that
    `build_pair("direct_sum", params)` rebuilds the sum.  A part that is a
    direct sum contributes its own parts: the bases, and the default name,
    are the same as for the flat sum.
    """
    if not parts:
        raise InputError("empty direct sum")
    total = sum(p.k_algebra.ambient_size for p in parts)
    h_mats, m_mats, specs, offset = [], [], [], 0
    for p in parts:
        h_mats += [_embed(x, total, offset) for x in p.h_basis()]
        m_mats += [_embed(x, total, offset) for x in p.m_basis()]
        offset += p.k_algebra.ambient_size
        if p.family == "direct_sum":
            specs += p.params["parts"]
        else:
            specs.append({"family": p.family, "params": p.params})
    params = {"parts": specs, **({"name": name} if name else {})}
    label = name or "+".join(p.name for p in parts)
    return _assemble_pair(label, "direct_sum", params, h_mats, m_mats)


@dataclass
class PairFactor:
    """One simple factor of a pair, with its embedding into the parent."""

    pair: SymmetricPair
    m_embedding: Mat  # parent dim_m x factor dim_m, columns in parent m-coordinates
    group_type: bool  # True when sigma swaps two simple ideals


@derived
def centroid(pair: SymmetricPair) -> tuple:
    """The centroid of the pair's algebra, the commutant of its adjoint
    representation, as (basis, primitive idempotents), computed once per
    pair: `factor_decomposition` and the h-projective decision both read
    it.  `commutant_basis` returns the basis in reduced echelon
    form, and `split_idempotents` reads coordinates at its pivots and
    refines it block by block into fields, for a direct sum as for every
    other pair.  For a simple algebra the spin-up stops as soon as one
    candidate is left, the identity's, with the centroid Q I.

    The centroid of a semisimple algebra is a product of fields F_i, and its
    trace form on k is sum_i dim_{F_i} k_i Tr_{F_i/Q}, nondegenerate, so the
    split succeeds; `InternalCheckError` when it fails, as it may for an
    algebra that is not semisimple."""
    basis = tuple(commutant_basis(pair.k_algebra.adjoint_representation()))
    projs = split_idempotents(basis)
    if projs is None:
        raise InternalCheckError("centroid idempotent split failed")
    return basis, tuple(projs)


@derived
def factor_decomposition(pair: SymmetricPair) -> tuple:
    """Split a semisimple pair into simple symmetric-pair factors;
    `InputError` for a pair that is not semisimple.

    Simple ideals are separated by the primitive idempotents of the centroid
    (the commutant of the adjoint representation); the involution either
    fixes an ideal or swaps two, a swapped orbit giving a group-type factor.
    The orbits are read off the projectors: sigma maps the ideal of P to
    the ideal of sigma P sigma, which is again one of the projectors.  A
    pair with one orbit is simple and is its own factor, embedded by the
    identity, and no ideal is spanned.  Vectors are sparse coordinates
    {index: value}.  The involution is +1 on the h coordinates and -1 on the
    m coordinates, so (v + sigma v)/2 is v restricted to h and
    (v - sigma v)/2 is v restricted to m.  Each factor of several is read
    off the parent's table by
    `subalgebra` on its h vectors, then its m vectors, so its eigenspace
    split is the supports' split; no ambient commutator is taken, and the
    parent's recorded certificate, if any, carries over.
    """
    alg = pair.k_algebra
    if not is_semisimple(alg):
        raise InputError("factor decomposition needs a semisimple algebra")
    dim = alg.dim
    _, projs = centroid(pair)
    h_set = frozenset(pair.h_indices)
    # sigma permutes the simple ideals, so sigma P sigma is the projector of
    # sigma's image of P's ideal: P with entry (r, c) negated when one of r
    # and c is an h index and the other is not
    orbits, seen = [], set()
    for i, p in enumerate(projs):
        if i in seen:
            continue
        img = Mat._of(dim, dim, {r: {c: v if (r in h_set) == (c in h_set) else -v
                                     for c, v in row.items()} for r, row in p.sparse.items()})
        j = next((j for j, q in enumerate(projs) if q == img), i)
        seen.update((i, j))
        orbits.append((i,) if i == j else (i, j))
    if len(orbits) == 1:  # a simple pair: the one orbit spans the algebra
        return (PairFactor(pair, Mat.identity(pair.dim_m), group_type=len(orbits[0]) == 2),)

    ideals = []  # each ideal is the column space of its projector
    for p in projs:
        columns = p.transpose().sparse
        span = SpanSolver(dim)
        ideals.append([columns[c] for c in sorted(columns) if span.insert(columns[c])])
    m_pos = {k: t for t, k in enumerate(pair.m_indices)}
    factors = []
    for orbit in orbits:
        h_sp, m_sp = SpanSolver(dim), SpanSolver(dim)
        h_vecs, m_vecs = [], []
        for v in (v for i in orbit for v in ideals[i]):
            plus = {i: x for i, x in v.items() if i in h_set}
            minus = {i: x for i, x in v.items() if i not in h_set}
            if plus and h_sp.insert(plus):
                h_vecs.append(plus)
            if minus and m_sp.insert(minus):
                m_vecs.append(minus)
        nh, k = len(h_vecs), len(h_vecs) + len(m_vecs)
        sub = SymmetricPair(
            subalgebra(alg, h_vecs + m_vecs, f"{pair.name}#f{len(factors)}"),
            pair.family + "_factor", FrozenDict(), tuple(range(nh)), tuple(range(nh, k)),
            Mat.diag([1] * nh + [-1] * (k - nh)))
        emb = Mat.from_sparse(len(m_vecs), pair.dim_m, {
            col: {m_pos[idx]: val for idx, val in v.items()} for col, v in enumerate(m_vecs)
        }).transpose()
        factors.append(PairFactor(sub, emb, group_type=len(orbit) == 2))
    return tuple(factors)


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
    if not isinstance(family, str) or family not in _GRADED_SIZES:
        raise InputError(f"no dimension formula for family {family!r}")
    names, dims = _GRADED_SIZES[family]
    dim_g, dim_gm1 = dims(*(_int_param(family, params, name) for name in names))
    return {"dim_g": dim_g, "dim_gm1": dim_gm1}
