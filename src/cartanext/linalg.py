"""Exact linear algebra over the rationals.

Every scalar in the package is a :class:`fractions.Fraction`; there is no
floating point anywhere.  Matrices are small (ambient sizes stay well under
a hundred) and stored densely, so the algorithms below are straightforward
exact eliminations with sparsity-aware inner loops.  Brackets of the nearly
empty basis matrices of the catalog are formed sparsely (`sparse_rows`,
`sparse_commutator`), and `SpanSolver` reduces such sparse vectors directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError

Scalar = Union[int, str, Fraction]
Vector = Union[dict, Iterable[Fraction]]  # dense, or sparse {index: value}

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x: Scalar) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Mat:
    """Immutable dense matrix with Fraction entries, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputError(f"entry count {len(entries)} does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(frac(x) for x in entries)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise InputError("ragged rows")
            flat.extend(row)
        return Mat(r, c, flat)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def diag(values: Sequence[Scalar]) -> "Mat":
        n = len(values)
        m = [ZERO] * (n * n)
        for i, v in enumerate(values):
            m[i * n + i] = frac(v)
        return Mat(n, n, m)

    @staticmethod
    def column(values: Sequence[Scalar]) -> "Mat":
        return Mat(len(values), 1, list(values))

    @staticmethod
    def unit(rows: int, cols: int, i: int, j: int, value: Scalar = 1) -> "Mat":
        m = [ZERO] * (rows * cols)
        m[i * cols + j] = frac(value)
        return Mat(rows, cols, m)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i * self.cols + j] == self.entries[j * self.cols + i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise InputError("shape mismatch in addition")
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise InputError("shape mismatch in subtraction")
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, s: Scalar) -> "Mat":
        s = frac(s)
        return Mat(self.rows, self.cols, [s * a for a in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise InputError("inner dimension mismatch in product")
        n, k, m = self.rows, self.cols, other.cols
        out = [ZERO] * (n * m)
        se, oe = self.entries, other.entries
        for i in range(n):
            base = i * k
            for t in range(k):
                a = se[base + t]
                if a == 0:
                    continue
                ob = t * m
                rb = i * m
                for j in range(m):
                    b = oe[ob + j]
                    if b != 0:
                        out[rb + j] += a * b
        return Mat(n, m, out)

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise InputError("trace of a non-square matrix")
        return sum((self.entries[i * self.cols + i] for i in range(self.rows)), ZERO)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat(
            len(row_idx),
            len(col_idx),
            [self.entries[i * self.cols + j] for i in row_idx for j in col_idx],
        )

    def apply(self, vec: Sequence[Fraction]) -> list:
        """Matrix-vector product on a plain coefficient list."""
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        out = []
        e = self.entries
        for i in range(self.rows):
            base = i * self.cols
            s = ZERO
            for j, v in enumerate(vec):
                if v != 0:
                    a = e[base + j]
                    if a != 0:
                        s += a * v
            out.append(s)
        return out

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"


def commutator(a: Mat, b: Mat) -> Mat:
    return a @ b - b @ a


def sparse_rows(m: Mat) -> dict:
    """Nonzero entries of a square matrix as rows {r: {c: value}}."""
    n = m.cols
    rows: dict[int, dict[int, Fraction]] = {}
    for idx, v in enumerate(m.entries):
        if v:
            rows.setdefault(idx // n, {})[idx % n] = v
    return rows


def sparse_commutator(a: dict, b: dict, n: int) -> dict:
    """AB - BA for n x n matrices in `sparse_rows` form, as {r*n + c: value}
    with zero entries dropped."""
    out: dict[int, Fraction] = {}
    for r, row in a.items():
        for t, x in row.items():
            for c, y in b.get(t, {}).items():
                k = r * n + c
                out[k] = out.get(k, ZERO) + x * y
    for r, row in b.items():
        for t, y in row.items():
            for c, x in a.get(t, {}).items():
                k = r * n + c
                out[k] = out.get(k, ZERO) - y * x
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Incremental span bookkeeping (sparse)
# ---------------------------------------------------------------------------


class SpanSolver:
    """Incremental row-space tracker with exact membership decomposition.

    Vectors are given as dense sequences or as sparse {index: value}
    mappings, and are stored sparsely.  Each inserted vector is reduced
    against the pivots collected so far; independent residues become new
    pivot rows.  The solver remembers how each pivot row is expressed in the
    inserted vectors, so `decompose` returns coordinates with respect to the
    insertion order.
    """

    def __init__(self, length: int):
        self.length = length
        self._pivots: dict[int, int] = {}  # pivot column -> row index
        self._rows: list[dict[int, Fraction]] = []
        self._combos: list[dict[int, Fraction]] = []  # row -> {inserted index: coeff}
        self.count = 0  # number of inserted vectors (independent ones only)

    @staticmethod
    def _sparsify(vec: Vector) -> dict:
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return {i: v for i, v in items if v}

    def _reduce(self, v: dict) -> tuple[dict, dict]:
        """Reduce v against stored rows; returns (residue, combo over rows)."""
        combo: dict[int, Fraction] = {}
        while v:
            p = min(v)
            r = self._pivots.get(p)
            if r is None:
                break
            c = v[p]
            row = self._rows[r]
            for k, val in row.items():
                nv = v.get(k, ZERO) - c * val
                if nv == 0:
                    v.pop(k, None)
                else:
                    v[k] = nv
            combo[r] = combo.get(r, ZERO) + c
        return v, combo

    def insert(self, vec: Vector) -> bool:
        """Insert a vector; returns True if it was independent."""
        v, combo = self._reduce(self._sparsify(vec))
        idx = self.count
        if not v:
            return False
        p = min(v)
        inv = ONE / v[p]
        row = {k: val * inv for k, val in v.items()}
        expr: dict[int, Fraction] = {idx: inv}
        for r, c in combo.items():
            for s, coeff in self._combos[r].items():
                nv = expr.get(s, ZERO) - inv * c * coeff
                if nv == 0:
                    expr.pop(s, None)
                else:
                    expr[s] = nv
        self._pivots[p] = len(self._rows)
        self._rows.append(row)
        self._combos.append(expr)
        self.count += 1
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def contains(self, vec: Vector) -> bool:
        v, _ = self._reduce(self._sparsify(vec))
        return not v

    def decompose(self, vec: Vector) -> Optional[list]:
        """Coordinates of vec over the inserted vectors, or None if outside."""
        v, combo = self._reduce(self._sparsify(vec))
        if v:
            return None
        out = [ZERO] * self.count
        for r, c in combo.items():
            for s, coeff in self._combos[r].items():
                out[s] += c * coeff
        return out


# ---------------------------------------------------------------------------
# Dense solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSolution:
    """Particular solution plus a kernel basis of the homogeneous system."""

    particular: Mat  # shape (n, rhs columns)
    kernel: tuple  # tuple of Mat column vectors (n, 1)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def _rref(rows: list, width: int) -> tuple[list, list]:
    """In-place RREF of a list of dense rows; returns (rows, pivot columns)."""
    pivots = []
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def matrix_rank(a: Mat) -> int:
    _, pivots = _rref(a.to_rows(), a.cols)
    return len(pivots)


def solve_linear(a: Mat, b: Mat) -> Optional[LinearSolution]:
    """Solve A x = b exactly.

    Returns a particular solution together with a basis of the kernel of A,
    or None when the system is inconsistent.  `b` may have several columns;
    each is solved against the same coefficient matrix.
    """
    if a.rows != b.rows:
        raise InputError(f"A has {a.rows} rows but b has {b.rows}")
    n, m, k = a.rows, a.cols, b.cols
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(n)]
    aug, pivots = _rref(aug, m)  # only pivot on the A-part
    rank = len(pivots)
    for i in range(rank, n):
        if any(aug[i][m + t] != 0 for t in range(k)):
            return None
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    part = [[ZERO] * k for _ in range(m)]
    for r, c in enumerate(pivots):
        for t in range(k):
            part[c][t] = aug[r][m + t]
    kernel = []
    for f in free:
        vec = [ZERO] * m
        vec[f] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][f]
        kernel.append(Mat.column(vec))
    return LinearSolution(Mat.from_rows(part), tuple(kernel))


def invert(a: Mat) -> Mat:
    if not a.is_square():
        raise InputError("only square matrices can be inverted")
    sol = solve_linear(a, Mat.identity(a.rows))
    if sol is None or sol.kernel:
        raise InputError("matrix is singular")
    return sol.particular


def kernel_of_sparse_rows(rows: list, ncols: int) -> list:
    """Kernel basis of a system given as sparse rows {col: coeff}.

    Returns dense coefficient lists.  Used for the large structured systems
    (commutants, invariant forms) whose constraint rows are very sparse.
    """
    pivots: dict[int, dict] = {}
    for raw in rows:
        v = {k: frac(c) for k, c in raw.items() if c != 0}
        while v:
            p = min(v)
            row = pivots.get(p)
            if row is None:
                inv = ONE / v[p]
                pivots[p] = {k: c * inv for k, c in v.items()}
                break
            f = v[p]
            for k, c in row.items():
                nv = v.get(k, ZERO) - f * c
                if nv == 0:
                    v.pop(k, None)
                else:
                    v[k] = nv
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    order = sorted(pivots, reverse=True)
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for p in order:
            s = ZERO
            for c, coeff in pivots[p].items():
                if c != p and x[c] != 0:
                    s += coeff * x[c]
            x[p] = -s
        basis.append(x)
    return basis


# ---------------------------------------------------------------------------
# Signatures of symmetric forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    nullity: int

    @property
    def dimension(self) -> int:
        return self.positive + self.negative + self.nullity

    def as_tuple(self) -> tuple:
        return (self.positive, self.negative, self.nullity)


def symmetric_signature(g: Mat) -> Signature:
    """Signature of a symmetric matrix by exact congruence diagonalization.

    Pivots on a nonzero diagonal entry when available; otherwise a congruence
    adding row and column j to i creates one.  Sylvester's law makes the
    resulting sign counts basis-independent.
    """
    if not g.is_square():
        raise InputError("signature of a non-square matrix")
    if not g.is_symmetric():
        raise InputError("signature requires a symmetric matrix")
    n = g.rows
    m = g.to_rows()

    def add_row_col(i, j):  # row_i += row_j, col_i += col_j
        for c in range(n):
            m[i][c] += m[j][c]
        for r in range(n):
            m[r][i] += m[r][j]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]

    for i in range(n):
        if m[i][i] == 0:
            swap_target = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if swap_target is not None:
                swap(i, swap_target)
            else:
                off = next(
                    (
                        (r, c)
                        for r in range(i, n)
                        for c in range(r + 1, n)
                        if m[r][c] != 0
                    ),
                    None,
                )
                if off is None:
                    break  # trailing block is zero
                r, c = off
                if r != i:
                    swap(i, r)
                    if c == i:
                        c = r
                add_row_col(i, c)
        p = m[i][i]
        if p == 0:
            continue
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] / p
                for c in range(n):
                    m[r][c] -= f * m[i][c]
                for rr in range(n):
                    m[rr][r] -= f * m[rr][i]
    pos = sum(1 for i in range(n) if m[i][i] > 0)
    neg = sum(1 for i in range(n) if m[i][i] < 0)
    return Signature(pos, neg, n - pos - neg)


def is_rational_square(x: Fraction) -> Optional[Fraction]:
    """Return sqrt(x) when x is the square of a rational, else None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# Minimal polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyFactor:
    """One irreducible factor of a minimal polynomial.

    `complex_type` is True for an irreducible quadratic with negative
    discriminant, False for other quadratics, None for non-quadratics.
    """

    coeffs: tuple  # monic, ascending degree
    multiplicity: int
    complex_type: Optional[bool]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MinimalPolynomial:
    coeffs: tuple  # monic, ascending degree
    factors: tuple  # of PolyFactor

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def minimal_polynomial(m: Mat) -> MinimalPolynomial:
    """Lowest-degree monic annihilating polynomial, via Krylov dependence.

    The powers I, M, M^2, ... are flattened and fed to a SpanSolver; the
    first dependent power yields the minimal polynomial.  The result is
    factored into rational irreducibles (complete for the degrees arising
    from commutant classification; see `poly.factor_squarefree`).
    """
    from . import poly

    if not m.is_square():
        raise InputError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return MinimalPolynomial((ONE,), ())
    span = SpanSolver(n * n)
    powers = [Mat.identity(n)]
    span.insert(powers[0].entries)
    current = powers[0]
    while True:
        current = current @ m
        coords = span.decompose(current.entries)
        if coords is not None:
            # current = sum coords[i] * M^i  =>  min poly = t^k - sum coords_i t^i
            coeffs = [-c for c in coords] + [ONE]
            break
        span.insert(current.entries)
        powers.append(current)
    factors = []
    for base, mult in poly.squarefree_decomposition(coeffs):
        for irr in poly.factor_squarefree(base):
            tag = None
            if len(irr) == 3:
                disc = irr[1] * irr[1] - 4 * irr[2] * irr[0]
                tag = disc < 0
            factors.append(PolyFactor(tuple(irr), mult, tag))
    return MinimalPolynomial(tuple(coeffs), tuple(factors))


def poly_eval_matrix(coeffs: Sequence[Fraction], m: Mat) -> Mat:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    out = Mat.zero(m.rows, m.cols)
    power = Mat.identity(m.rows)
    for i, c in enumerate(coeffs):
        if i:
            power = power @ m
        if c != 0:
            out = out + power.scale(c)
    return out
