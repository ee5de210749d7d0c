"""Exact linear algebra over the rationals.

Every public value is a :class:`fractions.Fraction`; there is no floating
point anywhere.  Inside the sparse forms (`sparse_rows`, `sparse_product`,
`sparse_commutator`, the rows of the echelon core) an integral entry is kept
as a plain `int`, which Python adds and multiplies far faster than a
Fraction; `Mat` entries, `decompose` coordinates, solutions and kernel
vectors are converted back at the boundary.  `Mat` is a small immutable
dense matrix; products and brackets of the nearly empty catalog basis
matrices are formed sparsely.  All row elimination runs through one sparse
echelon core (`_reduce` against monic rows keyed by pivot column, `_echelon`,
and back-substitution in `_solutions`), behind `SpanSolver`, `solve_linear`,
`invert`, `matrix_rank` and `kernel_of_sparse_rows`.  Signatures use a
separate congruence.
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
        # a Fraction is kept and an int 0 shared without a call; anything
        # else, a malformed string included, goes through Fraction(x)
        self.entries = tuple([
            x if x.__class__ is Fraction else ZERO if x.__class__ is int and not x else Fraction(x)
            for x in entries
        ])

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
    def from_columns(cols: Sequence[Sequence[Scalar]], rows: int) -> "Mat":
        """The matrix whose columns are `cols`, each of length `rows`."""
        return Mat(rows, len(cols), [col[r] for r in range(rows) for col in cols])

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
            m[i * n + i] = v
        return Mat(n, n, m)

    @staticmethod
    def column(values: Sequence[Scalar]) -> "Mat":
        return Mat(len(values), 1, list(values))

    @staticmethod
    def unit(rows: int, cols: int, i: int, j: int, value: Scalar = 1) -> "Mat":
        m = [ZERO] * (rows * cols)
        m[i * cols + j] = value
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


def _exact(x):
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def sparse_rows(m: Mat) -> dict:
    """Nonzero entries of a square matrix as rows {r: {c: value}}, integral
    values as int."""
    n = m.cols
    rows: dict[int, dict] = {}
    for idx, v in enumerate(m.entries):
        if v:
            rows.setdefault(idx // n, {})[idx % n] = _exact(v)
    return rows


def sparse_product(a: dict, b: dict) -> dict:
    """AB for matrices in `sparse_rows` form, in the same form with zero
    entries and empty rows dropped."""
    out: dict[int, dict] = {}
    for r, row in a.items():
        acc: dict = {}
        for t, x in row.items():
            for c, y in b.get(t, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def sparse_commutator(a: dict, b: dict, n: int) -> dict:
    """AB - BA for n x n matrices in `sparse_rows` form, as {r*n + c: value}
    with zero entries dropped."""
    out: dict = {}
    for r, row in a.items():
        for t, x in row.items():
            for c, y in b.get(t, {}).items():
                k = r * n + c
                out[k] = out.get(k, 0) + x * y
    for r, row in b.items():
        for t, y in row.items():
            for c, x in a.get(t, {}).items():
                k = r * n + c
                out[k] = out.get(k, 0) - y * x
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# The sparse echelon core: span tracking, solving, rank and kernels
# ---------------------------------------------------------------------------


def _sparse(vec: Vector) -> dict:
    """A new {index: value} copy of a dense or sparse vector, without zeros
    and with integral values as int."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {i: _exact(v) for i, v in items if v}


def _reduce(v: dict, pivots: dict) -> dict:
    """Reduce the sparse row v in place against the monic rows `pivots`
    (pivot column -> row), always eliminating at the smallest index of v;
    returns the multiples {pivot column: coefficient} subtracted."""
    combo: dict = {}
    while v:
        p = min(v)
        row = pivots.get(p)
        if row is None:
            break
        c = v[p]
        for k, val in row.items():
            nv = v.get(k, 0) - c * val
            if nv == 0:
                v.pop(k, None)
            else:
                v[k] = nv
        combo[p] = c
    return combo


def _store(v: dict, pivots: dict) -> tuple:
    """Add the reduced nonzero row v (which it may keep) to `pivots` as a
    monic row; returns its pivot column and the inverse of its leading
    value.  A leading value of +-1 needs no division."""
    p = min(v)
    lead = v[p]
    if lead == 1:
        inv, row = 1, v
    elif lead == -1:
        inv, row = -1, {k: -c for k, c in v.items()}
    else:
        inv = _exact(ONE / lead)
        row = {k: _exact(c * inv) for k, c in v.items()}
    pivots[p] = row
    return p, inv


def _echelon(rows: Iterable[Vector], width: int) -> Optional[dict]:
    """Monic echelon rows {pivot column: row} spanning `rows`, or None when
    one of them reduces to the columns from `width` on alone (the right-hand
    sides of an inconsistent system)."""
    pivots: dict[int, dict] = {}
    for row in rows:
        v = _sparse(row)
        _reduce(v, pivots)
        if v and _store(v, pivots)[0] >= width:
            return None
    return pivots


def _solutions(pivots: dict, seeds: Iterable[dict], width: int) -> list:
    """For each seed, the x[0:width] solving the echelon rows that equals the
    seed off the pivots and 0 at the other free columns.  Pivots are solved
    in decreasing order, so each row only meets values already fixed."""
    order = sorted(pivots, reverse=True)
    out = []
    for seed in seeds:
        x = dict(seed)
        for p in order:
            s = sum(c * x[k] for k, c in pivots[p].items() if k in x)
            if s:
                x[p] = -s
        out.append([frac(x[c]) if c in x else ZERO for c in range(width)])
    return out


class SpanSolver:
    """Incremental row-space tracker with exact membership decomposition.

    Vectors are given as dense sequences or as sparse {index: value}
    mappings, and are stored sparsely.  Each inserted vector is reduced
    against the pivot rows collected so far; an independent residue becomes
    a new pivot row.  The solver remembers how each pivot row is expressed in
    the inserted vectors, so `decompose` returns coordinates with respect to
    the insertion order.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: dict[int, dict] = {}  # pivot column -> monic row
        self._combos: dict[int, dict] = {}  # pivot -> {inserted index: coeff}
        self.count = 0  # number of inserted vectors (independent ones only)

    def _expand(self, combo: dict) -> dict:
        """sum of c * (pivot row q over the inserted vectors) for q, c in combo"""
        out: dict = {}
        for q, c in combo.items():
            for s, coeff in self._combos[q].items():
                out[s] = out.get(s, 0) + c * coeff
        return out

    def insert(self, vec: Vector) -> bool:
        """Insert a vector; returns True if it was independent."""
        v = _sparse(vec)
        combo = _reduce(v, self._rows)
        if not v:
            return False
        p, inv = _store(v, self._rows)
        expr = {s: _exact(-inv * c) for s, c in self._expand(combo).items() if c}
        expr[self.count] = inv
        self._combos[p] = expr
        self.count += 1
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def contains(self, vec: Vector) -> bool:
        v = _sparse(vec)
        _reduce(v, self._rows)
        return not v

    def sparse_decompose(self, vec: Vector) -> Optional[dict]:
        """Nonzero coordinates {inserted index: value} of vec, in increasing
        index order and with integral values as int, or None if vec is
        outside the span."""
        v = _sparse(vec)
        combo = _reduce(v, self._rows)
        if v:
            return None
        out = self._expand(combo)
        return {s: _exact(out[s]) for s in sorted(out) if out[s]}

    def decompose(self, vec: Vector) -> Optional[list]:
        """Coordinates of vec over the inserted vectors, or None if outside."""
        coords = self.sparse_decompose(vec)
        if coords is None:
            return None
        return [frac(coords[s]) if s in coords else ZERO for s in range(self.count)]


@dataclass(frozen=True)
class LinearSolution:
    """Particular solution plus a kernel basis of the homogeneous system."""

    particular: Mat  # shape (n, rhs columns)
    kernel: tuple  # tuple of Mat column vectors (n, 1)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def matrix_rank(a: Mat) -> int:
    return len(_echelon(map(a.row, range(a.rows)), a.cols))


def solve_linear(a: Mat, b: Mat) -> Optional[LinearSolution]:
    """Solve A x = b exactly.

    Returns a particular solution (free variables 0) together with a basis
    of the kernel of A (one vector per free column, in increasing order), or
    None when the system is inconsistent.  `b` may have several columns;
    each is solved against the same coefficient matrix.
    """
    if a.rows != b.rows:
        raise InputError(f"A has {a.rows} rows but b has {b.rows}")
    m = a.cols
    # column m + t holds b[:, t], so x[m + t] = -1 solves for that column
    pivots = _echelon((a.row(i) + b.row(i) for i in range(a.rows)), m)
    if pivots is None:
        return None
    part = _solutions(pivots, ({m + t: -1} for t in range(b.cols)), m)
    kernel = _solutions(pivots, ({f: 1} for f in range(m) if f not in pivots), m)
    return LinearSolution(Mat.from_columns(part, m), tuple(map(Mat.column, kernel)))


def invert(a: Mat) -> Mat:
    if not a.is_square():
        raise InputError("only square matrices can be inverted")
    sol = solve_linear(a, Mat.identity(a.rows))
    if sol is None or sol.kernel:
        raise InputError("matrix is singular")
    return sol.particular


def kernel_of_sparse_rows(rows: list, ncols: int) -> list:
    """Kernel basis of a system given as sparse rows {col: coeff}.

    Returns dense coefficient lists, one per free column in increasing
    order.  Used for the large structured systems (commutants, invariant
    forms) whose constraint rows are very sparse.
    """
    pivots = _echelon(rows, ncols)
    return _solutions(pivots, ({f: 1} for f in range(ncols) if f not in pivots), ncols)


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

    # a congruence repeats every row operation on the columns: no row-only echelon
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

    The powers I, M, M^2, ... are formed as sparse products, flattened and
    fed to a SpanSolver; the first dependent power yields the minimal
    polynomial.  The result is factored into rational irreducibles (complete
    for the degrees arising from commutant classification; see
    `poly.factor_squarefree`).
    """
    from . import poly

    if not m.is_square():
        raise InputError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return MinimalPolynomial((ONE,), ())
    span = SpanSolver(n * n)
    a = sparse_rows(m)
    current = {i: {i: 1} for i in range(n)}
    span.insert({i * n + i: 1 for i in range(n)})
    while True:
        current = sparse_product(current, a)
        flat = {r * n + c: v for r, row in current.items() for c, v in row.items()}
        coords = span.decompose(flat)
        if coords is not None:
            # current = sum coords[i] * M^i  =>  min poly = t^k - sum coords_i t^i
            coeffs = [-c for c in coords] + [ONE]
            break
        span.insert(flat)
    factors = []
    for base, mult in poly.squarefree_decomposition(coeffs):
        for irr in poly.factor_squarefree(base):
            tag = None
            if len(irr) == 3:
                disc = irr[1] * irr[1] - 4 * irr[2] * irr[0]
                tag = disc < 0
            factors.append(PolyFactor(tuple(irr), mult, tag))
    return MinimalPolynomial(tuple(coeffs), tuple(factors))
