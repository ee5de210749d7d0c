"""Exact linear algebra over the rationals.

There is no floating point anywhere.  `Mat` is an immutable sparse matrix:
`Mat.sparse` holds its nonzero entries as rows {r: {c: value}}, and an
integral value is kept there as a plain `int`, which Python adds and
multiplies far faster than a Fraction.  Every matrix operation works on that
form, so the nearly empty catalog basis matrices stay sparse from
construction on.  Vectors passed between engine routines have the same
form, {index: value} over the nonzero entries: `flat` and `from_flat`,
`sparse_decompose` coordinates and the kernel vectors of
`kernel_of_sparse_rows`.  The engine's one bracket loop, `_BracketIndex`,
gives the brackets AM_j - M_jA of a matrix A with a whole indexed list in
that form, from one pass over A's entries, and `commutator` wraps it.  The
dense views (`m[r, c]`, `row`, `col`, `to_rows`, `entries`), and the methods that take
or return dense coordinate lists, give Fractions; they are for public
results and callers outside the engine.  All row elimination runs through
one sparse echelon core (`_reduce` against monic rows keyed by pivot column,
`_echelon`, and back-substitution in `_solutions`), behind `SpanSolver`,
`solve_linear`, `invert`, `matrix_rank`, `kernel_of_sparse_rows` and
`reduced_span_basis`; `symmetric_signature` runs a congruence on the same
sparse rows.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError

Scalar = Union[int, str, Fraction]
Vector = Union[Mapping, Iterable[Fraction]]  # sparse {index: value}, or dense

ZERO = Fraction(0)
ONE = Fraction(1)
_NONE: dict = {}  # the missing row of a sparse matrix; never written


def frac(x: Scalar) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _exact(x):
    """x as an int when it is integral, else unchanged."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def _entry(x):
    """A scalar in stored form: an int when integral, else a Fraction.  A
    "p/q" string, or anything else, goes through Fraction(x), which raises on
    malformed input."""
    if x.__class__ is int:
        return x
    return _exact(x if x.__class__ is Fraction else Fraction(x))


def _clean(acc: dict) -> dict:
    """Accumulated rows {r: {c: value}} in stored form: zero entries and
    empty rows dropped, integral values as int.  A row of nonzero ints is
    kept as it is."""
    out = {}
    for r, row in acc.items():
        for v in row.values():
            if not v or v.__class__ is not int:
                row = {c: v if v.__class__ is int else _exact(v) for c, v in row.items() if v}
                break
        if row:
            out[r] = row
    return out


class Mat:
    """Immutable sparse matrix with rational entries.

    `sparse` maps each nonzero row r to {c: value} over its nonzero entries,
    integral values as int and the others as Fraction.  Matrices share these
    dicts with each other, so they must never be changed.  The constructor
    takes a dense row-major sequence; `from_sparse` takes the rows form.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputError(f"entry count {len(entries)} does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.sparse = _clean({r: dict(enumerate(map(_entry, entries[r * cols:(r + 1) * cols])))
                              for r in range(rows)})

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, rows: int, cols: int, data: dict) -> "Mat":
        """The matrix whose stored form is `data`, taken as it is."""
        m = object.__new__(cls)
        m.rows, m.cols, m.sparse = rows, cols, data
        return m

    @classmethod
    def from_sparse(cls, rows: int, cols: int, data: Mapping) -> "Mat":
        """The rows x cols matrix with entries {r: {c: value}}; zeros may be
        given and are dropped, and values may be any scalar."""
        return cls._of(rows, cols, _clean({r: {c: _entry(v) for c, v in row.items()}
                                           for r, row in data.items()}))

    @classmethod
    def from_flat(cls, rows: int, cols: int, vec: Mapping) -> "Mat":
        """The rows x cols matrix whose entry (r, c) is vec[r * cols + c]:
        the inverse of `flat`."""
        data: dict = {}
        for k, v in vec.items():
            r, c = divmod(k, cols)
            data.setdefault(r, {})[c] = v
        return cls.from_sparse(rows, cols, data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Mat":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise InputError("ragged rows")
        return Mat(len(rows), c, [x for row in rows for x in row])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls._of(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def diag(cls, values: Sequence[Scalar]) -> "Mat":
        n = len(values)
        return cls.from_sparse(n, n, {i: {i: v} for i, v in enumerate(values)})

    @staticmethod
    def column(values: Sequence[Scalar]) -> "Mat":
        return Mat(len(values), 1, list(values))

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int, value: Scalar = 1) -> "Mat":
        if not (0 <= i < rows and 0 <= j < cols):
            raise IndexError(f"unit position ({i}, {j}) outside shape {rows}x{cols}")
        return cls.from_sparse(rows, cols, {i: {j: value}})

    # -- dense views -------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside shape {self.rows}x{self.cols}")
        v = self.sparse.get(i, _NONE).get(j)
        return ZERO if v is None else frac(v)

    def row(self, i: int) -> tuple:
        row = self.sparse.get(i, _NONE)
        return tuple(frac(row[c]) if c in row else ZERO for c in range(self.cols))

    def col(self, j: int) -> list:
        get = self.sparse.get
        return [frac(get(r, _NONE).get(j, ZERO)) for r in range(self.rows)]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def entries(self) -> tuple:
        """All entries, row-major, as Fractions; formed on each use."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def flat(self) -> dict:
        """The nonzero entries as the sparse vector {r * cols + c: value}."""
        n = self.cols
        return {r * n + c: v for r, row in self.sparse.items() for c, v in row.items()}

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not self.sparse

    def is_symmetric(self) -> bool:
        data = self.sparse
        return self.is_square() and all(data.get(c, _NONE).get(r) == v
                                        for r, row in data.items() for c, v in row.items())

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse == other.sparse
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(
            (r, c, v) for r, row in self.sparse.items() for c, v in row.items())))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise InputError("shape mismatch in addition")
        return combination(((1, self), (1, other)), self.rows, self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise InputError("shape mismatch in subtraction")
        return combination(((1, self), (-1, other)), self.rows, self.cols)

    def __neg__(self) -> "Mat":
        return Mat._of(self.rows, self.cols, {r: {c: -v for c, v in row.items()}
                                              for r, row in self.sparse.items()})

    def scale(self, s: Scalar) -> "Mat":
        return combination(((_entry(s), self),), self.rows, self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise InputError("inner dimension mismatch in product")
        b = other.sparse
        out = {}
        for r, row in self.sparse.items():
            acc: dict = {}
            for t, x in row.items():
                for c, y in b.get(t, _NONE).items():
                    acc[c] = acc.get(c, 0) + x * y
            out[r] = acc
        return Mat._of(self.rows, other.cols, _clean(out))

    def transpose(self) -> "Mat":
        out: dict = {}
        for r, row in self.sparse.items():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v
        return Mat._of(self.cols, self.rows, out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise InputError("trace of a non-square matrix")
        return frac(sum(row.get(r, 0) for r, row in self.sparse.items()))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        where: dict = {}
        for new, c in enumerate(col_idx):
            where.setdefault(c, []).append(new)
        out = {}
        for new, r in enumerate(row_idx):
            row = self.sparse.get(r)
            if row:
                picked = {n: v for c, v in row.items() for n in where.get(c, ())}
                if picked:
                    out[new] = picked
        return Mat._of(len(row_idx), len(col_idx), out)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"


def combination(terms: Iterable[tuple], rows: int, cols: int) -> Mat:
    """sum c * M over the pairs (c, M) of `terms`, all rows x cols."""
    acc: dict = {}
    for c, m in terms:
        if c:
            for r, row in m.sparse.items():
                out = acc.get(r)
                if out is None:
                    out = acc[r] = {}
                for k, v in row.items():
                    out[k] = out.get(k, 0) + c * v
    return Mat._of(rows, cols, _clean(acc))


class _BracketIndex:
    """The n x n matrices M_0, M_1, ... of a list, indexed once by the rows
    and by the columns of their nonzero entries, to bracket a matrix A with
    all of them in one pass over A's entries (Gustavson's row-wise sparse
    product, ACM Trans. Math. Softw. 4, 1978).  An entry A[r][t] meets only
    the entries of row t (for A M_j) and of column r (for M_j A), so a pair
    whose supports never meet is never visited.  This is the engine's one
    bracket loop.

    An entry M_j[t][c] = y is kept in row t as (j n^2 + c, y), and an entry
    M_j[r][t] = y in column t as (j n^2 + r n, y): adding the position that
    A's entry gives makes the key j n^2 + (flat position).  The entries of
    each row and column are kept in increasing j, so `drop_first` removes
    the matrix of least index still held from the front of each."""

    __slots__ = ("n", "by_row", "by_col", "first", "mats")

    def __init__(self, mats: Sequence[Mat], n: int):
        self.n, self.mats, self.first = n, mats, 0
        self.by_row, self.by_col = by_row, by_col = defaultdict(deque), defaultdict(deque)
        for j, m in enumerate(mats):
            base = j * n * n
            for r, row in m.sparse.items():
                for c, y in row.items():
                    by_row[r].append((base + c, y))
                    by_col[c].append((base + r * n, y))

    def drop_first(self) -> None:
        """Stop holding the matrix of least index still held."""
        by_row, by_col = self.by_row, self.by_col
        for r, row in self.mats[self.first].sparse.items():
            line = by_row[r]
            for c in row:
                line.popleft()
                by_col[c].popleft()
        self.first += 1

    def brackets(self, a: Mat) -> dict:
        """{j: AM_j - M_jA} over the matrices held, each bracket the sparse
        vector {r * n + c: value} that `Mat.flat` gives (zeros dropped,
        integral values as int) and each j present only when its bracket is
        nonzero."""
        n = self.n
        by_row, by_col = self.by_row, self.by_col
        acc: dict = {}
        get = acc.get
        for r, row in a.sparse.items():
            base = r * n
            col = by_col.get(r)  # M_j[q][r] = y: (M_j A)[q][t] += y A[r][t]
            for t, x in row.items():
                line = by_row.get(t)  # M_j[t][c] = y: (A M_j)[r][c] += A[r][t] y
                if line:
                    for key, y in line:
                        key += base
                        acc[key] = get(key, 0) + x * y
                if col:
                    for key, y in col:
                        key += t
                        acc[key] = get(key, 0) - y * x
        nn = n * n
        out: dict = {}
        for key, v in acc.items():
            if v:
                j = key // nn
                vec = out.get(j)
                if vec is None:
                    vec = out[j] = {}
                vec[key - j * nn] = v if v.__class__ is int else _exact(v)
        return out


def commutator(a: Mat, b: Mat) -> Mat:
    """AB - BA for square matrices of one size."""
    if a.shape != b.shape or not a.is_square():
        raise InputError("commutator needs square matrices of one size")
    return Mat.from_flat(a.rows, a.cols, _BracketIndex((b,), a.rows).brackets(a).get(0, {}))


def block_matrix(grid: Sequence[Sequence[Mat]]) -> Mat:
    """The matrix made of the blocks grid[i][j], all of one shape."""
    h, w = grid[0][0].shape
    data: dict = {}
    for bi, line in enumerate(grid):
        for bj, block in enumerate(line):
            for r, row in block.sparse.items():
                out = data.setdefault(bi * h + r, {})
                for c, v in row.items():
                    out[bj * w + c] = v
    return Mat._of(len(grid) * h, len(grid[0]) * w, data)


# ---------------------------------------------------------------------------
# The sparse echelon core: span tracking, solving, rank and kernels
# ---------------------------------------------------------------------------


def _sparse(vec: Vector) -> dict:
    """A new {index: value} copy of a vector, without zeros and with
    integral values as int.  Any Mapping is read as sparse {index: value};
    anything else as a dense sequence."""
    items = vec.items() if vec.__class__ is dict or isinstance(vec, Mapping) else enumerate(vec)
    return {i: v if v.__class__ is int else _exact(v) for i, v in items if v}


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


def _echelon(rows: Iterable[Vector], width: int, pivots: Optional[dict] = None) -> Optional[dict]:
    """Monic echelon rows {pivot column: row} spanning `rows`, or None when
    one of them reduces to the columns from `width` on alone (the right-hand
    sides of an inconsistent system).  Given `pivots`, the rows are added to
    them in place."""
    pivots = {} if pivots is None else pivots
    for row in rows:
        v = _sparse(row)
        _reduce(v, pivots)
        if v and _store(v, pivots)[0] >= width:
            return None
    return pivots


def _solutions(pivots: dict, seeds: Iterable[dict], width: int) -> list:
    """For each seed, the x[0:width] solving the echelon rows that equals the
    seed off the pivots and 0 at the other free columns, as a sparse vector
    with integral values as int.  Pivots are solved in decreasing order, so
    each row only meets values already fixed."""
    order = sorted(pivots, reverse=True)
    out = []
    for seed in seeds:
        x = dict(seed)
        for p in order:
            s = sum(c * x[k] for k, c in pivots[p].items() if k in x)
            if s:
                x[p] = -_exact(s)
        out.append({c: v for c, v in x.items() if c < width})
    return out


def _dense(vec: dict, width: int) -> list:
    """The sparse vector as a dense list of Fractions, for public results."""
    return [frac(vec[c]) if c in vec else ZERO for c in range(width)]


class SpanSolver:
    """Incremental row-space tracker with exact membership decomposition.

    Vectors are given as sparse {index: value} mappings (any `Mapping`) or
    as dense sequences, and are stored sparsely.  Each inserted vector is reduced
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


def matrix_rank(a: Mat) -> int:
    return len(_echelon(a.sparse.values(), a.cols))


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
    rows = ({**a.sparse.get(i, _NONE), **{m + t: v for t, v in b.sparse.get(i, _NONE).items()}}
            for i in range(a.rows))
    pivots = _echelon(rows, m)
    if pivots is None:
        return None
    part = _solutions(pivots, ({m + t: -1} for t in range(b.cols)), m)
    kernel = _solutions(pivots, ({f: 1} for f in range(m) if f not in pivots), m)
    return LinearSolution(Mat._of(b.cols, m, {t: x for t, x in enumerate(part) if x}).transpose(),
                          tuple(Mat._of(1, m, {0: x}).transpose() for x in kernel))


def invert(a: Mat) -> Mat:
    if not a.is_square():
        raise InputError("only square matrices can be inverted")
    sol = solve_linear(a, Mat.identity(a.rows))
    if sol is None or sol.kernel:
        raise InputError("matrix is singular")
    return sol.particular


def kernel_of_sparse_rows(rows: list, ncols: int) -> list:
    """Kernel basis of a system given as sparse rows {col: coeff}.

    Returns one vector per free column, in increasing order of that column:
    the solution that is 1 there and 0 at the other free columns, as a
    sparse {col: value} over its nonzero entries, integral values as int.
    Used for the large structured systems (commutants, invariant forms)
    whose constraint rows are very sparse.
    """
    pivots = _echelon(rows, ncols)
    return _solutions(pivots, ({f: 1} for f in range(ncols) if f not in pivots), ncols)


def reduced_span_basis(vectors: Iterable[Vector]) -> list:
    """The basis of span(vectors) in the form `kernel_of_sparse_rows` gives
    a kernel: reduced echelon form, each vector 1 at its largest column (its
    pivot) and 0 at the other pivots, in increasing order of pivot, as
    sparse vectors with integral values as int.

    The free columns of a system are exactly the columns at which some
    kernel vector ends, and the kernel vector of free column f is the one
    that is 1 at f and 0 at the other free columns.  So this basis depends
    only on the span, and a kernel put together from pieces comes out as
    `kernel_of_sparse_rows` returns it whole."""
    pivots: dict[int, dict] = {}  # keys are negated columns, so rows lead at their largest
    for vec in vectors:
        v = {-c: x for c, x in _sparse(vec).items()}
        _reduce(v, pivots)
        if v:
            _store(v, pivots)
    for p in sorted(pivots, reverse=True):  # the rows with larger keys are reduced already
        row = pivots[p]
        for q in [k for k in row if k != p and k in pivots]:
            c = row.pop(q)
            for k, val in pivots[q].items():
                if k != q:
                    nv = row.get(k, 0) - c * val
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
    return [{-k: _exact(x) for k, x in pivots[p].items()} for p in sorted(pivots, reverse=True)]


# ---------------------------------------------------------------------------
# Signatures of symmetric forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    nullity: int

    def as_tuple(self) -> tuple:
        return (self.positive, self.negative, self.nullity)


def symmetric_signature(g: Mat) -> Signature:
    """Signature of a symmetric matrix by exact congruence diagonalization.

    Works on a copy of the sparse rows.  Each step pivots on a nonzero
    diagonal entry g_ii; when every diagonal entry is zero, it first replaces
    e_i by e_i + e_j for a nonzero g_ij, whose square is 2 g_ij.  Row and
    column i then leave through the Schur complement over the pivot row's
    support.  Sylvester's law makes the resulting sign counts
    basis-independent.
    """
    if not g.is_square():
        raise InputError("signature of a non-square matrix")
    if not g.is_symmetric():
        raise InputError("signature requires a symmetric matrix")
    m = {r: dict(row) for r, row in g.sparse.items()}  # nonzero entries only
    pos = neg = 0
    while m:
        i = next((r for r, row in m.items() if r in row), None)
        if i is None:  # zero diagonal: e_i -> e_i + e_j
            i = next(iter(m))
            j = next(iter(m[i]))
            pivot = dict(m[i])
            for c, v in m[j].items():
                pivot[c] = pivot.get(c, 0) + v
            pivot[i] = 2 * m[i][j]
            pivot = {c: v for c, v in pivot.items() if v}
        else:
            pivot = m[i]
        for r in m.pop(i):
            if r != i:
                m[r].pop(i, None)
        p = pivot.pop(i)
        if p > 0:
            pos += 1
        else:
            neg += 1
        inv = _exact(ONE / p)
        for r, a in pivot.items():
            row = m[r]
            f = a * inv
            for c, b in pivot.items():
                v = row.get(c, 0) - f * b
                if v:
                    row[c] = _exact(v)
                else:
                    row.pop(c, None)
        m = {r: row for r, row in m.items() if row}
    return Signature(pos, neg, g.rows - pos - neg)


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
    polynomial.  Its squarefree parts (Yun) are factored into rational
    irreducibles by `poly.factor_squarefree`, which is complete in every
    degree.
    """
    from . import poly

    if not m.is_square():
        raise InputError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return MinimalPolynomial((ONE,), ())
    span = SpanSolver(n * n)
    current = Mat.identity(n)
    span.insert(current.flat())
    while True:
        current = current @ m
        flat = current.flat()
        coords = span.sparse_decompose(flat)
        if coords is not None:
            # current = sum coords[i] * M^i  =>  min poly = t^k - sum coords_i t^i
            coeffs = [-frac(coords.get(i, 0)) for i in range(span.count)] + [ONE]
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
