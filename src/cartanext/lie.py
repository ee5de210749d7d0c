"""Matrix Lie algebras over the rationals.

Brackets, structure constants, Killing forms, Cartan's criterion, commutants
of representations, invariant bilinear forms and invariant complex
structures.  Complex and quaternionic algebras enter realified, so a single
rational scalar field serves everything; complex linearity becomes exact
commutation with an explicit J.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import poly
from .errors import ClosureError, DependentBasisError, InputError, InternalCheckError
from .linalg import (
    ONE,
    ZERO,
    _NONE,
    Mat,
    MinimalPolynomial,
    SpanSolver,
    Vector,
    _BracketIndex,
    _clean,
    _exact,
    _echelon,
    _reduce,
    _solutions,
    _sparse,
    _store,
    combination,
    frac,
    is_rational_square,
    kernel_of_sparse_rows,
    matrix_rank,
    reduced_span_basis,
    symmetric_signature,
)


class FrozenDict(dict):
    """A dict that refuses changes.  Builds are memoized and shared, so a
    write to their parameters or structure constants would reach every
    later build.  No instance attributes, so a cell costs what a dict does.
    One structure table holds each one-term cell {k: 1} or {k: -1} as one
    shared object (see `_one_term_cells`), so a write that got past the refusal
    would also reach every position holding that object."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a memoized catalog object is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it whole, not by item writes
        return FrozenDict, (dict(self),)


def derived(compute):
    """Keep `compute(obj)` in `obj._derived`, the one dict of data derived
    from an object (see `DerivedData`), under the function's name."""
    key = compute.__name__

    @functools.wraps(compute)
    def memoized(obj):
        if key not in obj._derived:
            obj._derived[key] = compute(obj)
        return obj._derived[key]

    return memoized


class DerivedData:
    """Base of the classes whose objects keep derived data (see `derived`).

    `_derived` is created on first use.  It is not a dataclass field, so
    `==`, `repr`, `dataclasses.replace` and `dataclasses.asdict` ignore it,
    and an object made by `replace` computes its own.  A copy, shallow or
    deep, or an unpickled object starts from a copy of the dict, so what is
    computed on it never reaches the original."""

    @functools.cached_property
    def _derived(self) -> dict:
        return {}

    def __getstate__(self):
        return {**self.__dict__, "_derived": dict(self._derived)}


# the one empty structure-table cell, shared by every [X_i, X_j] = 0
_EMPTY_CELL = FrozenDict()


def _cell_pair(cell: dict, shared: dict) -> tuple:
    """The frozen cells (cell, -cell) of [X_i, X_j] and [X_j, X_i] in one
    table build; a one-term cell goes to `_one_term_cells`, any other is
    frozen anew, with its negation."""
    if len(cell) == 1:
        return _one_term_cells(*next(iter(cell.items())), shared)
    return FrozenDict(cell), FrozenDict({k: -c for k, c in cell.items()})


def _one_term_cells(k: int, c, shared: dict) -> tuple:
    """The frozen cells ({k: c}, {k: -c}) in one table build.  For an int c
    of 1 or -1, what most brackets of a catalog basis are, they are the two
    cells {k: 1} and {k: -1} that `shared` keeps for k in that build, made
    on their first use; for any other c they are made anew."""
    if c.__class__ is int and (c == 1 or c == -1):
        pair = shared.get(k)
        if pair is None:
            pair = shared[k] = (FrozenDict({k: 1}), FrozenDict({k: -1}))
        return pair if c == 1 else (pair[1], pair[0])
    return FrozenDict({k: c}), FrozenDict({k: -c})


class StructureConstants:
    """Sparse structure constants c[i][j] = {k: coefficient}.

    Integral coefficients are stored as int, the others as Fraction; readers
    of `table` and `row` only add, multiply and compare them.  A table built
    by `make_algebra` or `subalgebra` is frozen: its rows are tuples, every
    cell is a read-only `FrozenDict`, every empty cell is one shared
    mapping, and each one-term cell {k: 1} or {k: -1} is one object shared
    within the table (`_one_term_cells`).  Readers compare cells by value,
    never by identity.
    """

    def __init__(self, dim: int, table: Sequence):
        self.dim = dim
        self.table = table  # table[i][j] is a mapping {k: int | Fraction}

    def row(self, i: int, j: int) -> dict:
        return self.table[i][j]

    def bracket_coords(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list:
        """Coordinates of [u, v] for coordinate vectors u, v."""
        out = [ZERO] * self.dim
        v_nonzero = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a == 0:
                continue
            row_i = self.table[i]
            for j, b in v_nonzero:
                ab = a * b
                for k, c in row_i[j].items():
                    out[k] += ab * c
        return out

    def bracket_with(self, i: int, w: dict) -> dict:
        """Coordinates of [X_i, w] for sparse coordinates w = {index: value},
        summed over the table rows table[i][m]; zero sums are kept.  Like
        the table rows, the values are int where w and the table give ints."""
        out: dict = {}
        row_i = self.table[i]
        for m, a in w.items():
            for k, c in row_i[m].items():
                out[k] = out.get(k, 0) + a * c
        return out

    def ad_matrix(self, i: int) -> Mat:
        """Matrix of ad(X_i) acting on coordinates."""
        return self.ad_of_coords({i: 1})

    def ad_of_coords(self, u: Vector) -> Mat:
        """Matrix of ad(u) for dense or sparse coordinates u: column j is
        sum_i u_i times the cell of [X_i, X_j]."""
        data: dict = {}
        for i, a in _sparse(u).items():
            for j, cell in enumerate(self.table[i]):
                for k, c in cell.items():
                    out = data.setdefault(k, {})
                    out[j] = out.get(j, 0) + a * c
        return Mat._of(self.dim, self.dim, _clean(data))

    def antisymmetry_holds(self) -> bool:
        """Whether c[j][i] = -c[i][j] for all i, j.  Only nonempty cells are
        visited, and a pair (i, j) is compared from row min(i, j) unless that
        cell is empty."""
        table, cols = self.table, range(self.dim)
        for i in cols:
            row = table[i]
            for j in itertools.compress(cols, row):
                bwd = table[j][i]
                if j < i and bwd:
                    continue  # compared from row j
                fwd = row[j]
                if (any(bwd.get(k, 0) != -v for k, v in fwd.items())
                        or any(v and k not in fwd for k, v in bwd.items())):
                    return False
        return True

    def jacobi_witnesses(self, limit: int = 3) -> list:
        """Index triples violating the Jacobi identity (empty when it holds)."""
        bad = []
        dim = self.dim
        table = self.table
        for i in range(dim):
            row_i = table[i]
            for j in range(i + 1, dim):
                row_j = table[j]
                cij = row_i[j]
                for k in range(j + 1, dim):
                    row_k = table[k]
                    cjk, cki = row_j[k], row_k[i]
                    if not (cij or cjk or cki):
                        continue
                    # [X_i, [X_j, X_k]] + [X_j, [X_k, X_i]] + [X_k, [X_i, X_j]]
                    acc: dict = {}
                    for row, inner in ((row_i, cjk), (row_j, cki), (row_k, cij)):
                        for m, c in inner.items():
                            for t, d in row[m].items():
                                acc[t] = acc.get(t, 0) + c * d
                    if any(acc.values()):
                        bad.append((i, j, k))
                        if len(bad) >= limit:
                            return bad
        return bad

    def largest_ideal_dim(self, inner: Sequence[int]) -> Optional[int]:
        """Dimension of the largest ideal inside the span a of the basis
        elements `inner`, as one kernel; None when the block structure the
        proof needs does not hold.  With b the span of the other basis
        elements, that is [a, a] inside a and [a, b] inside b, read off the
        table here.  The table must be antisymmetric and satisfy the Jacobi
        identity; callers establish that first.

        Proof (effectivity as the kernel of the action on the complement,
        Kobayashi & Nagano, J. Math. Mech. 13, 1964).  Let
        K = {x in a : [x, b] = 0}.  An ideal I inside a has [I, b] inside I
        and inside [a, b], which lies in b, so [I, b] = 0 and I lies in K.
        Conversely K is an ideal: for x in K, y in a and z in b, [y, x] lies
        in a and [[y, x], z] = [y, [x, z]] - [x, [y, z]] = 0 because [y, z]
        is in b; and [b, K] = 0.  So the largest ideal inside a is K, the
        solutions of [x, X_s] = 0 for the basis elements X_s of b.  For a
        symmetric pair (a = h, b = m), [m, m] inside h is not needed.

        The dimension of K is dim a less the rank of these rows.  They enter
        the echelon core one X_s at a time, and the answer is 0 as soon as
        their rank reaches dim a: K lies in the solutions of any subset of
        the rows, which are then 0 alone.  The block test reads every cell
        of the rows of a first, so None does not depend on where that stop
        falls.
        """
        dim, table = self.dim, self.table
        in_inner = [False] * dim
        for a in inner:
            in_inner[a] = True
        members = [a for a in range(dim) if in_inner[a]]
        rows: dict = {}  # s -> {k: {position of a in members: coefficient of X_k in [X_a, X_s]}}
        for pos, a in enumerate(members):
            row_a = table[a]
            for x in itertools.compress(range(dim), row_a):  # the nonzero cells only
                inside = in_inner[x]
                for k, c in row_a[x].items():
                    if in_inner[k] != inside:
                        return None
                    if not inside:
                        rows.setdefault(x, {}).setdefault(k, {})[pos] = c
        pivots: dict = {}
        for s in sorted(rows):
            for row in rows[s].values():
                v = _sparse(row)
                _reduce(v, pivots)
                if v:
                    _store(v, pivots)
            if len(pivots) == len(members):
                return 0
        return len(members) - len(pivots)


class MatrixLieAlgebra(DerivedData):
    """An ambient matrix realization with a bracket-closed rational basis.

    Builds are memoized and shared, so the basis is a tuple.  Two algebras
    are equal when their names, ambient sizes, bases and tables are; the
    derived data (see `derived`) is not compared.  `span`, when given, must
    be a `SpanSolver` of the flattened basis matrices inserted in order; it
    is kept as the derived `_ambient_span`."""

    def __init__(self, ambient_size: int, basis: Sequence[Mat], name: str,
                 constants: StructureConstants, span: Optional[SpanSolver] = None):
        self.ambient_size = ambient_size
        self.basis = tuple(basis)
        self.name = name
        self.constants = constants
        if span is not None:
            self._derived["_ambient_span"] = span

    def __setattr__(self, name, value):
        # a new table or basis makes every derived value stale
        if name in ("constants", "basis"):
            self.__dict__.pop("_derived", None)
        super().__setattr__(name, value)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinate_matrix(self, mats: Iterable[Mat]) -> Optional[Mat]:
        """The dim x len(mats) matrix whose column c holds the coordinates of
        mats[c] in the basis, or None as soon as one lies outside the span.
        The matrices are read one at a time, so an iterator is fine.  They
        are decomposed in `_ambient_span`, made on the first call (or put in
        by `make_algebra`) and dropped with the rest of the derived data
        when a basis is assigned."""
        n = self.ambient_size
        span = _ambient_span(self)
        data: dict = {}
        count = 0
        for c, m in enumerate(mats):
            if m.shape != (n, n):
                raise InputError("ambient size mismatch")
            coords = span.sparse_decompose(m.flat())
            if coords is None:
                return None
            for k, v in coords.items():
                data.setdefault(k, {})[c] = v
            count = c + 1
        return Mat._of(self.dim, count, data)

    def element(self, coords: Vector) -> Mat:
        """The matrix sum_i coords[i] X_i, for dense coordinates or sparse
        ones {i: value}."""
        n = self.ambient_size
        return combination(((c, self.basis[i]) for i, c in _sparse(coords).items()), n, n)

    def adjoint_representation(self) -> "Representation":
        """ad X_i for each basis element.  The homomorphism check is skipped:
        the table behind these matrices comes from exact matrix commutators,
        so ad is a homomorphism by the Jacobi identity of matrices."""
        mats = [self.constants.ad_matrix(i) for i in range(self.dim)]
        return Representation(self, self.dim, mats, check=False)

    def realization_certified(self) -> bool:
        """True when the basis matrices realize the structure constants: they
        are linearly independent and [X_i, X_j] = sum_k c_ij^k X_k for every
        i < j.  False means only that this was not shown.  The table must be
        antisymmetric; callers check that first, and a recorded table (see
        `_recorded`) is: both functions that record one write c_ji as the
        negation of c_ij in the step that writes c_ij, and leave c_ii empty.

        Proof that the Jacobi identity then holds.  Let phi send the
        coordinate vector e_i to X_i.  One fresh `SpanSolver` pass, which
        does not trust the derived `_ambient_span`, shows phi injective.
        Antisymmetry gives c_ii = 0 and c_ji = -c_ij, so the checked pairs
        give phi([e_i, e_j]) = [X_i, X_j] for all i, j, and by bilinearity phi
        carries the table's bracket to the matrix commutator.  So phi sends
        the Jacobiator J(x, y, z) = [x, [y, z]] + [y, [z, x]] + [z, [x, y]]
        to the Jacobiator of phi x, phi y, phi z in gl(n), which is 0; phi
        is injective, so J = 0.

        Where the check is made.  `make_algebra` makes it while it builds
        the table (see there) and records the table object and the basis
        tuple it checked in the algebra's `_derived` dict, under this
        method's name (see `DerivedData`); `subalgebra` records the table
        it reads off a recorded parent.  When `constants.table` and
        `basis` are still those very objects, the answer is True without a
        second pass, and it is the same answer: the basis is a tuple of `Mat`s, which are
        immutable (matrices share their entry dicts, so the engine already
        relies on nothing changing them), and the table is a tuple of
        tuples of read-only `FrozenDict` cells, so neither can differ from
        what was checked.  Like the entry dicts of a `Mat`, the cells rest
        on that contract: `dict.__setitem__` called on a cell directly
        still writes it, and nothing may do so.  A table or basis put in
        place afterwards, by the constructor or by `dataclasses.replace` of
        the owning object, fails the identity test, and assigning one drops
        the whole `_derived` dict; either way it gets the full check: one
        span pass and one sweep of the bracket kernel over the basis (see
        `_homomorphism_witness`), not a scan of index triples.  A basis
        matrix that is not ambient_size square gives False.
        """
        n, basis = self.ambient_size, self.basis
        if self.constants.dim != len(basis):
            return False
        if self._recorded():
            return True
        if any(b.shape != (n, n) for b in basis):
            return False
        span = SpanSolver(n * n)
        return (all(span.insert(b.flat()) for b in basis)
                and _homomorphism_witness(self.constants, basis) is None)

    def _recorded(self) -> bool:
        """Whether the table and basis are the very objects recorded as
        certified under "realization_certified" (see there).  Such a table
        is antisymmetric: only `make_algebra` and `subalgebra` record one,
        and both write each pair of cells (i, j), (j, i) as a cell and its
        negation and leave the diagonal empty; the identity test and the
        frozen cells keep it the table they wrote."""
        done = self._derived.get("realization_certified")
        return done is not None and done[0] is self.constants.table and done[1] is self.basis

    def __eq__(self, other):
        return self is other or (isinstance(other, MatrixLieAlgebra) and (
            (self.name, self.ambient_size, self.basis, self.constants.table)
            == (other.name, other.ambient_size, other.basis, other.constants.table)))

    def __hash__(self):
        return hash((self.name, self.ambient_size, self.dim))

    def __repr__(self):
        return f"MatrixLieAlgebra({self.name}, dim={self.dim}, ambient={self.ambient_size})"


def make_algebra(basis: Sequence[Mat], name: str = "") -> MatrixLieAlgebra:
    """Build an algebra from square matrices, verifying independence and
    closure, and certify that the basis realizes the table it builds.

    A fresh `SpanSolver` shows the flattened basis X_k (`Mat.flat`)
    independent.  The brackets come from one sweep of the bracket kernel
    (`linalg._BracketIndex`): the basis is indexed once, X_i leaves the
    index before it is bracketed, so X_i meets the X_j with j > i in one
    pass over its entries, and the pairs are taken in increasing j, which
    keeps `ClosureError` at the first failing pair.  Each pair i < j then
    falls in one of three cases, and in each [X_i, X_j] = sum_k c_ij^k X_k
    is established, which is `realization_certified`'s check:
    - the kernel gives no bracket (the supports never meet, or the terms
      cancel): the cell is empty;
    - the bracket has exactly the support of some X_k and equals c X_k (a
      dict comparison with X_k or -X_k, else entry by entry): the cell is
      {k: c}, and by independence these are its only coordinates;
    - any other bracket is decomposed by elimination (`ClosureError` when
      it lies outside the span), and the decomposition is tested by
      forming sum_k c_ij^k X_k as a flat vector and comparing.
    The cells of (i, j) and (j, i) are written in one step, the second the
    negation of the first (`_one_term_cells`: a cell {k: 1} or {k: -1} is
    one of two cells shared by every such bracket of the build), and the
    diagonal stays empty, so the table is antisymmetric by construction.
    The table is frozen (tuple rows, `FrozenDict` cells), and if every test
    held, the table and the basis tuple are recorded as certified on the
    algebra.  The span becomes the algebra's `_ambient_span` (see
    `coordinate_matrix`).
    """
    if not basis:
        raise InputError("empty basis")
    basis = tuple(basis)
    n = basis[0].rows
    for b in basis:
        if not b.is_square() or b.rows != n:
            raise InputError("basis matrices must be square and equally sized")
    flats = [b.flat() for b in basis]
    span = SpanSolver(n * n)
    for idx, flat in enumerate(flats):
        if not span.insert(flat):
            raise DependentBasisError(idx)
    dim = len(basis)
    by_support: dict = {}  # support of X_k -> the indices k with that support
    for k, flat in enumerate(flats):
        by_support.setdefault(frozenset(flat), []).append(k)
    negated = [{p: -v for p, v in flat.items()} for flat in flats]
    certified = True
    table = [[_EMPTY_CELL] * dim for _ in range(dim)]
    shared: dict = {}  # the one-term cells of this build (`_one_term_cells`)
    index = _BracketIndex(basis, n)
    for i in range(dim):
        index.drop_first()  # the index holds X_j for j > i
        brackets = index.brackets(basis[i])
        for j in sorted(brackets):
            bracket = brackets[j]
            for k in by_support.get(frozenset(bracket), ()):
                x = flats[k]
                c = 1 if bracket == x else -1 if bracket == negated[k] else None
                if c is None:
                    p, w = next(iter(x.items()))
                    v = bracket[p]
                    c = v // w if not v % w else Fraction(v) / w  # an int when integral
                    if any(bracket[q] != c * u for q, u in x.items()):
                        continue
                cells = _one_term_cells(k, c, shared)
                break
            else:
                fwd = span.sparse_decompose(bracket)
                if fwd is None:
                    raise ClosureError(i, j)
                if certified and _combine((c, flats[k]) for k, c in fwd.items()) != bracket:
                    certified = False
                cells = _cell_pair(fwd, shared)
            table[i][j], table[j][i] = cells
    for i in range(dim):  # row by row, so that only one row is held twice
        table[i] = tuple(table[i])
    table = tuple(table)
    algebra = MatrixLieAlgebra(n, basis, name, StructureConstants(dim, table), span)
    if certified:
        algebra._derived["realization_certified"] = (table, basis)
    return algebra


def subalgebra(algebra: MatrixLieAlgebra, vecs: Sequence[dict], name: str) -> MatrixLieAlgebra:
    """The subalgebra spanned by the elements with sparse coordinates `vecs`
    in the algebra's basis, its table read off the algebra's table.

    Each bracket [v_a, v_b], a < b, is summed through `bracket_with` and
    decomposed over the vectors: `DependentBasisError` when they are
    dependent, `ClosureError` when a bracket leaves their span.  Both are
    done on the integral multiples s_a v_a, s_a the common denominator of
    v_a's entries, so that they run in ints, and [s_a v_a, s_b v_b] =
    sum_c d_c s_c v_c gives c_ab^c = d_c s_c / (s_a s_b).  When every
    vector is a unit vector e_i, as for the isotropy algebra h, the cell of
    a pair is the parent's cell renumbered, and a bracket leaves the span
    exactly when that cell has an index outside them.  A unit vector e_i
    takes the basis matrix X_i itself, any other v `element(v)`.  As in
    `make_algebra`, the cells of (a, b) and (b, a) are written in one step
    as a cell and its negation (`_cell_pair`), and the diagonal stays empty.

    When the algebra's realization certificate is recorded (see
    `realization_certified`), the subalgebra's is recorded too.  Proof:
    phi: e_i -> X_i is an injective Lie homomorphism, so the Y_a = phi(v_a)
    are independent and [Y_a, Y_b] = phi([v_a, v_b]) = sum_c c_ab^c Y_c.
    """
    scales = [math.lcm(*(x.denominator for x in v.values())) for v in vecs]
    ints = [{k: _exact(x * s) for k, x in v.items()} for v, s in zip(vecs, scales)]  # s_a v_a
    span = SpanSolver(algebra.dim)
    for a, v in enumerate(ints):
        if not span.insert(v):
            raise DependentBasisError(a)
    dim = len(vecs)
    units = {min(v): a for a, v in enumerate(vecs) if v == {min(v): 1}}
    table = [[_EMPTY_CELL] * dim for _ in range(dim)]
    shared: dict = {}  # the one-term cells of this build (`_one_term_cells`)
    for a in range(dim):
        for b in range(a + 1, dim):
            if len(units) == dim:  # unit vectors: the parent's cell, renumbered
                parent = algebra.constants.table[min(vecs[a])][min(vecs[b])]
                cell = (dict(sorted((units[k], c) for k, c in parent.items()))
                        if parent.keys() <= units.keys() else None)
            else:
                cell = span.sparse_decompose(_combine(
                    (x, algebra.constants.bracket_with(i, ints[b])) for i, x in ints[a].items()))
                cell = cell and {c: _exact(Fraction(x * scales[c], scales[a] * scales[b]))
                                 for c, x in cell.items()}
            if cell is None:
                raise ClosureError(a, b)
            if cell:
                table[a][b], table[b][a] = _cell_pair(cell, shared)
    basis = tuple(algebra.basis[min(v)] if v == {min(v): 1} else algebra.element(v) for v in vecs)
    sub = MatrixLieAlgebra(algebra.ambient_size, basis, name,
                           StructureConstants(dim, tuple(map(tuple, table))))
    if algebra._recorded():
        sub._derived["realization_certified"] = (sub.constants.table, sub.basis)
    return sub


def _combine(terms) -> dict:
    """sum c x over the pairs (c, x) of sparse vectors, without zeros and
    with integral values as int."""
    out: dict = {}
    for c, x in terms:
        for k, v in x.items():
            out[k] = out.get(k, 0) + c * v
    return {k: _exact(v) for k, v in out.items() if v}


def _homomorphism_witness(constants: StructureConstants, action: Sequence[Mat]):
    """First basis pair (i, j), i < j, with [A_i, A_j] != sum_k c_ij^k A_k
    for the square matrices `action`, all of one size, or None, both sides
    compared as flat vectors.  The brackets come from one sweep of
    `_BracketIndex`, as in `make_algebra`; a pair whose bracket and cell are
    both zero is not visited."""
    flats = [a.flat() for a in action]
    count = len(action)
    index = _BracketIndex(action, action[0].rows if count else 0)
    for i in range(count):
        index.drop_first()
        row_i = constants.table[i]
        brackets = index.brackets(action[i])
        cells = itertools.compress(range(i + 1, count), row_i[i + 1:])  # the nonzero c_ij
        for j in sorted(brackets.keys() | set(cells)):
            if brackets.get(j, _NONE) != _combine((c, flats[k]) for k, c in row_i[j].items()):
                return (i, j)
    return None


@derived
def _ambient_span(algebra: MatrixLieAlgebra) -> SpanSolver:
    """A `SpanSolver` of the flattened basis matrices, inserted in order;
    `DependentBasisError` when they are dependent."""
    span = SpanSolver(algebra.ambient_size ** 2)
    for idx, b in enumerate(algebra.basis):
        if not span.insert(b.flat()):
            raise DependentBasisError(idx)
    return span


@derived
def killing_form(algebra: MatrixLieAlgebra) -> Mat:
    """Gram matrix B(X_i, X_j) = trace(ad X_i ad X_j) = sum over k, l of
    c_il^k c_jk^l, from structure constants.

    The nonzero entries are grouped once by their position (l, k): at[l, k]
    lists the pairs (i, c_il^k).  Each term of B(X_i, X_j) pairs an entry
    listed at (l, k) with one listed at (k, l), so B is the sum, over the
    positions (l, k), of the products of the list at (l, k) with the list
    at (k, l), and no pair of cells without a common position is visited."""
    dim = algebra.dim
    at: dict = {}
    for i, row in enumerate(algebra.constants.table):
        for l in itertools.compress(range(dim), row):
            for k, c in row[l].items():
                at.setdefault((l, k), []).append((i, c))
    data: dict = {}
    for (l, k), left in at.items():
        right = at.get((k, l))
        if right is None:
            continue
        for i, c in left:
            out = data.setdefault(i, {})
            for j, d in right:
                out[j] = out.get(j, 0) + c * d
    # columns in increasing order, as the index-pair loop left them, so that
    # `submatrix` and the congruence of `symmetric_signature` take the same path
    return Mat.from_sparse(dim, dim, {i: dict(sorted(data[i].items())) for i in sorted(data)})


def generating_indices(algebra: MatrixLieAlgebra) -> list:
    """Basis indices whose elements generate the algebra, picked greedily.

    Indices are scanned in increasing order.  Index i is skipped when X_i
    already lies in the subalgebra generated by the picks before it; that
    subalgebra is the span of the iterated brackets [X_s1, [X_s2, ... X_sk]]
    of picked s, grown by closing it under ad X_s for every pick, and the
    scan stops once it is the whole algebra.

    Callers use the result through this fact: for a homomorphism rho, the x
    whose rho(x) commutes with a fixed T, or is skew for a fixed form B,
    form a subalgebra (the commutator of two such matrices is again one).
    So a condition checked on rho(X_s) for every pick s holds on all of
    rho(g).  A semisimple algebra is generated by two elements (Kuranishi,
    Nagoya Math. J. 2, 1951); the greedy picks are fewer than dim, if not
    always two, and an abelian algebra needs every basis element.

    The picks are kept on the algebra (see `derived`); each call returns a
    new list of them.
    """
    return list(_generator_picks(algebra))


def generator_chain(algebra: MatrixLieAlgebra) -> list:
    """The basis of the algebra that `generating_indices` finds on the way,
    each vector with how it was found: (v, s, j) when v = [X_s, v_j] for a
    pick s and the j-th vector v_j, j smaller than v's own position, and
    ({i: 1}, None, None) for a pick i.  The vectors are sparse coordinates,
    brackets read from the table with zero sums kept.  Kept with the picks;
    each call returns a new list."""
    return list(_generator_search(algebra)[1])


@derived
def _generator_picks(algebra: MatrixLieAlgebra) -> tuple:
    """The picks of `generating_indices`, as a tuple."""
    return _generator_search(algebra)[0]


@derived
def _generator_search(algebra: MatrixLieAlgebra) -> tuple:
    """The picks of `generating_indices` and the chain of
    `generator_chain`, as tuples."""
    dim = algebra.dim
    sc = algebra.constants
    span = SpanSolver(dim)
    found = []  # a basis of the subalgebra generated so far, as (v, s, j)
    picked = []
    for i in range(dim):
        if span.rank == dim:
            break
        if not span.insert({i: 1}):
            continue
        # `found` is closed under ad X_s for the earlier picks: apply ad X_i
        # to it, and every ad X_s to each vector that enters from here on
        picked.append(i)
        work = [(j, (i,)) for j in range(len(found))] + [(len(found), tuple(picked))]
        found.append(({i: 1}, None, None))
        while work and span.rank < dim:
            j, gens = work.pop()
            for s in gens:
                w = sc.bracket_with(s, found[j][0])
                if span.insert(w):
                    work.append((len(found), tuple(picked)))
                    found.append((w, s, j))
    return tuple(picked), tuple(found)


@derived
def is_semisimple(algebra: MatrixLieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate.  The verdict
    is kept on the algebra, beside the Killing form it is read from."""
    return matrix_rank(killing_form(algebra)) == algebra.dim


class Representation(DerivedData):
    """A Lie algebra homomorphism into gl(carrier_dim), one matrix per basis element.

    The homomorphism property is checked on construction, and commutants and
    invariant forms rely on it (see `generating_indices`): a T that commutes
    with rho(x) and rho(y) commutes with [rho(x), rho(y)], which is
    rho([x, y]) only for a homomorphism, so it is what lets
    `commutant_basis` spin up under the generators' matrices alone and
    check its early stop on them.  Two callers pass check=False:
    `adjoint_representation`, since its matrices come from a table of exact
    matrix commutators, and `catalog.isotropy_rep` when the parent's
    realization certificate is recorded (see there).  The action is a
    tuple, and `commutant` keeps its classification on the representation
    (see `derived`).
    """

    def __init__(self, algebra: MatrixLieAlgebra, carrier_dim: int,
                 action: Sequence[Mat], check: bool = True):
        if len(action) != algebra.dim:
            raise InputError("one action matrix per basis element required")
        for a in action:
            if a.shape != (carrier_dim, carrier_dim):
                raise InputError("action matrix of wrong size")
        self.algebra = algebra
        self.carrier_dim = carrier_dim
        self.action = tuple(action)
        if check:
            bad = _homomorphism_witness(algebra.constants, self.action)
            if bad is not None:
                raise InputError(f"action is not a homomorphism at basis pair {bad}")


# ---------------------------------------------------------------------------
# Commutants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutantClassification:
    commutant_basis: tuple
    label: str  # one of R | C | RxR | CxC | H | OTHER
    # Always None now that labels come from the trace form; kept because
    # perfbench/tracer.py reads it.
    generic_minimal_polynomial: Optional[MinimalPolynomial] = None

    @property
    def dim(self) -> int:
        return len(self.commutant_basis)


def _by_column(a: Mat) -> list:
    """Per column c of a matrix, the pairs (k, A[k][c]) of its nonzero
    entries."""
    cols = [[] for _ in range(a.cols)]
    for k, row in a.sparse.items():
        for c, v in row.items():
            cols[c].append((k, v))
    return cols


def _apply(cols: list, x: dict) -> dict:
    """A x for a sparse vector x, with A given by its columns (`_by_column`)."""
    out: dict = {}
    for c, xc in x.items():
        for k, v in cols[c]:
            out[k] = out.get(k, 0) + v * xc
    return {k: v if v.__class__ is int else _exact(v) for k, v in out.items() if v}


def commutant_basis(rep: Representation) -> list:
    """Basis of all matrices commuting exactly with every action matrix,
    found by spin-up: the standard-basis method of Parker's MeatAxe (1984;
    Holt & Rees, J. Austral. Math. Soc. 1994).

    Generators.  A T commuting with rho(x) and rho(y) commutes with
    [rho(x), rho(y)] = rho([x, y]), so T commutes with every action matrix
    once it commutes with A_s = rho(X_s) for the picks s of
    `generating_indices(rep.algebra)`.  This needs rho to be a homomorphism,
    which `Representation` checks, and which the adjoint representation is
    by construction.

    Spin-up.  The unit vectors z of V = Q^d are taken in increasing order,
    each skipped when it lies in the span found so far.  From each such
    root z_i, vectors are found by applying every A_s to every w_j in turn
    and keeping A_s w_j, with the word (j, s), when it is independent.  The
    vectors w_b found are a basis of V, and every edge (j, s) that gave no
    new vector is a relation A_s w_j = sum_k c_k w_k.

    Unknowns.  Write u = (u_1, ..., u_r) in Q^(r d) for the values T z_i.
    Let M_b u = u_i when w_b is the root z_i and M_b = A_s M_j when w_b has
    the word (j, s), and let T_u be the matrix with T_u w_b = M_b u.  Then
    T_u z_i = u_i, so u -> T_u is injective; T_u A_s w_j = A_s T_u w_j
    holds on every edge of a word; and it holds on the relation (j, s)
    exactly when sum_k c_k M_k u - A_s M_j u = 0.  A T in the commutant is
    T_u for u = (T z_i), so the commutant is the image of the solutions of
    all relations.  The u of T = I, (z_1, ..., z_r), is one of them.

    Candidates.  The relations are taken one at a time, in the candidates
    u_1 .. u_m: from the r d unit vectors on, a basis of the solutions of
    the relations before the last cut.  V_b = M_b (u_1 .. u_m) is formed
    from V_j when a relation first needs word b, and a relation's residual
    sum_k c_k V_k - A_s V_j gives d rows in the m candidates, which enter
    an echelon.  Before a word is formed, once those rows number at least
    half the candidates, the candidates are cut down to their solutions,
    and the words so far are formed again on them.  So the first relations,
    which leave few solutions, are the only ones whose words have r d
    columns, and the products M_b themselves, whose rationals grow in a
    basis that is not the catalog's, are never formed.  Once one solution
    is left, it is the u of I, and the commutant is Q I.

    Early stop.  When a relation adds no row at a number of solutions not
    tried before, T_u is formed for a basis of the solutions, one of them
    replaced by I: one that the u of I holds with a nonzero coefficient,
    so that the span is the same.  Those T_u contain the commutant, the
    image of a subspace of the solutions.  If each commutes with every A_s,
    they lie in the commutant, so they span it and the remaining relations
    are not needed.  Otherwise the relations go on, and after the last one
    the solutions are exact.

    Output.  The T_u are put in the form of `reduced_span_basis`, which
    depends only on their span: it is the kernel basis that
    `kernel_of_sparse_rows` returns for the d^2 system T A_s - A_s T = 0.
    """
    d = rep.carrier_dim
    gens = [rep.action[g] for g in generating_indices(rep.algebra)]
    cols = [_by_column(a) for a in gens]
    span, w, words = _spin_up(cols, d)
    spun = {(j, s) for _, j, s in words}
    relations = [(j, s) for j in range(d) for s in range(len(gens)) if (j, s) not in spun]
    roots = [(i, min(w[b])) for b, (i, j, _) in enumerate(words) if j is None]
    cands = [{f: 1} for f in range(d * len(roots))]
    ident = {i * d + z: 1 for i, z in roots}  # the u of I, over the candidates
    unit = Mat.identity(d)
    values: list = []  # V_b, formed in order of b
    pivots: dict = {}  # echelon rows, over the candidates, of the relations since the last cut
    inverse: dict = {}  # row b of W^-1, for W the matrix of the w_b: {c: coordinate of e_c at w_b}

    def solutions() -> tuple:
        """The free columns of `pivots` and, formed as they are read, a basis
        of its solutions, one per free column f: u = sum_g y_g u_g for the y
        that solves the rows and is 1 at f and 0 at the other free columns."""
        free, m, old = [f for f in range(len(cands)) if f not in pivots], len(cands), cands
        return free, (_combine((x, old[g]) for g, x in _solutions(pivots, ({f: 1},), m)[0].items())
                      for f in free)

    def value(b: int) -> Mat:
        nonlocal cands, values, pivots, ident
        if b >= len(values) and 2 * len(pivots) >= len(cands):  # cut them down to the solutions
            free, us = solutions()
            cands, ident = list(us), {g: ident[f] for g, f in enumerate(free) if f in ident}
            values, pivots = [], {}
        while len(values) <= b:  # at a root z_i, row t of V_b holds entry i d + t of each u_f
            i, j, s = words[len(values)]
            values.append(gens[s] @ values[j] if j is not None else Mat._of(len(cands), d, {
                f: {c % d: x for c, x in u.items() if c // d == i} for f, u in enumerate(cands)
            }).transpose())
        return values[b]

    def image(u: dict) -> Mat:
        """T_u = V W^-1, for V the matrix of the T_u w_b = M_b u and W that of the w_b."""
        if not inverse:
            for c in range(d):
                for b, x in span.sparse_decompose({c: 1}).items():
                    inverse.setdefault(b, {})[c] = x
        vals: list = []
        for i, j, s in words:
            vals.append(_apply(cols[s], vals[j]) if j is not None
                        else {c % d: x for c, x in u.items() if c // d == i})
        return Mat._of(d, d, dict(enumerate(vals))).transpose() @ Mat._of(d, d, inverse)

    def images() -> Iterator[Mat]:
        """I, then T_u for the basis of solutions without the one it replaces."""
        free, us = solutions()
        skip = next((g for g, f in enumerate(free) if f in ident), None)  # None when d = 0
        yield unit
        yield from (image(u) for g, u in enumerate(us) if g != skip)

    tried, gens_index = -1, None
    for count, (j, s) in enumerate(relations, 1):
        coeffs = span.sparse_decompose(_apply(cols[s], w[j]))
        value(max(j, max(coeffs, default=0)))
        residual: dict = {}  # row t: sum_k c_k V_k - A_s V_j, over the candidates
        for c, v in [(c, values[k]) for k, c in coeffs.items()] + [(-1, gens[s] @ values[j])]:
            for t, row in v.sparse.items():
                out = residual.setdefault(t, {})
                for f, x in row.items():
                    out[f] = out.get(f, 0) + c * x
        rank = len(pivots)
        _echelon(residual.values(), len(cands), pivots)
        free = len(cands) - len(pivots)
        if free == 1:
            return [unit]
        if len(pivots) > rank or free == tried or count == len(relations):
            continue
        tried, gens_index = free, gens_index or _BracketIndex(gens, d)
        found = list(itertools.takewhile(lambda t: t is unit or not gens_index.brackets(t),
                                         images()))
        if len(found) == free:
            break
    else:
        found = list(images())
    return [Mat.from_flat(d, d, v) for v in reduced_span_basis(t.flat() for t in found)]


def _spin_up(cols: list, d: int) -> tuple:
    """The spun basis of `commutant_basis`: a `SpanSolver` whose inserted
    vectors are w_0, w_1, ... in order, those vectors, and per w_b the
    triple (its root i, j, s), with j = s = None when w_b is a root.  A
    vector whose support lies in that of the one-entry vectors found so far
    is in their span, and is not given to the solver: in the catalog's
    bases, where the action matrices move unit vectors to multiples of unit
    vectors, that is most of them."""
    span = SpanSolver(d)
    w, words, units = [], [], set()  # units: the k of the one-entry vectors c e_k found so far
    j = 0
    for z in range(d):
        if span.rank == d:
            break
        if z in units or not span.insert({z: 1}):
            continue
        w.append({z: 1})
        words.append((words[-1][0] + 1 if words else 0, None, None))  # the next root's index
        units.add(z)
        while j < len(w) and span.rank < d:
            for s, col in enumerate(cols):
                x = _apply(col, w[j])
                if not units.issuperset(x) and span.insert(x):
                    w.append(x)
                    words.append((words[j][0], j, s))
                    units.update(x if len(x) == 1 else ())
            j += 1
    return span, w, words


def _generic_element(n: int, k: int) -> dict:
    """x_k = sum_i k^i b_i, the k-th candidate primitive element of an
    n-dimensional span, in coordinates over the b_i.

    perfbench/tracer.py counts calls to this name, so it keeps it.
    """
    return {i: k ** i for i in range(n)}


@derived
def commutant(rep: Representation) -> CommutantClassification:
    """Commutant of a representation with its real-type classification.

    The commutant A contains the identity; the signature of its trace form
    tr(xy) is that of A tensor R, a degenerate form meaning A is not
    semisimple.  dim 1 -> R; dim 2 -> RxR for signature (2,0), C for
    (1,1); dim 4 and commutative -> CxC when A splits into two imaginary
    quadratic fields: signature (2,2) and two primitive idempotents; dim 4
    and not commutative -> H for the definite quaternion algebras, the
    signature (1,3); anything else -> OTHER.

    The classification is computed once per representation and kept on it.
    """
    return _classify_commutant(tuple(commutant_basis(rep)))


def _classify_commutant(basis: tuple) -> CommutantClassification:
    dim = len(basis)
    if dim == 1:
        return CommutantClassification(basis, "R")
    if dim not in (2, 4):
        return CommutantClassification(basis, "OTHER")
    gram = {i: {j: sum(x * b.sparse.get(c, _NONE).get(r, 0) for r, row in a.sparse.items()
                       for c, x in row.items()) for j, b in enumerate(basis)}  # tr(b_i b_j)
            for i, a in enumerate(basis)}
    sig = symmetric_signature(Mat.from_sparse(dim, dim, gram)).as_tuple()
    if dim == 2:
        label = {(2, 0, 0): "RxR", (1, 1, 0): "C"}.get(sig, "OTHER")
    elif not any(map(_BracketIndex(basis, basis[0].rows).brackets, basis)):  # commutative
        label = "CxC" if sig == (2, 2, 0) and len(split_idempotents(basis)) == 2 else "OTHER"
    else:
        label = "H" if sig == (1, 3, 0) else "OTHER"
    return CommutantClassification(basis, label)


# ---------------------------------------------------------------------------
# Invariant bilinear forms
# ---------------------------------------------------------------------------


def invariant_bilinear_forms(rep: Representation, symmetry: str = "symmetric") -> list:
    """Gram matrices G with A^T G + G A = 0 for every action matrix A.

    `symmetry` selects G = G^T ("symmetric") or G = -G^T ("antisymmetric").
    The constraint rows come only from A = rho(X_s) for s in
    `generating_indices(rep.algebra)`: if A and B are skew for G then so is
    [A, B], and rho([x, y]) = [rho(x), rho(y)], so the generators impose
    the whole system.  The kernel, and with it the returned basis, is the
    same as from every action matrix (see `commutant_basis`).
    """
    if symmetry not in ("symmetric", "antisymmetric"):
        raise InputError("symmetry must be 'symmetric' or 'antisymmetric'")
    sym = symmetry == "symmetric"
    d = rep.carrier_dim
    pairs = [(r, s) for r in range(d) for s in range(r if sym else r + 1, d)]
    index = {p: i for i, p in enumerate(pairs)}

    def unknown(r, s):
        if r <= s:
            return index[(r, s)], 1
        return index[(s, r)], 1 if sym else -1

    rows = []
    for g in generating_indices(rep.algebra):
        in_col = _by_column(rep.action[g])
        for r in range(d):
            for s in range(r if sym else r + 1, d):
                row: dict = {}
                for k, v in in_col[r]:  # (A^T G)[r][s] = sum_k A[k][r] G[k][s]
                    if sym or k != s:
                        idx, sign = unknown(k, s)
                        row[idx] = row.get(idx, 0) + sign * v
                for k, v in in_col[s]:  # (G A)[r][s] = sum_k G[r][k] A[k][s]
                    if sym or r != k:
                        idx, sign = unknown(r, k)
                        row[idx] = row.get(idx, 0) + sign * v
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    out = []
    for vec in kernel_of_sparse_rows(rows, len(pairs)):
        data: dict = {}
        for i, v in vec.items():
            r, s = pairs[i]
            data.setdefault(r, {})[s] = v
            data.setdefault(s, {})[r] = v if sym else -v
        out.append(Mat.from_sparse(d, d, data))
    return out


# ---------------------------------------------------------------------------
# Invariant complex structures
# ---------------------------------------------------------------------------


@dataclass
class ComplexStructureResult:
    status: str  # "decided" | "undecided"
    structures: list = field(default_factory=list)
    label: str = ""
    note: str = ""


def _canonical_sign(m: Mat) -> Mat:
    """m or -m, whichever has a positive first nonzero entry (row-major)."""
    if not m.sparse:
        return m
    row = m.sparse[min(m.sparse)]
    return m if row[min(row)] > 0 else -m


def split_idempotents(basis: list) -> Optional[list]:
    """Primitive idempotents of a commutative matrix algebra, from its basis.

    None when the trace form tr(b_i b_j) is degenerate: the algebra is then
    not semisimple, or the basis is dependent.  The algebra is worked in
    the basis E_1 .. E_n of `reduced_span_basis`, which is the form that
    `commutant_basis` returns, so that a commutant basis is its own: E_i
    is 1 at its pivot p_i and every other E_j is 0 there, so the
    coordinates of an element x of the span are its entries x[p_i], read
    without elimination.  The n(n+1)/2 products E_i E_j are formed once,
    and each gives both its trace, for the trace form (whose nullity does
    not depend on the basis), and its coordinates, for the table
    E_i E_j = sum_k c_ij^k E_k (`InternalCheckError` when a product or I is
    not the combination of E that its pivot entries give: the span is then
    not a unital algebra).  A one-element basis b spans a line, b b = lam
    b, whose unit b / lam is its one nonzero idempotent.

    A larger algebra A, of dimension n and holding I, is split in these
    coordinates, every element below being a coordinate vector multiplied
    through the table.  A is split by refining blocks (e, t): orthogonal
    idempotents e of A summing to I, each tagged with the degree t of a
    field inside eA, from (I, 1) on.  A candidate x, the basis elements and
    then x_k = sum_i k^i b_i for k = 1, 2, ..., cuts each e into the nonzero
    e P_f, tagged max(t, deg f), for the irreducible factors f of the
    minimal polynomial m of e x and the Bezout projectors P_f = (u m/f)(e x),
    u m/f = 1 mod f; for a linear f = t - a, u is the constant 1 / (m/f)(a).
    m is found by Krylov dependence on the coordinate vectors of the powers
    of e x, which the projectors then combine (A is unital, so m is that of
    the multiplication by e x); it is squarefree, A being semisimple, so it
    is factored without a squarefree decomposition.  Both tags are field
    degrees: e P_f x generates a copy of Q[t]/(f), and e P_f embeds the
    field of degree t.  A field inside eA has dimension at most dim eA, and
    the dim eA sum to n, so once the tags sum to n every eA is a field and
    every e primitive.  The x_k get there: x_k generates A when the n
    characters of A differ on it, and two characters differ on x_k by a
    nonzero polynomial in k of degree < n, so some k <= 1 + (n-1) n(n-1)/2
    qualifies (Eberly & Giesbrecht, J. Symbolic Comput. 2000); then each
    e P_f A is spanned by the powers of e P_f x, of dimension at most
    deg f.  The candidates are the given basis elements, in their order,
    and combinations of them, so the blocks do not depend on the form E.
    Each primitive idempotent is formed as a matrix once, from its
    coordinates, and the projectors are sorted by `idempotent_order`: the
    result depends only on the algebra.
    """
    n = len(basis)
    if n == 1:  # lam = tr(b b) / tr(b), as tr(b b) = lam tr(b) is nonzero
        b = basis[0]
        gram = (b @ b).trace()
        if not gram:
            return None
        p = b.scale(b.trace() / gram)
        if not p.sparse or p @ p != p:
            raise InternalCheckError("split projector is not idempotent")
        return [p]
    d = basis[0].rows
    given = [b.flat() for b in basis]
    flats = reduced_span_basis(given)
    if len(flats) < n:
        return None
    mats = basis if flats == given else [Mat.from_flat(d, d, f) for f in flats]
    pivots = [max(f) for f in flats]

    def coords(flat: dict) -> dict:
        x = {i: flat[p] for i, p in enumerate(pivots) if p in flat}
        if _combine((c, flats[k]) for k, c in x.items()) != flat:
            raise InternalCheckError("the span is not a unital algebra")
        return x

    products = {(i, j): mats[i] @ mats[j] for i in range(n) for j in range(i, n)}
    gram = {i: {j: products[min(i, j), max(i, j)].trace() for j in range(n)} for i in range(n)}
    if symmetric_signature(Mat.from_sparse(n, n, gram)).nullity:
        return None
    table = {key: coords(prod.flat()) for key, prod in products.items()}  # E_i E_j, i <= j
    one = coords({r * d + r: 1 for r in range(d)})

    def mul(x: dict, y: dict) -> dict:
        return _combine((a * b, table[min(i, j), max(i, j)])
                        for i, a in x.items() for j, b in y.items())

    given = [coords(f) for f in given]
    blocks = [(one, 1)]
    draws = (_combine((c, given[i]) for i, c in _generic_element(n, k).items())
             for k in range(1, 2 + (n - 1) * n * (n - 1) // 2))
    for x in itertools.chain(given, draws):
        refined = []
        for e, tag in blocks:
            y = x if e is one else mul(e, x)
            if _combine([(frac(y.get(min(e), 0)) / e[min(e)], e)]) == y:
                refined.append((e, tag))  # e x = c e cuts e into itself
                continue
            powers, krylov = [one], SpanSolver(n)  # y^0 .. y^(deg m - 1)
            while krylov.insert(powers[-1]):
                powers.append(y if powers[-1] is one else mul(powers[-1], y))
            top = krylov.sparse_decompose(powers.pop())  # y^(deg m) over the lower powers
            m = [-frac(top.get(i, 0)) for i in range(len(powers))] + [ONE]
            factors = poly.factor_squarefree(m)
            cut = []  # (deg f, e P_f); the last e P_f is e minus the others
            for f in factors[:-1]:
                cof, rem = poly.divmod_exact(m, f)
                if len(f) == 2:  # u = 1 / cof(a) at the root a of f
                    g, u = [functools.reduce(lambda acc, c: acc * -f[0] + c, cof[::-1])], [ONE]
                else:
                    g, u, _ = poly.xgcd(cof, f)
                if rem != [poly.ZERO] or poly.degree(g) != 0:
                    raise InternalCheckError("minimal polynomial factors are not coprime")
                proj = poly.divmod_exact(poly.mul([c / g[0] for c in u], cof), m)[1]
                part = _combine(zip(proj, powers))
                cut.append((len(f) - 1, part if e is one else mul(e, part)))
            cut.append((len(factors[-1]) - 1, _combine([(1, e)] + [(-1, p) for _, p in cut])))
            if any(mul(p, p) != p for _, p in cut):
                raise InternalCheckError("split projector is not idempotent")
            refined += [(p, max(tag, degree)) for degree, p in cut if p]
        blocks = refined
        if sum(tag for _, tag in blocks) == n:
            return sorted((_matrix_of(e, flats, d) for e, _ in blocks), key=idempotent_order)
    raise InternalCheckError("no split into fields within the bound")


def _matrix_of(x: dict, flats: list, d: int) -> Mat:
    """The d x d matrix sum_i x_i E_i for flat E_i, summed in ints over the
    least common denominator D of the x_i and divided by D once per distinct
    entry: a projector's entries take few values."""
    den = math.lcm(*(c.denominator for c in x.values()))
    acc = _combine((int(c * den), flats[i]) for i, c in x.items())
    quotient = {v: _exact(Fraction(v, den)) for v in set(acc.values())}
    rows: dict = {}
    for k, v in acc.items():
        rows.setdefault(k // d, {})[k % d] = quotient[v]
    return Mat._of(d, d, rows)


def idempotent_order(p: Mat) -> tuple:
    """Sort key of primitive idempotents: the first nonzero column, then the
    entries compared from the last one, larger first.  It keeps the default
    grid's factor orders and J signs.

    Only the nonzero entries are read, last first.  Two matrices of one
    shape first differ, read from the end, at some (r, c).  If both hold a
    nonzero there, the larger sorts first; if only one does, the other holds
    0 there, so a positive entry sorts first and a negative one last.  The
    items below keep that order: a positive entry (0, -r, -c, -v) sorts
    before a negative one (2, r, c, -v) and before every item of an earlier
    position, a negative one after them, and (1,) marks the zeros left
    after the last nonzero entry."""
    first = min(c for row in p.sparse.values() for c in row)
    items = []
    for r in sorted(p.sparse, reverse=True):
        row = p.sparse[r]
        for c in sorted(row, reverse=True):
            v = row[c]
            items.append((0, -r, -c, -v) if v > 0 else (2, r, c, -v))
    items.append((1,))
    return first, tuple(items)


def factor_complex_structure(p: Mat, basis: Sequence[Mat]) -> tuple:
    """The complex structure of the factor pA of a commutative matrix algebra
    A with basis `basis`, for a primitive idempotent p of A.

    Returns ("decided", J) with J = a p + b g and J^2 = -p; ("none", None)
    when pA is spanned by p, a real factor with no complex structure; and
    ("undecided", None) when no such J was found over the rationals.

    g is the first p b, b in `basis`, independent of p.  When g^2 lies in
    span{p, g}, g^2 = s p + t g, and J = a p + b g squares to
    (a^2 + b^2 s) p + (2ab + b^2 t) g; that is -p exactly when a = -b t / 2
    and b^2 (t^2 + 4 s) = -4.  So a rational J needs t^2 + 4 s < 0 and
    -4 / (t^2 + 4 s) a rational square, and b is its positive root.
    """
    span = SpanSolver(p.rows * p.cols)
    span.insert(p.flat())
    g = next((c for c in (p @ b for b in basis) if span.insert(c.flat())), None)
    if g is None:
        return "none", None
    st = span.sparse_decompose((g @ g).flat())  # {0: s, 1: t} without zeros
    if st is None:
        return "undecided", None
    s, t = frac(st.get(0, 0)), frac(st.get(1, 0))
    disc = t * t + 4 * s
    b = is_rational_square(Fraction(-4, 1) / disc) if disc < 0 else None
    if b is None:
        return "undecided", None
    return "decided", p.scale(-t * b / 2) + g.scale(b)


# `seed` is unused; perfbench/child.py still passes it.
def invariant_complex_structures(rep: Representation, seed: int = 0) -> ComplexStructureResult:
    """All rational J in the commutant with J^2 = -I, when decidable.

    Labels R and RxR admit none; C and CxC yield the +-J generators per
    complex factor; H returns one representative pair.  When the commutant
    type is OTHER, or a J exists over the reals but not over the rationals
    in this basis, the result is reported as undecided rather than "none".
    """
    cls = commutant(rep)
    d = rep.carrier_dim
    identity = Mat.identity(d)
    basis = cls.commutant_basis
    if cls.label in ("R", "RxR"):
        return ComplexStructureResult("decided", [], cls.label)
    if cls.label in ("C", "CxC"):
        # C is one 2-dimensional factor, with projector I; CxC is two
        projectors = [identity] if cls.label == "C" else split_idempotents(basis)
        partials = [factor_complex_structure(p, basis)[1] for p in projectors]
        if None in partials:
            return ComplexStructureResult(
                "undecided", [], cls.label,
                "complex structure exists over R but not over Q in this basis",
            )
        if cls.label == "C":
            j = _canonical_sign(partials[0])
            return ComplexStructureResult("decided", [j, -j], "C")
        j1, j2 = partials
        out = [_canonical_sign(j1 + j2), _canonical_sign(j1 - j2)]
        full = [out[0], -out[0], out[1], -out[1]]
        for j in full:
            if j @ j != -identity:
                raise InternalCheckError("CxC complex structure failed J^2 = -I")
        return ComplexStructureResult("decided", full, "CxC")
    if cls.label == "H":
        pairs = [basis[i] + basis[j] for i in range(4) for j in range(i + 1, 4)]
        for cand in [*basis, *pairs]:
            pure = cand - identity.scale(cand.trace() / d)
            sq = pure @ pure
            diag = sq[0, 0]
            if sq == identity.scale(diag) and diag < 0:
                s = is_rational_square(-diag)
                if s is not None:
                    j = _canonical_sign(pure.scale(ONE / s))
                    return ComplexStructureResult("decided", [j, -j], "H")
        return ComplexStructureResult("undecided", [], "H", "no rational unit found")
    return ComplexStructureResult("undecided", [], cls.label, "commutant type undecided")


# ---------------------------------------------------------------------------
# Invariant subspaces
# ---------------------------------------------------------------------------


def largest_invariant_subspace_dim(algebra: MatrixLieAlgebra, indices: Sequence[int]) -> int:
    """Dimension of the largest bracket-invariant subspace inside a
    coordinate-spanned subspace.

    The result is the dimension of the biggest ideal of the algebra contained
    in span(basis[i] for i in indices); zero certifies effectivity.
    """
    dim = algebra.dim
    sc = algebra.constants
    span = SpanSolver(dim)
    cols = [{i: 1} for i in indices if span.insert({i: 1})]
    while cols:
        k = len(cols)
        annihilator = kernel_of_sparse_rows(cols, dim)
        if not annihilator:
            return k  # subspace is everything and trivially invariant
        rows = []
        for g in range(dim):
            images = [sc.bracket_with(g, col) for col in cols]  # [X_g, col]
            for ell in annihilator:
                row = {}
                for c, w in enumerate(images):
                    s = 0
                    for t, v in w.items():
                        lv = ell.get(t)
                        if lv is not None:
                            s += lv * v
                    if s:
                        row[c] = s
                if row:
                    rows.append(row)
        combos = kernel_of_sparse_rows(rows, k)
        if len(combos) == k:
            return k
        new_cols = []
        new_span = SpanSolver(dim)
        for y in combos:
            vec: dict = {}
            for c, yc in y.items():
                for t, v in cols[c].items():
                    vec[t] = vec.get(t, 0) + yc * v
            if new_span.insert(vec):
                new_cols.append(vec)
        cols = new_cols
    return 0
