"""Matrix Lie algebras over the rationals.

Brackets, structure constants, Killing forms, Cartan's criterion, commutants
of representations, invariant bilinear forms and invariant complex
structures.  Complex and quaternionic algebras enter realified, so a single
rational scalar field serves everything; complex linearity becomes exact
commutation with an explicit J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import poly
from .errors import ClosureError, DependentBasisError, InputError, InternalCheckError
from .linalg import (
    ONE,
    ZERO,
    Mat,
    MinimalPolynomial,
    SpanSolver,
    _exact,
    frac,
    is_rational_square,
    kernel_of_sparse_rows,
    matrix_rank,
    minimal_polynomial,
    solve_linear,
    sparse_commutator,
    sparse_product,
    sparse_rows,
    symmetric_signature,
)


class StructureConstants:
    """Sparse structure constants c[i][j] = {k: coefficient}.

    Integral coefficients are stored as int, the others as Fraction; readers
    of `table` and `row` only add, multiply and compare them.
    """

    def __init__(self, dim: int, table: list):
        self.dim = dim
        self.table = table  # table[i][j] is a dict {k: int | Fraction}

    def row(self, i: int, j: int) -> dict:
        return self.table[i][j]

    def get(self, i: int, j: int, k: int) -> Fraction:
        return frac(self.table[i][j].get(k, 0))

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
        entries = [ZERO] * (self.dim * self.dim)
        for j in range(self.dim):
            for k, c in self.table[i][j].items():
                entries[k * self.dim + j] = c
        return Mat(self.dim, self.dim, entries)

    def ad_of_coords(self, u: Sequence[Fraction]) -> Mat:
        entries = [ZERO] * (self.dim * self.dim)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j in range(self.dim):
                for k, c in self.table[i][j].items():
                    entries[k * self.dim + j] += a * c
        return Mat(self.dim, self.dim, entries)

    def antisymmetry_holds(self) -> bool:
        for i in range(self.dim):
            for j in range(i, self.dim):
                fwd = self.table[i][j]
                bwd = self.table[j][i]
                keys = set(fwd) | set(bwd)
                if any(fwd.get(k, 0) != -bwd.get(k, 0) for k in keys):
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

    def jacobi_holds(self) -> bool:
        return not self.jacobi_witnesses(limit=1)


class MatrixLieAlgebra:
    """An ambient matrix realization with a bracket-closed rational basis."""

    def __init__(self, ambient_size: int, basis: list, name: str,
                 constants: StructureConstants, span: SpanSolver):
        self.ambient_size = ambient_size
        self.basis = basis
        self.name = name
        self.constants = constants
        self._span = span
        self._killing: Optional[Mat] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, m: Mat) -> Optional[list]:
        """Coordinates of an ambient matrix in the basis, or None."""
        if m.shape != (self.ambient_size, self.ambient_size):
            raise InputError("ambient size mismatch")
        return self._span.decompose(m.entries)

    def element(self, coords: Sequence[Fraction]) -> Mat:
        out = Mat.zero(self.ambient_size, self.ambient_size)
        for c, b in zip(coords, self.basis):
            if c != 0:
                out = out + b.scale(c)
        return out

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list:
        return self.constants.bracket_coords(u, v)

    def adjoint_representation(self) -> "Representation":
        mats = [self.constants.ad_matrix(i) for i in range(self.dim)]
        return Representation(self, self.dim, mats, check=False)

    def __repr__(self):
        return f"MatrixLieAlgebra({self.name}, dim={self.dim}, ambient={self.ambient_size})"


def make_algebra(basis: Sequence[Mat], name: str = "") -> MatrixLieAlgebra:
    """Build an algebra from square matrices, verifying independence and closure."""
    if not basis:
        raise InputError("empty basis")
    n = basis[0].rows
    for b in basis:
        if not b.is_square() or b.rows != n:
            raise InputError("basis matrices must be square and equally sized")
    span = SpanSolver(n * n)
    for idx, b in enumerate(basis):
        if not span.insert(b.entries):
            raise DependentBasisError(idx)
    dim = len(basis)
    sparse = [sparse_rows(b) for b in basis]
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        table[i][i] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            bracket = sparse_commutator(sparse[i], sparse[j], n)
            fwd = {}
            if bracket:
                fwd = span.sparse_decompose(bracket)
                if fwd is None:
                    raise ClosureError(i, j)
            table[i][j] = fwd
            table[j][i] = {k: -c for k, c in fwd.items()}
    constants = StructureConstants(dim, table)
    return MatrixLieAlgebra(n, list(basis), name, constants, span)


def killing_form(algebra: MatrixLieAlgebra) -> Mat:
    """Gram matrix B(X_i, X_j) = trace(ad X_i ad X_j) from structure constants."""
    if algebra._killing is not None:
        return algebra._killing
    dim = algebra.dim
    t = algebra.constants.table
    entries = [ZERO] * (dim * dim)
    for i in range(dim):
        for j in range(i, dim):
            s = 0
            for l in range(dim):
                row = t[i][l]
                if not row:
                    continue
                tj = t[j]
                for k, c in row.items():
                    d = tj[k].get(l)
                    if d is not None:
                        s += c * d
            entries[i * dim + j] = s
            entries[j * dim + i] = s
    gram = Mat(dim, dim, entries)
    algebra._killing = gram
    return gram


def is_semisimple(algebra: MatrixLieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return matrix_rank(killing_form(algebra)) == algebra.dim


class Representation:
    """A Lie algebra homomorphism into gl(carrier_dim), one matrix per basis element."""

    def __init__(self, algebra: MatrixLieAlgebra, carrier_dim: int,
                 action: Sequence[Mat], check: bool = True):
        if len(action) != algebra.dim:
            raise InputError("one action matrix per basis element required")
        for a in action:
            if a.shape != (carrier_dim, carrier_dim):
                raise InputError("action matrix of wrong size")
        self.algebra = algebra
        self.carrier_dim = carrier_dim
        self.action = list(action)
        if check:
            bad = self._homomorphism_witness()
            if bad is not None:
                raise InputError(f"action is not a homomorphism at basis pair {bad}")

    def _homomorphism_witness(self):
        """First basis pair (i, j) with [A_i, A_j] != sum_k c_ij^k A_k, or None."""
        n = self.carrier_dim
        t = self.algebra.constants
        sparse = [sparse_rows(a) for a in self.action]
        flat = [{r * n + col: v for r, row in m.items() for col, v in row.items()} for m in sparse]
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                expect: dict = {}
                for k, c in t.row(i, j).items():
                    for key, v in flat[k].items():
                        expect[key] = expect.get(key, 0) + c * v
                expect = {key: v for key, v in expect.items() if v}
                if sparse_commutator(sparse[i], sparse[j], n) != expect:
                    return (i, j)
        return None


# ---------------------------------------------------------------------------
# Commutants
# ---------------------------------------------------------------------------


@dataclass
class CommutantClassification:
    commutant_basis: list
    label: str  # one of R | C | RxR | CxC | H | OTHER
    # Always None now that labels come from the trace form; kept because
    # perfbench/tracer.py reads it.
    generic_minimal_polynomial: Optional[MinimalPolynomial] = None

    @property
    def dim(self) -> int:
        return len(self.commutant_basis)

    @property
    def is_irreducible(self) -> bool:
        """Schur-style criterion: the commutant is a division algebra."""
        return self.label in ("R", "C", "H")


def _by_column(a: Mat) -> tuple:
    """The nonzero entries of a square matrix in `sparse_rows` form, and per
    column c the pairs (k, A[k][c]) in increasing k."""
    rows = sparse_rows(a)
    cols = [[] for _ in range(a.cols)]
    for k, row in rows.items():
        for c, v in row.items():
            cols[c].append((k, v))
    return rows, cols


def commutant_basis(rep: Representation) -> list:
    """Basis of all matrices commuting exactly with every action matrix."""
    d = rep.carrier_dim
    rows = []
    for a in rep.action:
        in_row, in_col = _by_column(a)
        # (T A - A T)[r][s] = sum_k T[r][k] A[k][s] - A[r][k] T[k][s]
        for r in range(d):
            a_r = in_row.get(r, {})
            for s in range(d):
                row = {r * d + k: v for k, v in in_col[s]}
                for k, v in a_r.items():
                    key = k * d + s
                    row[key] = row.get(key, 0) - v
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    basis = kernel_of_sparse_rows(rows, d * d)
    return [Mat(d, d, vec) for vec in basis]


def _generic_element(basis: list, k: int) -> Mat:
    """x_k = sum_i k^i b_i, the k-th candidate primitive element of a span.

    perfbench/tracer.py counts calls to this name, so it keeps it.
    """
    entries = [0] * len(basis[0].entries)
    weight = 1
    for b in basis:
        for idx, v in enumerate(b.entries):
            if v:
                entries[idx] += weight * v
        weight *= k
    return Mat(basis[0].rows, basis[0].cols, entries)


def _trace_form(basis: list) -> Mat:
    """Gram matrix tr(b_i b_j) of the trace form on a span of square matrices."""
    sparse = [sparse_rows(b) for b in basis]
    n = len(basis)
    entries = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            s = 0
            b_j = sparse[j]
            for r, row in sparse[i].items():  # sum_{r,c} b_i[r][c] b_j[c][r]
                for c, v in row.items():
                    w = b_j.get(c, {}).get(r)
                    if w is not None:
                        s += v * w
            entries[i * n + j] = entries[j * n + i] = s
    return Mat(n, n, entries)


def _commute(a: Mat, b: Mat) -> bool:
    return a @ b == b @ a


def commutant(rep: Representation) -> CommutantClassification:
    """Commutant of a representation with its real-type classification.

    The commutant A contains the identity; the signature of its trace form
    tr(xy) is that of A tensor R, a degenerate form meaning A is not
    semisimple.  dim 1 -> R; dim 2 -> RxR for signature (2,0), C for
    (1,1); dim 4 and commutative -> CxC when A splits into two imaginary
    quadratic fields: signature (2,2) and two primitive idempotents; dim 4
    and not commutative -> H for the definite quaternion algebras, the
    signature (1,3); anything else -> OTHER.
    """
    basis = commutant_basis(rep)
    dim = len(basis)
    if dim == 1:
        return CommutantClassification(basis, "R")
    if dim not in (2, 4):
        return CommutantClassification(basis, "OTHER")
    sig = symmetric_signature(_trace_form(basis)).as_tuple()
    if dim == 2:
        label = {(2, 0, 0): "RxR", (1, 1, 0): "C"}.get(sig, "OTHER")
    elif all(_commute(basis[i], basis[j]) for i in range(4) for j in range(i + 1, 4)):
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
    for a in rep.action:
        _, in_col = _by_column(a)
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
    kernel = kernel_of_sparse_rows(rows, len(pairs))
    out = []
    for vec in kernel:
        entries = [ZERO] * (d * d)
        for (r, s), i in index.items():
            entries[r * d + s] = vec[i]
            if r != s:
                entries[s * d + r] = vec[i] if sym else -vec[i]
        out.append(Mat(d, d, entries))
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


class _SpanAlgebra:
    """A small associative matrix algebra spanned by given matrices."""

    def __init__(self, basis: list):
        d = basis[0].rows
        self.span = SpanSolver(d * d)
        self.basis = []
        for b in basis:
            if self.span.insert(b.entries):
                self.basis.append(b)
        self.dim = len(self.basis)

    def coords(self, m: Mat) -> Optional[list]:
        return self.span.decompose(m.entries)


def _canonical_sign(m: Mat) -> Mat:
    for x in m.entries:
        if x > 0:
            return m
        if x < 0:
            return -m
    return m


def split_idempotents(basis: list) -> Optional[list]:
    """Primitive idempotents of a commutative matrix algebra, from its basis.

    None when the trace form tr(b_i b_j) is degenerate: the algebra is then
    not semisimple.  Otherwise the algebra A has n = dim A distinct
    characters, and x_k = sum_i k^i b_i generates A exactly when they take
    distinct values on it, that is when its minimal polynomial m has degree
    n.  Two characters differ on x_k by a nonzero polynomial in k of degree
    < n, so some k <= 1 + (n-1) n(n-1)/2 qualifies (Eberly & Giesbrecht,
    J. Symbolic Comput. 2000).  Each irreducible factor f of m gives the
    projector (u * m/f)(x_k) with u * m/f = 1 mod f.  The projectors are
    sorted by their first nonzero column, then by their entries compared from
    the last one, larger first: the result depends only on the algebra.
    """
    n = len(basis)
    if symmetric_signature(_trace_form(basis)).nullity:
        return None
    for k in range(1, 2 + (n - 1) * n * (n - 1) // 2):
        el = _generic_element(basis, k)
        mp = minimal_polynomial(el)
        if mp.degree == n:
            break
    else:
        raise InternalCheckError("no primitive element x_k within the bound")
    d, x = el.rows, sparse_rows(el)
    powers = [{i: {i: 1} for i in range(d)}]  # x_k^0 .. x_k^(n-1), sparse
    for _ in range(n - 1):
        powers.append(sparse_product(powers[-1], x))
    total = list(mp.coeffs)
    projectors = []
    for f in (list(f.coeffs) for f in mp.factors):
        cof, rem = poly.divmod_exact(total, f)
        assert rem == [poly.ZERO]
        # find u with u*cof = 1 mod f, then P = (u*cof)(x_k)
        g, u, _ = _poly_xgcd(cof, f)
        if poly.degree(g) != 0:
            raise InternalCheckError("minimal polynomial factors are not coprime")
        inv_lead = ONE / g[0]
        u = [c * inv_lead for c in u]
        _, proj_poly = poly.divmod_exact(poly.mul(u, cof), total)
        entries = [0] * (d * d)
        for c, power in zip(proj_poly, powers):
            if c:
                for r, row in power.items():
                    for col, v in row.items():
                        entries[r * d + col] += c * v
        p = Mat(d, d, entries)
        sparse = sparse_rows(p)
        if sparse_product(sparse, sparse) != sparse:
            raise InternalCheckError("split projector is not idempotent")
        projectors.append(p)

    def key(p: Mat):  # keeps the default grid's factor orders and J signs
        first = min(idx % p.cols for idx, v in enumerate(p.entries) if v)
        return first, tuple(-x for x in reversed(p.entries))

    return sorted(projectors, key=key)


def _poly_xgcd(a: list, b: list):
    r0, r1 = list(a), list(b)
    s0, s1 = [ONE], [poly.ZERO]
    t0, t1 = [poly.ZERO], [ONE]
    while poly.trim(r1) != [poly.ZERO]:
        q, r = poly.divmod_exact(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly.add(s0, poly.neg(poly.mul(q, s1)))
        t0, t1 = t1, poly.add(t0, poly.neg(poly.mul(q, t1)))
    return poly.trim(r0), poly.trim(s0), poly.trim(t0)


def _factor_generator(p: Mat, basis: list) -> Optional[Mat]:
    """The first p @ b, b in basis, independent of p: with p it spans the
    factor pA when that is 2-dimensional.  None when pA is spanned by p."""
    probe = SpanSolver(p.rows * p.cols)
    probe.insert(p.entries)
    return next((c for c in (p @ b for b in basis) if probe.insert(c.entries)), None)


def _square_roots_of_minus_unit(unit: Mat, gen: Mat, alg: _SpanAlgebra) -> list:
    """Solutions of J^2 = -unit inside the 2-dim algebra span{unit, gen}."""
    sq = alg.coords(gen @ gen)
    u_coords = alg.coords(unit)
    g_coords = alg.coords(gen)
    if sq is None or u_coords is None or g_coords is None:
        return []
    # express gen^2 = p*unit + q*gen inside the 2-dim subalgebra
    sol = solve_linear(
        Mat.from_rows([[u, g] for u, g in zip(u_coords, g_coords)]),
        Mat.column(sq),
    )
    if sol is None:
        return []
    p, q = sol.particular[0, 0], sol.particular[1, 0]
    disc = q * q + 4 * p
    if disc >= 0:
        return []
    b2 = Fraction(-4, 1) / disc
    b = is_rational_square(b2)
    if b is None:
        return []
    a = -q * b / 2
    j = unit.scale(a) + gen.scale(b)
    return [j, -j]


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
    if cls.label == "C":
        alg = _SpanAlgebra([identity] + basis)
        sols = _square_roots_of_minus_unit(identity, alg.basis[1], alg)
        if sols:
            j = _canonical_sign(sols[0])
            return ComplexStructureResult("decided", [j, -j], "C")
        return ComplexStructureResult(
            "undecided", [], "C", "complex structure exists over R but not over Q in this basis"
        )
    if cls.label == "CxC":
        alg = _SpanAlgebra([identity] + basis)
        partials = []
        for p in split_idempotents(basis):  # two, each onto a 2-dimensional factor
            sols = _square_roots_of_minus_unit(p, _factor_generator(p, basis), alg)
            if not sols:
                return ComplexStructureResult(
                    "undecided", [], "CxC",
                    "complex structure exists over R but not over Q in this basis",
                )
            partials.append(sols[0])
        j1, j2 = partials
        out = [_canonical_sign(j1 + j2), _canonical_sign(j1 - j2)]
        full = [out[0], -out[0], out[1], -out[1]]
        for j in full:
            if j @ j != -identity:
                raise InternalCheckError("CxC complex structure failed J^2 = -I")
        return ComplexStructureResult("decided", full, "CxC")
    if cls.label == "H":
        pairs = [basis[i] + basis[j] for i in range(4) for j in range(i + 1, 4)]
        for cand in basis + pairs:
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
        annihilator = [
            {t: _exact(v) for t, v in enumerate(ell) if v}
            for ell in kernel_of_sparse_rows(cols, dim)
        ]
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
            for c, yc in enumerate(y):
                if yc:
                    yc = _exact(yc)
                    for t, v in cols[c].items():
                        vec[t] = vec.get(t, 0) + yc * v
            if new_span.insert(vec):
                new_cols.append(vec)
        cols = new_cols
    return 0
