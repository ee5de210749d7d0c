"""Matrix Lie algebras over the rationals.

Brackets, structure constants, Killing forms, Cartan's criterion, commutants
of representations, invariant bilinear forms and invariant complex
structures.  Complex and quaternionic algebras enter realified, so a single
rational scalar field serves everything; complex linearity becomes exact
commutation with an explicit J.
"""

from __future__ import annotations

import random
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
    kernel_of_sparse_rows,
    matrix_rank,
    minimal_polynomial,
    solve_linear,
    sparse_commutator,
    sparse_rows,
)

GENERIC_RETRIES = 5


class StructureConstants:
    """Sparse structure constants c[i][j] = {k: coefficient}."""

    def __init__(self, dim: int, table: list):
        self.dim = dim
        self.table = table  # table[i][j] is a dict {k: Fraction}

    def row(self, i: int, j: int) -> dict:
        return self.table[i][j]

    def get(self, i: int, j: int, k: int) -> Fraction:
        return self.table[i][j].get(k, ZERO)

    def bracket_coords(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list:
        """Coordinates of [u, v] for coordinate vectors u, v."""
        out = [ZERO] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            row_i = self.table[i]
            for j, b in enumerate(v):
                if b == 0:
                    continue
                ab = a * b
                for k, c in row_i[j].items():
                    out[k] += ab * c
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
                if any(fwd.get(k, ZERO) != -bwd.get(k, ZERO) for k in keys):
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
                    acc: dict[int, Fraction] = {}
                    for row, inner in ((row_i, cjk), (row_j, cki), (row_k, cij)):
                        for m, c in inner.items():
                            for t, d in row[m].items():
                                acc[t] = acc.get(t, ZERO) + c * d
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
                coords = span.decompose(bracket)
                if coords is None:
                    raise ClosureError(i, j)
                fwd = {k: c for k, c in enumerate(coords) if c}
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
            s = ZERO
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
                expect: dict[int, Fraction] = {}
                for k, c in t.row(i, j).items():
                    for key, v in flat[k].items():
                        expect[key] = expect.get(key, ZERO) + c * v
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
    generic_minimal_polynomial: Optional[MinimalPolynomial] = None

    @property
    def dim(self) -> int:
        return len(self.commutant_basis)

    @property
    def is_irreducible(self) -> bool:
        """Schur-style criterion: the commutant is a division algebra."""
        return self.label in ("R", "C", "H")


def commutant_basis(rep: Representation) -> list:
    """Basis of all matrices commuting exactly with every action matrix."""
    d = rep.carrier_dim
    rows = []
    for a in rep.action:
        ar = a.to_rows()
        nz_in_col = [[] for _ in range(d)]
        nz_in_row = [[] for _ in range(d)]
        for r in range(d):
            for s in range(d):
                if ar[r][s] != 0:
                    nz_in_row[r].append(s)
                    nz_in_col[s].append(r)
        # (T A - A T)[r][s] = sum_k T[r][k] A[k][s] - A[r][k] T[k][s]
        for r in range(d):
            for s in range(d):
                row: dict[int, Fraction] = {}
                for k in nz_in_col[s]:
                    row[r * d + k] = row.get(r * d + k, ZERO) + ar[k][s]
                for k in nz_in_row[r]:
                    key = k * d + s
                    row[key] = row.get(key, ZERO) - ar[r][k]
                row = {k: v for k, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    basis = kernel_of_sparse_rows(rows, d * d)
    return [Mat(d, d, vec) for vec in basis]


def _generic_element(basis: list, rng: random.Random) -> Mat:
    out = Mat.zero(basis[0].rows, basis[0].cols)
    for b in basis:
        out = out + b.scale(rng.randint(1, 12))
    return out


def _best_generic_minpoly(basis: list, rng: random.Random):
    best = None
    best_el = None
    for _ in range(GENERIC_RETRIES):
        el = _generic_element(basis, rng)
        mp = minimal_polynomial(el)
        if best is None or mp.degree > best.degree:
            best, best_el = mp, el
    return best, best_el


def _commute(a: Mat, b: Mat) -> bool:
    return a @ b == b @ a


def commutant(rep: Representation, seed: int = 0) -> CommutantClassification:
    """Commutant of a representation with its real-type classification.

    dim 1 -> R; dim 2 -> C or RxR by the generic element's discriminant;
    dim 4 -> CxC, H or OTHER via commutativity plus the generic minimal
    polynomial; anything else -> OTHER.
    """
    basis = commutant_basis(rep)
    rng = random.Random(seed)
    dim = len(basis)
    if dim == 1:
        return CommutantClassification(basis, "R")
    if dim == 2:
        mp, _ = _best_generic_minpoly(basis, rng)
        if mp.degree == 2:
            c0, c1, _ = mp.coeffs
            disc = c1 * c1 - 4 * c0
            label = "C" if disc < 0 else "RxR"
        else:
            label = "OTHER"
        return CommutantClassification(basis, label, mp)
    if dim == 4:
        commutative = all(
            _commute(basis[i], basis[j]) for i in range(4) for j in range(i + 1, 4)
        )
        mp, _ = _best_generic_minpoly(basis, rng)
        if not commutative:
            quad = mp.degree == 2 and any(
                f.degree == 2 and f.complex_type for f in mp.factors
            )
            return CommutantClassification(basis, "H" if quad else "OTHER", mp)
        if mp.degree == 4:
            quads = [f for f in mp.factors if f.degree == 2 and f.complex_type]
            if len(quads) == 2 and all(f.multiplicity == 1 for f in mp.factors):
                return CommutantClassification(basis, "CxC", mp)
        return CommutantClassification(basis, "OTHER", mp)
    return CommutantClassification(basis, "OTHER")


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
            return index[(r, s)], ONE
        return index[(s, r)], ONE if sym else -ONE

    rows = []
    for a in rep.action:
        ar = a.to_rows()
        for r in range(d):
            for s in range(r if sym else r + 1, d):
                row: dict[int, Fraction] = {}
                for k in range(d):
                    if ar[k][r] != 0:  # (A^T G)[r][s] = sum_k A[k][r] G[k][s]
                        if sym or k != s:
                            idx, sign = unknown(k, s)
                            row[idx] = row.get(idx, ZERO) + sign * ar[k][r]
                    if ar[k][s] != 0:  # (G A)[r][s] = sum_k G[r][k] A[k][s]
                        if sym or r != k:
                            idx, sign = unknown(r, k)
                            row[idx] = row.get(idx, ZERO) + sign * ar[k][s]
                row = {k: v for k, v in row.items() if v != 0}
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


def split_idempotents(basis: list, rng: random.Random) -> Optional[list]:
    """Primitive idempotents of a commutative semisimple matrix algebra span.

    Returns one projector per irreducible factor of a generic element's
    minimal polynomial, or None when genericity could not be certified.
    """
    alg = _SpanAlgebra(basis)
    best_mp, best_el = None, None
    for _ in range(GENERIC_RETRIES):
        el = _generic_element(alg.basis, rng)
        mp = minimal_polynomial(el)
        if best_mp is None or mp.degree > best_mp.degree:
            best_mp, best_el = mp, el
    if best_mp is None or best_mp.degree < alg.dim:
        return None
    if any(f.multiplicity > 1 for f in best_mp.factors):
        return None
    factors = [list(f.coeffs) for f in best_mp.factors]
    total = list(best_mp.coeffs)
    projectors = []
    for f in factors:
        cof, rem = poly.divmod_exact(total, f)
        assert rem == [poly.ZERO]
        # find u with u*cof = 1 mod f, then P = (u*cof)(el)
        g, u, _ = _poly_xgcd(cof, f)
        if poly.degree(g) != 0:
            return None
        inv_lead = ONE / g[0]
        u = [c * inv_lead for c in u]
        proj_poly = poly.mul(u, cof)
        _, proj_poly = poly.divmod_exact(proj_poly, total)
        p = _eval_poly_at(proj_poly, best_el)
        if p @ p != p:
            return None
        projectors.append(p)
    return projectors


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


def _eval_poly_at(coeffs: list, m: Mat) -> Mat:
    out = Mat.zero(m.rows, m.cols)
    power = Mat.identity(m.rows)
    for i, c in enumerate(coeffs):
        if i:
            power = power @ m
        if c != 0:
            out = out + power.scale(c)
    return out


def _square_roots_of_minus_unit(unit: Mat, gen: Mat, alg: _SpanAlgebra) -> list:
    """Solutions of J^2 = -unit inside the 2-dim algebra span{unit, gen}."""
    from .linalg import is_rational_square

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


def invariant_complex_structures(rep: Representation, seed: int = 0) -> ComplexStructureResult:
    """All rational J in the commutant with J^2 = -I, when decidable.

    Labels R and RxR admit none; C and CxC yield the +-J generators per
    complex factor; H returns one representative pair.  When the commutant
    type is OTHER, or a J exists over the reals but not over the rationals
    in this basis, the result is reported as undecided rather than "none".
    """
    cls = commutant(rep, seed=seed)
    d = rep.carrier_dim
    identity = Mat.identity(d)
    rng = random.Random(seed + 1)
    if cls.label in ("R", "RxR"):
        return ComplexStructureResult("decided", [], cls.label)
    if cls.label == "C":
        alg = _SpanAlgebra([identity] + cls.commutant_basis)
        if alg.dim < 2:
            return ComplexStructureResult("undecided", [], "C", "degenerate commutant span")
        gen = alg.basis[1]
        sols = _square_roots_of_minus_unit(identity, gen, alg)
        if sols:
            j = _canonical_sign(sols[0])
            return ComplexStructureResult("decided", [j, -j], "C")
        return ComplexStructureResult(
            "undecided", [], "C", "complex structure exists over R but not over Q in this basis"
        )
    if cls.label == "CxC":
        projs = split_idempotents(cls.commutant_basis, rng)
        if projs is None or len(projs) != 2:
            return ComplexStructureResult("undecided", [], "CxC", "idempotent split failed")
        partials = []
        for p in projs:
            alg = _SpanAlgebra([identity] + cls.commutant_basis)
            gen = None
            sub = _SpanAlgebra([p])
            for b in cls.commutant_basis:
                cand = p @ b
                if sub.span.insert(cand.entries):
                    gen = cand
                    break
            if gen is None:
                return ComplexStructureResult("undecided", [], "CxC", "degenerate factor")
            sols = _square_roots_of_minus_unit(p, gen, alg)
            if not sols:
                return ComplexStructureResult(
                    "undecided", [], "CxC",
                    "complex structure exists over R but not over Q in this basis",
                )
            partials.append(sols[0])
        j1, j2 = partials
        out = [j1 + j2, j1 - j2]
        out = [_canonical_sign(out[0]), _canonical_sign(out[1])]
        full = [out[0], -out[0], out[1], -out[1]]
        for j in full:
            if j @ j != -identity:
                raise InternalCheckError("CxC complex structure failed J^2 = -I")
        return ComplexStructureResult("decided", full, "CxC")
    if cls.label == "H":
        from .linalg import is_rational_square  # noqa: F811

        candidates = []
        for b in cls.commutant_basis:
            candidates.append(b)
        for i in range(len(cls.commutant_basis)):
            for j in range(i + 1, len(cls.commutant_basis)):
                candidates.append(cls.commutant_basis[i] + cls.commutant_basis[j])
        for cand in candidates:
            tr = cand.trace()
            pure = cand - identity.scale(tr / d)
            sq = pure @ pure
            diag = sq[0, 0]
            if sq == identity.scale(diag) and diag < 0:
                s = is_rational_square(-diag)
                if s is not None and s != 0:
                    j = pure.scale(ONE / s)
                    j = _canonical_sign(j)
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
    table = algebra.constants.table
    span = SpanSolver(dim)
    cols = [{i: ONE} for i in indices if span.insert({i: ONE})]
    while cols:
        k = len(cols)
        annihilator = [
            {t: v for t, v in enumerate(ell) if v} for ell in kernel_of_sparse_rows(cols, dim)
        ]
        if not annihilator:
            return k  # subspace is everything and trivially invariant
        rows = []
        for g in range(dim):
            row_g = table[g]
            images = []  # [X_g, col] for each column
            for col in cols:
                w: dict[int, Fraction] = {}
                for t, a in col.items():
                    for m, c in row_g[t].items():
                        w[m] = w.get(m, ZERO) + a * c
                images.append(w)
            for ell in annihilator:
                row = {}
                for c, w in enumerate(images):
                    s = ZERO
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
            vec: dict[int, Fraction] = {}
            for c, yc in enumerate(y):
                if yc:
                    for t, v in cols[c].items():
                        vec[t] = vec.get(t, ZERO) + yc * v
            if new_span.insert(vec):
                new_cols.append(vec)
        cols = new_cols
    return 0
