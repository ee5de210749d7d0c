"""Shared oracles: independent implementations used to pin expected values."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cartanext import poly
from cartanext.errors import ClosureError, DependentBasisError, InputError
from cartanext.linalg import (ONE, ZERO, LinearSolution, Mat, MinimalPolynomial, PolyFactor,
                              SpanSolver, commutator, frac)


def rref_rank_oracle(rows):
    """Plain row-echelon rank over Fraction lists, independent of the library."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for c in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][c]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


# -- the dense eliminators the sparse echelon core replaced, kept verbatim ----


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


def reference_matrix_rank(a: Mat) -> int:
    _, pivots = _rref(a.to_rows(), a.cols)
    return len(pivots)


def reference_solve_linear(a: Mat, b: Mat):
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


def reference_kernel_of_sparse_rows(rows: list, ncols: int) -> list:
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


# -- commutants and minimal polynomials on Fraction arithmetic, kept verbatim --


def reference_commutant_basis(rep) -> list:
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
    basis = reference_kernel_of_sparse_rows(rows, d * d)
    return [Mat(d, d, vec) for vec in basis]


def reference_minimal_polynomial(m: Mat) -> MinimalPolynomial:
    """Lowest-degree monic annihilating polynomial, via Krylov dependence.

    The powers I, M, M^2, ... are flattened and fed to a SpanSolver; the
    first dependent power yields the minimal polynomial.  The result is
    factored into rational irreducibles (complete for the degrees arising
    from commutant classification; see `poly.factor_squarefree`).
    """
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


def reference_rational_roots(p: list) -> list:
    """All rational roots (without multiplicity) of p."""
    p = poly.trim(list(p))
    if poly.degree(p) <= 0:
        return []
    roots = []
    while p[0] == 0 and len(p) > 1:
        if ZERO not in roots:
            roots.append(ZERO)
        p = p[1:]
    if poly.degree(p) <= 0:
        return roots
    ints, _ = poly._to_integer(p)
    a0, an = ints[0], ints[-1]
    for num in poly._divisors(a0):
        for den in poly._divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand not in roots and poly.evaluate(p, cand) == 0:
                    roots.append(cand)
    return roots


def eval_poly_at(coeffs: list, m: Mat) -> Mat:
    """p(M) for p in ascending coefficients, by dense powers."""
    out = Mat.zero(m.rows, m.cols)
    power = Mat.identity(m.rows)
    for i, c in enumerate(coeffs):
        if i:
            power = power @ m
        if c != 0:
            out = out + power.scale(c)
    return out


def char_poly_oracle(mat: Mat):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = mat.rows
    a = mat
    cs = []
    mk = a
    for k in range(1, n + 1):
        ck = -mk.trace() / k
        cs.append(ck)
        if k < n:
            mk = a @ (mk + Mat.identity(n).scale(ck))
    return [Fraction(1)] + cs  # descending: t^n + c1 t^(n-1) + ... + cn


def descartes_signature_oracle(gram: Mat):
    """Signature of a symmetric matrix via Descartes' rule on the
    characteristic polynomial (exact because all roots are real)."""
    coeffs = char_poly_oracle(gram)  # descending
    nullity = 0
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
        nullity += 1

    def sign_changes(seq):
        signs = [1 if x > 0 else -1 for x in seq if x != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = sign_changes(coeffs)
    neg_poly = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    neg = sign_changes(neg_poly)
    return (pos, neg, nullity)


def dense_structure_table(basis):
    """Structure constants of a matrix basis from dense commutators.

    Raises the errors `make_algebra` raises, at the first dependent element
    and the first pair (i < j) whose bracket leaves the span.
    """
    n = basis[0].rows
    span = SpanSolver(n * n)
    for idx, b in enumerate(basis):
        if not span.insert(list(b.entries)):
            raise DependentBasisError(idx)
    dim = len(basis)
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            coords = span.decompose(list(commutator(basis[i], basis[j]).entries))
            if coords is None:
                raise ClosureError(i, j)
            table[i][j] = {k: c for k, c in enumerate(coords) if c != 0}
            table[j][i] = {k: -c for k, c in table[i][j].items()}
    return table


def dense_g0_action(target):
    """The map g_0 -> gl(g_-1) from dense adjoint matrices: for each X_z in
    g_0, the g_-1 block of ad(X_z) flattened row-major into one column."""
    sc = target.algebra.constants
    n = target.dim_gm1
    cols = []
    for z in target.zero:
        ez = [Fraction(0)] * target.dim
        ez[z] = Fraction(1)
        cols.append(sc.ad_of_coords(ez).submatrix(target.minus_one, target.minus_one).entries)
    return Mat.from_rows([[cols[c][r] for c in range(len(cols))] for r in range(n * n)])


def dense_normalization_operator(target):
    """The projective normalization operator from `bracket_coords` of dense
    unit vectors: rows (j, t) for t in g_1, columns k0 * n + j0."""
    n = target.dim_gm1
    sc = target.algebra.constants
    dim = target.dim

    def unit(i, grade):
        v = [Fraction(0)] * dim
        v[(target.minus_one if grade == -1 else target.plus_one)[i]] = Fraction(1)
        return v

    u_table = [[sc.bracket_coords(unit(i, -1), unit(k, 1)) for k in range(n)] for i in range(n)]
    s_table = []
    for k in range(n):
        acc = [Fraction(0)] * dim
        for i in range(n):
            term = sc.bracket_coords(unit(i, 1), u_table[i][k])
            acc = [p + q for p, q in zip(acc, term)]
        s_table.append(acc)
    rows = []
    for j in range(n):
        contributions = {}
        for k0 in range(n):
            for j0 in range(n):
                vec = list(s_table[k0]) if j == j0 else [Fraction(0)] * dim
                cross = sc.bracket_coords(unit(j0, 1), u_table[j][k0])
                contributions[(k0, j0)] = [p - q for p, q in zip(vec, cross)]
        for t in target.plus_one:
            row = [Fraction(0)] * (n * n)
            for (k0, j0), vec in contributions.items():
                if vec[t] != 0:
                    row[k0 * n + j0] = vec[t]
            rows.append(row)
    return Mat.from_rows(rows)


def naive_bracket_coords(sc, u, v):
    """[u, v] by the plain double loop over all coordinate pairs."""
    out = [Fraction(0)] * sc.dim
    for i in range(sc.dim):
        for j in range(sc.dim):
            for k, c in sc.table[i][j].items():
                out[k] += u[i] * v[j] * c
    return out


@pytest.fixture(scope="session")
def sl2_basis():
    e = Mat.from_rows([[0, 1], [0, 0]])
    h = Mat.from_rows([[1, 0], [0, -1]])
    f = Mat.from_rows([[0, 0], [1, 0]])
    return e, h, f


@pytest.fixture(scope="session")
def so3_basis():
    def skew(i, j, n=3):
        return Mat.unit(n, n, i, j) - Mat.unit(n, n, j, i)

    return skew(0, 1), skew(0, 2), skew(1, 2)
