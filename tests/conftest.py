"""Shared oracles: independent implementations used to pin expected values."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cartanext.errors import ClosureError, DependentBasisError
from cartanext.linalg import Mat, SpanSolver, commutator


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
