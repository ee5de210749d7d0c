"""Exact oracles over plain Fraction lists, independent of the engine.

The signature oracle is the method of tests/conftest.py: the characteristic
polynomial by the Faddeev-LeVerrier recursion, then Descartes' rule of signs
(exact for a symmetric matrix, whose roots are all real).
"""

from __future__ import annotations

from fractions import Fraction


def _matmul(a, b):
    inner = range(len(b))
    cols = range(len(b[0]))
    return [[sum(row[k] * b[k][j] for k in inner) for j in cols] for row in a]


def char_poly(rows):
    """Coefficients of det(tI - A), leading 1 first."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    coeffs = [Fraction(1)]
    mk = a
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            shifted = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
            mk = _matmul(a, shifted)
    return coeffs


def _sign_changes(seq):
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def signature(rows):
    """(positive, negative, nullity) of a symmetric rational matrix."""
    coeffs = char_poly(rows)
    nullity = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        nullity += 1
    positive = _sign_changes(coeffs)
    negative = _sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return (positive, negative, nullity)


def rank(rows):
    """Rank by plain row reduction."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    return _matmul([[Fraction(x) for x in row] for row in a],
                   [[Fraction(x) for x in row] for row in b])


def kron(a, b):
    """Kronecker product a (x) b of two square matrices."""
    nb = len(b)
    size = len(a) * nb
    return [[a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(size)] for i in range(size)]
