"""Catalog pairs written in another basis.

The verdicts are basis-independent, and so should be the cost of reaching
them.  `rebased(pair, seed)` writes a pair in a seeded basis:
- every basis matrix is conjugated by a seeded invertible rational T;
- the basis is recombined inside h and inside m by seeded invertible
  matrices, which keeps the eigenspace split;
- every entry of T and of the recombinations is drawn from
  {-1, 0, 1, 2, 1/2}.

Nothing is decomposed, so a rebased pair costs a few matrix products.  The
structure constants come from the recombination P alone, because
conjugation leaves brackets unchanged: for Y_a = sum_i P_ia X_i,
ad(Y_a) in the new basis is P^-1 (sum_i P_ia ad X_i) P, whose column b
holds the coordinates of [Y_a, Y_b].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from cartanext.catalog import SymmetricPair
from cartanext.lie import FrozenDict, MatrixLieAlgebra, Representation, StructureConstants
from cartanext.linalg import Mat, SpanSolver, combination, invert, matrix_rank

ENTRIES = (-1, 0, 1, 2, Fraction(1, 2))


@dataclass(frozen=True)
class RebasedPair:
    """The algebra in the new basis and its isotropy representation; h is
    spanned by the first `dim_h` basis elements, m by the rest."""

    algebra: MatrixLieAlgebra
    dim_h: int
    isotropy: Representation


def _invertible(rng: random.Random, n: int) -> Mat:
    while True:
        m = Mat(n, n, [rng.choice(ENTRIES) for _ in range(n * n)])
        if matrix_rank(m) == n:
            return m


def _block_diagonal(blocks) -> Mat:
    data, offset = {}, 0
    for b in blocks:
        for r, row in b.sparse.items():
            data[offset + r] = {offset + c: v for c, v in row.items()}
        offset += b.rows
    return Mat.from_sparse(offset, offset, data)


def _table(ads: list) -> list:
    """table[a][b] = column b of ads[a], the coordinates of [Y_a, Y_b]."""
    cols = [ad.transpose().sparse for ad in ads]
    return [[dict(c.get(b, {})) for b in range(len(ads))] for c in cols]


def _algebra(basis: list, ads: list, name: str) -> MatrixLieAlgebra:
    n = basis[0].rows
    span = SpanSolver(n * n)
    for b in basis:
        span.insert(b.flat())
    return MatrixLieAlgebra(n, basis, name, StructureConstants(len(basis), _table(ads)), span)


def rebased(pair, seed: int) -> RebasedPair:
    """The pair in the basis described in the module docstring."""
    rng = random.Random(f"{pair.name}/{seed}")
    alg, n = pair.k_algebra, pair.k_algebra.ambient_size
    order = list(pair.h_indices) + list(pair.m_indices)
    nh, dim = pair.dim_h, pair.dim
    h, m = range(nh), range(nh, dim)
    t = _invertible(rng, n)
    t_inv = invert(t)
    p = _block_diagonal([_invertible(rng, nh), _invertible(rng, dim - nh)])
    p_inv = invert(p)
    ad = [alg.constants.ad_matrix(i).submatrix(order, order) for i in order]
    new_ads = [p_inv @ combination(((p[i, a], ad[i]) for i in range(dim)), dim, dim) @ p
               for a in range(dim)]
    basis = [t @ combination(((p[i, a], alg.basis[order[i]]) for i in range(dim)), n, n) @ t_inv
             for a in range(dim)]
    algebra = _algebra(basis, new_ads, f"{pair.name}@{seed}")
    h_alg = _algebra(basis[:nh], [x.submatrix(h, h) for x in new_ads[:nh]], algebra.name + "#h")
    # the action is read off a table that a change of basis carried over from
    # a Lie algebra's table, so it is a homomorphism; test_change_of_basis.py
    # checks that on one pair, as it checks the realization
    action = [x.submatrix(m, m) for x in new_ads[:nh]]
    return RebasedPair(algebra, nh, Representation(h_alg, dim - nh, action, check=False))


def symmetric_pair(new: RebasedPair) -> SymmetricPair:
    """The rebased pair as a `SymmetricPair` of family "rebased": h is
    spanned by the first `dim_h` basis elements and m by the rest, so the
    involution is +1 on h and -1 on m."""
    nh, dim = new.dim_h, new.algebra.dim
    sigma = Mat.diag([1] * nh + [-1] * (dim - nh))
    return SymmetricPair(new.algebra, "rebased", FrozenDict(), tuple(range(nh)),
                         tuple(range(nh, dim)), sigma)
