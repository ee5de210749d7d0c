"""Polynomial arithmetic and small-degree factorization."""

import random
from fractions import Fraction

from cartanext import poly
from conftest import reference_rational_roots

F = Fraction


def _p(*coeffs):
    return [F(c) for c in coeffs]


def test_squarefree_decomposition():
    # (t-1)^2 (t+2)
    p = poly.mul(poly.mul(_p(-1, 1), _p(-1, 1)), _p(2, 1))
    parts = poly.squarefree_decomposition(p)
    assert sorted((tuple(f), m) for f, m in parts) == [
        ((F(-1), F(1)), 2),
        ((F(2), F(1)), 1),
    ]


def test_rational_roots():
    p = poly.mul(poly.mul(_p(-1, 2), _p(3, 1)), _p(1, 0, 1))  # (2t-1)(t+3)(t^2+1)
    assert sorted(poly.rational_roots(p)) == [F(-3), F(1, 2)]


def test_divisors_ascend():
    for n in (1, 12, 36, -360, 97, 2 ** 10):
        divs = poly._divisors(n)
        assert divs == sorted(divs) == [d for d in range(1, abs(n) + 1) if n % d == 0]


def test_rational_roots_match_reference():
    rng = random.Random(31)
    for _ in range(300):
        # products of linear factors b t - a and a random cofactor, so that
        # roots, repeated roots and non-reduced candidates all occur
        p = _p(rng.choice((1, -1)) * rng.randint(1, 4))
        for _ in range(rng.randint(0, 3)):
            p = poly.mul(p, _p(rng.randint(-6, 6), rng.randint(1, 4)))
        p = poly.mul(p, [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))] + [F(1)])
        assert poly.rational_roots(p) == reference_rational_roots(p)


def test_quartic_splits_into_quadratics():
    p = poly.mul(_p(1, 0, 1), _p(2, 0, 1))  # (t^2+1)(t^2+2)
    factors = poly.factor_squarefree(p)
    assert sorted(tuple(f) for f in factors) == [(F(1), F(0), F(1)), (F(2), F(0), F(1))]


def test_quartic_with_cross_terms():
    # (t^2 + t + 1)(t^2 - t + 3)
    p = poly.mul(_p(1, 1, 1), _p(3, -1, 1))
    factors = poly.factor_squarefree(p)
    assert sorted(tuple(f) for f in factors) == [
        (F(1), F(1), F(1)),
        (F(3), F(-1), F(1)),
    ]


def test_irreducible_quartic_stays_whole():
    # t^4 + t + 1 is irreducible over Q
    p = _p(1, 1, 0, 0, 1)
    factors = poly.factor_squarefree(p)
    assert factors == [p]


def test_cubic_without_roots_is_irreducible():
    p = _p(2, 0, 0, 1)  # t^3 + 2
    assert poly.factor_squarefree(p) == [p]


def test_kronecker_degree_five():
    p = poly.mul(_p(1, 0, 1), _p(2, 0, 0, 1))  # (t^2+1)(t^3+2)
    factors = poly.factor_squarefree(p)
    assert sorted(tuple(f) for f in factors) == [
        (F(1), F(0), F(1)),
        (F(2), F(0), F(0), F(1)),
    ]


def test_divmod_exact_roundtrip():
    a = _p(3, -2, 0, 1)
    b = _p(-1, 1)
    q, r = poly.divmod_exact(a, b)
    assert poly.add(poly.mul(q, b), r) == poly.trim(a)
