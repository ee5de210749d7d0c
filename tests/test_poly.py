"""Polynomial arithmetic and factorization over Q."""

import math
import random
import time
from fractions import Fraction

from cartanext import poly
from conftest import reference_factor_squarefree

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


def test_roots_and_an_irreducible_quadratic_split_off():
    p = poly.mul(poly.mul(_p(-1, 2), _p(3, 1)), _p(1, 0, 1))  # (2t-1)(t+3)(t^2+1)
    assert poly.factor_squarefree(p) == [_p(F(-1, 2), 1), _p(3, 1), _p(1, 0, 1)]


def test_factors_match_the_trial_division_reference():
    """Seed 0: squarefree products of 1-4 monic factors of degree 1-2 with
    coefficients in [-5, 5], on which the trial-division factorer finishes."""
    rng = random.Random(0)
    for _ in range(200):
        while True:
            p = _p(1)
            for _ in range(rng.randint(1, 4)):
                p = poly.mul(p, [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 2))] + [F(1)])
            if poly.degree(poly.gcd(p, poly.derivative(p))) == 0:
                break
        assert poly.factor_squarefree(p) == reference_factor_squarefree(p), p


def _cpu_factor(p):
    start = time.process_time()
    factors = poly.factor_squarefree(p)
    spent = time.process_time() - start
    assert spent < 5.0, f"{spent:.2f} s CPU"
    return factors


def test_even_quartic_with_large_coefficients_splits():
    """The minimal polynomial that stalled the centroid split of a rebased
    group(sl(2,C)): its constant term has a 69-bit numerator over a 58-bit
    denominator, far past what a divisor loop can list."""
    p = [F(313241225583703691044, 223089289331777521), F(0), F(966957360, 472323289), F(0), F(1)]
    factors = _cpu_factor(p)
    assert [len(f) for f in factors] == [3, 3] and poly.mul(*factors) == p
    assert factors[0][1] == -factors[1][1] != 0


def test_degree_ten_product_splits():
    """Its values at 0, 1, -1, ... have more divisor combinations than an
    interpolation search over them can try."""
    parts = [_p(-8, 7, 1), _p(6, -1, 1), _p(8, 4, 9, 1), _p(6, -3, 1, 1)]
    p = _p(1)
    for f in parts:
        p = poly.mul(p, f)
    assert _cpu_factor(p) == [_p(-1, 1), _p(8, 1), _p(6, -1, 1), _p(6, -3, 1, 1), _p(8, 4, 9, 1)]


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


def _factor_types(factors):
    return [[type(c) for c in f] for f in factors]


def test_quadratics_and_linears_are_factored_in_closed_form(monkeypatch):
    # irrational roots (t^2 - 2, t^2 + t + 1), rational ones (t^2 - 1,
    # t^2 - 5t + 6) and fractional ones ((t - 1/2)(t + 2/3), (t - 3/4)(t - 5/7));
    # degrees 1 and 2 never reach the Zassenhaus factorer
    quadratics = [_p(-2, 0, 1), _p(1, 1, 1), _p(-1, 0, 1), _p(6, -5, 1),
                  poly.mul(_p(F(-1, 2), 1), _p(F(2, 3), 1)),
                  poly.mul(_p(F(-3, 4), 1), _p(F(-5, 7), 1)), _p(F(1, 9), F(2, 3), 2),
                  _p(F(-7, 3), 1), _p(0, 1)]
    want = {tuple(p): reference_factor_squarefree(p) for p in quadratics}

    def refuse(f):
        raise AssertionError("a polynomial of degree <= 2 reached _zassenhaus")

    monkeypatch.setattr(poly, "_zassenhaus", refuse)
    split = 0
    for p in quadratics:
        got = poly.factor_squarefree(p)
        assert got == want[tuple(p)], p
        assert _factor_types(got) == _factor_types(want[tuple(p)])
        split += len(got) == 2
    assert split == 4


def test_closed_form_agrees_with_zassenhaus_on_seeded_quadratics():
    rng = random.Random(1)
    for _ in range(200):
        b, c = (F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(2))
        p = [c, b, F(1)]
        if poly.degree(poly.gcd(p, poly.derivative(p))) != 0:
            continue
        den = math.lcm(*(x.denominator for x in p))
        g = [int(x * den ** (2 - i)) for i, x in enumerate(p)]
        lifted = sorted(([F(x, den ** (len(h) - 1 - i)) for i, x in enumerate(h)]
                         for h in poly._zassenhaus(g)), key=lambda q: (len(q), [str(x) for x in q]))
        assert poly.factor_squarefree(p) == lifted == reference_factor_squarefree(p), p
