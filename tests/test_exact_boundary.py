"""Integral values run as int inside the sparse core and the structure-constant
table; every value the engine hands out is a Fraction.

An int escaping through a public output would change results and bytes:
`int / int` is a float, and `repr(3)` is not `repr(Fraction(3))`.
"""

from fractions import Fraction

import pytest

from cartanext import catalog, classify, lie
from cartanext.catalog import build_graded, build_pair, isotropy_rep
from cartanext.classify import g0_action_solver
from cartanext.lie import commutant, commutant_basis, killing_form, split_idempotents
from cartanext.linalg import Mat, kernel_of_sparse_rows, minimal_polynomial, solve_linear
from conftest import reference_commutant_basis, reference_minimal_polynomial

PAIRS = catalog.default_pair_grid()


def _fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


@pytest.mark.parametrize("family, params", catalog.default_graded_grid())
def test_target_outputs_are_fractions(family, params):
    target = build_graded(family, params)
    algebra, sc, dim = target.algebra, target.algebra.constants, target.dim
    assert _fractions(killing_form(algebra).entries)
    solver = g0_action_solver(target)
    assert _fractions(solver.entries)
    # [S | S] x = S: a particular solution and one kernel vector per column of S
    doubled = Mat.from_rows([solver.row(r) * 2 for r in range(solver.rows)])
    sol = solve_linear(doubled, solver)
    assert doubled @ sol.particular == solver and len(sol.kernel) == solver.cols
    assert _fractions(sol.particular.entries) and all(_fractions(v.entries) for v in sol.kernel)
    for i, b in enumerate(algebra.basis):
        coords = algebra.coordinates(b)
        assert coords == [int(t == i) for t in range(dim)] and _fractions(coords)
    units = [[Fraction(int(t == i)) for t in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            assert _fractions(sc.bracket_coords(units[i], units[j]))
    # table rows, with their int entries, as the rows of a system
    rows = [sc.row(target.minus_one[0], j) for j in range(dim)]
    kernel = kernel_of_sparse_rows([r for r in rows if r], dim)
    assert kernel and all(len(v) == dim and _fractions(v) for v in kernel)


@pytest.mark.parametrize("family, params", PAIRS)
def test_pair_outputs_are_fractions(family, params, monkeypatch):
    pair = build_pair(family, params)
    assert _fractions(killing_form(pair.k_algebra).entries)
    solutions = []
    solve_b2 = classify.solve_projective_b2

    def recorded(ext):
        solutions.append(solve_b2(ext))
        return solutions[-1]

    monkeypatch.setattr(classify, "solve_projective_b2", recorded)
    verdict = classify.decide_projective(pair)
    assert verdict.verdict == classify.EXISTS
    assert _fractions(verdict.witness.alpha.entries)
    assert len(solutions) == 1 and _fractions(solutions[0].b2.entries)
    assert all(_fractions(b.entries) for b in commutant_basis(isotropy_rep(pair)))


@pytest.mark.parametrize("family, params", PAIRS)
def test_commutants_and_minimal_polynomials_match_references(family, params, monkeypatch):
    pair = build_pair(family, params)
    drawn = []
    real = lie.minimal_polynomial

    def recorded(m):
        drawn.append(m)
        return real(m)

    monkeypatch.setattr(lie, "minimal_polynomial", recorded)
    iso = isotropy_rep(pair)
    # the isotropy commutant, and the centroid as factor_decomposition splits it
    for rep in (iso, pair.k_algebra.adjoint_representation()):
        basis = commutant_basis(rep)
        assert basis == reference_commutant_basis(rep)
        split_idempotents(basis)
    commutant(iso)
    assert drawn
    for m in drawn:
        mp = minimal_polynomial(m)
        assert mp == reference_minimal_polynomial(m)
        assert _fractions(mp.coeffs)
        assert all(_fractions(f.coeffs) for f in mp.factors)
