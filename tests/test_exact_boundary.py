"""Integral values run as int inside the sparse core and the structure-constant
table; every value the engine hands out is a Fraction.  Sparse vectors passed
between engine routines, such as kernel vectors, keep integral values as int.

An int escaping through a public output would change results and bytes:
`int / int` is a float, and `repr(3)` is not `repr(Fraction(3))`.
"""

from fractions import Fraction

import pytest

from cartanext import catalog, classify, poly
from cartanext.catalog import build_graded, build_pair, isotropy_rep
from cartanext.classify import g0_action_solver
from cartanext.extension import curvature, dstar_projective, solve_projective_b2
from cartanext.lie import (commutant, commutant_basis, invariant_bilinear_forms, killing_form,
                           split_idempotents)
from cartanext.linalg import Mat, kernel_of_sparse_rows, minimal_polynomial, solve_linear
from conftest import reference_commutant_basis, reference_minimal_polynomial

PAIRS = catalog.default_pair_grid()


def _fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def _stored(vec: dict, width: int) -> bool:
    """The sparse vector contract: keys below the width, no zero values, and
    integral values stored as int."""
    return all(0 <= k < width and v and type(v) is (int if v.denominator == 1 else Fraction)
               for k, v in vec.items())


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
    coords = algebra.coordinate_matrix(algebra.basis)
    assert coords == Mat.identity(dim) and _fractions(coords.entries)
    units = [[Fraction(int(t == i)) for t in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            assert _fractions(sc.bracket_coords(units[i], units[j]))
    # table rows, with their int entries, as the rows of a system
    rows = [sc.row(target.minus_one[0], j) for j in range(dim)]
    kernel = kernel_of_sparse_rows([r for r in rows if r], dim)
    assert kernel and all(_stored(v, dim) for v in kernel)
    # the public outputs built from kernels
    adjoint = algebra.adjoint_representation()
    assert all(_fractions(b.entries) for b in commutant_basis(adjoint))
    assert all(_fractions(g.entries) for g in invariant_bilinear_forms(adjoint))


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
    factored = []
    real = poly.factor_squarefree

    def recorded(p):
        factored.append(list(p))
        return real(p)

    monkeypatch.setattr(poly, "factor_squarefree", recorded)
    iso = isotropy_rep(pair)
    # the isotropy commutant, and the centroid as factor_decomposition splits it
    elements = []
    for rep in (iso, pair.k_algebra.adjoint_representation()):
        basis = commutant_basis(rep)
        assert basis == reference_commutant_basis(rep)
        split_idempotents(basis)
        elements += basis
    commutant(iso)
    for m in elements:
        mp = minimal_polynomial(m)
        assert mp == reference_minimal_polynomial(m)
        assert _fractions(mp.coeffs)
        assert all(_fractions(f.coeffs) for f in mp.factors)
    # split_idempotents factors the minimal polynomials of algebra elements,
    # which are squarefree, without Yun's decomposition
    assert factored
    for p in factored:
        assert _fractions(p) and p[-1] == 1
        assert poly.degree(poly.gcd(p, poly.derivative(p))) == 0


@pytest.mark.parametrize("bad", ["x", ""])
def test_mat_rejects_malformed_entry_strings(bad):
    with pytest.raises(ValueError):
        Mat(1, 2, [1, bad])


def test_mat_entries_are_fractions_whatever_their_input_type():
    m = Mat(1, 5, [0, 1, -2, "3/4", Fraction(5, 6)])
    assert _fractions(m.entries)
    assert m.entries == (0, 1, -2, Fraction(3, 4), Fraction(5, 6))


@pytest.mark.parametrize("family, params", PAIRS)
def test_extension_layer_outputs_are_fractions(family, params):
    """Curvature values, get and evaluate, the contractions and b2 are
    Fractions, also where every input entry is an int."""
    pair = build_pair(family, params)
    ext = classify.standard_witness(pair, build_graded("projective", {"n": pair.dim_m}))
    sol = solve_projective_b2(ext)
    assert _fractions(sol.b2.entries)
    n = pair.dim_m
    ints = [[t + 1 for t in range(n)], [int(t == 0) for t in range(n)], [0] * n]
    for witness, kappa in ((ext, curvature(ext)), (sol.extension, sol.kappa)):
        assert all(_fractions(vec) for vec in kappa.values.values())
        for a in range(n):
            assert all(_fractions(kappa.get(a, b)) for b in range(n))
        for u in ints:
            assert all(_fractions(kappa.evaluate(u, v)) for v in ints)
        assert all(_fractions(vec) for vec in dstar_projective(witness, kappa))
        assert all(_fractions(vec) for vec in dstar_projective(witness))
