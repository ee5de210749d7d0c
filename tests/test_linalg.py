"""Exact linear algebra: solving, signatures, minimal polynomials."""

import random
from fractions import Fraction

import pytest

from cartanext import lie
from cartanext.catalog import build_graded, build_pair, default_pair_grid, isotropy_rep
from cartanext.classify import g0_action_solver
from cartanext.errors import InputError
from cartanext.extension import projective_normalization_operator
from cartanext.linalg import (
    Mat,
    SpanSolver,
    commutator,
    kernel_of_sparse_rows,
    matrix_rank,
    minimal_polynomial,
    solve_linear,
    sparse_commutator,
    sparse_product,
    sparse_rows,
    symmetric_signature,
)
from conftest import (
    descartes_signature_oracle,
    eval_poly_at,
    reference_kernel_of_sparse_rows,
    reference_matrix_rank,
    reference_solve_linear,
    rref_rank_oracle,
)


def test_identity_solve():
    sol = solve_linear(Mat.identity(3), Mat.column([1, 2, 3]))
    assert sol.particular.col(0) == [1, 2, 3]
    assert sol.kernel_dim == 0


def test_zero_system_full_kernel():
    sol = solve_linear(Mat.zero(2, 2), Mat.zero(2, 1))
    assert sol.particular.is_zero()
    assert sol.kernel_dim == 2


def test_inconsistent_system():
    assert solve_linear(Mat.from_rows([[1, 1], [2, 2]]), Mat.column([1, 3])) is None


def test_solve_residuals_random():
    rng = random.Random(7)
    for trial in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = Mat.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        b = Mat.column([Fraction(rng.randint(-3, 3)) for _ in range(rows)])
        sol = solve_linear(a, b)
        if sol is None:
            assert rref_rank_oracle([list(a.row(i)) + [b[i, 0]] for i in range(rows)]) > \
                rref_rank_oracle(a.to_rows())
            continue
        assert a @ sol.particular == b
        for k in sol.kernel:
            assert (a @ k).is_zero()
        assert len(sol.kernel) == cols - rref_rank_oracle(a.to_rows())


def test_sparse_commutator_matches_dense():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(1, 5)

        def sparse_random():
            return Mat(n, n, [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                              if rng.random() < 0.3 else 0 for _ in range(n * n)])

        a, b = sparse_random(), sparse_random()
        rows = sparse_rows(a)
        assert all(v != 0 for row in rows.values() for v in row.values())
        assert all(a[r, c] == v for r, row in rows.items() for c, v in row.items())
        assert sum(len(row) for row in rows.values()) == sum(1 for x in a.entries if x != 0)
        dense = commutator(a, b).entries
        assert sparse_commutator(rows, sparse_rows(b), n) == \
            {k: v for k, v in enumerate(dense) if v != 0}
    assert sparse_commutator(sparse_rows(a), sparse_rows(a), n) == {}


def test_sparse_product_matches_dense():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(1, 5)
        a, b = (Mat(n, n, [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                           if rng.random() < 0.3 else 0 for _ in range(n * n)])
                for _ in range(2))
        assert sparse_product(sparse_rows(a), sparse_rows(b)) == sparse_rows(a @ b)
    # entries that cancel are dropped, and so are rows left empty
    a = Mat.from_rows([[1, 1], [0, 0]])
    b = Mat.from_rows([[1, 2], [-1, -2]])
    assert sparse_product(sparse_rows(a), sparse_rows(b)) == {}


def test_sparse_decompose_is_decompose_without_zeros():
    rng = random.Random(23)
    span = SpanSolver(7)
    vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(7)] for _ in range(5)]
    for v in vecs:
        span.insert(v)
    for trial in range(30):
        weights = [Fraction(rng.randint(-1, 1)) for _ in vecs]
        probe = [sum(w * v[i] for w, v in zip(weights, vecs)) for i in range(7)]
        if rng.random() < 0.3:
            probe[rng.randrange(7)] += 1  # usually leaves the span
        dense = span.decompose(probe)
        coords = span.sparse_decompose(probe)
        if dense is None:
            assert coords is None
            continue
        assert coords == {k: c for k, c in enumerate(dense) if c != 0}
        assert list(coords) == sorted(coords)


def test_span_solver_accepts_sparse_vectors():
    rng = random.Random(5)
    vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(8)]
    dense, sparse = SpanSolver(6), SpanSolver(6)
    for v in vecs:
        as_dict = {i: x for i, x in enumerate(v) if x != 0}
        assert dense.contains(v) == sparse.contains(as_dict)
        assert dense.decompose(v) == sparse.decompose(as_dict)
        assert dense.insert(v) == sparse.insert(as_dict)
    probe = {0: Fraction(1), 3: Fraction(0), 5: Fraction(-2)}  # stored zeros are ignored
    assert sparse.decompose(probe) == dense.decompose([1, 0, 0, 0, 0, -2])
    assert probe == {0: Fraction(1), 3: Fraction(0), 5: Fraction(-2)}  # left unchanged


def test_solve_shape_error():
    with pytest.raises(InputError):
        solve_linear(Mat.identity(2), Mat.column([1, 2, 3]))


def test_from_columns():
    cols = [[1, 2, 3], [4, 5, 6]]
    assert Mat.from_columns(cols, 3) == Mat.from_rows([[1, 4], [2, 5], [3, 6]])
    assert Mat.from_columns([], 3).shape == (3, 0)
    assert Mat.from_columns([[], []], 0).shape == (0, 2)


def test_solve_with_no_unknowns_keeps_the_shape():
    sol = solve_linear(Mat(2, 0, []), Mat.zero(2, 3))
    assert sol.particular.shape == (0, 3) and sol.kernel == ()
    assert solve_linear(Mat(2, 0, []), Mat.column([0, 1])) is None


# -- the sparse echelon core against the dense eliminators it replaced -------


def _assert_core_matches_reference(a, b):
    """solve_linear, matrix_rank and kernel_of_sparse_rows equal the dense
    references entry for entry, kernel vectors in the same order."""
    assert matrix_rank(a) == reference_matrix_rank(a)
    rows = [{c: v for c, v in enumerate(a.row(i)) if v} for i in range(a.rows)]
    assert kernel_of_sparse_rows(rows, a.cols) == reference_kernel_of_sparse_rows(rows, a.cols)
    got, want = solve_linear(a, b), reference_solve_linear(a, b)
    if want is None:
        assert got is None
        return False
    assert got.particular == want.particular
    assert got.kernel == want.kernel
    return True


def test_core_matches_reference_on_random_systems():
    rng = random.Random(41)
    outcomes = []
    for trial in range(150):
        n, m, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 3)
        density = rng.choice((0.25, 0.9))
        entries = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    if rng.random() < density else Fraction(0) for _ in range(m)]
                   for _ in range(n)]
        if rng.random() < 0.4:
            entries[rng.randrange(n)] = [Fraction(0)] * m  # a zero row
        if rng.random() < 0.4:
            dead = rng.randrange(m)  # a zero column
            for row in entries:
                row[dead] = Fraction(0)
        a = Mat.from_rows(entries)
        if rng.random() < 0.6:  # right-hand sides in the column space
            x = Mat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(k)]
                               for _ in range(m)])
            b = a @ x
        else:
            b = Mat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(k)]
                               for _ in range(n)])
        outcomes.append(_assert_core_matches_reference(a, b))
    assert outcomes.count(True) > 30 and outcomes.count(False) > 10


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_core_matches_reference_on_projective_systems(n):
    rng = random.Random(n)
    target = build_graded("projective", {"n": n})
    g0 = g0_action_solver(target)
    # consistent: combinations of the g_0 columns; then one arbitrary column
    consistent = [[g0[r, 0] + 2 * g0[r, 1], g0[r, g0.cols - 1]] for r in range(g0.rows)]
    assert _assert_core_matches_reference(g0, Mat.from_rows(consistent))
    arbitrary = Mat.column([Fraction(rng.randint(-2, 2)) for _ in range(g0.rows)])
    _assert_core_matches_reference(g0, arbitrary)
    op, _ = projective_normalization_operator(target)
    rhs = Mat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(3)]
                         for _ in range(op.rows)])
    assert _assert_core_matches_reference(op, rhs)


def test_core_matches_reference_on_commutant_rows(monkeypatch):
    systems = []

    def record(rows, ncols):
        systems.append((rows, ncols))
        return kernel_of_sparse_rows(rows, ncols)

    monkeypatch.setattr(lie, "kernel_of_sparse_rows", record)
    grid = default_pair_grid()
    for family, params in grid:
        lie.commutant_basis(isotropy_rep(build_pair(family, params)))
    assert len(systems) == len(grid)
    for rows, ncols in systems:
        assert kernel_of_sparse_rows(rows, ncols) == reference_kernel_of_sparse_rows(rows, ncols)


def test_span_solver_interleaved_against_reference():
    rng = random.Random(53)
    length = 6
    span, inserted = SpanSolver(length), []

    def columns(vecs):
        return Mat(length, len(vecs), [v[r] for r in range(length) for v in vecs])

    for step in range(80):
        if inserted and rng.random() < 0.5:  # a combination of what is stored
            weights = [Fraction(rng.randint(-2, 2)) for _ in inserted]
            vec = [sum(w * v[r] for w, v in zip(weights, inserted)) for r in range(length)]
        else:
            vec = [Fraction(rng.randint(-2, 2)) if rng.random() < 0.4 else Fraction(0)
                   for _ in range(length)]
        if rng.random() < 0.5:
            independent = reference_matrix_rank(columns(inserted + [vec])) > len(inserted)
            assert span.insert(vec) == independent
            if independent:
                inserted.append(vec)
        else:
            sol = reference_solve_linear(columns(inserted), Mat.column(vec))
            assert span.decompose(vec) == (None if sol is None else sol.particular.col(0))
        assert span.rank == span.count == len(inserted)
    assert 2 < len(inserted) <= length


# -- signatures --------------------------------------------------------------


def test_signature_diagonal():
    assert symmetric_signature(Mat.diag([1, -1, 0])).as_tuple() == (1, 1, 1)


def test_signature_hyperbolic_plane():
    assert symmetric_signature(Mat.from_rows([[0, 1], [1, 0]])).as_tuple() == (1, 1, 0)


def test_signature_so3_killing_gram():
    # ad matrices of so(3) in the antisymmetric basis, assembled by hand
    c = {  # [e_i, e_j] = sum_k c[i][j][k] e_k for e = (E01-E10, E02-E20, E12-E21)
        (0, 1): {2: Fraction(-1)},
        (0, 2): {1: Fraction(1)},
        (1, 2): {0: Fraction(-1)},
    }

    def ad(i):
        rows = [[Fraction(0)] * 3 for _ in range(3)]
        for j in range(3):
            entry = c.get((i, j)) or {k: -v for k, v in c.get((j, i), {}).items()}
            if i == j:
                entry = {}
            for k, v in entry.items():
                rows[k][j] = v
        return Mat.from_rows(rows)

    gram = Mat.from_rows(
        [[(ad(i) @ ad(j)).trace() for j in range(3)] for i in range(3)]
    )
    assert gram == Mat.diag([-2, -2, -2])
    assert symmetric_signature(gram).as_tuple() == (0, 3, 0)
    assert descartes_signature_oracle(gram) == (0, 3, 0)


def test_signature_congruence_invariance():
    rng = random.Random(11)
    targets = [
        Mat.diag([3, -5, 0, 2]),
        Mat.from_rows([[0, 1, 0], [1, 0, 2], [0, 2, -1]]),
        Mat.from_rows([[2, 1], [1, 2]]),
    ]
    for g in targets:
        expected = symmetric_signature(g).as_tuple()
        assert descartes_signature_oracle(g) == expected
        n = g.rows
        found = 0
        while found < 20:
            s = Mat.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            )
            if rref_rank_oracle(s.to_rows()) != n:
                continue
            found += 1
            assert symmetric_signature(s.transpose() @ g @ s).as_tuple() == expected


def test_signature_rejects_nonsymmetric():
    with pytest.raises(InputError):
        symmetric_signature(Mat.from_rows([[0, 1], [0, 0]]))


# -- minimal polynomials ------------------------------------------------------


def test_minpoly_identity():
    mp = minimal_polynomial(Mat.identity(2))
    assert mp.coeffs == (Fraction(-1), Fraction(1))  # t - 1


def test_minpoly_rotation_complex_type():
    mp = minimal_polynomial(Mat.from_rows([[0, -1], [1, 0]]))
    assert mp.coeffs == (Fraction(1), Fraction(0), Fraction(1))  # t^2 + 1
    assert len(mp.factors) == 1
    assert mp.factors[0].complex_type is True


def test_minpoly_distinct_eigenvalues():
    mp = minimal_polynomial(Mat.diag([1, 2]))
    assert mp.coeffs == (Fraction(2), Fraction(-3), Fraction(1))  # (t-1)(t-2)
    roots = sorted(-f.coeffs[0] for f in mp.factors)
    assert roots == [1, 2] and all(f.degree == 1 for f in mp.factors)


def test_minpoly_annihilates_and_is_minimal():
    rng = random.Random(3)
    for trial in range(15):
        n = rng.randint(1, 4)
        m = Mat.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        mp = minimal_polynomial(m)
        assert eval_poly_at(list(mp.coeffs), m).is_zero()
        # no maximal proper divisor annihilates
        from cartanext import poly as P

        for f in mp.factors:
            quotient, rem = P.divmod_exact(list(mp.coeffs), list(f.coeffs))
            assert rem == [Fraction(0)]
            assert not eval_poly_at(quotient, m).is_zero()


def test_minpoly_repeated_factor_multiplicity():
    m = Mat.from_rows([[1, 1], [0, 1]])  # (t-1)^2
    mp = minimal_polynomial(m)
    assert mp.coeffs == (Fraction(1), Fraction(-2), Fraction(1))
    assert [(f.degree, f.multiplicity) for f in mp.factors] == [(1, 2)]
