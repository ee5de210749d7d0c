"""Properties of the `cartanext.bases` routines the graded targets are read
from: so of a symmetric signed-permutation form, realified sl(m, H) and the
complexification of a real basis."""

import pytest

from cartanext import bases
from cartanext.errors import InputError
from cartanext.linalg import Mat, SpanSolver


def _independent(basis) -> bool:
    span = SpanSolver(basis[0].rows ** 2)
    return all(span.insert(b.flat()) for b in basis)


def _light_cone_form(signs):
    # isotropic first and last coordinates around a diagonal middle
    m = len(signs) + 2
    return Mat.from_sparse(m, m, {0: {m - 1: 1}, m - 1: {0: 1},
                                  **{1 + r: {1 + r: s} for r, s in enumerate(signs)}})


def _split_form(n):
    return Mat.from_sparse(2 * n, 2 * n, {r: {(r + n) % (2 * n): 1} for r in range(2 * n)})


FORMS = ([(f"diagonal{s}", Mat.diag(s)) for s in ([1, 1], [1, -1, 1], [-1, -1, 1, 1, -1])]
         + [(f"light-cone{s}", _light_cone_form(s)) for s in ([1], [1, -1], [-1, -1, 1])]
         + [(f"split{n}", _split_form(n)) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("form", [f for _, f in FORMS], ids=[label for label, _ in FORMS])
def test_so_form_basis_spans_the_form_algebra(form):
    n = form.rows
    basis = bases.so_form_basis(form)
    assert all(x.transpose() @ form + form @ x == Mat.zero(n, n) for x in basis)
    assert len(basis) == n * (n - 1) // 2 and _independent(basis)


def test_so_diag_basis_is_the_form_basis_of_the_diagonal():
    signs = [1, -1, -1, 1]
    want = [Mat.unit(4, 4, i, j) - Mat.unit(4, 4, j, i, signs[i] * signs[j])
            for i in range(4) for j in range(i + 1, 4)]
    assert bases.so_diag_basis(signs) == bases.so_form_basis(Mat.diag(signs)) == want


@pytest.mark.parametrize("form", [
    Mat.diag([1, 2]),  # a sign that is not +-1
    Mat.diag([1, 0, 1]),  # a row with no entry
    Mat.from_sparse(3, 3, {0: {1: 1}, 1: {2: 1}, 2: {0: 1}}),  # a 3-cycle, not symmetric
    Mat.from_sparse(2, 2, {0: {1: 1}, 1: {0: -1}}),  # the symplectic form
    Mat.from_sparse(2, 2, {0: {0: 1, 1: 1}, 1: {0: 1}}),  # a row with two entries
    Mat.from_sparse(2, 3, {0: {0: 1}, 1: {1: 1}}),  # not square
])
def test_so_form_basis_refuses_other_forms(form):
    with pytest.raises(InputError, match="symmetric signed-permutation form"):
        bases.so_form_basis(form)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sl_quaternion_basis_is_realified_sl_of_the_quaternions(m):
    basis = bases.sl_quaternion_basis(m)
    # the realified trace is four times the real trace of the quaternionic matrix
    assert len(basis) == 4 * m * m - 1 and all(b.trace() == 0 for b in basis)
    assert _independent(basis)


@pytest.mark.parametrize("real", [bases.sl_basis(2), bases.so_diag_basis([1, 1, -1]),
                                  bases.sp_split_basis(2)])
def test_complexify_lists_each_real_element_then_its_multiple_by_i(real):
    n = real[0].rows
    j = bases.complex_unit_matrix(n)
    out = bases.complexify(real)
    assert len(out) == 2 * len(real) and _independent(out)
    assert all(z @ j == j @ z for z in out)  # complex-linear
    assert out[0::2] == [bases.realify_complex(x, Mat.zero(n, n)) for x in real]
    assert out[1::2] == [j @ z for z in out[0::2]]
