"""The Jacobi and ideal certificates behind `verify_graded` and `verify_pair`.

Each corrupted table must give exactly the failure list of the full-scan
verifiers they replaced (`reference_verify_*` in conftest.py), and healthy
catalog items must be certified without the full scans.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from cartanext import catalog
from cartanext.catalog import build_graded, build_pair, verify_graded, verify_pair
from cartanext.lie import (
    MatrixLieAlgebra,
    StructureConstants,
    largest_invariant_subspace_dim,
    make_algebra,
)
from cartanext.linalg import Mat
from conftest import reference_verify_graded, reference_verify_pair

F = Fraction


def _refuse(*args, **kwargs):
    raise AssertionError("called where the certificates must decide alone")


def _with_table(alg, table) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(alg.ambient_size, alg.basis, alg.name + "*",
                            StructureConstants(alg.dim, table), alg._span)


def _corruptions(alg, antisymmetric=True):
    """Copies of alg whose table differs in one entry c_ij^k (and c_ji^k, to
    keep antisymmetry, when asked): the entry plus one, and zero where it was
    nonzero."""
    base = alg.constants.table
    dim = alg.dim
    for i in range(dim):
        for j in range(i + 1 if antisymmetric else 0, dim):
            for k in range(dim):
                old = base[i][j].get(k, 0)
                for value in (old + 1, 0) if old else (1,):
                    table = [[dict(d) for d in row] for row in base]
                    for a, b, v in ((i, j, value), (j, i, -value))[:2 if antisymmetric else 1]:
                        table[a][b].pop(k, None)
                        if v:
                            table[a][b][k] = F(v)
                    yield (i, j, k, value), _with_table(alg, table)


def _rebasings(alg):
    """The same algebra in the bases X_a -> X_a + X_b, one per a != b."""
    for a in range(alg.dim):
        for b in range(alg.dim):
            if a != b:
                basis = list(alg.basis)
                basis[a] = basis[a] + basis[b]
                yield (a, b), make_algebra(basis, alg.name + "*")


def _sweep(obj, field, verify, reference, variants):
    """Kinds of the first failure over every variant of obj's algebra, each
    checked against the full-scan reference."""
    kinds = set()
    for where, alg in variants:
        changed = dataclasses.replace(obj, **{field: alg})
        got = verify(changed)
        assert got == reference(changed), where
        kinds.add(got[0].split(" at ")[0].split(" of ")[0] if got else "")
    return kinds


def test_graded_sweep_matches_full_scans(monkeypatch):
    g = build_graded("projective", {"n": 2})
    alg, check = g.algebra, (g, "algebra", verify_graded, reference_verify_graded)
    # every one-entry corruption breaks Jacobi, so none may be certified
    assert _sweep(*check, _corruptions(alg)) == {"Jacobi identity fails"}
    # re-bases are Lie algebras: certified, then graded or not
    assert all(a.constants.jacobi_certified(g.minus_one + g.plus_one) for _, a in _rebasings(alg))
    assert _sweep(*check, _rebasings(alg)) == {"", "bracket"}
    # the proof needs antisymmetry: without it the certificate is not consulted
    monkeypatch.setattr(StructureConstants, "jacobi_certified", _refuse)
    assert _sweep(*check, _corruptions(alg, antisymmetric=False)) == {
        "structure constants are not antisymmetric"}


def test_brackets_leaving_their_grade_are_reported_in_scan_order():
    # [X_-1, X_0] gains a g_1 part and [X_1, X_1'] a g_0 part, both antisymmetrically
    g = build_graded("projective", {"n": 2})
    (m0, _), (z0, *_), (p0, p1) = g.minus_one, g.zero, g.plus_one
    table = [[dict(d) for d in row] for row in g.algebra.constants.table]
    for i, j, k in ((m0, z0, p0), (p0, p1, z0)):
        table[i][j][k] = table[i][j].get(k, 0) + 1
        table[j][i][k] = table[j][i].get(k, 0) - 1
    broken = dataclasses.replace(g, algebra=_with_table(g.algebra, table))
    got = verify_graded(broken)
    assert got == reference_verify_graded(broken)
    assert [f for f in got if f.startswith("bracket")] == [
        f"bracket at ({m0},{z0}) leaves grade -1",
        f"bracket at ({z0},{m0}) leaves grade -1",
        f"bracket of grades 1,1 at ({p0},{p1}) is nonzero",
        f"bracket of grades 1,1 at ({p1},{p0}) is nonzero",
    ]


def test_no_generating_set_certifies_a_corrupted_table():
    # the catalog's generating sets are contiguous index blocks; these
    # interleave with the rest of the basis
    g = build_graded("projective", {"n": 2})
    sets = [s for r in (4, 5) for s in itertools.combinations(range(g.dim), r)
            if g.algebra.constants.jacobi_certified(s)]
    assert len(sets) > 10
    for where, alg in _corruptions(g.algebra):
        assert not any(alg.constants.jacobi_certified(s) for s in sets), where


def test_pair_sweep_matches_full_scans(monkeypatch):
    p = build_pair("group_type", {"base": "so(3)"})  # so(3) + so(3), h the diagonal
    alg, check = p.k_algebra, (p, "k_algebra", verify_pair, reference_verify_pair)
    assert _sweep(*check, _corruptions(alg)) == {"Jacobi identity fails"}
    # every re-basis is certified; mixing h into m, or m into h, breaks the
    # eigenspace split, and the ideal search then runs in full
    assert all(a.constants.jacobi_certified(p.m_indices) for _, a in _rebasings(alg))
    assert _sweep(*check, _rebasings(alg)) == {""}
    monkeypatch.setattr(StructureConstants, "jacobi_certified", _refuse)
    assert _sweep(*check, _corruptions(alg, antisymmetric=False)) == {
        "structure constants are not antisymmetric"}


def test_pair_with_swapped_eigenspaces_takes_the_full_ideal_search():
    # h and m exchanged: [h, h] now lands in m, so the kernel does not apply
    p = build_pair("group_type", {"base": "so(3)"})
    swapped = dataclasses.replace(p, h_indices=p.m_indices, m_indices=p.h_indices)
    sc = p.k_algebra.constants
    assert sc.largest_ideal_dim(swapped.h_indices) is None
    assert verify_pair(swapped) == reference_verify_pair(swapped) == []
    assert sc.largest_ideal_dim(p.h_indices + p.h_indices[:1]) == 0  # a repeat adds nothing


def _pad(m: Mat, n: int) -> Mat:
    return Mat.from_rows([[m[r, c] if r < m.rows and c < m.cols else 0 for c in range(n)]
                          for r in range(n)])


def _with_centre(alg, at) -> MatrixLieAlgebra:
    """alg plus a central basis element at index `at`, one ambient size up."""
    n = alg.ambient_size + 1
    basis = [_pad(b, n) for b in alg.basis]
    basis.insert(at, Mat.unit(n, n, n - 1, n - 1))
    return make_algebra(basis, alg.name + "+centre")


def _centred(kind):
    """(object, its algebra, inner block, generating set, centre index) for a
    catalog item with a central element added to its inner block: sl(3) with
    one in g_0, or so(3) + so(3) with one in h.  Neither g_-1 + g_1 nor m
    then generates."""
    if kind == "graded":
        g = build_graded("projective", {"n": 2})
        at = g.plus_one[0]
        obj = dataclasses.replace(g, algebra=_with_centre(g.algebra, at), zero=g.zero + (at,),
                                  plus_one=tuple(i + 1 for i in g.plus_one))
        return obj, obj.algebra, obj.zero, obj.minus_one + obj.plus_one, at
    p = build_pair("group_type", {"base": "so(3)"})
    at = p.m_indices[0]
    obj = dataclasses.replace(p, k_algebra=_with_centre(p.k_algebra, at),
                              h_indices=p.h_indices + (at,),
                              m_indices=tuple(i + 1 for i in p.m_indices))
    return obj, obj.k_algebra, obj.h_indices, obj.m_indices, at


VERIFY = {"graded": (verify_graded, reference_verify_graded, "algebra", "g_0"),
          "pair": (verify_pair, reference_verify_pair, "k_algebra", "h")}


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_non_generating_set_takes_the_full_jacobi_scan(kind, monkeypatch):
    verify, reference, _, block = VERIFY[kind]
    obj, alg, _, generators, _ = _centred(kind)
    assert not alg.constants.jacobi_certified(generators)
    scans = []
    full_scan = StructureConstants.jacobi_witnesses

    def spy(self, limit=3):
        scans.append(limit)
        return full_scan(self, limit)

    monkeypatch.setattr(StructureConstants, "jacobi_witnesses", spy)
    expected = [f"{block} contains a nonzero ideal of dimension 1"]
    assert verify(obj) == expected
    assert len(scans) == 1
    assert reference(obj) == expected


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_failing_jacobi_leaves_the_ideal_to_the_full_search(kind):
    # [X_y, c] = X_z breaks Jacobi but keeps the blocks: the kernel would
    # still see the centre c, while the invariant-subspace search finds no ideal
    verify, reference, field, _ = VERIFY[kind]
    obj, alg, inner, _, centre = _centred(kind)
    y, z = [i for i in inner if i != centre][:2]
    table = [[dict(d) for d in row] for row in alg.constants.table]
    table[y][centre], table[centre][y] = {z: F(1)}, {z: F(-1)}
    broken_alg = _with_table(alg, table)
    assert broken_alg.constants.largest_ideal_dim(inner) == 1
    assert largest_invariant_subspace_dim(broken_alg, inner) == 0
    broken = dataclasses.replace(obj, **{field: broken_alg})
    got = verify(broken)
    assert got == reference(broken)
    assert len(got) == 1 and got[0].startswith("Jacobi identity fails")


def test_kernel_reports_the_centre_of_a_generated_grading(monkeypatch):
    # Heisenberg: g_-1 = <E12>, g_0 = <E13>, g_1 = <E23>; [E12, E23] = E13, so
    # g_-1 + g_1 generates and the centre g_0 is found by the kernel alone
    g = build_graded("su_pp", {"p": 1})
    heisenberg = make_algebra([Mat.unit(3, 3, 0, 1), Mat.unit(3, 3, 0, 2),
                               Mat.unit(3, 3, 1, 2)], "heisenberg")
    h = dataclasses.replace(g, algebra=heisenberg)
    assert (h.minus_one, h.zero, h.plus_one) == ((0,), (1,), (2,))
    expected = ["g_0 contains a nonzero ideal of dimension 1"]
    assert reference_verify_graded(h) == expected
    monkeypatch.setattr(StructureConstants, "jacobi_witnesses", _refuse)
    monkeypatch.setattr(catalog, "largest_invariant_subspace_dim", _refuse)
    assert verify_graded(h) == expected


def test_default_grid_is_certified_without_full_scans(monkeypatch):
    monkeypatch.setattr(StructureConstants, "jacobi_witnesses", _refuse)
    monkeypatch.setattr(catalog, "largest_invariant_subspace_dim", _refuse)
    for family, params in catalog.default_graded_grid():
        assert verify_graded(build_graded(family, params)) == [], (family, params)
    for family, params in catalog.default_pair_grid():
        assert verify_pair(build_pair(family, params)) == [], (family, params)


def test_projective_15_verifies():
    assert verify_graded(build_graded("projective", {"n": 15})) == []
