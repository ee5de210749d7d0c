"""The Jacobi and ideal certificates behind `verify_graded` and `verify_pair`.

Each corrupted table must give exactly the failure list of the full-scan
verifiers they replaced (`reference_verify_*` in conftest.py), and healthy
catalog items must be certified without the full scans.  The Jacobi
certificate is `MatrixLieAlgebra.realization_certified`; the generating-set
certificate it replaced is kept as `reference_jacobi_certified`.
"""

import copy
import dataclasses
import itertools
from fractions import Fraction

import pytest

from cartanext import catalog, lie
from cartanext.catalog import build_graded, build_pair, verify_graded, verify_pair
from cartanext.lie import (
    MatrixLieAlgebra,
    StructureConstants,
    _homomorphism_witness,
    largest_invariant_subspace_dim,
    make_algebra,
)
from cartanext.linalg import Mat
from conftest import (reference_jacobi_certified, reference_largest_ideal_dim,
                      reference_verify_graded, reference_verify_pair)

F = Fraction


def _refuse(*args, **kwargs):
    raise AssertionError("called where the certificates must decide alone")


def _with_table(alg, table) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(alg.ambient_size, alg.basis, alg.name + "*",
                            StructureConstants(alg.dim, table))


def _with_basis(alg, basis) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(alg.ambient_size, basis, alg.name + "*", alg.constants)


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
    assert all(a.realization_certified() for _, a in _rebasings(alg))
    assert _sweep(*check, _rebasings(alg)) == {"", "bracket"}
    # the proof needs antisymmetry: without it the certificate is not consulted
    monkeypatch.setattr(MatrixLieAlgebra, "realization_certified", _refuse)
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


@pytest.mark.parametrize("kind", ["graded", "pair"])
def test_no_corrupted_table_is_certified(kind):
    alg = (build_graded("projective", {"n": 2}).algebra if kind == "graded"
           else build_pair("group_type", {"base": "so(3)"}).k_algebra)
    assert alg.realization_certified()
    for where, bad in _corruptions(alg):
        assert not bad.realization_certified(), where
    # c_ij is read for i < j only, which is why callers check antisymmetry first
    lower = [bad for (i, j, _, _), bad in _corruptions(alg, antisymmetric=False) if i > j]
    assert all(bad.realization_certified() for bad in lower)
    assert not any(bad.constants.antisymmetry_holds() for bad in lower)


def test_pair_sweep_matches_full_scans(monkeypatch):
    p = build_pair("group_type", {"base": "so(3)"})  # so(3) + so(3), h the diagonal
    alg, check = p.k_algebra, (p, "k_algebra", verify_pair, reference_verify_pair)
    assert _sweep(*check, _corruptions(alg)) == {"Jacobi identity fails"}
    # every re-basis is certified; mixing h into m, or m into h, breaks the
    # eigenspace split, and the ideal search then runs in full
    assert all(a.realization_certified() for _, a in _rebasings(alg))
    assert _sweep(*check, _rebasings(alg)) == {""}
    monkeypatch.setattr(MatrixLieAlgebra, "realization_certified", _refuse)
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


def _spy_on_full_scans(monkeypatch) -> list:
    """The `limit` of every `jacobi_witnesses` call from here on."""
    scans = []
    full_scan = StructureConstants.jacobi_witnesses

    def spy(self, limit=3):
        scans.append(limit)
        return full_scan(self, limit)

    monkeypatch.setattr(StructureConstants, "jacobi_witnesses", spy)
    return scans


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_non_generating_objects_are_certified_without_the_full_scan(kind, monkeypatch):
    # the generating-set certificate refused these and ran the full scan
    verify, reference, _, block = VERIFY[kind]
    obj, alg, _, generators, _ = _centred(kind)
    assert not reference_jacobi_certified(alg.constants, generators)
    assert alg.realization_certified()
    scans = _spy_on_full_scans(monkeypatch)
    expected = [f"{block} contains a nonzero ideal of dimension 1"]
    assert verify(obj) == expected
    assert scans == []
    assert reference(obj) == expected


def _swapped(alg):
    """alg with its table kept and its basis changed after the build: two
    basis matrices exchanged, or X_a replaced by X_a + X_b."""
    for a, b in itertools.permutations(range(alg.dim), 2):
        basis = list(alg.basis)
        if a < b:
            basis[a], basis[b] = basis[b], basis[a]
            yield _with_basis(alg, basis)
            basis = list(alg.basis)
        basis[a] = basis[a] + basis[b]
        yield _with_basis(alg, basis)


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_changed_or_repeated_basis_matrices_leave_jacobi_to_the_full_scan(kind, monkeypatch):
    verify, _, field, _ = VERIFY[kind]
    obj = (build_graded("projective", {"n": 2}) if kind == "graded"
           else build_pair("group_type", {"base": "so(3)"}))
    alg = getattr(obj, field)
    repeated = [_with_basis(alg, alg.basis[:a] + alg.basis[a + 1:a + 2] + alg.basis[a + 1:])
                for a in range(alg.dim - 1)]
    variants = list(_swapped(alg)) + repeated
    scans = _spy_on_full_scans(monkeypatch)
    for changed in variants:
        assert not changed.realization_certified()
        # the table itself is untouched, so the full scan clears it
        assert verify(dataclasses.replace(obj, **{field: changed})) == []
    assert len(scans) == len(variants)


def test_basis_matrices_of_another_size_are_not_certified(sl2_basis):
    # the flat brackets are keyed by the ambient size, so the full check
    # needs every basis matrix ambient_size square
    sl2 = make_algebra(sl2_basis, "sl2")
    assert MatrixLieAlgebra(2, sl2.basis, "sl2", sl2.constants).realization_certified()
    assert not MatrixLieAlgebra(3, sl2.basis, "sl2", sl2.constants).realization_certified()
    mixed = sl2.basis[:2] + (Mat.unit(3, 3, 1, 0),)
    assert not MatrixLieAlgebra(2, mixed, "mixed", sl2.constants).realization_certified()


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_independence_is_needed_beside_the_pair_check(kind):
    # three copies of one diagonal matrix commute, and a table whose
    # coefficients each sum to zero passes the pair check on them, yet
    # [X_0, X_1] = X_0 - X_1, [X_0, X_2] = X_0 - X_2 breaks Jacobi
    verify, reference, field, _ = VERIFY[kind]
    d = Mat.diag([1, 2, 3])
    table = [[{} for _ in range(3)] for _ in range(3)]
    for j in (1, 2):
        table[0][j], table[j][0] = {0: F(1), j: F(-1)}, {0: F(-1), j: F(1)}
    sc = StructureConstants(3, table)
    assert _homomorphism_witness(sc, [d, d, d]) is None
    alg = MatrixLieAlgebra(3, [d, d, d], "repeated", sc, None)
    assert not alg.realization_certified()
    if kind == "graded":
        obj = dataclasses.replace(build_graded("su_pp", {"p": 1}), algebra=alg)
    else:
        obj = dataclasses.replace(build_pair("group_type", {"base": "so(3)"}), k_algebra=alg,
                                  h_indices=(0,), m_indices=(1, 2))
    got = verify(obj)
    assert got == reference(obj)
    assert got[0].startswith("Jacobi identity fails")


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


def test_certificate_agrees_with_the_reference_on_the_default_grid():
    items = [(g.algebra, g.minus_one + g.plus_one) for g in
             (build_graded(f, p) for f, p in catalog.default_graded_grid())]
    items += [(p.k_algebra, p.m_indices) for p in
              (build_pair(f, q) for f, q in catalog.default_pair_grid())]
    for alg, generators in items:
        assert alg.realization_certified(), alg.name
        assert reference_jacobi_certified(alg.constants, generators), alg.name
    alg, generators = items[0]
    for where, bad in _corruptions(alg):
        assert not (bad.realization_certified()
                    or reference_jacobi_certified(bad.constants, generators)), where


def test_projective_15_verifies():
    assert verify_graded(build_graded("projective", {"n": 15})) == []


def test_projective_21_verifies():  # the dimension cap
    g = build_graded("projective", {"n": 21})
    assert g.dim == 483
    assert verify_graded(g) == []


# -- the certificate `make_algebra` records while it builds the table ----------


def _healthy(kind):
    return (build_graded("projective", {"n": 2}) if kind == "graded"
            else build_pair("group_type", {"base": "so(3)"}))


def _witness_calls(monkeypatch) -> list:
    """The number of action matrices of every `_homomorphism_witness` call
    from here on."""
    calls = []
    witness = lie._homomorphism_witness

    def spy(constants, action):
        calls.append(len(action))
        return witness(constants, action)

    monkeypatch.setattr(lie, "_homomorphism_witness", spy)
    return calls


def test_cached_builds_are_certified_without_a_commutator(monkeypatch):
    algebras = [build_graded(f, p).algebra for f, p in catalog.default_graded_grid()]
    algebras.append(build_graded("projective", {"n": 15}).algebra)
    algebras += [build_pair(f, q).k_algebra for f, q in catalog.default_pair_grid()]
    monkeypatch.setattr(lie, "_BracketIndex", _refuse)
    monkeypatch.setattr(lie, "_homomorphism_witness", _refuse)
    for alg in algebras:
        assert alg.realization_certified(), alg.name


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_copies_made_after_the_build_repeat_the_check(kind, monkeypatch):
    verify, _, field, _ = VERIFY[kind]
    obj = _healthy(kind)
    alg = getattr(obj, field)
    table = alg.constants.table
    moved_basis, moved_table = copy.copy(alg), copy.copy(alg)
    moved_basis.basis = tuple(list(alg.basis))  # equal, but another tuple
    moved_table.constants = StructureConstants(alg.dim, tuple(list(table)))
    copies = [_with_table(alg, table), _with_basis(alg, alg.basis), moved_basis, moved_table]
    calls = _witness_calls(monkeypatch)
    assert alg.realization_certified() and calls == []
    for n, changed in enumerate(copies, 1):
        assert changed.realization_certified()
        assert verify(dataclasses.replace(obj, **{field: changed})) == []
        assert calls == [alg.dim] * 2 * n


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_a_failed_build_check_records_no_certificate(kind, monkeypatch):
    # X_a + X_b for two elements of g_0 (or h) keeps the split, but makes
    # brackets with two terms, which go through elimination and the test
    verify, reference, field, _ = VERIFY[kind]
    obj = _healthy(kind)
    a, b = obj.zero[:2] if kind == "graded" else obj.h_indices[:2]
    basis = list(getattr(obj, field).basis)
    basis[a] = basis[a] + basis[b]
    formed = []

    def disagree(terms):  # each re-formed sum_k c_ij^k X_k reads as zero
        formed.append(list(terms))
        return {}

    monkeypatch.setattr(lie, "_combine", disagree)
    alg = make_algebra(basis, "rebased")
    monkeypatch.undo()
    assert formed
    calls = _witness_calls(monkeypatch)
    changed = dataclasses.replace(obj, **{field: alg})
    got = verify(changed)
    assert calls == [alg.dim]  # the full check ran, and passed
    assert got == reference(changed) == []
    assert alg.realization_certified() and len(calls) == 2


def test_the_semisimplicity_verdict_is_kept_on_its_algebra(sl2_basis, monkeypatch):
    alg = make_algebra(sl2_basis, "sl2")
    ranks = []
    real = lie.matrix_rank
    monkeypatch.setattr(lie, "matrix_rank", lambda m: ranks.append(m.rows) or real(m))
    assert lie.is_semisimple(alg) and lie.is_semisimple(alg) and ranks == [3]
    # a copy with another table, here with every bracket zero, decides for itself
    abelian = _with_table(alg, [[{} for _ in range(3)] for _ in range(3)])
    assert not lie.is_semisimple(abelian) and ranks == [3, 3]
    assert lie.is_semisimple(alg) and not lie.is_semisimple(abelian) and ranks == [3, 3]


def _inner_blocks() -> list:
    """(name, table, inner block) of every default graded target and pair."""
    out = [(f"{f}{p}", build_graded(f, p).algebra.constants, build_graded(f, p).zero)
           for f, p in catalog.default_graded_grid()]
    out += [(f"{f}{q}", build_pair(f, q).k_algebra.constants, build_pair(f, q).h_indices)
            for f, q in catalog.default_pair_grid()]
    return out


def test_ideal_kernel_matches_the_full_elimination(monkeypatch):
    reduced = []
    real = lie._reduce
    monkeypatch.setattr(lie, "_reduce", lambda v, pivots: reduced.append(1) or real(v, pivots))
    stopped = 0
    for name, sc, inner in _inner_blocks():
        del reduced[:]
        assert sc.largest_ideal_dim(inner) == reference_largest_ideal_dim(sc, inner) == 0, name
        rows = {(x, k) for a in inner for x in range(sc.dim) if x not in inner
                for k in sc.table[a][x]}
        assert len(reduced) <= len(rows), name
        stopped += len(reduced) < len(rows)  # the rank reached dim a before the last row
        # a repeated index adds nothing, and h and m exchanged breaks the blocks
        twice = tuple(inner) + tuple(inner[:2])
        assert sc.largest_ideal_dim(twice) == reference_largest_ideal_dim(sc, twice) == 0, name
        outer = [i for i in range(sc.dim) if i not in inner]
        assert sc.largest_ideal_dim(outer) == reference_largest_ideal_dim(sc, outer), name
    assert stopped


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_a_nonzero_ideal_kernel_takes_every_row(kind):
    # the added centre spans an ideal, so the rank never reaches dim a
    _, alg, inner, _, centre = _centred(kind)
    sc = alg.constants
    assert sc.largest_ideal_dim(inner) == reference_largest_ideal_dim(sc, inner) == 1
    twice = tuple(inner) + (centre, centre)
    assert sc.largest_ideal_dim(twice) == reference_largest_ideal_dim(sc, twice) == 1
