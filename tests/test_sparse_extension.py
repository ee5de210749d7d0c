"""The sparse extension layer against the dense one it replaced.

`validate`, `curvature`, `Curvature.evaluate`, `dstar_projective`,
`_assert_b2_equivariant` and the b2 solve must give exactly what the dense
versions kept in conftest.py give: the same axioms with the same witness
lists in the same order, the same curvature values, contractions and b2.
They are compared on the projective witnesses of the default pair grid, on
the row witnesses of the default manifest, and on broken copies of both.

Then the contract of the sparse curvature: its dense `values`, once read,
equal the reference's and are what every reader sees, also after a change
in place; the generator route of `_assert_b2_equivariant`, counted by the
h elements it checks, and its fall-backs to all of h; and the projective
decision at the dimension cap.
"""

import dataclasses
import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cartanext import catalog, classify, cli, extension, io
from cartanext.catalog import build_graded, build_pair
from cartanext.equivalence import _is_automorphism
from cartanext.errors import InternalCheckError
from cartanext.extension import (
    Extension,
    _assert_b2_equivariant,
    curvature,
    dstar_projective,
    is_flat,
    solve_projective_b2,
    torsion_free,
    validate,
)
from cartanext.lie import MatrixLieAlgebra, StructureConstants, generating_indices
from cartanext.linalg import Mat
from conftest import (
    reference_assert_b2_equivariant,
    reference_curvature,
    reference_dstar_projective,
    reference_evaluate,
    reference_is_automorphism,
    reference_validate,
)

F = Fraction

PAIRS = catalog.default_pair_grid()
ROWS = [(item["family"], item["pair"]["family"], item["pair"]["params"])
        for item in cli.default_manifest() if item["kind"] == "row"]


def _report(ext):
    return {name: (a.ok, a.witnesses) for name, a in validate(ext).axioms.items()}


def _reference_report(ext):
    return {name: (a.ok, a.witnesses) for name, a in reference_validate(ext).axioms.items()}


def _raises(check, *args) -> bool:
    try:
        check(*args)
    except InternalCheckError:
        return True
    return False


def _assert_matches_reference(ext):
    """validate, curvature, evaluate and (on an invertible frame) the
    contraction agree with the dense reference; returns the report."""
    report = _report(ext)
    assert report == _reference_report(ext)
    kappa, ref = curvature(ext), reference_curvature(ext)
    assert list(kappa.values.items()) == list(ref.values.items())
    n = ext.pair.dim_m
    mixed = [F(i + 1, 3) if i % 2 else i - 1 for i in range(n)]
    units = [[int(t == s) for t in range(n)] for s in (0, n - 1)]
    for u, v in [(mixed, units[0]), (units[1], mixed), (mixed, mixed[::-1]), (units[0], units[1])]:
        assert kappa.evaluate(u, v) == reference_evaluate(kappa, u, v)
    if report["frame_invertible"][0]:
        assert dstar_projective(ext, kappa) == reference_dstar_projective(ext, ref)
    return report


def _with_entries(ext, entries) -> Extension:
    rows = ext.alpha.to_rows()
    for r, c in entries:
        rows[r][c] += 1
    return Extension(ext.pair, ext.target, Mat.from_rows(rows), ext.label)


def _broken(ext) -> dict:
    """Copies of ext with a g_-1 or g_1 entry in h columns, a g_0 entry in
    m columns, and a perturbed g_1 block."""
    pair, target = ext.pair, ext.target
    minus, zero, h, m = target.minus_one, target.zero, pair.h_indices, pair.m_indices
    g1 = ext.g1_block()
    return {
        "g-1 in h": _with_entries(ext, [(minus[0], h[0])]),
        "g-1 in every h": _with_entries(ext, [(minus[c % len(minus)], x) for c, x in enumerate(h)]),
        "g1 in h": _with_entries(ext, [(target.plus_one[-1], h[-1])]),
        "g0 in m": _with_entries(ext, [(zero[0], m[0])]),
        "g0 in every m": _with_entries(ext, [(zero[c % len(zero)], x) for c, x in enumerate(m)]),
        "g1 perturbed": ext.with_g1_block(g1 + Mat.unit(g1.rows, g1.cols, 0, g1.cols - 1, F(1, 2))),
    }


def _projective_witness(family, params):
    pair = build_pair(family, params)
    return classify.standard_witness(pair, build_graded("projective", {"n": pair.dim_m}))


@pytest.mark.parametrize("family, params", PAIRS)
def test_projective_witness_and_b2_match_dense_reference(family, params, monkeypatch):
    ext = _projective_witness(family, params)
    assert _assert_matches_reference(ext)["equivariance"] == (True, [])
    assert dstar_projective(ext) == reference_dstar_projective(ext)
    sol = solve_projective_b2(ext)
    with monkeypatch.context() as m:
        m.setattr(extension, "curvature", reference_curvature)
        m.setattr(extension, "dstar_projective", reference_dstar_projective)
        m.setattr(extension, "_assert_b2_equivariant", reference_assert_b2_equivariant)
        ref = solve_projective_b2(ext)
    assert sol.b2 == ref.b2
    assert sol.extension.alpha == ref.extension.alpha
    assert sol.kappa.values == ref.kappa.values
    _assert_matches_reference(sol.extension)
    n = sol.b2.rows
    for b2 in (sol.b2, sol.b2 + Mat.unit(n, n, 0, n - 1), sol.b2.scale(2)):
        assert (_raises(_assert_b2_equivariant, sol.extension, b2)
                == _raises(reference_assert_b2_equivariant, sol.extension, b2))


@pytest.mark.parametrize("family, pair_family, params", ROWS)
def test_row_witness_matches_dense_reference(family, pair_family, params):
    pair = build_pair(pair_family, params)
    ext = classify._ROW_BUILDERS[(family, pair_family)](pair)
    assert all(ok for ok, _ in _assert_matches_reference(ext).values())


@pytest.mark.parametrize("source", [
    ("projective", "group_type", {"base": "sl(3,R)"}),
    ("projective", "sl_block", {"p": 2, "q": 1}),
    ("row", "quaternionic", "sp1_block", {"p": 1, "q": 1}),
    ("row", "lagrangean", "group_type", {"base": "sp(2,R)"}),
    ("row", "grassmannian", "so_block", {"a": 1, "b": 1, "c": 1, "d": 1}),
])
def test_broken_witnesses_match_dense_reference(source):
    if source[0] == "projective":
        ext = _projective_witness(*source[1:])
    else:
        family, pair_family, params = source[1:]
        ext = classify._ROW_BUILDERS[(family, pair_family)](build_pair(pair_family, params))
    n = ext.pair.dim_m
    failed = {}
    for name, broken in _broken(ext).items():
        report = _assert_matches_reference(broken)
        failed[name] = [axiom for axiom, (ok, _) in report.items() if not ok]
        # only the g_-1 and g_1 blocks of ad(alpha h) count
        for b2 in (Mat.zero(n, n), Mat.identity(n), Mat.unit(n, n, 0, n - 1)):
            assert (_raises(_assert_b2_equivariant, broken, b2)
                    == _raises(reference_assert_b2_equivariant, broken, b2))
    assert "alpha_h_in_g0" in failed["g-1 in h"]
    assert "alpha_h_in_g0" in failed["g1 in h"]
    assert "alpha_m_zero_g0_component" in failed["g0 in m"]
    assert "equivariance" in failed["g-1 in every h"]


def test_witness_lists_are_capped_in_scan_order():
    ext = _projective_witness("group_type", {"base": "sl(3,R)"})
    broken = _broken(ext)["g-1 in every h"]
    report = _report(broken)
    h = ext.pair.h_indices
    assert report["alpha_h_in_g0"] == (False, list(h[:extension.WITNESS_CAP]))
    ok, witnesses = report["equivariance"]
    assert not ok and len(witnesses) == extension.WITNESS_CAP
    assert witnesses == sorted(witnesses, key=lambda xy: (h.index(xy[0]), xy[1]))


@pytest.mark.parametrize("base", ["sl(2,R)", "so(3)"])
def test_automorphism_check_matches_dense_reference(base):
    pair = build_pair("group_type", {"base": base})
    dim = pair.dim
    sigma = Mat.diag([1 if c in pair.h_indices else -1 for c in range(dim)])
    assert _is_automorphism(pair, sigma) and reference_is_automorphism(pair, sigma)
    for r in range(dim):
        for c in range(dim):
            for value in (1, F(-1, 2)):
                broken = sigma + Mat.unit(dim, dim, r, c, value)
                assert _is_automorphism(pair, broken) == reference_is_automorphism(pair, broken)
    # the involution against tables changed at one bracket [X_i, X_j]: each
    # pair i < j must be scanned
    base_table = pair.k_algebra.constants.table
    for i in range(dim):
        for j in range(i + 1, dim):
            table = [[dict(d) for d in row] for row in base_table]
            same = (i in pair.m_indices) == (j in pair.m_indices)
            k = pair.m_indices[0] if same else pair.h_indices[0]  # the wrong eigenspace
            table[i][j][k] = table[i][j].get(k, 0) + 1
            table[j][i][k] = table[j][i].get(k, 0) - 1
            changed = SimpleNamespace(k_algebra=SimpleNamespace(
                constants=StructureConstants(dim, table)), dim=dim)
            assert not _is_automorphism(changed, sigma)
            assert not reference_is_automorphism(changed, sigma)


# -- the sparse curvature and its dense view ------------------------------------


def _types(values: dict) -> dict:
    return {key: [type(x) for x in vec] for key, vec in values.items()}


@pytest.mark.parametrize("family, params", PAIRS)
def test_dense_view_read_after_sparse_use_matches_reference(family, params):
    ext = _projective_witness(family, params)
    for witness in (ext, solve_projective_b2(ext).extension):
        kappa, ref = curvature(witness), reference_curvature(witness)
        n = witness.pair.dim_m
        units = [[int(t == s) for t in range(n)] for s in (0, n - 1)]
        # every reader first, on the sparse form
        used = (dstar_projective(witness, kappa), torsion_free(witness, kappa),
                is_flat(witness, kappa), kappa.nonzero_entries(), kappa.evaluate(*units))
        assert list(kappa.values.items()) == list(ref.values.items())
        assert _types(kappa.values) == _types(ref.values)
        assert used == (dstar_projective(witness, ref), torsion_free(witness, ref),
                        is_flat(witness, ref), ref.nonzero_entries(), ref.evaluate(*units))


@pytest.mark.parametrize("family, params", PAIRS)
def test_in_place_changes_after_the_first_read_reach_every_reader(family, params):
    sol = solve_projective_b2(_projective_witness(family, params))
    ext, kappa = sol.extension, sol.kappa
    n, t = ext.pair.dim_m, ext.target.minus_one[0]
    units = [[int(i == s) for i in range(n)] for s in range(2)]
    count = kappa.nonzero_entries()
    assert torsion_free(ext, kappa)
    kappa.values[(0, 1)][t] += 1  # the first read, then a change in place
    assert kappa.evaluate(units[0], units[1]) == kappa.values[(0, 1)]
    assert dstar_projective(ext, kappa) == reference_dstar_projective(ext, kappa)
    assert not torsion_free(ext, kappa) and not is_flat(ext, kappa)
    assert kappa.nonzero_entries() == count + 1
    for vec in kappa.values.values():
        vec[:] = [F(0)] * len(vec)
    assert is_flat(ext, kappa) and kappa.nonzero_entries() == 0
    assert dstar_projective(ext, kappa) == [[0] * ext.target.dim for _ in range(n)]
    # a solution with another kappa in its place
    changed = dataclasses.replace(sol, kappa=curvature(ext))
    assert changed.kappa is not kappa and torsion_free(ext, changed.kappa)
    assert changed.b2 == sol.b2 and changed.extension is ext


# the sha256 of the canonical extension JSON and the `check-extension` report
# of the standard and the decided projective witness of each default-grid
# pair, one after the other; recorded before curvature was kept sparse
WITNESS_DIGESTS = [
    ("group_type", {"base": "sl(2,R)"},
     "10dd1d7d6311a1ad9392d46c28f4050e1082cfc43d38a1c62ff3a9ea2510e6b2"),
    ("group_type", {"base": "sl(3,R)"},
     "206b5eb562d3ce211d3ee10ecaf806c266960f973cd8255700cd76739f1cff7d"),
    ("group_type", {"base": "so(3)"},
     "912f9e9fddd29651136939bce549be4a21c716e08bf20177eca4f61716a2c597"),
    ("group_type", {"base": "so(2,1)"},
     "6014185a53a613cb2d67d3e1490e7be2a5f88fe1e3414b08b134065d5a856356"),
    ("group_type", {"base": "sl(2,C)"},
     "4dbfea38349aa22b5616137288d3abedbb0039d65da7bd6dd64876cd11a772e3"),
    ("group_type", {"base": "su(2)"},
     "28f2057bf3f54394bd92132235935ab884a2a13f90811229233c8cbde8a6f836"),
    ("group_type", {"base": "sp(2,R)"},
     "bddb1d442092d835ac9efa25991ef81a505e9a7b0c6418f40e9292c0573ea4d2"),
    ("sl_block", {"p": 1, "q": 1},
     "e416631f3831c98b9f6dd1d932bdb4dd98090028cd7ce7e05c9cfcf5049c72f8"),
    ("so_block", {"a": 1, "b": 1, "c": 1, "d": 1},
     "a7fb0fb406eb59ecb08ac512e33167531b983025b2c314fd5e1e4d91c296f087"),
    ("so_block", {"a": 2, "b": 1, "c": 1, "d": 1},
     "d466aa72d7a8bc742c76703c200a89f48e1956320fa0b20c20553c2e653a632c"),
    ("conformal_model", {"k": 1, "l": 1},
     "47a1dfa4cd4e8465f6e643fafa8610ffe3c8450cc1205e5d203f3fe74c7fd748"),
    ("conformal_model", {"k": 2, "l": 1},
     "fd4facd40782d7399e53cc910d907319848348a6ca147e3f6d08c50d73083deb"),
    ("sp_block", {"p": 1, "q": 1},
     "17dee9d30f23883e78f4fa5ddc29911574c904d7295a814863f65efa92cba74b"),
    ("su_block", {"a": 1, "b": 1, "c": 0, "d": 0},
     "012c265200c49bb0293292bb3ea949c75445ff1b4f7a3d58cda3a101d383bce0"),
    ("su_block", {"a": 1, "b": 1, "c": 1, "d": 0},
     "e0d315e38abe735e7cb36cdc8152d308dc22bf0be731bdc954bf8c7d65e0a399"),
    ("so_complex", {"n": 2},
     "76e60770c6f5c8fa05a3620a59380dd34d502f12d956325a0af80658d19f0ac1"),
    ("sp1_block", {"p": 1, "q": 1},
     "8d6ac49dbc571ba3b01c13e814bb39a315bff86c18cf21455b84b823960da0b9"),
    ("so_star", {"n": 2},
     "4a67ac34c7c14a37f17e3cd123bfefb1018cc1eb0588ee5f043180f4c22e5b61"),
]


def test_witness_digests_cover_the_default_grid():
    assert [(f, p) for f, p, _ in WITNESS_DIGESTS] == PAIRS


@pytest.mark.parametrize("family, params, digest", WITNESS_DIGESTS)
def test_check_extension_of_projective_witnesses_is_unchanged(family, params, digest, tmp_path):
    pair = build_pair(family, params)
    target = build_graded("projective", {"n": pair.dim_m})
    out = b""
    for ext in (classify.standard_witness(pair, target), classify.decide_projective(pair).witness):
        path, report = tmp_path / "ext.json", tmp_path / "report.json"
        text = io.canonical_dumps(io.extension_to_json(ext))
        path.write_text(text)
        assert cli.main(["check-extension", "--extension", str(path), "--out", str(report)]) == 0
        out += text.encode() + b"\n" + report.read_bytes() + b"\n"
    assert hashlib.sha256(out).hexdigest() == digest


# -- b2 equivariance on the generators of h ---------------------------------------


def _checked(monkeypatch, ext, b2) -> tuple:
    """(whether _assert_b2_equivariant raised, the number of h elements it
    checked: two blocks each)."""
    blocks = []
    real = extension._ad_block

    def counted(*args):
        blocks.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(extension, "_ad_block", counted)
        raised = _raises(_assert_b2_equivariant, ext, b2)
    assert len(blocks) % 2 == 0
    return raised, len(blocks) // 2


def _picks(pair) -> int:
    return len(generating_indices(catalog.isotropy_rep(pair).algebra))


@pytest.mark.parametrize("family, params", PAIRS)
def test_b2_equivariance_checks_only_the_generators_of_h(family, params, monkeypatch):
    sol = solve_projective_b2(_projective_witness(family, params))
    assert validate(sol.extension).passed
    assert _checked(monkeypatch, sol.extension, sol.b2) == (False, _picks(sol.extension.pair))


def test_the_generators_are_fewer_than_h_on_larger_pairs():
    for family, params in [("group_type", {"base": "sl(3,R)"}), ("sp1_block", {"p": 1, "q": 1})]:
        pair = build_pair(family, params)
        assert _picks(pair) < pair.dim_h


@pytest.mark.parametrize("family, params", [
    ("group_type", {"base": "sl(3,R)"}), ("sp1_block", {"p": 1, "q": 1}),
    ("so_star", {"n": 2}),
])
def test_every_b2_corruption_fails_on_the_generators(family, params, monkeypatch):
    sol = solve_projective_b2(_projective_witness(family, params))
    n = sol.b2.rows
    for k in range(n):
        for j in range(n):
            bad = sol.b2 + Mat.unit(n, n, k, j)
            assert _raises(reference_assert_b2_equivariant, sol.extension, bad)
            assert _checked(monkeypatch, sol.extension, bad)[0]


def test_broken_h_columns_are_checked_on_all_of_h(monkeypatch):
    sol = solve_projective_b2(_projective_witness("group_type", {"base": "sl(3,R)"}))
    ext, n, dim_h = sol.extension, sol.b2.rows, sol.extension.pair.dim_h
    h_columns = {"g-1 in h", "g-1 in every h", "g1 in h"}
    passed = set()
    for name, broken in _broken(ext).items():
        for b2 in (sol.b2, Mat.zero(n, n), Mat.identity(n)):
            raised, checked = _checked(monkeypatch, broken, b2)
            assert raised == _raises(reference_assert_b2_equivariant, broken, b2)
            if not raised:  # a raise may come before the last element
                assert checked == (dim_h if name in h_columns else _picks(ext.pair)), name
                passed.add(name)
    assert passed == set(_broken(ext))


def test_alpha_not_a_homomorphism_on_h_is_checked_on_all_of_h(monkeypatch):
    sol = solve_projective_b2(_projective_witness("group_type", {"base": "sl(3,R)"}))
    ext = sol.extension
    x = ext.pair.h_indices[0]
    # alpha(X_x) doubled: still in g_0, and b2 still intertwines there
    cols = {c: {r: v * (2 if c == x else 1) for r, v in col.items()}
            for c, col in ext.alpha.transpose().sparse.items()}
    doubled = Extension(ext.pair, ext.target,
                        Mat.from_sparse(ext.alpha.cols, ext.alpha.rows, cols).transpose())
    assert not validate(doubled).axioms["equivariance"].ok
    assert validate(doubled).axioms["alpha_h_in_g0"].ok
    assert x in [ext.pair.h_indices[s] for s in generating_indices(
        catalog.isotropy_rep(ext.pair).algebra)]  # a pick, so the chain fails at it
    assert _checked(monkeypatch, doubled, sol.b2) == (False, ext.pair.dim_h)


def test_a_block_that_leaves_its_grade_sends_the_check_to_all_of_h(monkeypatch):
    sol = solve_projective_b2(_projective_witness("group_type", {"base": "sl(3,R)"}))
    real = extension._ad_block
    monkeypatch.setattr(extension, "_ad_block", lambda *args: (real(*args)[0], False))
    assert _checked(monkeypatch, sol.extension, sol.b2) == (False, sol.extension.pair.dim_h)


def test_an_unrecorded_target_table_is_checked_on_all_of_h(monkeypatch):
    sol = solve_projective_b2(_projective_witness("group_type", {"base": "sl(3,R)"}))
    ext = sol.extension
    alg = ext.target.algebra
    copy = MatrixLieAlgebra(alg.ambient_size, alg.basis, alg.name,
                            StructureConstants(alg.dim, tuple(alg.constants.table)))
    target = dataclasses.replace(ext.target, algebra=copy)
    fresh = Extension(ext.pair, target, ext.alpha)
    n, dim_h = sol.b2.rows, ext.pair.dim_h
    assert _checked(monkeypatch, fresh, sol.b2) == (False, dim_h)
    assert _checked(monkeypatch, fresh, sol.b2 + Mat.unit(n, n, 0, n - 1))[0]


# -- the projective decision at the dimension cap ---------------------------------------


@pytest.mark.parametrize("base", ["so(7)", "sp(6,R)"])
def test_decide_projective_at_the_cap(base):
    pair = build_pair("group_type", {"base": base})
    verdict = classify.decide_projective(pair)
    assert pair.dim_m == 21 and verdict.verdict == classify.EXISTS
    assert verdict.witness.target.family == "projective"
    assert verdict.witness.target.params == {"n": 21}
    assert solve_projective_b2(verdict.witness).homogeneous_kernel_trivial
