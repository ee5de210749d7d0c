"""The sparse extension layer against the dense one it replaced.

`validate`, `curvature`, `Curvature.evaluate`, `dstar_projective`,
`_assert_b2_equivariant` and the b2 solve must give exactly what the dense
versions kept in conftest.py give: the same axioms with the same witness
lists in the same order, the same curvature values, contractions and b2.
They are compared on the projective witnesses of the default pair grid, on
the row witnesses of the default manifest, and on broken copies of both.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from cartanext import catalog, classify, cli, extension
from cartanext.catalog import build_graded, build_pair
from cartanext.equivalence import _is_automorphism
from cartanext.errors import InternalCheckError
from cartanext.extension import (
    Extension,
    _assert_b2_equivariant,
    curvature,
    dstar_projective,
    solve_projective_b2,
    validate,
)
from cartanext.lie import StructureConstants
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
