"""Command-line driver: exit codes, round-trips, determinism."""

import json

import pytest

from cartanext import extension, io
from cartanext.cli import default_manifest, main, run_verify_catalog


def run(args):
    return main(args)


def test_build_projective(tmp_path):
    out = tmp_path / "projective.json"
    assert run(["build", "--family", "projective", "--params", "n=2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "graded"
    assert len(data["basis"]) == 8


def test_build_pair(tmp_path):
    out = tmp_path / "pair.json"
    assert run(["build", "--family", "group_type", "--params", "base=sl(2,R)",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "pair"
    assert len(data["basis"]) == 6


def test_build_unknown_family_exits_2():
    assert run(["build", "--family", "e7", "--params", "n=1"]) == 2


def test_build_bad_params_exits_2():
    assert run(["build", "--family", "projective", "--params", "n=40"]) == 2


def test_build_missing_param_exits_2(capsys):
    assert run(["build", "--family", "projective", "--params", "m=3"]) == 2
    err = capsys.readouterr().err
    assert "'n'" in err and "Traceback" not in err


def test_build_pair_bad_params_exit_2(capsys):
    for params, name in (("p=1", "'q'"), ("p=x,q=1", "'p'"), ("base=sl(x,R)", "'base'")):
        family = "group_type" if "base" in params else "sl_block"
        assert run(["build", "--family", family, "--params", params]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


def test_verify_catalog_bad_pair_params_fail_per_item():
    manifest = [
        {"kind": "pair", "family": "sl_block", "params": {"p": 1}},
        {"kind": "pair", "family": "sl_block", "params": {"p": [1], "q": 1}},
        {"kind": "pair", "family": "sl_block"},
        {"kind": "row", "family": "projective",
         "pair": {"family": "group_type", "params": {"base": ["sl(2,R)"]}}},
        {"kind": "graded", "family": "projective"},
        {"kind": "pair", "family": "sl_block", "params": {"p": 1, "q": 1}},
    ]
    result = run_verify_catalog(manifest, seed=0)
    assert [item["status"] for item in result["items"]] == ["FAIL"] * 5 + ["PASS"]
    details = [item["checks"][0]["detail"] for item in result["items"][:5]]
    assert "'q'" in details[0] and "'p'" in details[1] and "mapping" in details[2]
    assert "'base'" in details[3] and "mapping" in details[4]


@pytest.mark.parametrize("item, field", [
    ({"kind": "pair"}, "'family'"),
    ({"kind": "row", "family": "projective", "pair": "x"}, "'pair'"),
    ({"kind": "algebra_file"}, "'path'"),
    (["graded"], "mapping"),
])
def test_verify_catalog_malformed_item_fails_per_item(item, field, tmp_path, capsys):
    result = run_verify_catalog([item], seed=0)
    assert result["counts"] == {"pass": 0, "fail": 1, "undecided": 0}
    assert field in result["items"][0]["checks"][0]["detail"]
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps([item]))
    for fmt in ("json", "md"):
        assert run(["verify-catalog", "--manifest", str(man), "--format", fmt]) == 1
        assert field in capsys.readouterr().out


@pytest.mark.parametrize("expected, field", [
    ("x", "'expected'"),
    ([8, 2], "'expected'"),
    ({"dim_gm1": 2}, "'dim_g'"),
    ({"dim_g": 8}, "'dim_gm1'"),
    ({"dim_g": "8", "dim_gm1": 2}, "'dim_g'"),
])
def test_verify_catalog_bad_expected_fails_per_item(expected, field, tmp_path, capsys):
    item = {"kind": "graded", "family": "projective", "params": {"n": 2}, "expected": expected}
    good = {"kind": "graded", "family": "projective", "params": {"n": 2},
            "expected": {"dim_g": 8, "dim_gm1": 2}}
    result = run_verify_catalog([item, good], seed=0)
    assert [i["status"] for i in result["items"]] == ["FAIL", "PASS"]
    assert field in result["items"][0]["checks"][0]["detail"]
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps([item]))
    assert run(["verify-catalog", "--manifest", str(man)]) == 1
    captured = capsys.readouterr()
    assert field in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_verify_catalog_unreadable_algebra_file_fails_per_item(where, tmp_path, capsys):
    path = tmp_path / "absent.json" if where == "missing" else tmp_path
    item = {"kind": "algebra_file", "path": str(path)}
    good = {"kind": "graded", "family": "projective", "params": {"n": 2}}
    result = run_verify_catalog([item, good], seed=0)
    assert [i["status"] for i in result["items"]] == ["FAIL", "PASS"]
    check = result["items"][0]["checks"][0]
    assert check["name"] == "closure" and str(path) in check["detail"]
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps([item]))
    assert run(["verify-catalog", "--manifest", str(man)]) == 1
    captured = capsys.readouterr()
    assert str(path) in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("content, detail", [
    ("{not json", "invalid JSON"),
    ('{"schema": "algebra", "basis": 3}', "'basis'"),
    ('[[["1"]]]', "JSON object"),
    ('{"basis": [[["1", "0"]]], "ambient_size": 2}', "'basis'"),
    ('{"basis": [[["1/0"]]], "ambient_size": 1}', "rational"),
    ('{"basis": [[["1"]]], "ambient_size": "1"}', "'ambient_size'"),
])
def test_verify_catalog_malformed_algebra_file_fails_per_item(content, detail, tmp_path,
                                                              capsys):
    path = tmp_path / "algebra.json"
    path.write_text(content)
    item = {"kind": "algebra_file", "path": str(path)}
    good = {"kind": "graded", "family": "projective", "params": {"n": 2}}
    result = run_verify_catalog([item, good], seed=0)
    assert [i["status"] for i in result["items"]] == ["FAIL", "PASS"]
    check = result["items"][0]["checks"][0]
    assert check["name"] == "closure" and detail in check["detail"]
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps([item]))
    assert run(["verify-catalog", "--manifest", str(man)]) == 1
    captured = capsys.readouterr()
    assert detail in captured.out and "Traceback" not in captured.err


def test_invalid_json_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify-catalog", "--manifest", str(bad)]) == 2
    assert run(["analyze-pair", "--pair", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("input error: invalid JSON") == 2 and "Traceback" not in err


def test_pair_item_computes_two_curvatures(monkeypatch):
    calls = []
    real = extension.curvature

    def counted(ext):
        calls.append(ext)
        return real(ext)

    monkeypatch.setattr(extension, "curvature", counted)
    item = {"kind": "pair", "family": "group_type", "params": {"base": "sl(3,R)"}}
    assert run_verify_catalog([item], seed=0)["overall"] == "PASS"
    # the b2 right-hand side and the normalized witness, whose curvature
    # serves the contraction and torsion checks inside decide_projective
    assert len(calls) == 2


def test_unreadable_input_path_exits_2(tmp_path, capsys):
    assert run(["verify-catalog", "--manifest", str(tmp_path)]) == 2
    assert run(["analyze-pair", "--pair", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("input error") == 2 and "Traceback" not in err


def test_round_trip_byte_identical(tmp_path):
    out = tmp_path / "g.json"
    run(["build", "--family", "conformal", "--params", "p=1,q=2", "--out", str(out)])
    text1 = out.read_text()
    reloaded = io.graded_from_json(json.loads(text1))
    text2 = io.canonical_dumps(io.graded_to_json(reloaded))
    assert text1 == text2


def test_pair_round_trip_byte_identical(tmp_path):
    out = tmp_path / "p.json"
    run(["build", "--family", "sl_block", "--params", "p=1,q=1", "--out", str(out)])
    text1 = out.read_text()
    reloaded = io.pair_from_json(json.loads(text1))
    assert io.canonical_dumps(io.pair_to_json(reloaded)) == text1


def test_classify_projective(tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    run(["build", "--family", "group_type", "--params", "base=sl(2,R)",
         "--out", str(pair_path)])
    out = tmp_path / "verdict.json"
    assert run(["classify", "--pair", str(pair_path), "--family", "projective",
                "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["verdict"] == "EXISTS"
    assert verdict["equivalence"]["classes"] == "unique"


def test_classify_h_projective_not_exists(tmp_path):
    pair_path = tmp_path / "pair.json"
    run(["build", "--family", "group_type", "--params", "base=sl(2,R)",
         "--out", str(pair_path)])
    out = tmp_path / "verdict.json"
    run(["classify", "--pair", str(pair_path), "--family", "h_projective",
         "--out", str(out)])
    assert json.loads(out.read_text())["verdict"] == "NOT_EXISTS"


def test_classify_markdown(tmp_path):
    pair_path = tmp_path / "pair.json"
    run(["build", "--family", "group_type", "--params", "base=sl(2,R)",
         "--out", str(pair_path)])
    out = tmp_path / "verdict.md"
    run(["classify", "--pair", str(pair_path), "--family", "projective",
         "--format", "md", "--out", str(out)])
    text = out.read_text()
    assert "EXISTS" in text and "Instantiates:" in text


def test_check_extension_report(tmp_path):
    from cartanext import classify
    from cartanext.catalog import build_graded, build_pair

    pair = build_pair("so_block", {"a": 1, "b": 1, "c": 1, "d": 1})
    target = build_graded("grassmannian", {"p": 2, "q": 2})
    ext = classify.inclusion_witness(pair, target)
    path = tmp_path / "ext.json"
    io.dump_json(str(path), io.extension_to_json(ext))
    out = tmp_path / "report.json"
    assert run(["check-extension", "--extension", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["axioms"] == {
        "alpha_h_in_g0": True,
        "alpha_m_zero_g0_component": True,
        "frame_invertible": True,
        "equivariance": True,
    }
    assert report["torsion_free"] and report["flat"]
    assert report["kappa_nonzero_entries"] == 0
    assert report["b2_unique"] is None


def test_analyze_pair(tmp_path):
    pair_path = tmp_path / "pair.json"
    run(["build", "--family", "group_type", "--params", "base=sl(2,R)",
         "--out", str(pair_path)])
    out = tmp_path / "analysis.json"
    assert run(["analyze-pair", "--pair", str(pair_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["semisimple"] is True
    assert report["killing_restriction_signature"] == [2, 1, 0]
    assert report["factor_commutants"] == ["R"]


SMALL_MANIFEST = [
    {"kind": "graded", "family": "projective", "params": {"n": 2}},
    {"kind": "graded", "family": "conformal", "params": {"p": 1, "q": 1}},
    {"kind": "pair", "family": "group_type", "params": {"base": "sl(2,R)"}},
    {"kind": "row", "family": "grassmannian",
     "pair": {"family": "so_block", "params": {"a": 1, "b": 1, "c": 1, "d": 1}}},
]


def test_verify_catalog_small_manifest(tmp_path):
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(SMALL_MANIFEST))
    out = tmp_path / "run.json"
    assert run(["verify-catalog", "--manifest", str(man), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["overall"] == "PASS"
    assert result["counts"] == {"pass": 4, "fail": 0, "undecided": 0}


def test_verify_catalog_empty_manifest(tmp_path):
    man = tmp_path / "manifest.json"
    man.write_text("[]")
    assert run(["verify-catalog", "--manifest", str(man)]) == 0


def test_verify_catalog_undecided_row_does_not_fail(tmp_path):
    manifest = [{"kind": "row", "family": "grassmannian",
                 "pair": {"family": "group_type", "params": {"base": "sl(2,R)"}}}]
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(manifest))
    out = tmp_path / "run.json"
    assert run(["verify-catalog", "--manifest", str(man), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["overall"] == "PASS"
    assert result["counts"] == {"pass": 0, "fail": 0, "undecided": 1}


def test_verify_catalog_corrupted_algebra_file(tmp_path):
    pair_path = tmp_path / "pair.json"
    run(["build", "--family", "group_type", "--params", "base=sl(2,R)",
         "--out", str(pair_path)])
    data = json.loads(pair_path.read_text())
    # two basis elements whose bracket escapes their span
    algebra = {"schema": "algebra", "name": "corrupt",
               "ambient_size": data["ambient_size"],
               "basis": [data["basis"][0], data["basis"][1]]}
    bad_path = tmp_path / "bad_algebra.json"
    bad_path.write_text(json.dumps(algebra))
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps([{"kind": "algebra_file", "path": str(bad_path)}]))
    out = tmp_path / "run.json"
    assert run(["verify-catalog", "--manifest", str(man), "--out", str(out)]) == 1
    result = json.loads(out.read_text())
    assert result["overall"] == "FAIL"
    detail = result["items"][0]["checks"][0]["detail"]
    assert "not closed under bracket" in detail or "dependent" in detail


def test_verify_catalog_deterministic():
    run1 = run_verify_catalog(SMALL_MANIFEST, seed=3)
    run2 = run_verify_catalog(SMALL_MANIFEST, seed=3)
    run1.pop("timings_ms")
    run2.pop("timings_ms")
    assert io.canonical_dumps(run1) == io.canonical_dumps(run2)


def test_default_grid_does_not_depend_on_the_seed():
    texts = set()
    for seed in (0, 7, 20240):
        run_ = run_verify_catalog(default_manifest(), seed)
        assert run_.pop("seed") == seed
        run_.pop("timings_ms")
        texts.add(io.canonical_dumps(run_))
    assert len(texts) == 1


def test_seed_env_override(tmp_path, monkeypatch):
    man = tmp_path / "manifest.json"
    man.write_text("[]")
    out = tmp_path / "run.json"
    monkeypatch.setenv("CARTAN_EXT_SEED", "42")
    run(["verify-catalog", "--manifest", str(man), "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 42


def test_verify_catalog_default_grid(tmp_path):
    out = tmp_path / "run.json"
    assert run(["verify-catalog", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["overall"] == "PASS"
    assert result["counts"]["fail"] == 0
    assert result["counts"]["pass"] == len(default_manifest())


def test_verify_catalog_markdown(tmp_path):
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(SMALL_MANIFEST))
    out = tmp_path / "run.md"
    assert run(["verify-catalog", "--manifest", str(man), "--format", "md",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "Overall: **PASS**" in text
    assert "[one-graded-structure-axioms]" in text


def test_default_manifest_covers_grid():
    manifest = default_manifest()
    kinds = {item.get("kind") for item in manifest}
    assert kinds == {"graded", "pair", "row"}
    graded = [i for i in manifest if i["kind"] == "graded"]
    assert len(graded) >= 20
    for item in graded:
        assert "expected" in item
