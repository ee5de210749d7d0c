"""Seeded fuzzing of the command-line input boundary.

Each case writes a malformed input (a truncated or wrong-typed JSON file, a
ragged matrix, bad catalog parameters) and runs `cli.main` in-process.  A
run must end with exit code 0, 1 or 2 and print no traceback: an exception
escaping `main` fails the test.  The random draws only generate inputs.
Oversize parameters are checked against the size cap with the builders
swapped for a sentinel, so they are never built.
"""

from __future__ import annotations

import copy
import json
import random
import time

import pytest

from cartanext import catalog, cli, io
from cartanext.catalog import build_pair
from cartanext.classify import decide_projective

SEED = 20240
CASES = 60
JUNK = (None, True, False, 0, -1, 7, 2.5, "", "x", "1/0", [], [1], [[1, 2], [3]], {}, {"a": 1})


def _run(argv, capsys) -> int:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed command line with exit 2
        code = exc.code
    out = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.out + out.err, argv
    return code


def _paths(doc, prefix=()):
    """Every (path, value) in a JSON document, the root included."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _matrices(doc):
    """Paths of the lists of rows in a document."""
    return [path for path, v in _paths(doc)
            if isinstance(v, list) and v and all(isinstance(r, list) and r for r in v)]


def _mutate(rng: random.Random, doc) -> str:
    """The text of one malformed variant of `doc`."""
    text = io.canonical_dumps(doc)
    choice = rng.randrange(4)
    if choice == 0:  # truncated file
        return text[:rng.randrange(len(text))]
    if choice == 1:  # a value of the wrong type
        path, _ = rng.choice(list(_paths(doc)))
        return json.dumps(_replace(doc, path, rng.choice(JUNK)))
    if choice == 2 and _matrices(doc):  # a ragged matrix
        path = rng.choice(_matrices(doc))
        rows = copy.deepcopy(dict(_paths(doc))[path])
        row = rng.randrange(len(rows))
        if rng.random() < 0.5:
            rows[row] = rows[row][:-1]
        else:
            rows[row] = rows[row] + ["1"]
        return json.dumps(_replace(doc, path, rows))
    return rng.choice(("", "[]", "3", '"pair"', "null", "{", "{}", '{"schema": 3}'))


@pytest.fixture(scope="module")
def documents():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    witness = decide_projective(pair).witness
    algebra = {"ambient_size": 2, "name": "sl2",
               "basis": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]],
                         [["1", "0"], ["0", "-1"]]]}
    manifest = [
        {"kind": "graded", "family": "projective", "params": {"n": 2}},
        {"kind": "pair", "family": "group_type", "params": {"base": "sl(2,R)"}},
        {"kind": "row", "family": "grassmannian",
         "pair": {"family": "so_block", "params": {"a": 1, "b": 1, "c": 1, "d": 1}}},
    ]
    return {"pair": io.pair_to_json(pair), "extension": io.extension_to_json(witness),
            "algebra": algebra, "manifest": manifest}


def _commands(kind, path):
    if kind == "pair":
        return [["analyze-pair", "--pair", path],
                ["classify", "--pair", path, "--family", "projective"]]
    if kind == "extension":
        return [["check-extension", "--extension", path]]
    if kind == "manifest":
        return [["verify-catalog", "--manifest", path]]
    return [["verify-catalog", "--manifest", path.replace(".json", ".manifest.json")]]


@pytest.mark.parametrize("kind", ["pair", "extension", "algebra", "manifest"])
def test_malformed_files_end_without_a_traceback(kind, documents, tmp_path, capsys):
    rng = random.Random(f"{SEED}-{kind}")
    for case in range(CASES):
        path = tmp_path / f"{kind}{case}.json"
        path.write_text(_mutate(rng, documents[kind]), encoding="utf-8")
        if kind == "algebra":  # an algebra file is read through a manifest item
            manifest = [{"kind": "algebra_file", "path": str(path)}]
            (tmp_path / f"{kind}{case}.manifest.json").write_text(json.dumps(manifest))
        for argv in _commands(kind, str(path)):
            _run(argv, capsys)


def _random_params(rng: random.Random, names, low, high) -> dict:
    params = {}
    for name in names:
        if rng.random() < 0.1:
            continue  # a missing parameter
        params[name] = rng.randint(low, high) if rng.random() < 0.7 else rng.choice(JUNK)
    if rng.random() < 0.1:
        params[rng.choice(("zz", "n", "p"))] = rng.choice(JUNK)
    return params


def _params_text(params: dict) -> str:
    return ",".join(f"{k}={json.dumps(v) if not isinstance(v, (int, str)) else v}"
                    for k, v in params.items())


_GRADED_NAMES = {family: names for family, (names, _) in catalog._GRADED_SIZES.items()}
_PAIR_NAMES = {family: names for family, (names, _) in catalog._PAIR_SIZES.items()}
_BASES = ("sl(2,R)", "so(3)", "su(2)", "sl(0,R)", "so(2)", "sl(2,Q)", "x", "", "sp(-1,R)")


def test_bad_catalog_params_end_without_a_traceback(tmp_path, capsys):
    rng = random.Random(f"{SEED}-params")
    for case in range(2 * CASES):
        graded = rng.random() < 0.5
        family = rng.choice(sorted(_GRADED_NAMES if graded else _PAIR_NAMES))
        if rng.random() < 0.05:
            family = rng.choice(("", "nope", "direct_sum", "projective_factor"))
        names = (_GRADED_NAMES if graded else _PAIR_NAMES).get(family, ("n",))
        params = _random_params(rng, names, -2, 1)
        if family == "group_type" and rng.random() < 0.7:
            params["base"] = rng.choice(_BASES)
        _run(["build", "--family", family, "--params", _params_text(params)], capsys)
        # the same parameters through a manifest, where they keep their JSON types
        kind = "graded" if graded else "pair"
        path = tmp_path / f"params{case}.json"
        path.write_text(json.dumps([{"kind": kind, "family": family, "params": params}]))
        _run(["verify-catalog", "--manifest", str(path)], capsys)


def test_oversize_params_are_refused_by_the_cap_alone(monkeypatch, tmp_path, capsys):
    def never(*args):
        raise AssertionError("a catalog object was built for parameters over the cap")

    monkeypatch.setattr(catalog, "_build_graded_cached", never)
    monkeypatch.setattr(catalog, "_build_pair_cached", never)
    rng = random.Random(f"{SEED}-oversize")
    for case in range(CASES):
        graded = rng.random() < 0.5
        if graded:
            family = rng.choice(sorted(_GRADED_NAMES))
            params = {name: rng.randint(40, 10 ** 6) for name in _GRADED_NAMES[family]}
            kind = "graded"
        else:
            family = rng.choice(sorted(set(_PAIR_NAMES) - {"group_type"}))
            params = {name: rng.randint(40, 10 ** 6) for name in _PAIR_NAMES[family]}
            kind = "pair"
            if rng.random() < 0.3:  # a direct sum whose parts are over the cap together
                part = {"family": "so_complex", "params": {"n": rng.randint(5, 16)}}
                family, params = "direct_sum", {"parts": [part] * rng.randint(2, 6)}
                params["parts"][0] = {"family": "so_complex", "params": {"n": 16}}
        assert _run(["build", "--family", family, "--params", _params_text(params)],
                    capsys) == 2
        path = tmp_path / f"oversize{case}.json"
        path.write_text(json.dumps([{"kind": kind, "family": family, "params": params}]))
        _run(["verify-catalog", "--manifest", str(path)], capsys)
        run = cli.run_verify_catalog([{"kind": kind, "family": family, "params": params}], 0)
        detail = run["items"][0]["checks"][0]["detail"]
        assert run["overall"] == "FAIL" and "exceeds the desk-scale cap" in detail, detail


@pytest.mark.parametrize("family, params", [("conformal", "p=-200,q=230"),
                                            ("so_block", "a=-1,b=2,c=1,d=1")])
def test_negative_params_are_input_errors(family, params, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a catalog object was built for a negative parameter")

    monkeypatch.setattr(catalog, "_build_graded_cached", never)
    monkeypatch.setattr(catalog, "_build_pair_cached", never)
    assert _run(["build", "--family", family, "--params", params], capsys) == 2


def test_conformal_model_without_tangent_directions_is_an_input_error(capsys):
    assert cli.main(["build", "--family", "conformal_model", "--params", "k=0,l=0"]) == 2
    err = capsys.readouterr().err
    assert "conformal_model needs k + l >= 1" in err and "Traceback" not in err


def _algebra_item(run) -> str:
    """The detail of the one check of a one-item run, which must have failed."""
    assert run["overall"] == "FAIL" and run["items"][0]["status"] == "FAIL", run
    return run["items"][0]["checks"][0]["detail"]


def test_deeply_nested_arrays_are_input_errors(tmp_path, capsys):
    # 200,000 nested arrays, 400 KB: the JSON decoder runs out of recursion
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert _run(["check-extension", "--extension", str(path)], capsys) == 2
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"kind": "algebra_file", "path": str(path)}]))
    assert _run(["verify-catalog", "--manifest", str(manifest)], capsys) == 1
    detail = _algebra_item(cli.run_verify_catalog([{"kind": "algebra_file",
                                                    "path": str(path)}], 0))
    assert detail.startswith(f"invalid JSON in {path}"), detail


def test_an_exponent_entry_is_a_quick_per_item_fail(tmp_path, capsys):
    # a 70-byte algebra file whose one entry Fraction(str) expands to a
    # 200-million-digit integer, which took more than a minute
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"schema": "algebra", "ambient_size": 1,
                                "basis": [[["1e200000000"]]]}))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"kind": "algebra_file", "path": str(path)}]))
    start = time.process_time()
    assert _run(["verify-catalog", "--manifest", str(manifest)], capsys) == 1
    detail = _algebra_item(cli.run_verify_catalog([{"kind": "algebra_file",
                                                    "path": str(path)}], 0))
    assert time.process_time() - start < 1.0
    assert detail == "cannot parse rational from '1e200000000'", detail
