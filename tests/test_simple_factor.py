"""A simple pair is its own factor.

`factor_decomposition` returns a pair with one sigma-orbit of simple ideals
as its own single factor, embedded by the identity, and rebuilds only the
factors of a pair with several orbits.  The analyses that read the factors
are compared here, field by field, against the same analyses run with
`conftest.reference_factor_decomposition`, which rebuilds every factor as a
new pair.  The pair's dataclass behaviour does not change once its factors
are memoized, although a simple pair's memo refers to the pair itself, and
pairs compare by content.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from cartanext import catalog, classify, cli, io
from cartanext.catalog import build_pair, direct_sum_pairs, factor_decomposition

from conftest import reference_factor_decomposition


def _group(base: str):
    return build_pair("group_type", {"base": base})


def _default_pairs() -> list:
    return [build_pair(f, p) for f, p in catalog.default_pair_grid()]


def _sums() -> list:
    return [direct_sum_pairs([_group(a), _group(b)])
            for a, b in (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"))]


def _reference(pair) -> list:
    # on a copy, so that the reference solves the centroid anew rather than
    # read the one the engine kept on the pair
    return reference_factor_decomposition(dataclasses.replace(pair))


def _use_the_reference(monkeypatch) -> None:
    """Run the analyses with every factor rebuilt as a new pair."""
    monkeypatch.setattr(catalog, "factor_decomposition", _reference)
    monkeypatch.setattr(classify, "factor_decomposition", _reference)


def _fields(report) -> dict:
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def _analyses(pair) -> tuple:
    return (_fields(classify.centralizer_report(pair)),
            _fields(classify.decide_conformal(pair)))


def _analyze_pair_json(pair, tmp_path) -> str:
    path, out = tmp_path / "pair.json", tmp_path / "analysis.json"
    path.write_text(io.canonical_dumps(io.pair_to_json(pair)))
    assert cli.main(["analyze-pair", "--pair", str(path), "--out", str(out)]) == cli.OK
    return out.read_text()


@pytest.mark.parametrize("copied", [False, True], ids=["pair", "replace copy"])
def test_analyses_match_the_rebuilt_factors(copied, monkeypatch):
    pairs = _default_pairs() + _sums()
    if copied:
        pairs = [dataclasses.replace(p) for p in pairs]
    got = [_analyses(p) for p in pairs]
    _use_the_reference(monkeypatch)
    for pair, result in zip(pairs, got):
        for part, want_part in zip(result, _analyses(pair)):
            for name, value in want_part.items():
                assert part[name] == value, (pair.name, name)


def test_analyze_pair_json_matches_the_rebuilt_factors(monkeypatch, tmp_path):
    pairs = _default_pairs() + _sums()
    got = [_analyze_pair_json(p, tmp_path) for p in pairs]
    _use_the_reference(monkeypatch)
    for pair, text in zip(pairs, got):
        assert _analyze_pair_json(pair, tmp_path) == text, pair.name


# -- the dataclass behaviour of a pair with memoized factors --------------------


@pytest.mark.parametrize("make", [
    lambda: build_pair("sl_block", {"p": 1, "q": 1}),
    lambda: _group("sl(2,C)"),
    lambda: direct_sum_pairs([_group("sl(2,R)"), _group("so(3)")]),
], ids=["block pair", "group type", "sum"])
def test_factored_pair_keeps_its_dataclass_behaviour(make):
    pair = dataclasses.replace(make())  # a copy with no memo yet
    catalog.centroid(pair)
    before = (repr(pair), dataclasses.asdict(pair))
    factors = factor_decomposition(pair)
    assert (repr(pair), dataclasses.asdict(pair)) == before
    assert "_derived" not in repr(before)
    assert dataclasses.replace(pair) == pair != dataclasses.replace(pair, family="x")
    assert "factor_decomposition" not in dataclasses.replace(pair)._derived
    twin = copy.deepcopy(pair)
    assert twin == pair and repr(twin) == repr(pair) and twin.k_algebra is not pair.k_algebra
    assert [f.group_type for f in factor_decomposition(twin)] == [f.group_type for f in factors]
    if len(factors) == 1:
        assert twin._derived["factor_decomposition"][0].pair is twin
    # two equal sums are equal, and so are their algebras and the algebras' hashes
    parts = [_group("sl(2,R)"), _group("so(3)")]
    one, other = direct_sum_pairs(parts), direct_sum_pairs(parts)
    assert one.k_algebra is not other.k_algebra
    assert one == other and hash(one.k_algebra) == hash(other.k_algebra)
    # the equality still reads every field, and the algebra's name
    renamed = copy.deepcopy(pair.k_algebra)
    renamed.name += "'"
    assert renamed != pair.k_algebra
    assert dataclasses.replace(pair, k_algebra=renamed) != pair
