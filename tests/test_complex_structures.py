"""One per-factor complex-structure routine against the two it replaced.

`lie.factor_complex_structure` builds J with J^2 = -p on the factor pA of a
commutative matrix algebra.  `invariant_complex_structures` (the C and CxC
commutants) and `classify._centroid_complex_structures` both call it.  Each
must give what the parent's builders, kept verbatim in conftest.py, give:
the same status, label, note and J list in the same order, and the same
`decide_h_projective` verdicts and witnesses.  They are compared on the
default pair grid, on the three direct sums of the analysis benchmark and on
hand-built representations of every commutant type, whose commutative
commutants also stand in for centroids with two complex factors or an
irrational one, which the grid lacks.
"""

import pytest

from cartanext import bases, catalog, classify, io
from cartanext.catalog import build_pair, direct_sum_pairs, isotropy_rep
from cartanext.lie import (
    Representation,
    commutant,
    factor_complex_structure,
    invariant_complex_structures,
    make_algebra,
    split_idempotents,
)
from cartanext.linalg import Mat, invert
from conftest import (
    reference_centroid_complex_structures,
    reference_invariant_complex_structures,
)

# the three direct sums of the analysis benchmark
SUM_BASES = (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"))
PAIR_SPECS = ([("grid", f, p) for f, p in catalog.default_pair_grid()]
              + [("sum", "direct_sum", bases_) for bases_ in SUM_BASES])


def _pair(spec):
    kind, family, params = spec
    if kind == "grid":
        return build_pair(family, params)
    return direct_sum_pairs([build_pair("group_type", {"base": b}) for b in params])


def _same_result(new, ref):
    assert (new.status, new.label, new.note) == (ref.status, ref.label, ref.note)
    assert new.structures == ref.structures


def _block_diag(*blocks):
    n = sum(b.rows for b in blocks)
    data, offset = {}, 0
    for b in blocks:
        for r, row in b.sparse.items():
            data[offset + r] = {offset + c: v for c, v in row.items()}
        offset += b.rows
    return Mat.from_sparse(n, n, data)


ROT = Mat.from_rows([[0, -1], [1, 0]])  # J itself: Q(i), a rational J
ROT2 = Mat.from_rows([[0, -2], [1, 0]])  # square -2: Q(sqrt -2), no rational J in its span
Z2 = Mat.zero(2, 2)


def _sl2():
    return [Mat.from_rows([[0, 1], [0, 0]]), Mat.from_rows([[1, 0], [0, -1]]),
            Mat.from_rows([[0, 0], [1, 0]])]


def _rep(name, action, carrier):
    return Representation(make_algebra(action, name), carrier, action)


def _hand_built():
    """One representation per commutant type, with the label it must get."""
    sl2 = _sl2()
    sl2_alg = make_algebra(sl2, "sl2")
    adjoint = sl2_alg.adjoint_representation()
    li, lj, lk = (bases.quaternion_elementary(1, 0, 0, q) for q in (bases.Q_I, bases.Q_J, bases.Q_K))
    s = Mat.from_rows([[-2, -2, 2, 0], [1, 3, 1, 0], [0, 2, 3, -2], [-2, 2, -2, 3]])
    s_inv = invert(s)
    return {
        "R": adjoint,
        "RxR": Representation(sl2_alg, 5, [_block_diag(m, a) for m, a in zip(sl2, adjoint.action)]),
        "C": _rep("so2", [ROT], 2),
        "C-irrational": _rep("so2'", [ROT2], 2),
        "CxC": _rep("so2xso2", [_block_diag(ROT, Z2), _block_diag(Z2, ROT)], 4),
        "CxC-irrational": _rep("so2xso2'", [_block_diag(ROT, Z2), _block_diag(Z2, ROT2)], 4),
        "H": _rep("sp1", [li, lj, lk], 4),
        "OTHER": Representation(sl2_alg, 4, [s @ _block_diag(m, m) @ s_inv for m in sl2]),
        "odd": Representation(make_algebra([Mat.from_rows([[0, 1], [0, 0]])], "n"), 1,
                              [Mat.zero(1, 1)]),
        "sl2C-adjoint": make_algebra(bases.complexify(bases.sl_basis(2)),
                                     "sl2C").adjoint_representation(),
    }


HAND_BUILT = _hand_built()
LABELS = {"R": "R", "RxR": "RxR", "C": "C", "C-irrational": "C", "CxC": "CxC",
          "CxC-irrational": "CxC", "H": "H", "OTHER": "OTHER", "odd": "R", "sl2C-adjoint": "C"}


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: f"{s[1]}-{s[2]}")
def test_invariant_complex_structures_match_reference_on_pairs(spec):
    pair = _pair(spec)
    rep = isotropy_rep(pair)
    _same_result(invariant_complex_structures(rep), reference_invariant_complex_structures(rep))
    for f in catalog.factor_decomposition(pair):
        frep = isotropy_rep(f.pair)
        _same_result(invariant_complex_structures(frep),
                     reference_invariant_complex_structures(frep))


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_invariant_complex_structures_match_reference_on_hand_built(name):
    rep = HAND_BUILT[name]
    assert commutant(rep).label == LABELS[name]
    new = invariant_complex_structures(rep)
    _same_result(new, reference_invariant_complex_structures(rep))
    if name.endswith("irrational"):
        assert new.status == "undecided"
    for j in new.structures:
        assert j @ j == -Mat.identity(rep.carrier_dim)
        assert all(j @ a == a @ j for a in rep.action)


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: f"{s[1]}-{s[2]}")
def test_centroid_complex_structures_match_reference(spec):
    pair = _pair(spec)
    assert classify._centroid_complex_structures(pair) == reference_centroid_complex_structures(pair)


def _verdict_bytes(v) -> list:
    witnesses = [io.canonical_dumps(io.extension_to_json(w)) if w is not None else None
                 for w in (v.witness, v.conjugate_witness)]
    return [io.canonical_dumps(io.verdict_to_json(v)), witnesses, v.complex_structure]


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: f"{s[1]}-{s[2]}")
def test_decide_h_projective_matches_reference(spec, monkeypatch):
    pair = _pair(spec)
    new = _verdict_bytes(classify.decide_h_projective(pair))
    monkeypatch.setattr(classify, "_centroid_complex_structures",
                        reference_centroid_complex_structures)
    assert new == _verdict_bytes(classify.decide_h_projective(pair))


def test_h_projective_verdicts_of_the_grid():
    """Both decided outcomes of the centroid routine occur in the sweep."""
    verdicts = {}
    for spec in PAIR_SPECS:
        pair = _pair(spec)
        verdicts.setdefault(classify.decide_h_projective(pair).reason, []).append(pair.name)
    assert set(verdicts) == {"a simple factor has real centroid",
                             "invariant complex structure found"}
    assert verdicts["invariant complex structure found"] == ["group(sl(2,C))"]


@pytest.mark.parametrize("name", ["R", "RxR", "C", "C-irrational", "CxC", "CxC-irrational"])
def test_centroid_complex_structures_match_reference_on_hand_built(name, monkeypatch):
    # the grid has no centroid with two complex factors or an irrational one,
    # so the commutative hand-built commutants stand in for centroids
    import conftest

    basis = commutant(HAND_BUILT[name]).commutant_basis
    split = (basis, split_idempotents(basis) if len(basis) > 1 else [Mat.identity(basis[0].rows)])
    for module in (classify, conftest):
        monkeypatch.setattr(module, "centroid", lambda pair: split)
    new = classify._centroid_complex_structures(None)
    assert new == reference_centroid_complex_structures(None)
    assert new[0] == {"R": "none", "RxR": "none", "C": "decided", "CxC": "decided"}.get(
        name, "undecided")
    assert len(new[1]) == {"C": 2, "CxC": 4}.get(name, 0)


# -- the routine on its own ------------------------------------------------------


def test_factor_complex_structure_statuses():
    one = Mat.identity(2)
    status, j = factor_complex_structure(one, [one, ROT])
    assert status == "decided" and j == ROT  # b = 1 is the positive root
    assert factor_complex_structure(one, [one]) == ("none", None)
    assert factor_complex_structure(one, [one, ROT2]) == ("undecided", None)
    # g^2 = I: t^2 + 4 s = 4 > 0, a split factor
    assert factor_complex_structure(one, [one, Mat.diag([1, -1])]) == ("undecided", None)
    # a nilpotent g with g^2 outside span{p, g}
    n3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert factor_complex_structure(Mat.identity(3), [n3]) == ("undecided", None)


def test_factor_complex_structure_on_a_factor():
    # p projects onto the second block; g = p b is the first p b independent of p
    p = _block_diag(Z2, Mat.identity(2))
    basis = [Mat.identity(4), _block_diag(ROT, Z2), _block_diag(Z2, ROT.scale(3) + Mat.identity(2))]
    status, j = factor_complex_structure(p, basis)
    assert status == "decided"
    assert j == _block_diag(Z2, ROT)
    assert j @ j == -p
