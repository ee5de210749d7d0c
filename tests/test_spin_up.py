"""Commutants by spin-up against the d^2 reference.

`lie.commutant_basis` solves for the values of T on a few root vectors and
may stop before it has used every relation.  Each branch this adds is
compared, entry for entry, with `conftest.reference_commutant_basis`, which
solves the whole d^2 system over every action matrix:
- several roots, whose unknowns sit in separate blocks;
- a stall whose commutation check fails, so that elimination goes on;
- a stall whose check holds, and one candidate left, which is the identity's;
- a last relation that still adds a pivot, so that every row is used;
- carrier dimensions 0 and 1;
- the hand-built representations of every commutant type;
- the factors of the three direct sums of the analysis benchmark (the sums
  themselves, the default pairs and an abelian algebra are swept in
  `test_generators.py`).
"""

import pytest

from cartanext import catalog, lie
from cartanext.catalog import build_pair, direct_sum_pairs, isotropy_rep
from cartanext.lie import Representation, commutant, commutant_basis, make_algebra
from cartanext.linalg import Mat
from conftest import reference_commutant_basis
from test_complex_structures import HAND_BUILT, SUM_BASES, _block_diag, _sl2

SL2 = make_algebra(_sl2(), "sl2")


def _factors_of_sums() -> list:
    reps = []
    for bases_ in SUM_BASES:
        pair = direct_sum_pairs([build_pair("group_type", {"base": b}) for b in bases_])
        for n, f in enumerate(catalog.factor_decomposition(pair)):
            reps.append((f"ad {pair.name} factor {n}", f.pair.k_algebra.adjoint_representation()))
            reps.append((f"iso {pair.name} factor {n}", isotropy_rep(f.pair)))
    return reps


def _cases() -> list:
    diag = [Mat.unit(3, 3, i, i) for i in range(3)]
    h = Mat.diag([1, -1])  # e_0 and e_1 are roots, and each relation fixes one
    cases = [
        ("V+V", Representation(SL2, 4, [_block_diag(m, m) for m in _sl2()])),
        ("diag(3)", Representation(make_algebra(diag, "diag(3)"), 3, diag)),
        ("torus", Representation(make_algebra([h], "torus"), 2, [h])),
        ("carrier 0", Representation(SL2, 0, [Mat.zero(0, 0)] * 3)),
        ("carrier 1", Representation(SL2, 1, [Mat.zero(1, 1)] * 3)),
    ]
    cases += [(f"hand-built {name}", rep) for name, rep in sorted(HAND_BUILT.items())]
    return cases + _factors_of_sums()


CASES = _cases()


@pytest.mark.parametrize("label, rep", CASES, ids=[label for label, _ in CASES])
def test_spin_up_matches_the_d2_reference(label, rep):
    basis = commutant_basis(rep)
    assert basis == reference_commutant_basis(rep)
    assert all(t @ a == a @ t for t in basis for a in rep.action)


def _recording(monkeypatch, name):
    """Wrap lie.<name> so that each call's arguments and result are kept."""
    calls = []
    real = getattr(lie, name)

    def wrapper(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(lie, name, wrapper)
    return calls


def _recording_echelon(monkeypatch):
    """Wrap lie._echelon, which `commutant_basis` calls once for each
    relation it feeds, keeping per call the number of candidates and the
    number of echelon rows before and after it."""
    calls = []
    real = lie._echelon

    def wrapper(rows, width, pivots):
        before = len(pivots)
        out = real(rows, width, pivots)
        calls.append((width, before, len(pivots)))
        return out

    monkeypatch.setattr(lie, "_echelon", wrapper)
    return calls


def _recording_brackets(monkeypatch):
    """Replace lie._BracketIndex by a subclass that keeps, for each
    `brackets` call, the number of matrices held, the argument and the
    result."""
    calls = []

    class Recording(lie._BracketIndex):
        __slots__ = ()

        def brackets(self, a):
            out = super().brackets(a)
            calls.append((len(self.mats) - self.first, a, out))
            return out

    monkeypatch.setattr(lie, "_BracketIndex", Recording)
    return calls


def test_two_roots_give_two_blocks_of_unknowns(monkeypatch):
    # V + V of sl(2): the spin-up of e_0 stays in the first copy, so e_2 is a
    # second root, and T is fixed by T e_0 and T e_2: the commutant is M_2(R)
    spins = _recording(monkeypatch, "_spin_up")
    solves = _recording(monkeypatch, "_solutions")
    rep = dict(CASES)["V+V"]
    basis = commutant_basis(rep)
    (_, (_, w, words)), = spins
    assert [(b, i) for b, (i, j, _) in enumerate(words) if j is None] == [(0, 0), (2, 1)]
    assert w[2] == {2: 1}
    assert solves[0][0][2] == 8  # the first candidates: two blocks of d = 4 unknowns
    assert len(basis) == 4 and commutant(rep).label == "OTHER"


def test_a_failed_check_lets_elimination_go_on(monkeypatch):
    # diag(3): each unit vector is a root of its own, and the first relation
    # that adds no pivot leaves T e_1 and T e_2 free, so the kernel so far
    # holds matrices that do not commute with the action
    checks = _recording_brackets(monkeypatch)
    rep = dict(CASES)["diag(3)"]
    assert commutant_basis(rep) == reference_commutant_basis(rep) == [
        Mat.unit(3, 3, i, i) for i in range(3)]
    assert any(out for _, _, out in checks)


def test_an_early_stop_is_checked_and_kept(monkeypatch):
    # the group(sl(2,R)) adjoint stops at its first stall: two solutions are
    # left, one of them stands in for the identity, and the T of the other
    # commutes with every generator, so the relations after it are not fed
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    rep = pair.k_algebra.adjoint_representation()
    checks = _recording_brackets(monkeypatch)
    spins = _recording(monkeypatch, "_spin_up")
    fed = _recording_echelon(monkeypatch)
    assert commutant_basis(rep) == reference_commutant_basis(rep)
    (_, (_, _, words)), = spins
    gens = len(lie.generating_indices(pair.k_algebra))
    relations = 6 * gens - (len(words) - 1)
    # one T, checked in one call against an index of every generator
    assert [(held, bool(out)) for held, _, out in checks] == [(gens, False)]
    assert len(fed) < relations  # the relations after the stop are not fed


def test_one_candidate_left_is_the_identity(monkeypatch):
    # the sp(2,1) adjoint: the u of T = I solves every relation, so once the
    # relations leave one candidate the commutant is Q I, without forming T
    # or checking it, and the relations after it are not fed
    pair = build_pair("sp1_block", {"p": 1, "q": 1})
    rep = pair.k_algebra.adjoint_representation()
    checks = _recording_brackets(monkeypatch)
    spins = _recording(monkeypatch, "_spin_up")
    fed = _recording_echelon(monkeypatch)
    assert commutant_basis(rep) == reference_commutant_basis(rep) == [Mat.identity(21)]
    (_, (_, _, words)), = spins
    relations = 21 * len(lie.generating_indices(pair.k_algebra)) - (len(words) - 1)
    assert not checks
    assert len(fed) < relations
    # the last relation fed is the one that left a single candidate
    (width, before, after) = fed[-1]
    assert before < after == width - 1
