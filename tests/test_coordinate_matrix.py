"""One coordinate-map builder against the five loops it replaced.

`MatrixLieAlgebra.coordinate_matrix` turns ambient matrices into the
coordinate matrix with one column per image, or None when an image leaves
the span.  `inclusion_witness`, `coordinate_complex_structure`,
`_row_su_pp_so_complex`, `_mapped_witness` and `extension.target_conjugation`
call it, each with its own exception.  They must give what the parent's
loops, kept verbatim in conftest.py, give: the same matrices, and the same
exception type and message where an image leaves the span.
"""

import pytest

from cartanext import catalog, classify, cli, extension
from cartanext.catalog import build_graded, build_pair
from cartanext.errors import InputError, InternalCheckError
from cartanext.linalg import Mat
from conftest import (
    from_columns,
    reference_coordinate_complex_structure,
    reference_coordinates,
    reference_inclusion_witness,
    reference_mapped_witness,
    reference_row_su_pp_so_complex,
    reference_target_conjugation,
    stored_form_holds,
)

GRADED = catalog.default_graded_grid()
# the realified targets, which carry an ambient complex structure
COMPLEX = [("su_pp", {"p": 1}), ("su_pp", {"p": 2}), ("h_projective", {"n": 1}),
           ("h_projective", {"n": 2}), ("complex_conformal", {"n": 1}),
           ("complex_conformal", {"n": 2})]
ROWS = [(item["family"], item["pair"]["family"], item["pair"]["params"])
        for item in cli.default_manifest() if item["kind"] == "row"]


def _reference_matrix(algebra, mats):
    """The parent's loop: dense coordinates of each image, then from_columns."""
    cols = []
    for m in mats:
        coords = reference_coordinates(algebra, m)
        if coords is None:
            return None
        cols.append(coords)
    return from_columns(cols, algebra.dim)


def _outcome(call, *args):
    """The result of call(*args), or the type and message of what it raised."""
    try:
        return call(*args)
    except (InputError, InternalCheckError) as exc:
        return type(exc), str(exc)


def _same_extension(new, ref):
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert (new.pair, new.target, new.alpha, new.label) == (ref.pair, ref.target,
                                                                ref.alpha, ref.label)


@pytest.mark.parametrize("family,params", GRADED + COMPLEX)
def test_coordinate_matrix_matches_the_loop(family, params):
    target = build_graded(family, params)
    algebra = target.algebra
    basis, flip = algebra.basis, target.flip_element
    assert algebra.coordinate_matrix(basis) == Mat.identity(algebra.dim)
    conjugated = [flip @ b @ flip for b in basis]
    mixed = [b + c.scale(3) for b, c in zip(basis, basis[1:] + basis[:1])]
    for mats in (basis, conjugated, mixed, conjugated[::-1], []):
        new = algebra.coordinate_matrix(mats)
        assert new == _reference_matrix(algebra, mats)
        assert new.shape == (algebra.dim, len(mats)) and stored_form_holds(new)
    assert algebra.coordinate_matrix(iter(mixed)) == algebra.coordinate_matrix(mixed)
    # the identity lies in none of the catalog's trace-free or skew spans
    outside = [basis[0], Mat.identity(algebra.ambient_size), basis[1]]
    assert algebra.coordinate_matrix(outside) is None
    assert _reference_matrix(algebra, outside) is None
    wrong = Mat.identity(algebra.ambient_size + 1)
    for mats in ([wrong], [basis[0], wrong]):
        with pytest.raises(InputError, match="^ambient size mismatch$"):
            algebra.coordinate_matrix(mats)


def test_coordinate_matrix_stops_at_the_first_image_outside():
    algebra = build_graded("projective", {"n": 2}).algebra
    seen = []

    def images():
        for m in (algebra.basis[0], Mat.identity(3), Mat.identity(4)):
            seen.append(m)
            yield m

    assert algebra.coordinate_matrix(images()) is None
    assert len(seen) == 2  # the size mismatch behind the image outside is never read


@pytest.mark.parametrize("family,params", COMPLEX)
def test_target_operators_match_the_loops(family, params):
    # su(p,p) is a real form: i su(p,p) leaves its span, and the
    # InternalCheckError must be the loop's
    target = build_graded(family, params)
    j = _outcome(classify.coordinate_complex_structure, target)
    assert j == _outcome(reference_coordinate_complex_structure, target)
    conj = _outcome(extension.target_conjugation, target)
    assert conj == _outcome(reference_target_conjugation, target)
    if family == "su_pp":
        assert j == (InternalCheckError, "ambient J does not preserve the target span")
    else:
        assert j @ j == -Mat.identity(target.dim)
    if isinstance(conj, Mat):
        assert conj @ conj == Mat.identity(target.dim)


def test_target_operators_need_an_ambient_complex_structure():
    target = build_graded("projective", {"n": 2})
    for new, ref in ((classify.coordinate_complex_structure, reference_coordinate_complex_structure),
                     (extension.target_conjugation, reference_target_conjugation)):
        assert _outcome(new, target) == _outcome(ref, target)
        assert _outcome(new, target)[0] is InputError


@pytest.mark.parametrize("family,pair_family,params", ROWS)
def test_row_witnesses_match_the_loops(family, pair_family, params, monkeypatch):
    pair = build_pair(pair_family, params)
    builder = classify._ROW_BUILDERS[(family, pair_family)]
    new = _outcome(builder, pair)
    monkeypatch.setattr(classify, "inclusion_witness", reference_inclusion_witness)
    monkeypatch.setattr(classify, "_mapped_witness", reference_mapped_witness)
    monkeypatch.setitem(classify._ROW_BUILDERS, ("su_pp", "so_complex"),
                        reference_row_su_pp_so_complex)
    _same_extension(new, _outcome(classify._ROW_BUILDERS[(family, pair_family)], pair))


def test_inclusion_witness_matches_the_loop_on_every_ambient_match():
    """Every default pair against every target of its ambient size: an
    embedding gives the same alpha, a failed one the same InputError."""
    targets = [build_graded(f, p) for f, p in GRADED + COMPLEX]
    outcomes = []
    for f, p in catalog.default_pair_grid():
        pair = build_pair(f, p)
        for target in targets:
            if target.algebra.ambient_size != pair.k_algebra.ambient_size:
                continue
            new = _outcome(classify.inclusion_witness, pair, target)
            _same_extension(new, _outcome(reference_inclusion_witness, pair, target))
            outcomes.append(isinstance(new, tuple))
    assert True in outcomes and False in outcomes  # both branches were reached


def test_inclusion_witness_with_a_conjugator():
    pair = build_pair("group_type", {"base": "sl(2,R)"})
    target = build_graded("projective", {"n": 3})
    assert pair.k_algebra.ambient_size == 4
    u = Mat.from_rows([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 3, 1]])
    _same_extension(classify.inclusion_witness(pair, target, u),
                    reference_inclusion_witness(pair, target, u))


def test_mapped_witness_escape_keeps_its_error():
    pair = build_pair("group_type", {"base": "sp(2,R)"})
    target = build_graded("lagrangean", {"n": 2})

    def outside(a, b):
        return Mat.identity(4)

    args = (pair, target, outside, 2, "x")
    assert (_outcome(classify._mapped_witness, *args)
            == _outcome(reference_mapped_witness, *args)
            == (InternalCheckError, "mapped element escapes the target span"))
