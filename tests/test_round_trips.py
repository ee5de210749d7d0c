"""File round trips that check only what they compare, and the b2 solve.

`io.pair_from_json` and `io.graded_from_json` rebuild the object from its
family and compare the keys that pin it (`ambient_size`, `basis` and the
index sets) with the file; they write only those keys again, not `sigma`,
`conjugator` or `flip_element`.  A file written, read and written again
must still come out byte-identical, and a tampered file must still be
refused with the same message, naming the first key that disagrees.

`Extension.b2_matrix` solves B F = G for the frame F and the g_1 block G in
one elimination; it must give the matrix that G F^-1 gave, and a singular or
non-square frame must still raise the package error that makes
`extension_to_json` write "b2": null.
"""

import pytest

from cartanext import catalog, classify, cli, io
from cartanext.catalog import build_graded, build_pair
from cartanext.errors import InputError
from cartanext.extension import Extension
from cartanext.linalg import Mat, invert

PAIRS = catalog.default_pair_grid()
TARGETS = catalog.default_graded_grid()


def _written_again(text: str, read, write) -> str:
    return io.canonical_dumps(write(read(io.load_json_text(text))))


@pytest.mark.parametrize("family, params", PAIRS, ids=lambda x: str(x))
def test_pair_files_round_trip_byte_identical(family, params):
    text = io.canonical_dumps(io.pair_to_json(build_pair(family, params)))
    assert _written_again(text, io.pair_from_json, io.pair_to_json) == text


@pytest.mark.parametrize("family, params", TARGETS, ids=lambda x: str(x))
def test_graded_files_round_trip_byte_identical(family, params):
    text = io.canonical_dumps(io.graded_to_json(build_graded(family, params)))
    assert _written_again(text, io.graded_from_json, io.graded_to_json) == text


def test_the_grids_are_the_ones_named():
    assert (len(PAIRS), len(TARGETS)) == (18, 31)


def _tampered_basis(data: dict) -> None:
    row = data["basis"][0][0]
    row[0] = "7" if row[0] != "7" else "5"


@pytest.mark.parametrize("key", ["basis", "m_indices"])
def test_a_tampered_pair_file_is_refused(key):
    data = io.pair_to_json(build_pair("group_type", {"base": "sl(2,R)"}))
    if key == "basis":
        _tampered_basis(data)
    else:
        data["m_indices"] = data["m_indices"][::-1]
    with pytest.raises(InputError, match=f"pair file disagrees with its family rebuild at '{key}'"):
        io.pair_from_json(data)


@pytest.mark.parametrize("key", ["basis", "plus_one"])
def test_a_tampered_graded_file_is_refused(key):
    data = io.graded_to_json(build_graded("projective", {"n": 3}))
    if key == "basis":
        _tampered_basis(data)
    else:
        data["plus_one"] = data["plus_one"][::-1]
    with pytest.raises(InputError,
                       match=f"graded file disagrees with its family rebuild at '{key}'"):
        io.graded_from_json(data)


def test_a_pair_file_without_a_checked_key_is_refused():
    data = io.pair_to_json(build_pair("group_type", {"base": "sl(2,R)"}))
    del data["h_indices"]
    with pytest.raises(InputError, match="h_indices"):
        io.pair_from_json(data)


# -- b2 ---------------------------------------------------------------------------


def _row_witnesses() -> list:
    """The witnesses of the default manifest's rows, which the analysis
    benchmark writes and reads."""
    out = []
    for item in cli.default_manifest():
        if item["kind"] == "row":
            pair = build_pair(item["pair"]["family"], item["pair"]["params"])
            out.append(classify.verify_family_row(item["family"], pair).witness)
    return out


def test_b2_is_the_g1_block_times_the_inverse_frame():
    witnesses = _row_witnesses()
    assert len(witnesses) == 9
    nonzero = 0
    for ext in witnesses:
        b2 = ext.b2_matrix()
        assert b2 == ext.g1_block() @ invert(ext.frame())
        nonzero += not b2.is_zero()
    assert nonzero


def test_b2_refuses_a_singular_or_non_square_frame(monkeypatch):
    ext = _row_witnesses()[0]
    singular = Extension(ext.pair, ext.target,
                         ext.alpha.submatrix(range(ext.alpha.rows), [0] * ext.alpha.cols))
    with pytest.raises(InputError, match="singular"):
        singular.b2_matrix()
    assert io.extension_to_json(singular)["b2"] is None
    monkeypatch.setattr(Extension, "frame", lambda self: Mat.identity(3).submatrix([0, 1], [0, 1, 2]))
    with pytest.raises(InputError, match="square"):
        ext.b2_matrix()
    assert io.extension_to_json(ext)["b2"] is None
