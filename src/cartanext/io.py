"""Canonical JSON serialization.

Rationals serialize as "p/q" strings ("p" when the denominator is one);
objects serialize with sorted keys and fixed separators so that
build -> dump -> parse -> dump round-trips byte-identically.

A rational is read by one strict grammar: a JSON integer, or a string of
at most 4,300 characters of the form `[+-]?D+`, `[+-]?D+/D+` (a nonzero
denominator) or `[+-]?D+.D+`, with D an ASCII digit.  Each form is
converted with `int()`, so reading it costs time linear in its length.
Anything else is an `InputError` naming the string: exponents, whitespace,
underscores, a signed denominator, non-ASCII digits, ".5" and "5.".
4,300 is CPython's default digit limit for `int()`, applied here on every
Python version.  A matrix is read and written by its nonzero entries.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .catalog import (
    GradedAlgebra,
    SymmetricPair,
    _check_bounds,
    build_graded,
    build_pair,
)
from .errors import CartanextError, InputError
from .extension import Extension
from .lie import MatrixLieAlgebra, make_algebra
from .linalg import Mat


def rational_str(x: Fraction) -> str:
    return str(x)


_MAX_SCALAR_CHARS = 4300
# sign and digits; then "/" and digits of which one is nonzero, or "." and digits
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*)|\.([0-9]+))?")


def _scalar(s):
    """The rational that `s` spells in the module's grammar, an int for the
    integer forms and a Fraction for the others; InputError naming `s` for
    anything else."""
    if isinstance(s, int):  # a JSON integer
        return int(s)
    match = (_SCALAR.fullmatch(s) if isinstance(s, str) and len(s) <= _MAX_SCALAR_CHARS
             else None)
    if match is None:
        raise InputError(f"cannot parse rational from {s!r}")
    num, den, decimals = match.groups()
    if den:
        return Fraction(int(num), int(den))
    if decimals:
        return Fraction(int(num + decimals), 10 ** len(decimals))
    return int(num)


def parse_rational(s) -> Fraction:
    return Fraction(_scalar(s))


def mat_to_json(m: Mat) -> list:
    """Rows of "p/q" strings, "0" for every entry absent from the sparse form."""
    out = [["0"] * m.cols for _ in range(m.rows)]
    for r, row in m.sparse.items():
        line = out[r]
        for c, v in row.items():
            line[c] = rational_str(v)
    return out


def mat_from_json(rows: list) -> Mat:
    """The matrix of a list of rows of scalars; "0" entries are skipped."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise InputError(f"a matrix must be a list of rows, got {rows!r}")
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise InputError("ragged rows")
    return Mat.from_sparse(len(rows), cols, {
        r: {c: _scalar(x) for c, x in enumerate(row) if x != "0"}
        for r, row in enumerate(rows)})


def vector_to_json(v) -> list:
    return [rational_str(Fraction(x)) for x in v]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


def _is_square_rows(rows) -> bool:
    return (isinstance(rows, list) and len(rows) > 0
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows))


def algebra_from_json(data: dict) -> MatrixLieAlgebra:
    """The algebra an algebra file spans.  Its sizes are checked against the
    desk-scale caps before any matrix is built."""
    if not isinstance(data, dict):
        raise InputError("algebra file must hold a JSON object")
    basis = data.get("basis")
    if not (isinstance(basis, list) and basis and all(_is_square_rows(m) for m in basis)):
        raise InputError("algebra file 'basis' must be a non-empty list of square "
                         "matrices, each a list of rows")
    ambient = data.get("ambient_size")
    if not isinstance(ambient, int):
        raise InputError("algebra file 'ambient_size' must be an integer")
    _check_bounds(ambient, len(basis))
    if any(len(rows) != ambient for rows in basis):
        raise InputError("ambient size mismatch in algebra file")
    return make_algebra([mat_from_json(rows) for rows in basis], data.get("name", ""))


# ---------------------------------------------------------------------------
# Graded algebras and pairs
# ---------------------------------------------------------------------------


def _require(data, what: str, keys: tuple) -> None:
    """InputError unless data is a JSON object holding every key."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    for key in keys:
        if key not in data:
            raise InputError(f"{what} is missing key {key!r}")


_FAMILY_KEYS = ("family", "params")
# The keys of a graded or pair file that its reader compares with the family
# rebuild, in the order compared, each with how the rebuild is written there;
# the reader writes them one at a time, up to the first that disagrees.
_GRADED_CHECKED = {
    "ambient_size": lambda g: g.algebra.ambient_size,
    "basis": lambda g: [mat_to_json(b) for b in g.algebra.basis],
    "minus_one": lambda g: list(g.minus_one),
    "zero": lambda g: list(g.zero),
    "plus_one": lambda g: list(g.plus_one),
}
_PAIR_CHECKED = {
    "ambient_size": lambda p: p.k_algebra.ambient_size,
    "basis": lambda p: [mat_to_json(b) for b in p.k_algebra.basis],
    "h_indices": lambda p: list(p.h_indices),
    "m_indices": lambda p: list(p.m_indices),
}


def graded_to_json(g: GradedAlgebra) -> dict:
    return {
        "schema": "graded",
        "family": g.family,
        "params": dict(sorted(g.params.items())),
        "name": g.algebra.name,
        **{key: write(g) for key, write in _GRADED_CHECKED.items()},
        "grading_element": vector_to_json(g.grading_element),
        "flip_element": mat_to_json(g.flip_element),
    }


def graded_from_json(data: dict) -> GradedAlgebra:
    _require(data, "graded file", _FAMILY_KEYS + tuple(_GRADED_CHECKED))
    g = build_graded(data["family"], data["params"])
    for key, write in _GRADED_CHECKED.items():
        if write(g) != data[key]:
            raise InputError(f"graded file disagrees with its family rebuild at {key!r}")
    return g


def pair_to_json(p: SymmetricPair) -> dict:
    return {
        "schema": "pair",
        "family": p.family,
        "params": dict(sorted(p.params.items())),
        "name": p.name,
        **{key: write(p) for key, write in _PAIR_CHECKED.items()},
        "sigma": mat_to_json(p.sigma_matrix),
        "conjugator": mat_to_json(p.conjugator) if p.conjugator is not None else None,
        "certificate_ideal": p.certificate_ideal,
    }


def pair_from_json(data: dict) -> SymmetricPair:
    _require(data, "pair file", _FAMILY_KEYS + tuple(_PAIR_CHECKED))
    p = build_pair(data["family"], data["params"])
    for key, write in _PAIR_CHECKED.items():
        if write(p) != data[key]:
            raise InputError(f"pair file disagrees with its family rebuild at {key!r}")
    return p


# ---------------------------------------------------------------------------
# Extensions and reports
# ---------------------------------------------------------------------------


def extension_to_json(ext: Extension) -> dict:
    try:
        b2 = mat_to_json(ext.b2_matrix())
    except CartanextError:  # a singular or non-square frame
        b2 = None
    return {
        "schema": "extension",
        "pair": {"family": ext.pair.family, "params": dict(sorted(ext.pair.params.items()))},
        "target": {"family": ext.target.family, "params": dict(sorted(ext.target.params.items()))},
        "alpha": mat_to_json(ext.alpha),
        "b2": b2,
        "label": ext.label,
    }


def extension_from_json(data: dict) -> Extension:
    _require(data, "extension file", ("pair", "target", "alpha"))
    _require(data["pair"], "extension file 'pair'", _FAMILY_KEYS)
    _require(data["target"], "extension file 'target'", _FAMILY_KEYS)
    pair = build_pair(data["pair"]["family"], data["pair"]["params"])
    target = build_graded(data["target"]["family"], data["target"]["params"])
    alpha = mat_from_json(data["alpha"])
    return Extension(pair, target, alpha, data.get("label", ""))


def verdict_to_json(v) -> dict:
    return {
        "schema": "verdict",
        "pair": v.pair_name,
        "family": v.family,
        "verdict": v.verdict,
        "reason": v.reason,
        "witness_ref": v.witness.label if v.witness is not None else None,
        "witness_data": v.witness_data,
        "equivalence": dict(v.equivalence),
        "certificates": v.certificates,
    }


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError, UnicodeDecodeError on read, or RecursionError on
        # arrays and objects nested deeper than the interpreter's limit
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON in {path} ({exc})") from None


def load_json_text(text: str) -> dict:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # as in load_json
        raise InputError(f"invalid JSON ({exc})") from None
