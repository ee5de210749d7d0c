"""Canonical JSON serialization.

Rationals serialize as "p/q" strings ("p" when the denominator is one);
objects serialize with sorted keys and fixed separators so that
build -> dump -> parse -> dump round-trips byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .catalog import (
    GradedAlgebra,
    SymmetricPair,
    build_graded,
    build_pair,
)
from .errors import InputError
from .extension import Extension
from .lie import MatrixLieAlgebra, make_algebra
from .linalg import Mat


def rational_str(x: Fraction) -> str:
    return str(x)


def parse_rational(s) -> Fraction:
    if isinstance(s, (str, int)):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot parse rational from {s!r}")


def mat_to_json(m: Mat) -> list:
    return [[rational_str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def mat_from_json(rows: list) -> Mat:
    return Mat.from_rows([[parse_rational(x) for x in row] for row in rows])


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
    if not isinstance(data, dict):
        raise InputError("algebra file must hold a JSON object")
    basis = data.get("basis")
    if not (isinstance(basis, list) and basis and all(_is_square_rows(m) for m in basis)):
        raise InputError("algebra file 'basis' must be a non-empty list of square "
                         "matrices, each a list of rows")
    if not isinstance(data.get("ambient_size"), int):
        raise InputError("algebra file 'ambient_size' must be an integer")
    alg = make_algebra([mat_from_json(rows) for rows in basis], data.get("name", ""))
    if alg.ambient_size != data["ambient_size"]:
        raise InputError("ambient size mismatch in algebra file")
    return alg


# ---------------------------------------------------------------------------
# Graded algebras and pairs
# ---------------------------------------------------------------------------


def graded_to_json(g: GradedAlgebra) -> dict:
    return {
        "schema": "graded",
        "family": g.family,
        "params": dict(sorted(g.params.items())),
        "name": g.algebra.name,
        "ambient_size": g.algebra.ambient_size,
        "basis": [mat_to_json(b) for b in g.algebra.basis],
        "grading_element": vector_to_json(g.grading_element),
        "minus_one": list(g.minus_one),
        "zero": list(g.zero),
        "plus_one": list(g.plus_one),
        "flip_element": mat_to_json(g.flip_element),
    }


def graded_from_json(data: dict) -> GradedAlgebra:
    g = build_graded(data["family"], data["params"])
    reserialized = graded_to_json(g)
    for key in ("ambient_size", "basis", "minus_one", "zero", "plus_one"):
        if reserialized[key] != data[key]:
            raise InputError(f"graded file disagrees with its family rebuild at {key!r}")
    return g


def pair_to_json(p: SymmetricPair) -> dict:
    return {
        "schema": "pair",
        "family": p.family,
        "params": dict(sorted(p.params.items())),
        "name": p.name,
        "ambient_size": p.k_algebra.ambient_size,
        "basis": [mat_to_json(b) for b in p.k_algebra.basis],
        "h_indices": list(p.h_indices),
        "m_indices": list(p.m_indices),
        "sigma": mat_to_json(p.sigma_matrix),
        "conjugator": mat_to_json(p.conjugator) if p.conjugator is not None else None,
        "certificate_ideal": p.certificate_ideal,
    }


def pair_from_json(data: dict) -> SymmetricPair:
    p = build_pair(data["family"], data["params"])
    reserialized = pair_to_json(p)
    for key in ("ambient_size", "basis", "h_indices", "m_indices"):
        if reserialized[key] != data[key]:
            raise InputError(f"pair file disagrees with its family rebuild at {key!r}")
    return p


# ---------------------------------------------------------------------------
# Extensions and reports
# ---------------------------------------------------------------------------


def extension_to_json(ext: Extension) -> dict:
    try:
        b2 = mat_to_json(ext.b2_matrix())
    except Exception:
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
        "equivalence": {k: _jsonable(val) for k, val in v.equivalence.items()},
        "certificates": v.certificates,
    }


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(t) for t in x]
    return x


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on read
            raise InputError(f"invalid JSON in {path} ({exc})") from None


def load_json_text(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError
        raise InputError(f"invalid JSON ({exc})") from None


def dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))
