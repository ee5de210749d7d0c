"""Command-line driver.

Subcommands: build, analyze-pair, check-extension, classify, verify-catalog.
Exit codes: 0 ok, 1 verification failure, 2 input error.  Every result is
deterministic: --seed (overridden by the environment variable
CARTAN_EXT_SEED) is accepted and echoed in verify-catalog output, but
changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from . import catalog, classify, io
from .catalog import (
    GRADED_FAMILIES,
    PAIR_FAMILIES,
    build_graded,
    build_pair,
    expected_graded_dims,
    isotropy_rep,
    restricted_killing,
    verify_graded,
    verify_pair,
)
from .errors import CartanextError, InputError
from .extension import curvature, is_flat, solve_projective_b2, torsion_free, validate
from .lie import commutant, invariant_bilinear_forms, is_semisimple

OK, VERIFY_FAIL, BAD_INPUT = 0, 1, 2

CLAIM_TAGS = {
    "graded_invariants": "one-graded-structure-axioms",
    "graded_dims": "tangent-module-dimensions",
    "pair_invariants": "symmetric-pair-axioms",
    "semisimple": "killing-form-nondegenerate",
    "killing_restriction": "restricted-killing-nondegenerate",
    "centralizer": "centralizer-product-contract",
    "projective": "unique-projective-structure",
    "torsion": "invariant-structures-torsion-free",
    "row": "structure-row-realized",
    "flat": "flat-by-inclusion",
    "closure": "bracket-closure",
}


def _split_top_level(spec: str) -> list:
    """Split on commas that are not nested inside parentheses."""
    pieces, depth, current = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        pieces.append("".join(current))
    return pieces


def _parse_params(spec: Optional[str]) -> dict:
    out = {}
    if not spec:
        return out
    for piece in _split_top_level(spec):
        if not piece:
            continue
        if "=" not in piece:
            raise InputError(f"parameter {piece!r} is not of the form key=value")
        key, value = piece.split("=", 1)
        try:
            out[key.strip()] = int(value)
        except ValueError:
            out[key.strip()] = value.strip()
    return out


def _emit(data, out: Optional[str], as_json: bool = True) -> None:
    text = io.canonical_dumps(data) if as_json else data
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_build(args) -> int:
    params = _parse_params(args.params)
    if args.family in GRADED_FAMILIES:
        g = build_graded(args.family, params)
        failures = verify_graded(g)
        if failures:
            sys.stderr.write("invariant failures: " + "; ".join(failures) + "\n")
            return VERIFY_FAIL
        _emit(io.graded_to_json(g), args.out)
        return OK
    if args.family in PAIR_FAMILIES:
        p = build_pair(args.family, params)
        failures = verify_pair(p)
        if failures:
            sys.stderr.write("invariant failures: " + "; ".join(failures) + "\n")
            return VERIFY_FAIL
        _emit(io.pair_to_json(p), args.out)
        return OK
    raise InputError(f"unknown family {args.family!r}")


def cmd_analyze_pair(args) -> int:
    data = io.load_json(args.pair)
    pair = io.pair_from_json(data)
    rep = isotropy_rep(pair)
    gram, sig = restricted_killing(pair)
    report = classify.centralizer_report(pair)
    forms = invariant_bilinear_forms(rep, "symmetric")
    out = {
        "schema": "pair_analysis",
        "pair": pair.name,
        "dim": pair.dim,
        "dim_h": pair.dim_h,
        "dim_m": pair.dim_m,
        "semisimple": is_semisimple(pair.k_algebra),
        "killing_restriction_signature": list(sig.as_tuple()),
        "factor_commutants": report.factor_labels,
        "invariant_symmetric_forms": len(forms),
    }
    _emit(out, args.out)
    return OK


def cmd_check_extension(args) -> int:
    data = io.load_json(args.extension)
    ext = io.extension_from_json(data)
    report = validate(ext)
    kappa = curvature(ext)
    b2_unique = None
    if ext.target.family in ("projective", "h_projective") and report.passed:
        try:
            b2_unique = solve_projective_b2(ext).homogeneous_kernel_trivial
        except CartanextError:
            b2_unique = False
    out = {
        "schema": "extension_report",
        "axioms": {name: check.ok for name, check in report.axioms.items()},
        "torsion_free": torsion_free(ext, kappa),
        "flat": is_flat(ext, kappa),
        "b2_unique": b2_unique,
        "kappa_nonzero_entries": kappa.nonzero_entries(),
    }
    _emit(out, args.out)
    return OK if report.passed else VERIFY_FAIL


_CLAIM_SENTENCES = {
    "projective": "every semisimple symmetric pair carries a unique invariant projective structure",
    "h_projective": "complex semisimple symmetric pairs carry an invariant complex-projective "
                    "structure, with a second class given by conjugation",
    "conformal": "simple factors are orthogonal for every invariant metric; each factor "
                 "contributes the multiples of its Killing form",
    "grassmannian": "the listed pairs carry a unique Grassmannian-type structure, flat by inclusion",
    "lagrangean": "the listed pairs carry a unique Lagrangean-type structure, flat by inclusion",
    "spinorial": "the listed pairs carry a unique spinorial-type structure, flat by inclusion",
    "quaternionic": "quaternionic structures exist exactly on the quaternionic-Kaehler "
                    "models and the distinguished series, flat by inclusion",
    "para_quaternionic": "para-quaternionic structures exist exactly on the para-quaternionic "
                         "models and the distinguished series, flat by inclusion",
    "su_pp": "the listed pairs carry a unique structure of anti-Hermitian type, flat by inclusion",
}


def cmd_classify(args) -> int:
    data = io.load_json(args.pair)
    pair = io.pair_from_json(data)
    family = args.family
    if family == "projective":
        verdict = classify.decide_projective(pair)
    elif family == "h_projective":
        verdict = classify.decide_h_projective(pair)
    elif family == "conformal":
        verdict = classify.decide_conformal(pair).verdict
    else:
        verdict = classify.verify_family_row(family, pair)
    payload = io.verdict_to_json(verdict)
    if args.format == "md":
        lines = [
            f"## {family} structures on {pair.name}",
            "",
            f"Verdict: **{verdict.verdict}** ({verdict.reason}).",
            "",
            f"Instantiates: {_CLAIM_SENTENCES.get(family, 'the corresponding classification row')}.",
        ]
        _emit("\n".join(lines) + "\n", args.out, as_json=False)
    else:
        _emit(payload, args.out)
    return OK


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------


def default_manifest() -> list:
    items = []
    for family, params in catalog.default_graded_grid():
        items.append({"kind": "graded", "family": family, "params": params,
                      "expected": expected_graded_dims(family, params)})
    for family, params in catalog.default_pair_grid():
        items.append({"kind": "pair", "family": family, "params": params})
    items += [
        {"kind": "row", "family": "grassmannian",
         "pair": {"family": "so_block", "params": {"a": 1, "b": 1, "c": 1, "d": 1}}},
        {"kind": "row", "family": "grassmannian",
         "pair": {"family": "sp_block", "params": {"p": 1, "q": 1}}},
        {"kind": "row", "family": "para_quaternionic",
         "pair": {"family": "sp_block", "params": {"p": 1, "q": 1}}},
        {"kind": "row", "family": "para_quaternionic",
         "pair": {"family": "conformal_model", "params": {"k": 1, "l": 1}}},
        {"kind": "row", "family": "quaternionic",
         "pair": {"family": "so_star", "params": {"n": 2}}},
        {"kind": "row", "family": "quaternionic",
         "pair": {"family": "sp1_block", "params": {"p": 1, "q": 1}}},
        {"kind": "row", "family": "lagrangean",
         "pair": {"family": "group_type", "params": {"base": "sp(2,R)"}}},
        {"kind": "row", "family": "spinorial",
         "pair": {"family": "group_type", "params": {"base": "so(2,1)"}}},
        {"kind": "row", "family": "su_pp",
         "pair": {"family": "so_complex", "params": {"n": 2}}},
    ]
    return items


def _check(name: str, ok: bool, detail: str = "") -> dict:
    out = {"name": name, "claim": CLAIM_TAGS.get(name, name), "status": "PASS" if ok else "FAIL"}
    if detail:
        out["detail"] = detail
    return out


def _field(spec: dict, name: str, kind: type, what: str):
    """spec[name], which a manifest item must give as a `kind`."""
    value = spec.get(name)
    if not isinstance(value, kind):
        raise InputError(f"manifest item field {name!r} must be {what}, got {value!r}")
    return value


def _verify_item(item: dict) -> dict:
    if not isinstance(item, dict):
        raise InputError(f"manifest item must be a mapping, got {item!r}")
    kind = item.get("kind", "graded")
    checks = []
    label = ""
    if kind == "graded":
        family = _field(item, "family", str, "a string")
        expected = item.get("expected")
        if expected:
            _field(item, "expected", dict, "a mapping")
            for name in ("dim_g", "dim_gm1"):
                _field(expected, name, int, "an integer")
        g = build_graded(family, item.get("params"))
        label = g.algebra.name
        failures = verify_graded(g)
        checks.append(_check("graded_invariants", not failures, "; ".join(failures)))
        expected = expected or expected_graded_dims(family, item["params"])
        dims_ok = g.dim == expected["dim_g"] and g.dim_gm1 == expected["dim_gm1"]
        checks.append(_check("graded_dims", dims_ok,
                             f"dim={g.dim}, dim_gm1={g.dim_gm1}"))
    elif kind == "pair":
        p = build_pair(_field(item, "family", str, "a string"), item.get("params"))
        label = p.name
        failures = verify_pair(p)
        checks.append(_check("pair_invariants", not failures, "; ".join(failures)))
        checks.append(_check("semisimple", is_semisimple(p.k_algebra)))
        _gram, sig = restricted_killing(p)
        checks.append(_check("killing_restriction", sig.nullity == 0,
                             f"signature={sig.as_tuple()}"))
        report = classify.centralizer_report(p)
        checks.append(_check("centralizer", report.labels_in_contract,
                             ",".join(report.factor_labels)))
        verdict = classify.decide_projective(p)
        # decide_projective returns EXISTS only for a torsion-free witness
        checks.append(_check("projective", verdict.verdict == classify.EXISTS, verdict.reason))
    elif kind == "row":
        family = _field(item, "family", str, "a string")
        spec = _field(item, "pair", dict, "a mapping")
        pair = build_pair(_field(spec, "family", str, "a string"), spec.get("params"))
        verdict = classify.verify_family_row(family, pair)
        label = f"{pair.name}->{family}"
        if verdict.verdict == classify.UNDECIDED:
            checks.append({"name": "row", "claim": CLAIM_TAGS["row"],
                           "status": "UNDECIDED", "detail": verdict.reason})
        else:
            flat = any(c.get("flat") for c in verdict.certificates if isinstance(c, dict))
            checks.append(_check("row", verdict.verdict == classify.EXISTS, verdict.reason))
            checks.append(_check("flat", flat))
    elif kind == "algebra_file":
        label = _field(item, "path", str, "a string")
        try:
            io.algebra_from_json(io.load_json(label))
            checks.append(_check("closure", True))
        except (CartanextError, OSError) as exc:  # OSError: missing or unreadable path
            checks.append(_check("closure", False, str(exc)))
    else:
        raise InputError(f"unknown manifest item kind {kind!r}")
    if any(c["status"] == "FAIL" for c in checks):
        status = "FAIL"
    elif any(c["status"] == "UNDECIDED" for c in checks):
        status = "UNDECIDED"
    else:
        status = "PASS"
    return {"kind": kind, "label": label, "item": {k: v for k, v in item.items() if k != "expected"},
            "checks": checks, "status": status}


def run_verify_catalog(manifest: list, seed: int) -> dict:
    items = []
    timings = {}
    for index, item in enumerate(manifest):
        started = time.monotonic()
        try:
            result = _verify_item(item)
        except CartanextError as exc:
            kind = item.get("kind", "graded") if isinstance(item, dict) else None
            result = {"kind": kind, "label": str(item),
                      "item": item,
                      "checks": [{"name": "build", "claim": "construction",
                                  "status": "FAIL", "detail": str(exc)}],
                      "status": "FAIL"}
        timings[str(index)] = round((time.monotonic() - started) * 1000, 3)
        items.append(result)
    counts = {
        "pass": sum(1 for i in items if i["status"] == "PASS"),
        "fail": sum(1 for i in items if i["status"] == "FAIL"),
        "undecided": sum(1 for i in items if i["status"] == "UNDECIDED"),
    }
    return {
        "schema": "run_manifest",
        "seed": seed,
        "items": items,
        "counts": counts,
        "overall": "PASS" if counts["fail"] == 0 else "FAIL",
        "timings_ms": timings,
    }


def manifest_markdown(run: dict) -> str:
    lines = [f"# Catalog verification (seed {run['seed']})", ""]
    by_family: dict = {}
    for item in run["items"]:
        spec = item["item"] if isinstance(item["item"], dict) else {}
        family = str(spec.get("family", item["kind"]))
        by_family.setdefault(family, []).append(item)
    for family in sorted(by_family):
        lines.append(f"## {family}")
        for item in by_family[family]:
            lines.append(f"- {item['label']}: **{item['status']}**")
            for check in item["checks"]:
                detail = f" ({check['detail']})" if check.get("detail") else ""
                lines.append(f"  - [{check['claim']}] {check['status']}{detail}")
        lines.append("")
    lines.append(f"Overall: **{run['overall']}** "
                 f"({run['counts']['pass']} pass, {run['counts']['fail']} fail, "
                 f"{run['counts']['undecided']} undecided)")
    return "\n".join(lines) + "\n"


def cmd_verify_catalog(args) -> int:
    manifest = default_manifest() if not args.manifest else io.load_json(args.manifest)
    if not isinstance(manifest, list):
        raise InputError("manifest must be a JSON list of items")
    run = run_verify_catalog(manifest, args.seed)
    if args.format == "md":
        _emit(manifest_markdown(run), args.out, as_json=False)
    else:
        _emit(run, args.out)
    return OK if run["overall"] == "PASS" else VERIFY_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanext",
        description="Exact verification of invariant structures on symmetric pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="echoed in verify-catalog output; results do not depend on it "
                            "(default 0)")
        p.add_argument("--format", choices=("json", "md"), default="json")

    p_build = sub.add_parser("build", help="build a graded algebra or pair and write JSON")
    p_build.add_argument("--family", required=True)
    p_build.add_argument("--params", default="", help="comma-separated key=value list")
    common(p_build)

    p_an = sub.add_parser("analyze-pair", help="semisimplicity, commutants, Killing restriction")
    p_an.add_argument("--pair", required=True, help="pair JSON path")
    common(p_an)

    p_ce = sub.add_parser("check-extension", help="validate an extension and report curvature")
    p_ce.add_argument("--extension", required=True, help="extension JSON path")
    common(p_ce)

    p_cl = sub.add_parser("classify", help="existence verdict for a pair and family")
    p_cl.add_argument("--pair", required=True, help="pair JSON path")
    p_cl.add_argument("--family", required=True)
    common(p_cl)

    p_vc = sub.add_parser("verify-catalog", help="run the verification grid")
    p_vc.add_argument("--manifest", help="manifest JSON path (default: built-in grid)")
    common(p_vc)

    return parser


_COMMANDS = {
    "build": cmd_build,
    "analyze-pair": cmd_analyze_pair,
    "check-extension": cmd_check_extension,
    "classify": cmd_classify,
    "verify-catalog": cmd_verify_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("CARTAN_EXT_SEED")
    if env_seed is not None:
        args.seed = int(env_seed)
    elif args.seed is None:
        args.seed = 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BAD_INPUT
    except CartanextError as exc:
        sys.stderr.write(f"verification error: {exc}\n")
        return VERIFY_FAIL
    except OSError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
