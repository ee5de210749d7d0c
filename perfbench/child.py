"""Fresh-interpreter worker of the benchmark.

Runs one task, given as a JSON argument, and prints one JSON line with its
timings, the digests of its outputs and the outcome of its checks:

    python3 perfbench/child.py '{"kind": "rung", "rung": "projective-8", "seed": 1, "trace": 0}'

Kinds:
- "grid": one verify-catalog item through `cli.run_verify_catalog`;
- "rung": one ladder rung;
- "analyze": build the catalog objects of the analysis pass, then run it once.

The engine is imported from PYTHONPATH, which run.py points at the
checkout's src directory.  Checks run after each timed call with the tracer
paused, so they count neither in the item time nor in the layer metrics.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import oracle
import reference
from stats import canonical, digest

RUNGS = {
    "projective-8": ("verify", "projective", {"n": 8}),
    "quaternionic-3": ("verify", "quaternionic", {"n": 3}),
    "spinorial-5": ("verify", "spinorial", {"n": 5}),
    "h_projective-4": ("verify", "h_projective", {"n": 4}),
    "projective-10": ("build", "projective", {"n": 10}),
    "decide-group(sl(3,R))": ("decide", "group_type", {"base": "sl(3,R)"}),
    "decide-sp1_block(1,1)": ("decide", "sp1_block", {"p": 1, "q": 1}),
}

# Direct sums of group-type pairs analysed beside the default pair grid.
SUMS = (("sl(2,R)", "so(3)"), ("so(3)", "so(3)"), ("sl(2,R)", "sl(2,C)"))

# Pairs whose isotropy action lies in co(p, q) in the identity frame, with
# that (p, q): their standard witnesses have conformal targets.
CONFORMAL = {
    "group(so(3))": (0, 3),
    "group(su(2))": (0, 3),
    "(su(2,0),su(1,0)+su(1,0)+so(2))": (0, 2),
    "(su(2,1),su(1,1)+su(1,0)+so(2))": (2, 2),
    "(sp(2,1),sp(1)+sp(1,1))": (4, 4),
    "group(so(3))+group(so(3))": (0, 6),
}

# Targets the pass reads besides those of CONFORMAL: the row targets of the
# default manifest and the h-projective target of group(sl(2,C)).
TARGETS = (
    ("grassmannian", {"p": 2, "q": 2}),
    ("para_quaternionic", {"n": 2}),
    ("quaternionic", {"n": 2}),
    ("lagrangean", {"n": 2}),
    ("spinorial", {"n": 3}),
    ("su_pp", {"p": 2}),
    ("h_projective", {"n": 3}),
)

# Number of invariant complex structures returned per decided commutant label.
STRUCTURES_PER_LABEL = {"R": 0, "RxR": 0, "C": 2, "CxC": 4, "H": 2}


def cpu_seconds() -> float:
    return time.process_time()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def paused(rec):
    if rec is None:
        yield
        return
    rec.active = False
    try:
        yield
    finally:
        rec.active = True


def strings(rows) -> list:
    return [[str(x) for x in row] for row in rows]


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def is_complex_structure(j_rows, commuting=()) -> bool:
    """J^2 = -I, and J commutes with every matrix in `commuting`."""
    n = len(j_rows)
    minus = [[-x for x in row] for row in identity(n)]
    if oracle.matmul(j_rows, j_rows) != minus:
        return False
    return all(oracle.matmul(j_rows, a) == oracle.matmul(a, j_rows) for a in commuting)


# ---------------------------------------------------------------------------
# grid and ladder: one item per process
# ---------------------------------------------------------------------------


def grid_task(task, rec) -> dict:
    from cartanext import catalog, cli, io

    item = json.loads(task["item"])
    ready, start = time.time(), cpu_seconds()
    run = cli.run_verify_catalog([item], task["seed"])
    cpu = cpu_seconds()
    ms, done = (cpu - start) * 1000, time.time()
    with paused(rec):
        result = run["items"][0]
        ok = result["status"] == "PASS"
        detail = result["status"]
        if ok and item["kind"] == "pair":
            gram, _ = catalog.restricted_killing(catalog.build_pair(item["family"], item["params"]))
            expect = "signature=" + str(oracle.signature(gram.to_rows()))
            reported = next(c.get("detail") for c in result["checks"]
                            if c["name"] == "killing_restriction")
            if reported != expect:
                ok, detail = False, f"killing signature {reported} but oracle {expect}"
        text_digest = digest(io.canonical_dumps(result))
        entry = {"label": result["label"], "ms": ms, "ok": ok, "detail": detail,
                 "digest": text_digest, "facts": text_digest}
    return {"ready": ready, "done": done, "cpu_s": cpu, "items": [entry]}


def rung_task(task, rec) -> dict:
    from cartanext import catalog, classify, extension, io

    mode, family, params = RUNGS[task["rung"]]
    ready, start = time.time(), cpu_seconds()
    if mode == "decide":
        verdict = classify.decide_projective(catalog.build_pair(family, params))
    else:
        g = catalog.build_graded(family, params)
        failures = catalog.verify_graded(g) if mode == "verify" else []
    cpu = cpu_seconds()
    ms, done = (cpu - start) * 1000, time.time()
    with paused(rec):
        if mode == "decide":
            witness = verdict.witness
            ok = verdict.verdict == classify.EXISTS
            if ok:
                again = extension.solve_projective_b2(witness)
                ok = again.homogeneous_kernel_trivial and again.b2 == witness.b2_matrix()
            detail = f"verdict={verdict.verdict}, b2 unique={ok}"
            text = io.canonical_dumps({"verdict": io.verdict_to_json(verdict),
                                       "witness": io.extension_to_json(witness)})
        else:
            dims = {"dim_g": g.dim, "dim_gm1": g.dim_gm1}
            expected = catalog.expected_graded_dims(family, params)
            ok = dims == expected and not failures
            detail = f"dims={dims}, expected={expected}, failures={failures}"
            text = io.canonical_dumps(io.graded_to_json(g))
        entry = {"label": task["rung"], "ms": ms, "ok": ok, "detail": detail,
                 "digest": digest(text), "facts": digest(text)}
    return {"ready": ready, "done": done, "cpu_s": cpu, "items": [entry]}


# ---------------------------------------------------------------------------
# analyze: a warm catalog, then one pass of analyses over it
# ---------------------------------------------------------------------------


def with_frame(ext, frame_rows):
    """Copy of `ext` whose m -> g_-1 block is `frame_rows`."""
    from cartanext.extension import Extension
    from cartanext.linalg import Mat

    rows = ext.alpha.to_rows()
    for rl, r in enumerate(ext.target.minus_one):
        for cl, c in enumerate(ext.pair.m_indices):
            rows[r][c] = frame_rows[rl][cl]
    return Extension(ext.pair, ext.target, Mat.from_rows(rows), ext.label + "*")


def random_invertible(rng, n: int) -> list:
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if oracle.rank(m) == n:
            return m


class Analysis:
    """One pass of the `analyze` workload; each engine call is one item."""

    def __init__(self, seed: int, rec):
        from cartanext import catalog, cli

        self.seed = seed
        self.rec = rec
        self.rng = random.Random(seed)
        self.items = []
        # The reference is sampled between items, as run.py does between
        # children, and its time is left out of the pass.
        self.meter, self.bounds, self.meter_s = reference.Meter(), [0], 0.0
        pairs = [catalog.build_pair(f, p) for f, p in catalog.default_pair_grid()]
        for parts in SUMS:
            pairs.append(catalog.direct_sum_pairs(
                [catalog.build_pair("group_type", {"base": b}) for b in parts]))
        self.rng.shuffle(pairs)
        self.pairs = pairs
        self.rows = [(item["family"], catalog.build_pair(item["pair"]["family"],
                                                         item["pair"]["params"]))
                     for item in cli.default_manifest() if item["kind"] == "row"]
        self.targets = {}
        for name, (p, q) in CONFORMAL.items():
            self.targets[name] = catalog.build_graded("conformal", {"p": p, "q": q})
        for family, params in TARGETS:
            catalog.build_graded(family, params)

    def item(self, label, call, check):
        """Time `call` in CPU time, then check its value.

        `check` returns (ok, detail, summary, facts): `summary` is the whole
        output, compared between the untraced and traced pass; `facts` is the
        part that does not depend on the seed, compared with digests.json.
        """
        start = cpu_seconds()
        try:
            value = call()
        except Exception as exc:  # a raising engine call is a failed item
            self.record({"label": label, "ms": (cpu_seconds() - start) * 1000, "ok": False,
                         "detail": f"raised {exc!r}", "digest": "", "facts": None})
            return None
        ms = (cpu_seconds() - start) * 1000
        with paused(self.rec):
            try:
                ok, detail, summary, facts = check(value)
            except Exception as exc:  # a check that cannot run fails its item
                ok, detail, summary, facts = False, f"check raised {exc!r}", None, None
            self.record({"label": label, "ms": ms, "ok": bool(ok), "detail": detail,
                         "digest": digest(canonical(summary)), "facts": facts})
        return value

    def record(self, entry) -> None:
        """Keep an item's record, then sample the reference for its share."""
        self.items.append(entry)
        start = time.perf_counter()
        self.meter.after(entry["ms"] / 1000)
        self.bounds.append(len(self.meter.samples))
        self.meter_s += time.perf_counter() - start

    def run(self) -> None:
        for pair in self.pairs:
            self.analyse_pair(pair)
        for family, pair in self.rows:
            self.analyse_row(family, pair)

    def analyse_pair(self, pair) -> None:
        from cartanext import catalog, classify, io, lie
        from cartanext.extension import validate

        seed, name = self.seed, pair.name

        def centralizer(report):
            ok = report.labels_in_contract and report.product_structure_verified
            facts = [report.factor_labels, report.total_dim]
            return ok, f"labels={report.factor_labels}", facts, facts

        def conformal(report):
            gram, _ = catalog.restricted_killing(pair)
            pos, neg, _null = oracle.signature(gram.to_rows())
            menu = [tuple(s) for s in report.signatures]
            ok = (report.verdict.verdict == classify.EXISTS and (pos, neg) in menu
                  and all(p + q == pair.dim_m for p, q in menu)
                  and report.killing_is_member and report.cross_blocks_zero)
            summary = [report.form_space_dim, report.factor_form_dims, menu,
                       report.circle_parameters]
            facts = [report.verdict.verdict, report.form_space_dim, menu]
            return ok, f"killing=({pos},{neg}), menu={menu}", summary, facts

        def h_projective(verdict):
            summary, facts = [verdict.verdict, verdict.reason], [verdict.verdict]
            if verdict.verdict != classify.EXISTS:
                return verdict.verdict == classify.NOT_EXISTS, verdict.reason, summary, facts
            j = verdict.complex_structure.to_rows()
            h = set(pair.h_indices)
            keeps_split = all(j[r][c] == 0 for r in range(pair.dim) for c in range(pair.dim)
                              if (r in h) != (c in h))
            ok = (is_complex_structure(j) and keeps_split and pair.dim_m % 2 == 0
                  and verdict.conjugate_witness is not None)
            return ok, verdict.reason, summary + [strings(j)], facts

        def complex_structures(result):
            summary = [result.status, result.label, [strings(s.to_rows()) for s in result.structures]]
            facts = [result.status, result.label, len(result.structures)]
            if result.status != "decided":
                return result.label == "OTHER", result.note, summary, facts
            action = [a.to_rows() for a in rep.action]
            ok = (len(result.structures) == STRUCTURES_PER_LABEL.get(result.label, -1)
                  and all(is_complex_structure(s.to_rows(), action) for s in result.structures))
            return ok, f"{result.label}: {len(result.structures)} structures", summary, facts

        self.item(f"{name}:centralizer_report",
                  lambda: classify.centralizer_report(pair, seed=seed), centralizer)
        self.item(f"{name}:decide_conformal",
                  lambda: classify.decide_conformal(pair, seed=seed), conformal)
        self.item(f"{name}:decide_h_projective",
                  lambda: classify.decide_h_projective(pair, seed=seed), h_projective)
        with paused(self.rec):
            rep = catalog.isotropy_rep(pair)
        self.item(f"{name}:invariant_complex_structures",
                  lambda: lie.invariant_complex_structures(catalog.isotropy_rep(pair), seed=seed),
                  complex_structures)
        if pair.family != "direct_sum":  # pair_from_json rejects direct sums
            def round_trip():
                text = io.canonical_dumps(io.pair_to_json(pair))
                again = io.pair_from_json(io.load_json_text(text))
                return text, io.canonical_dumps(io.pair_to_json(again))

            self.item(f"{name}:pair_json_round_trip", round_trip, byte_identical)
        if name in CONFORMAL:
            witness = self.item(f"{name}:standard_witness",
                                lambda: classify.standard_witness(pair, self.targets[name]),
                                lambda w: (validate(w).passed, "conformal witness",
                                           strings(w.alpha.to_rows()),
                                           digest(canonical(strings(w.alpha.to_rows())))))
            if witness is None:
                return
            with paused(self.rec):
                scale = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 9))
                frame = witness.frame().to_rows()
                other = with_frame(witness, [[scale * x for x in row] for row in frame])
            self.frames_item(f"{name}:frames_equivalent", witness, other, expect="equivalent")

    def frames_item(self, label, witness, other, expect) -> None:
        from cartanext.equivalence import frames_equivalent

        def check(statuses):
            reflexive, forward, backward = statuses
            want_reflexive = "undecided" if expect == "undecided" else "equivalent"
            ok = reflexive == want_reflexive and forward == backward
            if expect is not None:
                ok = ok and forward == expect
            facts = statuses if expect is not None else [reflexive]
            return (ok, f"reflexive={reflexive}, forward={forward}, backward={backward}",
                    statuses, facts)

        self.item(label, lambda: [frames_equivalent(witness, witness).status,
                                  frames_equivalent(witness, other).status,
                                  frames_equivalent(other, witness).status], check)

    def analyse_row(self, family, pair) -> None:
        from cartanext import classify, io

        label = f"{pair.name}->{family}"

        def row(verdict):
            flat = any(c.get("flat") for c in verdict.certificates if isinstance(c, dict))
            ok = verdict.verdict == classify.EXISTS and flat
            text = io.canonical_dumps({"verdict": io.verdict_to_json(verdict),
                                       "witness": io.extension_to_json(verdict.witness)})
            return ok, verdict.reason, digest(text), [verdict.verdict, flat]

        verdict = self.item(f"{label}:verify_family_row",
                            lambda: classify.verify_family_row(family, pair), row)
        if verdict is None or verdict.witness is None:
            return
        witness = verdict.witness
        target = witness.target
        with paused(self.rec):
            frame = witness.frame().to_rows()
            if target.family in ("grassmannian", "para_quaternionic"):
                if target.family == "para_quaternionic":
                    p, q = 2, target.params["n"]
                else:
                    p, q = target.params["p"], target.params["q"]
                kron = oracle.kron(random_invertible(self.rng, q), random_invertible(self.rng, p))
                other, expect = with_frame(witness, oracle.matmul(kron, frame)), "equivalent"
            else:
                other = with_frame(witness, random_invertible(self.rng, len(frame)))
                expect = "undecided" if target.family == "su_pp" else None
        self.frames_item(f"{label}:frames_equivalent", witness, other, expect)

        def round_trip():
            text = io.canonical_dumps(io.extension_to_json(witness))
            again = io.extension_from_json(io.load_json_text(text))
            return text, io.canonical_dumps(io.extension_to_json(again))

        self.item(f"{label}:extension_json_round_trip", round_trip, byte_identical)


def byte_identical(texts):
    """Check of a JSON round trip: the text written again equals the first."""
    return texts[0] == texts[1], "byte-identical", digest(texts[0]), digest(texts[0])


def analyze_task(task, rec) -> dict:
    analysis = Analysis(task["seed"], rec)
    ready = time.time()
    cpu0, start = cpu_seconds(), time.perf_counter()
    analysis.run()
    pass_s = time.perf_counter() - start - analysis.meter_s
    cpu_s = cpu_seconds() - cpu0 - analysis.meter_s
    samples = analysis.meter.samples
    for item, scale in zip(analysis.items, reference.scales(samples, analysis.bounds)):
        item["ref"] = item["ms"] / scale
    return {"ready": ready, "done": time.time(), "cpu_s": cpu_s, "pass_s": pass_s,
            "items": analysis.items, "ref_ms": statistics.fmean(samples)}


TASKS = {"grid": grid_task, "rung": rung_task, "analyze": analyze_task}


def main(argv) -> int:
    task = json.loads(argv[1])
    import cartanext.cli  # noqa: F401  (imports every layer before tracing)

    rec = None
    if task["trace"]:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    out = TASKS[task["kind"]](task, rec)
    out["rss_mb"] = peak_rss_mb()
    out["engine"] = cartanext.__file__
    if rec is not None:
        rec.active = False
        out["trace"] = rec.snapshot()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
