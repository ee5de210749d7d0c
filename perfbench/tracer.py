"""Layer tracer: measures the engine from outside, without editing it.

`install` wraps every public function of the layer modules in a span and
rebinds the wrapper in every `cartanext` module namespace that imported the
function by name (`solve_linear` is bound in linalg, lie, classify,
extension and equivalence).  Methods of `SpanSolver`, `StructureConstants`
and `Representation` are patched on the class, and `Mat` construction and
products are counted on the class.  A span records calls, inclusive time
(outermost activation of its name only) and self time (its duration minus
the time covered by nested spans).  Hooks add counters where the work
happens: elimination sizes, catalog cache hits, split failures and so on.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "poly", "bases", "lie", "catalog", "extension", "classify",
          "equivalence", "io", "cli")

# Per-entry scalar helpers called from the innermost loops; a span around
# them would cost more than the work it measures.
SKIP = frozenset({"linalg.frac", "io.rational_str", "io.parse_rational",
                  "bases.quat_mul", "bases.quat_conj"})

# Spans reported under a metric name rather than the function's own name.
ALIASES = {
    "lie.StructureConstants.jacobi_witnesses": "lie.jacobi",
    "lie.largest_invariant_subspace_dim": "lie.ideal_check",
    "lie.killing_form": "lie.killing",
    "lie.Representation.__init__": "lie.representation",
    "catalog.verify_graded": "catalog.verify",
    "catalog.verify_pair": "catalog.verify",
    "catalog.build_graded": "catalog.build",
    "catalog.build_pair": "catalog.build",
    "extension.solve_projective_b2": "extension.b2",
    "extension.projective_normalization_operator": "extension.normalization_operator",
    "classify.g0_action_solver": "classify.g0_solver",
    "classify.verify_family_row": "classify.row",
    "linalg.minimal_polynomial": "linalg.minpoly",
    "poly.factor_squarefree": "poly.factor",
    "linalg.solve_linear": "linalg.solve",
    "linalg.kernel_of_sparse_rows": "linalg.sparse_kernel",
    "linalg.SpanSolver.insert": "linalg.span",
    "linalg.SpanSolver.contains": "linalg.span",
    "linalg.SpanSolver.decompose": "linalg.span",
    "linalg.symmetric_signature": "linalg.signature",
    "linalg.matrix_rank": "linalg.rank",
    "io.canonical_dumps": "io.dumps",
    "io.load_json": "io.load",
    "io.load_json_text": "io.load",
}

# Class methods given spans, by layer and class; accessors such as
# StructureConstants.row are left out because they sit in inner loops.
CLASS_METHODS = {
    ("linalg", "SpanSolver"): ("insert", "contains", "decompose"),
    ("lie", "StructureConstants"): ("bracket_coords", "ad_matrix", "ad_of_coords",
                                    "antisymmetry_holds", "jacobi_witnesses"),
    ("lie", "Representation"): ("__init__",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _params_key(params) -> str:
    return repr(sorted(params.items()))


def _cache_probe(kind):
    def before(rec, args, kwargs):
        key = (kind, _arg(args, kwargs, 0, "family"), _params_key(_arg(args, kwargs, 1, "params")))
        if key in rec.sets["catalog.build_keys"]:
            rec.counters["catalog.build_hits"] += 1
        rec.sets["catalog.build_keys"].add(key)
    return before


def _distinct_targets(counter):
    def before(rec, args, kwargs):
        target = _arg(args, kwargs, 0, "target")
        rec.sets[counter].add((target.family, _params_key(target.params)))
    return before


def _after_make_algebra(rec, args, kwargs, algebra):
    table = algebra.constants.table
    dim = algebra.dim
    rec.counters["lie.structure_pairs"] += dim * (dim - 1) // 2
    rec.counters["lie.structure_zero_pairs"] += sum(
        1 for i in range(dim) for j in range(i + 1, dim) if not table[i][j])


def _before_solve(rec, args, kwargs):
    a = _arg(args, kwargs, 0, "a")
    rec.counters["linalg.solve_cells"] += a.rows * a.cols


def _before_sparse_kernel(rec, args, kwargs):
    rec.counters["linalg.sparse_kernel_rows"] += len(_arg(args, kwargs, 0, "rows"))


def _after_span_insert(rec, args, kwargs, independent):
    rec.counters["linalg.span_inserts"] += 1
    rec.counters["linalg.span_insert_independent"] += bool(independent)


def _after_split(rec, args, kwargs, projectors):
    rec.counters["lie.split_failures"] += projectors is None


def _after_commutant(rec, args, kwargs, cls):
    rec.counters["lie.drawing_classifications"] += cls.generic_minimal_polynomial is not None


def _after_frames_equivalent(rec, args, kwargs, result):
    rec.counters["equivalence.undecided"] += result.status == "undecided"


def _after_dumps(rec, args, kwargs, text):
    rec.counters["io.bytes_out"] += len(text.encode("utf-8"))


HOOKS = {
    "catalog.build_graded": (_cache_probe("graded"), None),
    "catalog.build_pair": (_cache_probe("pair"), None),
    "lie.make_algebra": (None, _after_make_algebra),
    "linalg.solve_linear": (_before_solve, None),
    "linalg.kernel_of_sparse_rows": (_before_sparse_kernel, None),
    "linalg.SpanSolver.insert": (None, _after_span_insert),
    "lie.split_idempotents": (None, _after_split),
    "lie.commutant": (None, _after_commutant),
    "equivalence.frames_equivalent": (None, _after_frames_equivalent),
    "io.canonical_dumps": (None, _after_dumps),
    "extension.projective_normalization_operator":
        (_distinct_targets("extension.normalization_operator_targets"), None),
    "classify.g0_action_solver": (_distinct_targets("classify.g0_solver_targets"), None),
}


class Recorder:
    """Span statistics and counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.spans = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counters = defaultdict(int)
        self.sets = defaultdict(set)
        self._children = []  # per open span: seconds covered by nested spans
        self._open = defaultdict(int)  # name -> open activations

    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` so each call is recorded as a span called `name`."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(rec, args, kwargs)
            rec._open[name] += 1
            rec._children.append(0.0)
            start = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = rec.clock() - start
                nested = rec._children.pop()
                if rec._children:
                    rec._children[-1] += elapsed
                rec._open[name] -= 1
                stat = rec.spans.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                if not rec._open[name]:
                    stat[1] += elapsed
                stat[2] += elapsed - nested
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn, amount=lambda args: 1):
        """Wrap `fn` so each call adds `amount(args)` to a counter, without a span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active:
                rec.counters[name] += amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        for name, values in self.sets.items():
            counters[name] = len(values)
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counters": counters}


def install(rec: Recorder) -> None:
    """Wrap the imported engine in place."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cartanext" or name.startswith("cartanext.")]
    layer_module = {layer: sys.modules[f"cartanext.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, mod in layer_module.items():
        for name, obj in list(vars(mod).items()):
            qual = f"{layer}.{name}"
            if (name.startswith("_") or qual in SKIP or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            before, after = HOOKS.get(qual, (None, None))
            wrappers[obj] = rec.span(ALIASES.get(qual, qual), obj, before, after)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(layer_module[layer], cls_name)
        for method in methods:
            qual = f"{layer}.{cls_name}.{method}"
            before, after = HOOKS.get(qual, (None, None))
            setattr(cls, method, rec.span(ALIASES.get(qual, qual), getattr(cls, method),
                                          before, after))
    mat = layer_module["linalg"].Mat
    mat.__init__ = rec.counter("linalg.mat_entries_built", mat.__init__,
                               lambda args: args[1] * args[2])
    mat.__matmul__ = rec.counter("linalg.matmul_calls", mat.__matmul__)
    lie = layer_module["lie"]
    lie._generic_element = rec.counter("lie.generic_draws", lie._generic_element)


# ---------------------------------------------------------------------------
# Per-layer metrics from the snapshots of the traced processes
# ---------------------------------------------------------------------------

# Spans reported as <name>_ms (inclusive) and <name>_self_ms.
TIMED = (
    "lie.make_algebra", "lie.jacobi", "lie.ideal_check", "catalog.verify", "lie.killing",
    "extension.b2", "extension.normalization_operator", "classify.g0_solver",
    "classify.standard_witness", "lie.commutant_basis", "lie.commutant",
    "lie.split_idempotents", "linalg.minpoly", "poly.factor", "catalog.isotropy_rep",
    "lie.representation", "catalog.factor_decomposition", "catalog.build", "linalg.solve",
    "linalg.sparse_kernel", "linalg.span", "linalg.signature", "linalg.rank",
    "equivalence.frames_equivalent", "classify.decide_conformal",
    "classify.decide_h_projective", "classify.row", "io.dumps", "io.load",
)

# Spans whose call count is a metric, as <name>_calls.
CALLED = ("lie.make_algebra", "linalg.minpoly", "catalog.isotropy_rep", "catalog.build")

# Counters reported as they are.
COUNTED = (
    "lie.structure_pairs", "lie.split_failures", "lie.generic_draws", "linalg.solve_cells",
    "linalg.sparse_kernel_rows", "linalg.matmul_calls", "linalg.mat_entries_built",
    "io.bytes_out",
)


def merge(snapshots) -> dict:
    """Sum the snapshots of several processes."""
    spans, counters = defaultdict(lambda: [0, 0.0, 0.0]), defaultdict(int)
    for snap in snapshots:
        for name, values in snap["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], values)]
        for name, value in snap["counters"].items():
            counters[name] += value
    return {"spans": dict(spans), "counters": dict(counters)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snapshot) -> dict:
    """Per-layer metric values (name -> number) from a merged snapshot.

    A ratio whose base is zero, because its layer was never called, reads 0.
    """
    spans, counters = snapshot["spans"], snapshot["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    out = {}
    for name in TIMED:
        _calls, inclusive, own = spans.get(name, [0, 0.0, 0.0])
        out[f"{name}_ms"] = inclusive * 1000
        out[f"{name}_self_ms"] = own * 1000
    for name in CALLED:
        out[f"{name}_calls"] = calls(name)
    for name in COUNTED:
        out[name] = counters.get(name, 0)
    out["lie.structure_zero_ratio"] = _ratio(counters.get("lie.structure_zero_pairs", 0),
                                             counters.get("lie.structure_pairs", 0))
    out["extension.normalization_operator_repeat_ratio"] = _ratio(
        counters.get("extension.normalization_operator_targets", 0),
        calls("extension.normalization_operator"))
    out["classify.g0_solver_repeat_ratio"] = _ratio(counters.get("classify.g0_solver_targets", 0),
                                                    calls("classify.g0_solver"))
    out["lie.draw_useful_ratio"] = _ratio(
        counters.get("lie.drawing_classifications", 0) + calls("lie.split_idempotents"),
        counters.get("lie.generic_draws", 0))
    out["catalog.cache_hit_ratio"] = _ratio(counters.get("catalog.build_hits", 0),
                                            calls("catalog.build"))
    out["linalg.span_insert_independent_ratio"] = _ratio(
        counters.get("linalg.span_insert_independent", 0), counters.get("linalg.span_inserts", 0))
    out["equivalence.undecided_share"] = _ratio(counters.get("equivalence.undecided", 0),
                                                calls("equivalence.frames_equivalent"))
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1000 * sum(v[2] for k, v in spans.items()
                                             if k.startswith(layer + "."))
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "io.bytes_out":
        return "bytes"
    return "count"
