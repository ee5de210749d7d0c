"""The benchmark tracer wraps engine functions by name; each name must resolve.

`perfbench/tracer.py` is loaded from its file, unchanged.  A rename or a
deletion in the engine would otherwise only show when a traced benchmark run
fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(qualified: str):
    layer, *attrs = qualified.split(".")
    obj = importlib.import_module(f"cartanext.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("qualified", sorted(
    [f"{layer}.{cls}.{method}" for (layer, cls), methods in tracer.CLASS_METHODS.items()
     for method in methods]
    + list(tracer.ALIASES) + list(tracer.HOOKS)))
def test_traced_name_resolves(qualified):
    assert callable(_resolve(qualified))


def test_every_layer_is_a_module():
    for layer in tracer.LAYERS:
        importlib.import_module(f"cartanext.{layer}")


@pytest.mark.parametrize("metric", sorted(
    set(tracer.TIMED + tracer.CALLED) - set(tracer.ALIASES.values())))
def test_timed_span_names_resolve(metric):
    # spans not reported under an alias carry the function's own name
    assert callable(_resolve(metric))


def test_projective_path_names_are_listed():
    names = set(tracer.ALIASES) | set(tracer.HOOKS)
    assert {"classify.g0_action_solver", "extension.projective_normalization_operator",
            "extension.solve_projective_b2", "lie.make_algebra"} <= names
    assert {"classify.standard_witness", "lie.make_algebra"} <= set(tracer.TIMED)
    assert "ad_of_coords" in tracer.CLASS_METHODS[("lie", "StructureConstants")]
    assert "decompose" in tracer.CLASS_METHODS[("linalg", "SpanSolver")]
