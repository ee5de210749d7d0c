"""Self-test of the benchmark's plumbing on tiny synthetic inputs.

    python3 perfbench/selftest.py

Covers percentile selection with the ten-beyond rule, self-time
subtraction, the repeat-ratio and cache-hit counting, the exact oracles and
digest stability.  It runs no workload and needs no engine.
"""

from __future__ import annotations

import statistics
import unittest
from fractions import Fraction
from types import SimpleNamespace

import oracle
import reference
import run
import stats
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class PercentileTest(unittest.TestCase):
    def test_ten_beyond_needs_a_hundred_samples(self):
        self.assertEqual(stats.percentile(range(100), 90), (89, 10))
        self.assertEqual(stats.percentile(range(99), 90)[1], 9)
        self.assertEqual(stats.percentile(range(116), 90), (104, 11))

    def test_median_and_single_sample(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), (3, 1))
        self.assertEqual(stats.percentile([7], 90), (7, 0))

    def test_few_samples_fall_back_to_item_medians(self):
        def passes(per_pass):
            return [{"items": [{"label": str(k), "ref": ms} for k, ms in enumerate(row)]}
                    for row in per_pass]

        few = passes([[1, 5, 9], [3, 5, 7]])
        self.assertEqual(run.item_times(few), ([2, 5, 8], True))
        many = passes([list(range(60)), list(range(60))])
        times, medians = run.item_times(many)
        self.assertEqual((len(times), medians), (120, False))

    def test_reference_is_sampled_in_proportion_to_measured_time(self):
        meter = reference.Meter()
        meter.after(0.0)  # every child is followed by at least one sample
        meter.after(1e-6)
        self.assertEqual(len(meter.samples), 2)
        meter.after(1.0)  # in all, the samples run for SHARE of the time measured
        self.assertGreaterEqual(sum(meter.samples), 1000 * reference.SHARE * 1.000001)

    def test_each_child_is_scaled_by_the_samples_around_it(self):
        w = reference.WINDOW
        samples = [1.0] * w + [3.0] * w + [5.0] * w
        # each of three long children was followed by WINDOW samples
        self.assertEqual(reference.scales(samples, [0, w, 2 * w, 3 * w]), [1.0, 2.0, 4.0])

    def test_short_children_widen_the_window(self):
        w = reference.WINDOW
        samples = [float(k) for k in range(2 * w)]
        bounds = list(range(2 * w + 1))  # one sample after each of 2w children
        scales = reference.scales(samples, bounds)
        self.assertEqual(scales[0], statistics.fmean(samples[:w]))
        self.assertEqual(scales[w], statistics.fmean(samples[w // 2:w // 2 + w]))
        few = reference.scales([2.0, 4.0], [0, 1, 2])  # a pass with fewer samples
        self.assertEqual(few, [3.0, 3.0])

    def test_relative_iqr(self):
        self.assertAlmostEqual(stats.relative_iqr([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 1.0)


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.rec = tracer.Recorder(clock=self.clock)

    def advance(self, seconds):
        self.clock.now += seconds

    def test_nested_spans_subtract_children(self):
        def inner():
            self.advance(2)

        wrapped_inner = self.rec.span("a.inner", inner)

        def outer():
            self.advance(1)
            wrapped_inner()
            self.advance(3)
            wrapped_inner()

        self.rec.span("a.outer", outer)()
        self.assertEqual(self.rec.spans["a.outer"], [1, 8.0, 4.0])
        self.assertEqual(self.rec.spans["a.inner"], [2, 4.0, 4.0])

    def test_recursive_span_counts_inclusive_time_once(self):
        def walk(depth):
            self.advance(1)
            if depth:
                wrapped(depth - 1)

        wrapped = self.rec.span("a.walk", walk)
        wrapped(2)
        calls, inclusive, own = self.rec.spans["a.walk"]
        self.assertEqual((calls, inclusive, own), (3, 3.0, 3.0))

    def test_paused_recorder_records_nothing(self):
        self.rec.active = False
        self.rec.span("a.f", lambda: self.advance(1))()
        self.assertEqual(self.rec.spans, {})


class CountingTest(unittest.TestCase):
    def test_repeat_ratio_is_distinct_targets_over_calls(self):
        rec = tracer.Recorder(clock=FakeClock())
        before, _ = tracer.HOOKS["extension.projective_normalization_operator"]
        solver = rec.span("extension.normalization_operator", lambda target: None, before)
        for params in ({"n": 2}, {"n": 2}, {"n": 3}, {"n": 2}):
            solver(SimpleNamespace(family="projective", params=params))
        metrics = tracer.layer_metrics(tracer.merge([rec.snapshot()]))
        self.assertEqual(metrics["extension.normalization_operator_repeat_ratio"], 0.5)
        self.assertEqual(metrics["classify.g0_solver_repeat_ratio"], 0.0)

    def test_cache_hit_keys_on_family_and_sorted_params(self):
        rec = tracer.Recorder(clock=FakeClock())
        before, _ = tracer.HOOKS["catalog.build_graded"]
        build = rec.span("catalog.build", lambda family, params: None, before)
        build("conformal", {"p": 1, "q": 2})
        build("conformal", {"q": 2, "p": 1})
        build("grassmannian", {"p": 1, "q": 2})
        build("conformal", {"p": 2, "q": 1})
        metrics = tracer.layer_metrics(tracer.merge([rec.snapshot()]))
        self.assertEqual(metrics["catalog.build_calls"], 4)
        self.assertEqual(metrics["catalog.cache_hit_ratio"], 0.25)

    def test_merge_sums_processes(self):
        one = {"spans": {"lie.commutant": [2, 1.0, 0.5]}, "counters": {"lie.generic_draws": 10}}
        two = {"spans": {"lie.commutant": [1, 0.5, 0.5]}, "counters": {"lie.generic_draws": 5}}
        metrics = tracer.layer_metrics(tracer.merge([one, two]))
        self.assertEqual(metrics["lie.commutant_ms"], 1500.0)
        self.assertEqual(metrics["lie.commutant_self_ms"], 1000.0)
        self.assertEqual(metrics["lie.generic_draws"], 15)
        self.assertEqual(metrics["lie.draw_useful_ratio"], 0.0)
        self.assertEqual(metrics["lie.self_ms"], 1000.0)


class DigestTest(unittest.TestCase):
    def test_digest_ignores_key_order_and_sees_values(self):
        a = {"label": "x", "checks": [{"name": "n", "status": "PASS"}]}
        b = {"checks": [{"status": "PASS", "name": "n"}], "label": "x"}
        c = {"label": "x", "checks": [{"name": "n", "status": "FAIL"}]}
        self.assertEqual(stats.digest(stats.canonical(a)), stats.digest(stats.canonical(b)))
        self.assertNotEqual(stats.digest(stats.canonical(a)), stats.digest(stats.canonical(c)))

    def test_recorded_facts_are_keyed_by_label_not_order(self):
        recorded = {"a": ["1"], "b": ["2", "3"]}

        def item(label, facts):
            return {"label": label, "facts": facts, "ok": True, "detail": ""}

        shuffled = {"items": [item("b", "3"), item("a", "1"), item("b", "2")]}
        self.assertEqual(run.check_recorded(recorded, [shuffled]), 0)
        self.assertTrue(all(i["ok"] for i in shuffled["items"]))
        wrong = {"items": [item("a", "1"), item("b", "2"), item("b", "9")]}
        missing = {"items": [item("a", "1"), item("b", "2")]}
        self.assertEqual(run.check_recorded(recorded, [wrong, missing]), 2)
        self.assertEqual([i["ok"] for i in wrong["items"]], [True, True, False])

    def test_recorded_facts_may_be_json_values(self):
        recorded = {"p:h": [["EXISTS"]], "p:cs": [["decided", "C", 2]]}
        good = {"items": [{"label": "p:cs", "facts": ["decided", "C", 2], "ok": True},
                          {"label": "p:h", "facts": ["EXISTS"], "ok": True}]}
        self.assertEqual(run.check_recorded(recorded, [good]), 0)
        flipped = {"items": [{"label": "p:cs", "facts": ["undecided", "OTHER", 0], "ok": True},
                             {"label": "p:h", "facts": ["NOT_EXISTS"], "ok": True}]}
        self.assertEqual(run.check_recorded(recorded, [flipped]), 1)
        self.assertEqual([i["ok"] for i in flipped["items"]], [False, False])


class OracleTest(unittest.TestCase):
    def test_signature(self):
        self.assertEqual(oracle.signature([[1, 0, 0], [0, -2, 0], [0, 0, 0]]), (1, 1, 1))
        self.assertEqual(oracle.signature([[0, 1], [1, 0]]), (1, 1, 0))
        self.assertEqual(oracle.signature([[2, 1], [1, 2]]), (2, 0, 0))

    def test_char_poly(self):
        # det(tI - [[1,2],[3,4]]) = t^2 - 5t - 2
        self.assertEqual(oracle.char_poly([[1, 2], [3, 4]]), [1, -5, -2])

    def test_rank_and_kron(self):
        self.assertEqual(oracle.rank([[1, 2], [2, 4]]), 1)
        k = oracle.kron([[1, 2], [0, 1]], [[0, 1], [1, 0]])
        self.assertEqual(k[0], [0, 1, 0, 2])
        self.assertEqual(oracle.rank(k), 4)
        self.assertEqual(oracle.matmul([[Fraction(1, 2)]], [[4]]), [[2]])


if __name__ == "__main__":
    unittest.main()
