"""Cold-process benchmark of the cartanext verification engine.

    python3 perfbench/run.py                                # every workload, in turn
    python3 perfbench/run.py --workload grid_cold --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload ladder --trace 1    # per-layer metrics

Every item runs in a fresh interpreter (perfbench/child.py) that this
process starts and waits for before the next one: a closed loop with one
caller.  With --trace 0 the run repeats passes over the workload until
--seconds have gone by and the workload's fewest passes are done, then
prints the end-to-end metrics.  With --trace 1 it runs one untraced and one
traced pass over the same items, checks that their output digests agree,
and prints the per-layer metrics.  Outputs are checked in every pass; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import reference
import stats
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 150
MEASURE_CAP_S = 90  # no pass starts after this much measuring


def _grid_tasks(seed, rng):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cartanext.cli import default_manifest

    manifest = [stats.canonical(item) for item in default_manifest()]
    rng.shuffle(manifest)
    return [{"kind": "grid", "item": item, "seed": seed} for item in manifest]


def _ladder_tasks(seed, rng):
    rungs = list(child.RUNGS)
    rng.shuffle(rungs)
    return [{"kind": "rung", "rung": rung, "seed": seed} for rung in rungs]


def _analyze_tasks(seed, rng):
    return [{"kind": "analyze", "seed": seed}]


# name -> (tasks of one pass, one process per item?, fewest passes in a run).
# grid_cold: two passes pool 116 item times, ten or more of them above p90.
# ladder: seven long rungs a pass, so p90 has fewer than ten above it; a
# second pass damps the noise of one, and a third would make a run last a
# minute on a slow machine.  analyze: one set-up per pass, so four passes
# give the set-up median four samples; 141 items a pass.
WORKLOADS = {
    "grid_cold": (_grid_tasks, True, 2),
    "ladder": (_ladder_tasks, True, 2),
    "analyze": (_analyze_tasks, False, 4),
}

END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "item_p50_ref": "ref", "item_p90_ref": "ref",
              "setup_s": "s", "peak_rss_mb": "MB"}


def run_context() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "platform": platform.platform()}


def spawn(task: dict, trace: bool, hash_seed: int):
    """Run one task in a fresh interpreter; returns (spawn time, output or None, error).

    String hashing decides the iteration order of the engine's sets and so
    the path it takes, and with it an item's time; the caller fixes the hash
    seed per pass, the same in every run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    args = [sys.executable, str(HERE / "child.py"), json.dumps(dict(task, trace=int(trace)))]
    started = time.time()
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return started, None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        out = None
    if out is None:
        return started, None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    if not Path(out["engine"]).resolve().is_relative_to(SRC.resolve()):
        return started, None, f"engine imported from {out['engine']}, not from {SRC}"
    return started, out, ""


def run_pass(tasks, cold: bool, trace: bool, hash_seed: int) -> dict:
    """One pass over `tasks`: timings, item records and trace snapshots.

    After each child the reference work (`reference.py`) is sampled for a
    share of the child's time.  Each child's times are also given in units of
    the mean reference around it ("ref"), which cancels the machine's changes
    of speed.  A child of many items (`analyze`) samples the reference
    between its items itself and scales them; its own mean scales its pass.
    """
    result = {"wall_s": 0.0, "cpu_s": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0, "setups": [],
              "rss_mb": 0.0, "items": [], "traces": []}
    meter, bounds, runs, used = reference.Meter(), [0], [], []
    for task in tasks:
        started, out, error = spawn(task, trace, hash_seed)
        meter.after(time.time() - started)
        bounds.append(len(meter.samples))
        runs.append((task, started, out, error))
    for scale, (task, started, out, error) in zip(reference.scales(meter.samples, bounds), runs):
        if out is None:
            label = task.get("rung") or task.get("item") or task["kind"]
            result["items"].append({"label": label, "ms": None, "ref": None, "ok": False,
                                    "detail": error, "digest": "", "facts": None})
            continue
        wall = out["done"] - started if cold else out["pass_s"]
        scale = out.get("ref_ms", scale)
        used.append(scale)
        result["wall_s"] += wall
        result["cpu_s"] += out["cpu_s"]
        result["wall_ref"] += wall * 1000 / scale
        result["cpu_ref"] += out["cpu_s"] * 1000 / scale
        result["setups"].append(out["ready"] - started)
        result["rss_mb"] = max(result["rss_mb"], out["rss_mb"])
        for item in out["items"]:
            item.setdefault("ref", item["ms"] / scale)
        result["items"].extend(out["items"])
        if trace:
            result["traces"].append(out["trace"])
    result["ref_ms"] = statistics.fmean(used) if used else 0.0
    return result


def check_recorded(recorded, passes) -> int:
    """Mark items whose facts are not among those `recorded` for their label
    (label -> list of facts: output digests, or for `analyze` the results
    that do not depend on the seed); returns the number of passes whose
    facts, as a multiset per label, differ from the recorded ones."""
    want = {label: sorted(map(stats.canonical, facts)) for label, facts in recorded.items()}
    bad_passes = 0
    for p in passes:
        seen = {}
        for item in p["items"]:
            fact = stats.canonical(item["facts"])
            seen.setdefault(item["label"], []).append(fact)
            if item["ok"] and fact not in want.get(item["label"], []):
                item["ok"], item["detail"] = False, f"{fact} differs from the seed commit"
        if {k: sorted(v) for k, v in seen.items()} != want:
            bad_passes += 1
    return bad_passes


def item_times(passes) -> tuple:
    """Item times in ref, for the percentiles, and whether they are per-item
    medians.

    The times of all passes are pooled.  When that leaves fewer than ten
    above p90, p90 would be one sample's noise, so each item contributes the
    median of its passes instead.
    """
    by_item = {}
    for p in passes:
        for i in p["items"]:
            if i["ref"] is not None:
                by_item.setdefault(i["label"], []).append(i["ref"])
    pooled = [ms for times in by_item.values() for ms in times]
    if pooled and stats.percentile(pooled, 90)[1] < stats.BEYOND:
        return [stats.median(times) for times in by_item.values()], True
    return pooled, False


def end_to_end(passes) -> tuple:
    """End-to-end metrics; a metric with no sample, because every child
    failed, reads 0 and the run is reported incorrect anyway."""
    times, medians = item_times(passes)
    setups = [s for p in passes for s in p["setups"]]
    if not (times and setups):
        return dict.fromkeys(END_TO_END, 0.0), {"passes": len(passes), "samples": 0,
                                                "beyond_p90": 0, "setups": 0,
                                                "item_medians": medians}
    p50, _ = stats.percentile(times, 50)
    p90, beyond = stats.percentile(times, 90)
    metrics = {
        "wall_ref": stats.median([p["wall_ref"] for p in passes]),
        "cpu_ref": stats.median([p["cpu_ref"] for p in passes]),
        "item_p50_ref": p50,
        "item_p90_ref": p90,
        "setup_s": stats.median(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    notes = {"passes": len(passes), "samples": len(times), "beyond_p90": beyond,
             "setups": sum(len(p["setups"]) for p in passes), "item_medians": medians,
             "wall_s": stats.median([p["wall_s"] for p in passes]),
             "cpu_s": stats.median([p["cpu_s"] for p in passes]),
             "ref_ms": [round(p["ref_ms"], 3) for p in passes]}
    return metrics, notes


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    make_tasks, cold, min_passes = WORKLOADS[name]
    recorded = json.loads(DIGESTS.read_text())[name]
    rng = random.Random(seed)
    if trace:
        tasks = make_tasks(seed, rng)
        plain, traced = run_pass(tasks, cold, False, 1), run_pass(tasks, cold, True, 1)
        passes = [plain, traced]
        bad_passes = check_recorded(recorded, passes)
        for a, b in zip(plain["items"], traced["items"]):
            if b["ok"] and (a["label"], a["digest"]) != (b["label"], b["digest"]):
                b["ok"], b["detail"] = False, "traced output differs from the untraced pass"
        metrics = tracer.layer_metrics(tracer.merge(traced["traces"]))
        ratio = traced["wall_ref"] / plain["wall_ref"] if plain["wall_ref"] else 0.0
        metrics["trace_overhead_ratio"] = ratio
        units = {k: tracer.unit_of(k) for k in metrics}
        notes = {"passes": 2}
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(make_tasks(seed, rng), cold, False, len(passes) + 1))
            elapsed = time.perf_counter() - start
            if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and len(passes) >= min_passes):
                break
        bad_passes = check_recorded(recorded, passes)
        metrics, notes = end_to_end(passes)
        units = END_TO_END
    items = [i for p in passes for i in p["items"]]
    failed = sum(not i["ok"] for i in items)
    return {"metrics": metrics, "units": units, "notes": notes, "attempted": len(items),
            "failed": failed, "correct": failed == 0 and bad_passes == 0,
            "failures": [f"{i['label']}: {i['detail']}" for i in items if not i["ok"]][:20]}


def report(name: str, res: dict) -> None:
    notes = res["notes"]
    print(f"== {name}: {notes['passes']} passes, {res['attempted']} items, "
          f"{res['failed']} failed (fail_share {res['failed'] / res['attempted']:.4f}), "
          f"correct={res['correct']}")
    for key, value in res["metrics"].items():
        extra = ""
        if key == "item_p90_ref":
            kind = "item medians" if notes["item_medians"] else "samples"
            extra = f"   ({notes['samples']} {kind}, {notes['beyond_p90']} beyond p90)"
        elif key == "setup_s":
            extra = f"   (median of {notes['setups']} set-ups)"
        print(f"  {key:50s} {value:14.4f} {res['units'][key]}{extra}")
    if "ref_ms" in notes:
        print(f"  (unscaled: wall_s {notes['wall_s']:.4f} s, cpu_s {notes['cpu_s']:.4f} s; "
              f"1 ref = mean reference ms per pass {notes['ref_ms']})")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cartanext" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cartanext sources under {SRC}\n")
        return 2
    # One CPU for this process and every child, so that the reference samples
    # see the speed the children get; a VM's CPUs can differ at any moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    context = run_context()
    print("context: " + json.dumps(context, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    prefix = len(names) > 1
    metrics = {}
    for name, res in results.items():
        for key, value in res["metrics"].items():
            metrics[f"{name}.{key}" if prefix else key] = {"value": value,
                                                           "unit": res["units"][key]}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
