"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ladder --runs 10

Runs `run.py --trace 0` once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs and the distance between their
first and third quartiles as a share of that median, beside the metric's
bound from BENCHMARK.json.  A spread under a third of the bound is steady.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import stats

FIRST_SEED = 1


def main(argv=None) -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    values, correct = {}, True
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4f}"
                                           for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {args.runs} runs, all correct={correct}")
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = stats.relative_iqr(values[name])
        verdict = "steady" if spread < bound / 3 else "NOT steady"
        print(f"  {name:14s} median {stats.median(values[name]):12.4f} {metric['unit']:3s} "
              f"spread {spread:.4f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
