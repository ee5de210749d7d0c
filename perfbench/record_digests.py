"""Record the facts that the items of every workload are checked against.

    python3 perfbench/record_digests.py

Runs two untraced passes of each workload, with different seeds and hash
seeds, and writes perfbench/digests.json, keyed by item label.  For
grid_cold and ladder the facts are digests of the items' canonical JSON; for
analyze they are the verdicts, commutant labels, structure counts and other
results that must not depend on the seed.  Nothing is written when an item
fails or when the two passes disagree.  Run it only on a commit whose
outputs are known good: the committed file was recorded on the seed engine,
and a change that keeps verdicts and JSON bytes the same must not need a new
one.
"""

from __future__ import annotations

import json
import random
import sys

import run
import stats

SEEDS = (0, 1)


def facts_by_label(items) -> dict:
    facts = {}
    for item in items:
        facts.setdefault(item["label"], []).append(item["facts"])
    return {label: sorted(f, key=stats.canonical) for label, f in sorted(facts.items())}


def main() -> int:
    recorded = {}
    for name, (make_tasks, cold, _) in run.WORKLOADS.items():
        runs = []
        for hash_seed, seed in enumerate(SEEDS, start=1):
            result = run.run_pass(make_tasks(seed, random.Random(seed)), cold, False, hash_seed)
            bad = [f"{i['label']}: {i['detail']}" for i in result["items"] if not i["ok"]]
            if bad:
                sys.stderr.write(f"not recording; failed {name} items:\n  "
                                 + "\n  ".join(bad) + "\n")
                return 1
            runs.append(facts_by_label(result["items"]))
        if runs[0] != runs[1]:
            differ = sorted(k for k in runs[0].keys() | runs[1].keys()
                            if runs[0].get(k) != runs[1].get(k))
            sys.stderr.write(f"not recording; {name} facts depend on the seed:\n  "
                             + "\n  ".join(differ) + "\n")
            return 1
        recorded[name] = runs[0]
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
