#!/usr/bin/env python3
"""Appends one entry to BENCH_core.json from alternated parent/change pairs
of `fractal_bench` runs made in one session (the host's speed drifts
between sessions: only figures within one entry compare):

    python3 scripts/bench_entry.py PAIRS_DIR COMMIT TESTS_PASSED TESTS_SECONDS

PAIRS_DIR holds, for each pair, the last stdout line of
`fractal_bench --workload W --seed S` run on the parent as `p_W_S.json`
and, right after it, on the change as `c_W_S.json`. Per workload and
end-to-end metric the entry records both medians, the median of the
per-pair ratios (change / parent), how many pairs the change won, the
distance between the parent's quartiles, and the seeds.
"""

import datetime
import glob
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pairs(pairs_dir):
    """{workload: [(seed, parent_metrics, change_metrics)]}, by seed."""
    found = {}
    for path in glob.glob(os.path.join(pairs_dir, "p_*_*.json")):
        workload, seed = re.fullmatch(r"p_(.+)_(\d+)\.json", os.path.basename(path)).groups()
        change = os.path.join(pairs_dir, f"c_{workload}_{seed}.json")
        sides = [json.load(open(p)) for p in (path, change)]
        for p, doc in zip((path, change), sides):
            if not doc["correct"] or doc["failed"]:
                sys.exit(f"{p}: a run with failed jobs is no measurement")
        found.setdefault(workload, []).append((int(seed), *(d["metrics"] for d in sides)))
    return {w: sorted(runs) for w, runs in sorted(found.items())}


def summary(runs, metric, better):
    parent = [p[metric]["value"] for _, p, _ in runs]
    change = [c[metric]["value"] for _, _, c in runs]
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "median_ratio": statistics.median(c / p for p, c in zip(parent, change)),
        "wins": won,
        "parent_quartile_distance": q3 - q1,
    }


def counted_lines():
    files = subprocess.run(["git", "ls-files", "*.rs", "*.toml", "*.py", "*.yml", "*.sh"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout.split()
    return sum(open(os.path.join(ROOT, p), "rb").read().count(b"\n") for p in files)


def main(argv):
    if len(argv) != 5:
        sys.exit(__doc__)
    pairs_dir, commit, passed, seconds = argv[1:]
    end_to_end = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]
    workloads = {}
    for workload, runs in pairs(pairs_dir).items():
        if len(runs) < 2:
            sys.exit(f"{workload}: {len(runs)} pair(s); quartiles need two")
        workloads[workload] = {
            "pairs": len(runs),
            "seeds": [seed for seed, _, _ in runs],
            **{m["name"]: summary(runs, m["name"], m["better"]) for m in end_to_end},
        }
    path = os.path.join(ROOT, "BENCH_core.json")
    entries = json.load(open(path)) if os.path.exists(path) else []
    entries.append({"commit": commit, "date": datetime.date.today().isoformat(),
                    "source": "pairs", "workloads": workloads,
                    "counted_lines": counted_lines(),
                    "tier1": {"passed": int(passed), "seconds": float(seconds)}})
    with open(path, "w") as f:
        f.write(json.dumps(entries, indent=2) + "\n")
    print(f"{path}: {len(entries)} entries")


if __name__ == "__main__":
    main(sys.argv)
