#!/usr/bin/env python3
"""Appends one entry to BENCH_core.json from the parent's and the change's
`fractal_bench --all --out` directories of one session (the host's speed
drifts between sessions: only ratios within one entry compare):

    python3 scripts/bench_entry.py PARENT_OUT CHANGE_OUT COMMIT TESTS_PASSED TESTS_SECONDS
"""

import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def side(out):
    load = lambda name: json.load(open(os.path.join(out, name)))
    layers = load("motifs_enum.traced.json")["per_layer"]
    return {
        "job_s": {w: {k: load(f"{w}.json")["job_s"][k] for k in ("q1", "median", "q3")}
                  for w in ("motifs_enum", "motifs_plan", "fsm_cluster")},
        "traced": {p: layers[p]["value"]
                   for p in ("enum.ns_per_ext", "enum.total_ec", "pattern.exec_ns_per_ext",
                             "enum.edge_ns_per_ext", "enum.edge_total_ec", "core.fsm_step3_s")},
    }


def counted_lines():
    files = subprocess.run(["git", "ls-files", "*.rs", "*.toml", "*.py", "*.yml", "*.sh"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout.split()
    return sum(open(os.path.join(ROOT, p), "rb").read().count(b"\n") for p in files)


parent, change, commit, passed, seconds = sys.argv[1:6]
path = os.path.join(ROOT, "BENCH_core.json")
entries = json.load(open(path)) if os.path.exists(path) else []
entries.append({"commit": commit, "date": datetime.date.today().isoformat(),
                "parent": side(parent), "change": side(change),
                "counted_lines": counted_lines(),
                "tier1": {"passed": int(passed), "seconds": float(seconds)}})
with open(path, "w") as f:
    f.write(json.dumps(entries, indent=2) + "\n")
print(f"{path}: {len(entries)} entries")
