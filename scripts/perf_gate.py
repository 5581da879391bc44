#!/usr/bin/env python3
"""CI perf-regression gate over fractal-perf-smoke work counters.

Compares a fresh `perf_smoke` JSON document against the checked-in
baseline (`ci/perf-baseline.json`) and fails when any gated counter
drifts beyond its tolerance. Deterministic counters (result counts,
extension cost, unit counts, kernel call mix) are gated tightly —
exact by default — because the deterministic leg runs with work
stealing disabled; scheduling-dependent metrics in the parallel leg
are gated only by loose absolute upper bounds. Wall-clock times are
reported but never gated.

The baseline's `unpinned` map names the counters no gate can pin
(wall-clock and scheduling-dependent ones), each with its reason; a
`crates/runtime` test holds every counter to a pin or an entry there, and
`update` carries the map over unchanged. Its `repinned` map gives, for
each counter the last deliberate refresh moved, the old and new value and
why; `update` carries it over too, and whoever next re-pins on purpose
rewrites it.

Usage:
    perf_gate.py check <smoke.json> [--baseline ci/perf-baseline.json]
    perf_gate.py update <smoke.json> [--baseline ci/perf-baseline.json]
"""

import json
import sys
from pathlib import Path

SMOKE_SCHEMA = "fractal-perf-smoke/1"
BASELINE_SCHEMA = "fractal-perf-baseline/1"

# Relative tolerance per deterministic counter (0.0 = must match exactly).
# Result counts and unit counts are invariants of the algorithms; the
# kernel call mix is a deterministic function of the adaptive crossover
# heuristic, so any drift there is a real behavior change that should be
# acknowledged by refreshing the baseline.
DETERMINISTIC_TOLERANCES = {
    "count": 0.0,
    "total_units": 0.0,
    "total_ec": 0.0,
    "kernel_merge": 0.0,
    "kernel_gallop": 0.0,
    "kernel_bitset": 0.0,
    # Elements scanned tracks the hot-path work volume: allow a whisker of
    # slack so counter-neutral refactors (e.g. accounting of partial
    # scans) do not force a baseline churn, while a real 20% regression
    # fails loudly.
    "kernel_scanned": 0.02,
    "arena_peak_bytes": 0.10,
    # Planner counters are a pure function of (task, graph): pinned at zero
    # on every enumerate leg (the planner must not run when not asked) and
    # at the compiled plan's exact shape on the decomposed leg.
    "plans_compiled": 0.0,
    "subpatterns_counted": 0.0,
    "ie_terms": 0.0,
}

# Cross-workload speedup gates: the first workload's counter must be
# strictly below the second's in the *smoke* run. The decomposed 5-motif
# plan exists to beat plain enumeration on extension cost; losing that edge
# is a planner regression even if both legs stay individually stable.
SPEEDUP_GATES = (
    ("total_ec", "motifs_k5_decomposed", "motifs_k5_enumerate"),
)

# Absolute upper bounds for the scheduling-dependent parallel leg.
PARALLEL_BOUNDS = {
    "imbalance": 0.60,
    "steal_overhead": 0.50,
}

# Recovery counters that must be exactly zero in every fault-free leg: a
# nonzero value means the fault-tolerance machinery leaked into the
# fault-free path (spurious retries, watchdog trips, phantom recoveries).
# net_units must likewise be zero: single-process legs have no cluster
# substrate attached, so any externally pulled unit is a leak from the
# fractal-net hooks into plain execution.
FAULT_COUNTERS = (
    "faults_injected",
    "units_retried",
    "units_reexecuted",
    "watchdog_trips",
    "recovery_ns",
    "units_lost",
    # Fault-tap drains only happen when a tap is explicitly configured;
    # the smoke legs never configure one.
    "tap_drained",
    "net_units",
    # Serve-path counters: a single-process leg never goes through the
    # job-server admission or snapshot cache, so any nonzero value means
    # `fractal serve` plumbing leaked into plain execution.
    "jobs_admitted",
    "jobs_rejected",
    "snapshot_evictions",
    # Durability / degraded-link counters: fault-free single-process legs
    # run with no journal and no link-fault seed armed, so replayed
    # records, resumed jobs, injected link faults, or client reconnects
    # all indicate the crash-consistency machinery leaked.
    "journal_replayed",
    "resumed_jobs",
    "link_faults_injected",
    "client_reconnects",
    # A single-process leg has no worker to send a graph to.
    "graph_bytes_sent",
)


def load(path):
    with open(path) as f:
        return json.load(f)


def check(smoke_path, baseline_path):
    smoke = load(smoke_path)
    if smoke.get("schema") != SMOKE_SCHEMA:
        sys.exit(f"perf-gate: {smoke_path} is not a {SMOKE_SCHEMA} document")
    baseline = load(baseline_path)
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(f"perf-gate: {baseline_path} is not a {BASELINE_SCHEMA} document")

    failures = []
    checked = 0

    for workload, base_counters in sorted(baseline["deterministic"].items()):
        if workload == "faults":
            continue
        got_counters = smoke.get("deterministic", {}).get(workload)
        if got_counters is None:
            failures.append(f"deterministic workload '{workload}' missing from smoke run")
            continue
        for key, base in sorted(base_counters.items()):
            if key not in DETERMINISTIC_TOLERANCES:
                continue  # elapsed_ms and friends: informational only
            tol = DETERMINISTIC_TOLERANCES[key]
            got = got_counters.get(key)
            if got is None:
                failures.append(f"{workload}.{key}: missing from smoke run")
                continue
            checked += 1
            if tol == 0.0:
                ok = got == base
                window = "exact"
            else:
                lo, hi = base * (1 - tol), base * (1 + tol)
                ok = lo <= got <= hi
                window = f"±{tol:.0%}"
            status = "ok" if ok else "FAIL"
            print(f"  [{status}] {workload}.{key}: {got} vs baseline {base} ({window})")
            if not ok:
                failures.append(f"{workload}.{key}: {got} vs baseline {base} ({window})")

    for key, faster, slower in SPEEDUP_GATES:
        det = smoke.get("deterministic", {})
        lo = det.get(faster, {}).get(key)
        hi = det.get(slower, {}).get(key)
        if lo is None or hi is None:
            failures.append(f"speedup gate {faster}.{key} < {slower}.{key}: counters missing")
            continue
        checked += 1
        ok = lo < hi
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] speedup: {faster}.{key} ({lo}) < {slower}.{key} ({hi})")
        if not ok:
            failures.append(f"speedup gate: {faster}.{key} ({lo}) not below {slower}.{key} ({hi})")

    for workload, got_counters in sorted(smoke.get("parallel", {}).items()):
        if workload == "faults":
            continue
        for key, bound in sorted(PARALLEL_BOUNDS.items()):
            got = got_counters.get(key)
            if got is None:
                continue
            checked += 1
            ok = got <= bound
            status = "ok" if ok else "FAIL"
            print(f"  [{status}] parallel.{workload}.{key}: {got:.4f} <= {bound}")
            if not ok:
                failures.append(f"parallel.{workload}.{key}: {got:.4f} exceeds bound {bound}")

    # Both legs run fault-free: every recovery counter must be exactly
    # zero, and the block must be present (its absence would silently
    # disable this check). The baseline may extend the builtin list (e.g.
    # when a new subsystem adds counters before every checkout has the
    # updated script).
    extra = tuple(
        key
        for key in baseline.get("fault_free_counters", ())
        if key not in FAULT_COUNTERS
    )
    for leg in ("deterministic", "parallel"):
        faults = smoke.get(leg, {}).get("faults")
        if faults is None:
            failures.append(f"{leg}.faults: recovery-counter block missing from smoke run")
            continue
        for key in FAULT_COUNTERS + extra:
            got = faults.get(key)
            if got is None:
                failures.append(f"{leg}.faults.{key}: missing from smoke run")
                continue
            checked += 1
            ok = got == 0
            status = "ok" if ok else "FAIL"
            print(f"  [{status}] {leg}.faults.{key}: {got} == 0 (fault-free run)")
            if not ok:
                failures.append(f"{leg}.faults.{key}: {got} != 0 in a fault-free run")

    if checked == 0:
        sys.exit("perf-gate: no counters checked — baseline/smoke mismatch?")
    if failures:
        print(f"\nperf-gate: {len(failures)} counter(s) regressed:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print(
            "\nIf the new counters are intentional (algorithm change), refresh the\n"
            "baseline with scripts/update-perf-baseline.sh and commit the result.",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"perf-gate: all {checked} gated counters within tolerance")


def update(smoke_path, baseline_path):
    smoke = load(smoke_path)
    if smoke.get("schema") != SMOKE_SCHEMA:
        sys.exit(f"perf-gate: {smoke_path} is not a {SMOKE_SCHEMA} document")
    old = load(baseline_path) if Path(baseline_path).exists() else {}
    baseline = {
        "schema": BASELINE_SCHEMA,
        "source": smoke.get("graph", {}),
        "deterministic": {
            workload: {k: v for k, v in counters.items() if k in DETERMINISTIC_TOLERANCES}
            for workload, counters in sorted(smoke["deterministic"].items())
            if workload != "faults"
        },
        "tolerances": DETERMINISTIC_TOLERANCES,
        "parallel_bounds": PARALLEL_BOUNDS,
        "fault_free_counters": list(FAULT_COUNTERS),
        "unpinned": old.get("unpinned", {}),
        "repinned": old.get("repinned", {}),
    }
    Path(baseline_path).write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"perf-gate: baseline written to {baseline_path}")


def main(argv):
    if len(argv) < 3 or argv[1] not in ("check", "update"):
        sys.exit(__doc__)
    smoke_path = argv[2]
    baseline_path = "ci/perf-baseline.json"
    rest = argv[3:]
    while rest:
        if rest[0] == "--baseline" and len(rest) >= 2:
            baseline_path = rest[1]
            rest = rest[2:]
        else:
            sys.exit(f"perf-gate: unknown argument {rest[0]}\n{__doc__}")
    if argv[1] == "check":
        check(smoke_path, baseline_path)
    else:
        update(smoke_path, baseline_path)


if __name__ == "__main__":
    main(sys.argv)
