#!/usr/bin/env bash
# serve-smoke: end-to-end gate for the `fractal serve` job server.
#
# Leg 1 (concurrent): starts a daemon with a 3-worker local cluster, then
# submits four jobs (motifs, cliques, fsm, and a 4-motif census on the
# decomposed plan) concurrently against ONE shared snapshot. Every job must
# finish, verify bit-identical to a single-process rerun (`--verify-single`;
# the decomposed census is checked against the enumerator), and leave a
# per-job fractal-metrics/1 artifact.
#
# The same snapshot submitted once more must send no graph bytes: the
# workers kept it (its metrics read graph_bytes_sent == 0).
#
# Leg 2 (chaos): with a long-running job and two survivor jobs in flight,
# the long job is cancelled mid-run and one worker process is SIGKILLed.
# The survivors must still verify bit-identical — the corpse's obligations
# are re-dispatched per affected job, never globally.
#
# Leg 3 (restart): a fresh daemon with a write-ahead journal and flaky
# link-fault injection armed takes three jobs; once the multi-round job
# journals its first committed word-set the WHOLE daemon is SIGKILLed and
# restarted on the same address + journal directory. The waiting clients
# must ride the outage out (reconnect + Watch resume), every job must
# verify bit-identical, and the metrics artifact must prove a journal
# replay actually resumed work (resumed_jobs > 0).
#
# Usage: scripts/serve_smoke.sh
#   FRACTAL_BIN      override the CLI binary (default target/release/fractal-cli)
#   SERVE_SMOKE_OUT  artifact directory (default target/serve-smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${FRACTAL_BIN:-target/release/fractal-cli}"
OUT="${SERVE_SMOKE_OUT:-target/serve-smoke}"
SNAPSHOT="gen:mico:400:7"
CHAOS_SNAPSHOT="gen:mico:2000:9"

if [[ ! -x "$BIN" ]]; then
    echo "serve-smoke: building $BIN"
    cargo build --release -q
fi
rm -rf "$OUT"
mkdir -p "$OUT"

SERVE_PID=""
cleanup() {
    if [[ -n "$SERVE_PID" ]]; then
        pkill -P "$SERVE_PID" 2>/dev/null || true
        kill "$SERVE_PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- serve.log tail ---" >&2
    tail -n 40 "$OUT/serve.log" >&2 || true
    exit 1
}

# Poll (bounded) until a grep pattern appears in a file.
wait_for() {
    local pattern="$1" file="$2" tries="${3:-100}"
    for _ in $(seq "$tries"); do
        if grep -q "$pattern" "$file" 2>/dev/null; then
            return 0
        fi
        sleep 0.2
    done
    return 1
}

# ---- daemon ----

"$BIN" serve --listen 127.0.0.1:0 --local-cluster 3 --cores 2 \
    --heartbeat-ms 3000 >"$OUT/serve.log" 2>&1 &
SERVE_PID=$!
wait_for "^SERVING " "$OUT/serve.log" || fail "daemon did not announce SERVING"
ADDR=$(awk '/^SERVING /{print $2; exit}' "$OUT/serve.log")
echo "serve-smoke: daemon pid $SERVE_PID at $ADDR"

submit_wait() { # name tenant extra-args...
    local name="$1" tenant="$2"
    shift 2
    "$BIN" client submit --server "$ADDR" --tenant "$tenant" \
        --snapshot "$SNAPSHOT" --wait --verify-single \
        --metrics-out "$OUT/$name.metrics.json" "$@" \
        >"$OUT/$name.out" 2>"$OUT/$name.err"
}

check_job() { # name
    local name="$1"
    grep -q "VERIFY OK" "$OUT/$name.out" || fail "$name: no VERIFY OK (see $OUT/$name.out)"
    grep -q "^RESULT " "$OUT/$name.out" || fail "$name: no RESULT line"
    [[ -s "$OUT/$name.metrics.json" ]] || fail "$name: missing metrics artifact"
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$OUT/$name.metrics.json" \
        || fail "$name: metrics artifact is not valid JSON"
    echo "serve-smoke: $name ok ($(grep '^RESULT ' "$OUT/$name.out"))"
}

# ---- leg 1: three concurrent apps, one shared snapshot ----

echo "serve-smoke: leg 1 — 4 concurrent jobs on $SNAPSHOT"
submit_wait motifs tenant-a --app motifs -k 3 &
P1=$!
submit_wait cliques tenant-b --app cliques -k 4 &
P2=$!
submit_wait fsm tenant-c --app fsm --support 50 --max-edges 2 &
P3=$!
submit_wait decomposed tenant-d --app motifs -k 4 --plan decomposed &
P4=$!
wait "$P1" || fail "motifs client exited nonzero"
wait "$P2" || fail "cliques client exited nonzero"
wait "$P3" || fail "fsm client exited nonzero"
wait "$P4" || fail "decomposed client exited nonzero"
check_job motifs
check_job cliques
check_job fsm
check_job decomposed

# The workers keep the snapshot: leg 1 sent it to each of them once, so
# the same snapshot submitted again sends no graph bytes.
submit_wait repeat tenant-a --app cliques -k 4 || fail "repeat client exited nonzero"
check_job repeat
python3 - "$OUT" <<'EOF' || fail "the workers did not keep the snapshot"
import json, sys
sent = lambda name: json.load(open(f"{sys.argv[1]}/{name}.metrics.json"))["graph_bytes_sent"]
first = sum(sent(name) for name in ("motifs", "cliques", "fsm", "decomposed"))
assert first > 0, f"leg 1 sent {first} graph bytes"
assert sent("repeat") == 0, f"the repeated job sent {sent('repeat')} graph bytes"
print(f"serve-smoke: snapshot kept (leg 1 sent {first} graph bytes, the repeat 0)")
EOF

# ---- leg 2: cancel one job mid-run + SIGKILL one worker ----

echo "serve-smoke: leg 2 — chaos (cancel + worker SIGKILL) on $CHAOS_SNAPSHOT"
"$BIN" client submit --server "$ADDR" --tenant chaos --snapshot "$CHAOS_SNAPSHOT" \
    --app motifs -k 4 >"$OUT/victim.out" 2>"$OUT/victim.err"
VICTIM=$(awk '/^JOB /{print $2; exit}' "$OUT/victim.out")
[[ -n "$VICTIM" ]] && [[ "$VICTIM" != 0 ]] || fail "victim submit did not return a job id"

"$BIN" client submit --server "$ADDR" --tenant chaos-b --snapshot "$CHAOS_SNAPSHOT" \
    --app cliques -k 4 --wait --verify-single \
    --metrics-out "$OUT/survivor1.metrics.json" \
    >"$OUT/survivor1.out" 2>"$OUT/survivor1.err" &
S1=$!
"$BIN" client submit --server "$ADDR" --tenant chaos-c --snapshot "$CHAOS_SNAPSHOT" \
    --app motifs -k 3 --wait --verify-single \
    --metrics-out "$OUT/survivor2.metrics.json" \
    >"$OUT/survivor2.out" 2>"$OUT/survivor2.err" &
S2=$!

# Let the jobs reach the workers before injecting faults.
wait_for "Running" "$OUT/survivor1.err" 150 || fail "survivor1 never started running"
"$BIN" client cancel --server "$ADDR" --job "$VICTIM" >"$OUT/cancel.out" 2>&1 \
    || fail "cancel verb failed"

WORKER_PID=$(pgrep -P "$SERVE_PID" | head -n 1)
[[ -n "$WORKER_PID" ]] || fail "no worker child process found to kill"
echo "serve-smoke: SIGKILL worker pid $WORKER_PID; cancelled job $VICTIM"
kill -9 "$WORKER_PID"

wait "$S1" || fail "survivor1 client exited nonzero after chaos"
wait "$S2" || fail "survivor2 client exited nonzero after chaos"
grep -q "VERIFY OK" "$OUT/survivor1.out" || fail "survivor1: no VERIFY OK after chaos"
grep -q "VERIFY OK" "$OUT/survivor2.out" || fail "survivor2: no VERIFY OK after chaos"
[[ -s "$OUT/survivor1.metrics.json" ]] || fail "survivor1: missing metrics artifact"
[[ -s "$OUT/survivor2.metrics.json" ]] || fail "survivor2: missing metrics artifact"
echo "serve-smoke: survivors ok ($(grep '^RESULT ' "$OUT/survivor1.out")," \
    "$(grep '^RESULT ' "$OUT/survivor2.out"))"

# The victim must land in the Cancelled terminal state (the cancel may
# complete asynchronously at a round boundary).
for _ in $(seq 100); do
    "$BIN" client status --server "$ADDR" --job "$VICTIM" >"$OUT/victim-status.out" 2>&1 || true
    if grep -q "Cancelled" "$OUT/victim-status.out"; then
        break
    fi
    sleep 0.2
done
grep -q "Cancelled" "$OUT/victim-status.out" \
    || fail "victim job $VICTIM never reached Cancelled: $(cat "$OUT/victim-status.out")"

# A fresh job on the surviving workers must still verify.
submit_wait postchaos tenant-d --app motifs -k 3 || fail "post-chaos client exited nonzero"
check_job postchaos

# ---- leg 3: SIGKILL the daemon mid-job, restart on the same journal ----

echo "serve-smoke: leg 3 — daemon crash/restart with journal + flaky links"
# Retire the leg-1/2 daemon; leg 3 runs its own crash-consistent one.
pkill -P "$SERVE_PID" 2>/dev/null || true
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
JDIR="$OUT/journal"
mkdir -p "$JDIR"

"$BIN" serve --listen 127.0.0.1:0 --local-cluster 2 --cores 2 \
    --journal "$JDIR" --link-fault 1234 --heartbeat-ms 3000 \
    >"$OUT/serve-restart-a.log" 2>&1 &
SERVE_PID=$!
wait_for "^SERVING " "$OUT/serve-restart-a.log" \
    || fail "journal daemon did not announce SERVING"
ADDR=$(awk '/^SERVING /{print $2; exit}' "$OUT/serve-restart-a.log")
echo "serve-smoke: journal daemon pid $SERVE_PID at $ADDR (journal $JDIR)"

# One deliberately multi-round job on the big snapshot (so it is still
# running at the kill) plus two quick companions.
"$BIN" client submit --server "$ADDR" --tenant restart-a \
    --snapshot "$CHAOS_SNAPSHOT" --app fsm --support 50 --max-edges 3 \
    --wait --verify-single --metrics-out "$OUT/restart-fsm.metrics.json" \
    >"$OUT/restart-fsm.out" 2>"$OUT/restart-fsm.err" &
R1=$!
"$BIN" client submit --server "$ADDR" --tenant restart-b --snapshot "$SNAPSHOT" \
    --app motifs -k 3 --wait --verify-single \
    --metrics-out "$OUT/restart-motifs.metrics.json" \
    >"$OUT/restart-motifs.out" 2>"$OUT/restart-motifs.err" &
R2=$!
"$BIN" client submit --server "$ADDR" --tenant restart-c --snapshot "$SNAPSHOT" \
    --app cliques -k 4 --wait --verify-single \
    --metrics-out "$OUT/restart-cliques.metrics.json" \
    >"$OUT/restart-cliques.out" 2>"$OUT/restart-cliques.err" &
R3=$!

# Kill only once the multi-round job's first word-set commit is durably
# journaled — that is the state the restarted daemon must resume from.
# (The quick companions commit and finish earlier; waiting on *their*
# commit lines could kill before the long job has anything to resume.)
wait_for "^JOB " "$OUT/restart-fsm.out" 150 || fail "restart-fsm was not admitted"
FSM_JOB=$(awk '/^JOB /{print $2; exit}' "$OUT/restart-fsm.out")
wait_for "^journal: committed job $FSM_JOB " "$OUT/serve-restart-a.log" 300 \
    || fail "no committed word-set for job $FSM_JOB before the crash"
echo "serve-smoke: SIGKILL daemon pid $SERVE_PID mid-job"
pkill -9 -P "$SERVE_PID" 2>/dev/null || true
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# Restart on the SAME address and journal directory: waiting clients are
# mid-backoff against that address right now.
"$BIN" serve --listen "$ADDR" --local-cluster 2 --cores 2 \
    --journal "$JDIR" --link-fault 1234 --heartbeat-ms 3000 \
    >"$OUT/serve-restart-b.log" 2>&1 &
SERVE_PID=$!
wait_for "^SERVING " "$OUT/serve-restart-b.log" \
    || fail "restarted daemon did not announce SERVING"
echo "serve-smoke: daemon restarted as pid $SERVE_PID on $ADDR"

wait "$R1" || fail "restart-fsm client exited nonzero across the restart"
wait "$R2" || fail "restart-motifs client exited nonzero across the restart"
wait "$R3" || fail "restart-cliques client exited nonzero across the restart"
check_job restart-fsm
check_job restart-motifs
check_job restart-cliques

# The multi-round job finished under the second incarnation, so its
# metrics artifact must carry the proof of recovery: a journal replay,
# at least one resumed job, injected link faults, and a client that
# survived at least one reconnect.
python3 - "$OUT/restart-fsm.metrics.json" <<'EOF' || fail "restart metrics do not prove recovery"
import json, sys
m = json.load(open(sys.argv[1]))
assert m["journal_replayed"] > 0, f"journal_replayed = {m['journal_replayed']}"
assert m["resumed_jobs"] > 0, f"resumed_jobs = {m['resumed_jobs']}"
assert m["link_faults_injected"] > 0, f"link_faults_injected = {m['link_faults_injected']}"
assert m["client_reconnects"] > 0, f"client_reconnects = {m['client_reconnects']}"
EOF
grep -q "^journal: committed job" "$OUT/serve-restart-b.log" \
    || fail "restarted daemon never committed a word-set"
echo "serve-smoke: restart leg ok" \
    "($(python3 -c 'import json,sys; m=json.load(open(sys.argv[1])); print("replayed", m["journal_replayed"], "resumed", m["resumed_jobs"], "faults", m["link_faults_injected"], "reconnects", m["client_reconnects"])' "$OUT/restart-fsm.metrics.json"))"

echo "serve-smoke: all legs passed (artifacts in $OUT)"
