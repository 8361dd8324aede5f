#!/usr/bin/env bash
#
# Kill-restart soak for the lbsimd sweep daemon (CI: service-soak).
#
# Proves the service's durability story end to end:
#
#   1. Run a reference sweep in-process (lbsim_submit --direct).
#   2. Start lbsimd, submit four overlapping client sweeps, and
#      SIGKILL the daemon mid-sweep.
#   3. Restart it: the plans journal re-enqueues every admitted-but-
#      unfinished plan and the memo journal replays completed cells —
#      nothing is lost, nothing is computed twice (the memo journal
#      must contain zero duplicate keys). The daemon log must report
#      the plans journal's recovery.
#   4. Re-submit the reference sweep through the daemon and require
#      its JSON artifact to be BYTE-IDENTICAL to the --direct one.
#   5. SIGTERM must drain gracefully to exit 0, leaving no quarantine
#      files behind.
#
# Usage: tools/service_soak.sh [build-dir]
# Env:   SOAK_WORK  work directory (default: a fresh mktemp -d)

set -euo pipefail

BUILD=${1:-build}
LBSIMD=$(readlink -f "$BUILD/tools/lbsimd")
SUBMIT=$(readlink -f "$BUILD/tools/lbsim_submit")
WORK=${SOAK_WORK:-$(mktemp -d "${TMPDIR:-/tmp}/lbsim_soak_XXXXXX")}
mkdir -p "$WORK"
WORK=$(readlink -f "$WORK")
SOCK=$WORK/d.sock
DPID=

say()  { echo "soak: $*"; }
fail() { echo "soak: FAIL: $*" >&2; exit 1; }

cleanup() {
    if [ -n "$DPID" ] && kill -0 "$DPID" 2>/dev/null; then
        kill -9 "$DPID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

start_daemon() {
    LBSIM_CACHE_PATH=$WORK/cache_daemon.journal \
        "$LBSIMD" --socket "$SOCK" --workers 1 \
        --plans-journal "$WORK/plans.journal" \
        >>"$WORK/daemon.log" 2>&1 &
    DPID=$!
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && return 0
        sleep 0.1
    done
    fail "daemon did not create $SOCK"
}

wait_idle() {
    for _ in $(seq 1 1200); do
        local s
        s=$("$SUBMIT" --socket "$SOCK" --stats 2>/dev/null) || s=
        if echo "$s" | grep -q '"queuedCells":0' &&
           echo "$s" | grep -q '"runningCells":0'; then
            return 0
        fi
        sleep 0.5
    done
    fail "daemon never went idle"
}

# The memo journal must hold at most one record per cell key:
# a duplicate key means a cell was computed twice across the kill.
check_no_duplicate_compute() {
    python3 - "$WORK/cache_daemon.journal" <<'EOF'
import struct, sys
data = open(sys.argv[1], "rb").read()
nl = data.find(b"\n")
assert data[:nl] == b"lbsim-journal-v1", "not a journal"
off, keys = nl + 1, []
while off + 8 <= len(data):
    (length, _crc) = struct.unpack_from("<II", data, off)
    payload = data[off + 8:off + 8 + length]
    if len(payload) < length:
        break  # torn tail: the next recover() truncates it
    if not payload.startswith(b"#"):
        keys.append(payload.split(b"|", 1)[0])
    off += 8 + length
dups = len(keys) - len(set(keys))
print(f"soak: memo journal holds {len(keys)} cells, {dups} duplicates")
sys.exit(1 if dups else 0)
EOF
}

REFERENCE_ARGS=(--name soak --apps S2,KM,GA --schemes baseline,linebacker
                --smoke)

# --- 1. In-process reference run -------------------------------------------
say "direct reference sweep"
LBSIM_CACHE_PATH=$WORK/cache_direct.journal \
    "$SUBMIT" --direct "${REFERENCE_ARGS[@]}" \
    --json "$WORK/direct.json" >/dev/null

# --- 2. Concurrent sweeps, then SIGKILL mid-flight -------------------------
say "starting daemon (pass 1)"
start_daemon

say "submitting 4 concurrent client sweeps"
CLIENT_PIDS=()
"$SUBMIT" --socket "$SOCK" --client alice "${REFERENCE_ARGS[@]}" \
    >/dev/null 2>&1 & CLIENT_PIDS+=($!)
"$SUBMIT" --socket "$SOCK" --client bob --name bob --apps BC,BI \
    --schemes baseline,linebacker --smoke >/dev/null 2>&1 &
CLIENT_PIDS+=($!)
"$SUBMIT" --socket "$SOCK" --client carol --name carol --apps HS,PF \
    --schemes baseline,vc --smoke >/dev/null 2>&1 & CLIENT_PIDS+=($!)
"$SUBMIT" --socket "$SOCK" --client dave --name dave --apps S2,KM \
    --schemes vc,svc --smoke >/dev/null 2>&1 & CLIENT_PIDS+=($!)

sleep 1
say "SIGKILL mid-sweep"
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true  # connection-lost exits are expected
done

[ -f "$WORK/cache_daemon.journal" ] || fail "memo journal vanished"
check_no_duplicate_compute

# --- 3. Restart: resume and finish what was admitted -----------------------
say "restarting daemon (pass 2, journal recovery)"
start_daemon
grep -Eq 'plans journal: [0-9]+ record\(s\) recovered' "$WORK/daemon.log" ||
    fail "daemon log lacks the plans journal's recovery line"
wait_idle

STATS=$("$SUBMIT" --socket "$SOCK" --stats)
say "post-resume stats: $STATS"
RESUMED=$(echo "$STATS" | grep -o '"plansResumed":[0-9]*' | cut -d: -f2)
[ "${RESUMED:-0}" -ge 1 ] ||
    fail "no plans were resumed (kill landed after the sweep finished?)"
check_no_duplicate_compute

# --- 4. Daemon artifact must match --direct byte-for-byte ------------------
say "verification sweep through the daemon"
"$SUBMIT" --socket "$SOCK" --client verify "${REFERENCE_ARGS[@]}" \
    --json "$WORK/daemon.json" >/dev/null
cmp "$WORK/direct.json" "$WORK/daemon.json" ||
    fail "daemon artifact differs from the --direct run"
say "daemon artifact is byte-identical to --direct"

# --- 5. Graceful drain, no quarantined records -----------------------------
kill -TERM "$DPID"
rc=0
wait "$DPID" || rc=$?
DPID=
[ "$rc" -eq 0 ] || fail "SIGTERM drain exited $rc (want 0)"
grep -q "drained, exiting" "$WORK/daemon.log" ||
    fail "daemon log lacks the drain line"
if ls "$WORK"/*.quarantine >/dev/null 2>&1; then
    fail "recovery quarantined records: $(ls "$WORK"/*.quarantine)"
fi
check_no_duplicate_compute

say "PASS (work dir: $WORK)"
