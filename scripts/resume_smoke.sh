#!/usr/bin/env bash
# Kill-and-resume smoke test for the resilient flow CLI.
#
# Three interruption legs, all ending in the same assertion — the resumed
# run's final test program is byte-identical to an uninterrupted run's:
#
#  1. deterministic: `--max-vectors 1` stops generation at a typed budget
#     limit (exit status 3) with a checkpoint in --snapshots DIR;
#  2. violent: a second run is SIGKILLed as soon as its first checkpoint
#     lands on disk (if the circuit finishes before the kill, the run's own
#     output is compared instead — small circuits are legitimately fast);
#  3. the same SIGKILL leg with `--analyze`, whose options the snapshot
#     records and `resume` re-derives.
#
# It also checks that `--no-compact` stops the driver at the Generate
# boundary: its trace has no restoration or omission spans.
#
# Usage: scripts/resume_smoke.sh [benchmark-name]   (default: s298)
set -euo pipefail
cd "$(dirname "$0")/.."

CIRCUIT="${1:-s298}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cargo build --release -q -p limscan-serve
LIMSCAN=target/release/limscan

echo "== reference: uninterrupted run =="
"$LIMSCAN" generate "$CIRCUIT" -o "$WORK/full.txt" >/dev/null

latest_snapshot() { # $1 = snapshot dir -> path of the highest-numbered snapshot
    ls "$1"/*.snap 2>/dev/null | sort | tail -n 1
}

echo "== 1: budget stop (exit 3) + resume =="
set +e
"$LIMSCAN" generate "$CIRCUIT" --max-vectors 1 --snapshots "$WORK/snaps1" >/dev/null
status=$?
set -e
[ "$status" -eq 3 ] || { echo "FAIL: expected exit status 3, got $status"; exit 1; }
snap="$(latest_snapshot "$WORK/snaps1")"
[ -n "$snap" ] || { echo "FAIL: budget stop left no snapshot"; exit 1; }
"$LIMSCAN" resume "$snap" -o "$WORK/resumed1.txt" >/dev/null
diff -q "$WORK/full.txt" "$WORK/resumed1.txt" >/dev/null \
    || { echo "FAIL: budget-stop resume diverged from the full run"; exit 1; }
echo "ok: budget-stop resume is byte-identical"

kill_and_resume() { # $1 = leg, $2 = reference program, rest = generate flags
    local leg="$1" ref="$2"
    shift 2
    "$LIMSCAN" generate "$CIRCUIT" -o "$WORK/killed$leg.txt" --snapshots "$WORK/snaps$leg" "$@" \
        >/dev/null &
    local pid=$!
    # Kill as soon as the first checkpoint exists; give up politely if the
    # run finishes first.
    while kill -0 "$pid" 2>/dev/null && [ -z "$(latest_snapshot "$WORK/snaps$leg")" ]; do
        sleep 0.02
    done
    if kill -9 "$pid" 2>/dev/null; then
        wait "$pid" 2>/dev/null || true
        snap="$(latest_snapshot "$WORK/snaps$leg")"
        [ -n "$snap" ] || { echo "FAIL: killed run left no snapshot"; exit 1; }
        "$LIMSCAN" resume "$snap" -o "$WORK/resumed$leg.txt" >/dev/null
        diff -q "$ref" "$WORK/resumed$leg.txt" >/dev/null \
            || { echo "FAIL: post-SIGKILL resume diverged from the full run"; exit 1; }
        echo "ok: post-SIGKILL resume is byte-identical"
    else
        wait "$pid"
        diff -q "$ref" "$WORK/killed$leg.txt" >/dev/null \
            || { echo "FAIL: uninterrupted snapshot run diverged from the full run"; exit 1; }
        echo "ok: run outpaced the kill; output verified byte-identical instead"
    fi
}

echo "== 2: SIGKILL mid-run + resume =="
kill_and_resume 2 "$WORK/full.txt"

echo "== 3: SIGKILL mid-run + resume, with --analyze =="
"$LIMSCAN" generate "$CIRCUIT" --analyze -o "$WORK/full3.txt" >/dev/null
kill_and_resume 3 "$WORK/full3.txt" --analyze

echo "== --no-compact stops at the Generate boundary =="
"$LIMSCAN" generate "$CIRCUIT" --no-compact --trace "$WORK/nocompact.jsonl" >/dev/null
grep -q '"label":"generate"' "$WORK/nocompact.jsonl" \
    || { echo "FAIL: --no-compact trace has no generate span"; exit 1; }
if grep -Eq '"label":"(restore|omit)"' "$WORK/nocompact.jsonl"; then
    echo "FAIL: --no-compact trace has restore/omit spans"; exit 1
fi
echo "ok: --no-compact trace has no restore/omit spans"

# No torn writes: every file in either snapshot dir must be a complete
# snapshot (temp files are dot-prefixed and must not survive).
for dir in "$WORK/snaps1" "$WORK/snaps2" "$WORK/snaps3"; do
    [ -d "$dir" ] || continue
    leftovers="$(find "$dir" -name '.*.tmp' | wc -l)"
    [ "$leftovers" -eq 0 ] || { echo "FAIL: $leftovers temp file(s) left in $dir"; exit 1; }
done
echo "OK: resume smoke passed for $CIRCUIT"
