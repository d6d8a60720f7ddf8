#!/usr/bin/env bash
# Trace-overhead smoke: build the fault-sim bench binary once and compare,
# on the s5378 single-thread point, the kernel with a live metrics
# collector attached (`event_1thread_observed`) against the same kernel
# with no sink (`event_1thread`). Fails if the observed run is more than
# BUDGET_PCT slower. This bounds the live emission cost every flow pays,
# since the flows always attach their own collector. One retry absorbs
# machine noise.
#
# Usage: scripts/obs_overhead.sh [budget_pct]
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET_PCT="${1:-3}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== building faultsim_bench =="
cargo build --release -p limscan-bench --bin faultsim_bench
cp target/release/faultsim_bench "$WORK/faultsim_bench"

extract() { # $1 = json file, $2 = point -> seconds of that s5378 point
    python3 - "$1" "$2" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
row = next(r for r in doc["circuits"] if r["circuit"] == "s5378")
print(f'{row[sys.argv[2]]["seconds"]:.6f}')
EOF
}

PLAIN_BEST=""
OBSERVED_BEST=""
run_once() { # -> updates PLAIN_BEST / OBSERVED_BEST with the fastest seen
    "$WORK/faultsim_bench" "$WORK/run.json" >/dev/null
    PLAIN_BEST="$(python3 -c "import sys; print(min(float(x) for x in sys.argv[1:] if x))" \
        "$(extract "$WORK/run.json" event_1thread)" "$PLAIN_BEST")"
    OBSERVED_BEST="$(python3 -c "import sys; print(min(float(x) for x in sys.argv[1:] if x))" \
        "$(extract "$WORK/run.json" event_1thread_observed)" "$OBSERVED_BEST")"
}

check() { # -> 0 if the fastest observed run is within budget of the fastest plain run
    python3 - "$PLAIN_BEST" "$OBSERVED_BEST" "$BUDGET_PCT" <<'EOF'
import sys
plain, observed, budget = float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3])
delta = 100.0 * (observed - plain) / plain
print(f"s5378 event_1thread best-of-runs: plain={plain:.4f}s observed={observed:.4f}s delta={delta:+.2f}% (budget {budget}%)")
sys.exit(0 if delta <= budget else 1)
EOF
}

run_once
if ! check; then
    echo "over budget; retrying once to rule out machine noise"
    run_once
    check || { echo "FAIL: live trace overhead exceeds ${BUDGET_PCT}%"; exit 1; }
fi
echo "OK: live trace overhead within ${BUDGET_PCT}%"
