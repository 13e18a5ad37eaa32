#!/usr/bin/env bash
# Count-exact gate for the measurement-local launch memo
# (docs/performance.md, "Layer 3"). With --cov-gate 0.2 the protocol
# repeats every baseline/test launch three times per sweep point, so
# the memo engages on every jitter-free point. For one CPU and one
# GPU system, the memoized campaign must
#   * report exactly the sim_cache_hits/sim_cache_misses known for
#     this slice: the counts are deterministic, so a lost hit (or a
#     new one) fails on any host;
#   * write a results tree -- CSVs, manifest.json, telemetry --
#     byte-identical to the --no-sim-cache run, which counts nothing.
# The full quick campaigns read 2016/1008 (omp) and 2916/1458 (cuda).
#
# Usage: test_sim_cache_campaign.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_simcache_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# system_2 is a jitter-free CPU (every point memoizable); the 2070's
# __threadfence_system test kernel draws jitter and must bypass the
# memo while its baseline does not.
ONLY="system_2,2070"

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

run() {
    local log=$1
    shift
    "$CAMPAIGN" "$@" >"$WORK/$log" 2>&1
}

dump_log() {
    echo "---- $1 (last 30 lines) ----" >&2
    tail -n 30 "$WORK/$1" >&2 || true
}

# leg name, expected hits, expected misses, then campaign arguments.
check_counts() {
    local leg=$1 want_hits=$2 want_misses=$3
    shift 3
    if ! run "$leg.log" --only "$ONLY" --out "$WORK/$leg" --jobs 2 \
            --cov-gate 0.2 --telemetry --metrics "$WORK/$leg.json" "$@"; then
        dump_log "$leg.log"
        fail "$leg exited non-zero"
        return
    fi
    if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
got = [counters.get(k, 0) for k in ("sim_cache_hits", "sim_cache_misses")]
want = [int(v) for v in sys.argv[2:]]
if got != want:
    print("sim_cache hits/misses: got", got, "want", want)
    sys.exit(1)
' "$WORK/$leg.json" "$want_hits" "$want_misses"; then
        fail "$leg sim-cache counters differ from the known counts"
    fi
}

# campaign, expected memoized hits, expected memoized misses.
check_campaign() {
    local which=$1
    echo "== $which --cov-gate 0.2: hits/misses = $2/$3"
    check_counts "${which}_memo" "$2" "$3" "$which"
    echo "== $which --cov-gate 0.2 --no-sim-cache: byte-identical tree"
    check_counts "${which}_nomemo" 0 0 "$which" --no-sim-cache
    if ! diff -r "$WORK/${which}_memo" "$WORK/${which}_nomemo" \
            >"$WORK/diff.txt" 2>&1; then
        cat "$WORK/diff.txt" >&2
        fail "$which memoized tree differs from --no-sim-cache"
    fi
}

check_campaign omp 1224 612
check_campaign cuda 972 486

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES sim-cache campaign check(s) failed" >&2
    exit 1
fi
echo "all sim-cache campaign checks passed"
