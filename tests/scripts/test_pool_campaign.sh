#!/usr/bin/env bash
# End-to-end checks for the warm-start machine pool
# (docs/performance.md, "Warm-start machine pool"):
#
#   1. byte-identity: the results tree is identical with the pool on
#      (the default) and with --no-machine-pool, at every --jobs x
#      --shards combination tried;
#   2. counter determinism: the pool's deterministic counters,
#      pool_clones and pool_cold_builds, are identical between serial
#      and parallel runs.
#
# Usage: test_pool_campaign.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_pool_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

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

same_tree() {
    diff -r --exclude=.shards "$1" "$2" >"$WORK/diff.txt" 2>&1
}

same_pool_counters() {
    python3 -c '
import json, sys
keys = ["pool_clones", "pool_cold_builds"]
a = json.load(open(sys.argv[1]))["counters"]
b = json.load(open(sys.argv[2]))["counters"]
bad = [k for k in keys if a.get(k) != b.get(k)]
if not a.get("pool_clones"):
    print("  pool_clones is 0: the pool never engaged", file=sys.stderr)
    bad.append("pool_clones")
for k in bad:
    print(f"  {k}: {a.get(k)} != {b.get(k)}", file=sys.stderr)
sys.exit(1 if bad else 0)
' "$1" "$2"
}

# ----------------------------------------------- 1. the flag matrix

echo "== baseline: pool on (default), --jobs 1"
if ! run base.log omp --only threadripper --out "$WORK/base" \
        --jobs 1 --metrics "$WORK/base_metrics.json"; then
    dump_log base.log
    fail "baseline campaign exited non-zero"
fi
[ -f "$WORK/base"/*/manifest.json ] ||
    fail "baseline produced no manifest.json"

echo "== matrix: --no-machine-pool x {--jobs 1, --jobs 2, --shards 2 --jobs 2}"
for spec in "1 1" "1 2" "2 2"; do
    read -r shards jobs <<<"$spec"
    leg="nopool_s${shards}_j${jobs}"
    if ! run "$leg.log" omp --only threadripper --out "$WORK/$leg" \
            --no-machine-pool --shards "$shards" --jobs "$jobs"; then
        dump_log "$leg.log"
        fail "--no-machine-pool --shards $shards --jobs $jobs exited non-zero"
    elif ! same_tree "$WORK/base" "$WORK/$leg"; then
        cat "$WORK/diff.txt" >&2
        fail "--no-machine-pool --shards $shards --jobs $jobs tree differs from baseline"
    fi
done

echo "== matrix: pool on, --jobs 2 and --shards 2 --jobs 2"
if ! run pool_j2.log omp --only threadripper --out "$WORK/pool_j2" \
        --jobs 2 --metrics "$WORK/pool_j2_metrics.json"; then
    dump_log pool_j2.log
    fail "pooled --jobs 2 exited non-zero"
else
    if ! same_tree "$WORK/base" "$WORK/pool_j2"; then
        cat "$WORK/diff.txt" >&2
        fail "pooled --jobs 2 tree differs from baseline"
    fi
    # The pool counters must be jobs-invariant (the broader
    # deterministic-section contract lives in test_campaign_parallel;
    # checkpoint_flushes legitimately tracks the flush cadence).
    same_pool_counters "$WORK/base_metrics.json" \
        "$WORK/pool_j2_metrics.json" ||
        fail "pool counters differ between --jobs 1 and 2"
fi
if ! run pool_s2.log omp --only threadripper --out "$WORK/pool_s2" \
        --shards 2 --jobs 2; then
    dump_log pool_s2.log
    fail "pooled --shards 2 --jobs 2 exited non-zero"
elif ! same_tree "$WORK/base" "$WORK/pool_s2"; then
    cat "$WORK/diff.txt" >&2
    fail "pooled --shards 2 --jobs 2 tree differs from baseline"
fi

# -------------------------------------------------------------------

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES pool-campaign check(s) failed" >&2
    exit 1
fi
echo "all pool-campaign checks passed"
