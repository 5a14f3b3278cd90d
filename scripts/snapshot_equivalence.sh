#!/usr/bin/env bash
# Snapshot/fork equivalence gate: the warmup checkpoint API must never
# change a result byte. Four properties, each enforced with cmp:
#
#   1. A memoized dump of the pinned golden matrix (every job its own
#      warmup class: policies change warmup behavior) is byte-identical
#      to a from-scratch dump.
#   2. A run-length sweep forked from one on-disk `stsim_runner
#      snapshot` checkpoint (--from-snapshot) is byte-identical to a
#      from-scratch dump, through both the dump and sharded-run paths.
#   3. A memoized sweep runs its warmup exactly once for the whole wave
#      and still commits byte-identical results.
#   4. A class-contiguous memoized wave with more warmup classes than
#      workers (warm-ahead recycles its slots) runs one warmup per
#      class and commits byte-identical results.
#   5. One warmup class of power x run-length variants, whose jobs
#      share measured trajectories as well as the warmup, commits
#      byte-identical results through a memoized dump, a forked dump
#      and a sharded run+merge, with exactly one warmup.
#
# CI runs this on every PR; locally:
#
#   cmake -B build -S . && cmake --build build --target stsim_runner
#   scripts/snapshot_equivalence.sh build
set -euo pipefail

BUILD=${1:-build}
RUNNER="$BUILD/stsim_runner"
if [ ! -x "$RUNNER" ]; then
    echo "snapshot_equivalence: $RUNNER not built" >&2
    exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# 1. Memoized golden matrix == scratch golden matrix. Small run
# lengths: this is an equivalence check, not a perf demo.
"$RUNNER" manifest --suite golden --insts 3000 --warmup 500 \
    --out "$TMP/golden.jsonl"
"$RUNNER" dump --manifest "$TMP/golden.jsonl" --out "$TMP/g_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/golden.jsonl" --memoize-warmup \
    --out "$TMP/g_memo.jsonl"
cmp "$TMP/g_scratch.jsonl" "$TMP/g_memo.jsonl"

# 2. A run-length sweep (same benchmark+policy, growing measured runs)
# shares one warmup class; fork every job from one on-disk snapshot.
for n in 2000 3000 4000; do
    "$RUNNER" manifest --suite golden --insts "$n" --warmup 1000 \
        2>/dev/null | head -n 1
done > "$TMP/sweep.jsonl"
"$RUNNER" snapshot --manifest "$TMP/sweep.jsonl" --index 0 \
    --out "$TMP/warm.snap"
"$RUNNER" dump --manifest "$TMP/sweep.jsonl" --out "$TMP/s_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/sweep.jsonl" \
    --from-snapshot "$TMP/warm.snap" --out "$TMP/s_fork.jsonl"
cmp "$TMP/s_scratch.jsonl" "$TMP/s_fork.jsonl"
"$RUNNER" run --manifest "$TMP/sweep.jsonl" --shard 0/1 \
    --from-snapshot "$TMP/warm.snap" --out "$TMP/s_fork_run.jsonl"
"$RUNNER" merge --out "$TMP/s_fork_merged.jsonl" \
    --manifest "$TMP/sweep.jsonl" "$TMP/s_fork_run.jsonl"
cmp "$TMP/s_scratch.jsonl" "$TMP/s_fork_merged.jsonl"

# 3. Memoized sweep: one warmup for the whole wave, same bytes.
"$RUNNER" dump --manifest "$TMP/sweep.jsonl" --memoize-warmup \
    --out "$TMP/s_memo.jsonl" 2> "$TMP/s_memo.err"
cmp "$TMP/s_scratch.jsonl" "$TMP/s_memo.jsonl"
grep -q "1 warmup(s) for 3 jobs" "$TMP/s_memo.err" || {
    echo "snapshot_equivalence: expected exactly 1 memoized warmup:" >&2
    cat "$TMP/s_memo.err" >&2
    exit 1
}

# 4. Class-contiguous, the order a nested loop produces: 5 golden jobs
# (5 warmup classes) x 3 run lengths at 2 workers.
for n in 2000 3000 4000; do
    "$RUNNER" manifest --suite golden --insts "$n" --warmup 1000 \
        2>/dev/null | head -n 5 > "$TMP/len_$n.jsonl"
done
for c in 1 2 3 4 5; do
    for n in 2000 3000 4000; do
        sed -n "${c}p" "$TMP/len_$n.jsonl"
    done
done > "$TMP/classes.jsonl"
STSIM_JOBS=2 "$RUNNER" dump --manifest "$TMP/classes.jsonl" \
    --out "$TMP/c_scratch.jsonl"
STSIM_JOBS=2 "$RUNNER" dump --manifest "$TMP/classes.jsonl" \
    --memoize-warmup --out "$TMP/c_memo.jsonl" 2> "$TMP/c_memo.err"
cmp "$TMP/c_scratch.jsonl" "$TMP/c_memo.jsonl"
grep -qxF "stsim_runner: 5 warmup(s) for 15 jobs (memoized)" \
    "$TMP/c_memo.err" || {
    echo "snapshot_equivalence: expected exactly 5 memoized warmups:" >&2
    cat "$TMP/c_memo.err" >&2
    exit 1
}

# 5. Power x length variants of one class: duplicate lengths, lengths
# a few instructions apart, both gating styles, other idle factors and
# clock frequencies (hex-float config fields edited in place).
IDLE='s/"idleFactor":"[^"]*"/"idleFactor":"0x1.999999999999ap-5"/'
CC0='s/"style":"cc3"/"style":"cc0"/'
FREQ_LO='s/"frequencyHz":"[^"]*"/"frequencyHz":"0x1.dcd65p+29"/'
IDLE_HI='s/"idleFactor":"[^"]*"/"idleFactor":"0x1.999999999999ap-3"/'
FREQ_HI='s/"frequencyHz":"[^"]*"/"frequencyHz":"0x1.dcd65p+30"/'
for n in 2000 2003 3000 3000; do
    "$RUNNER" manifest --suite golden --insts "$n" --warmup 1000 \
        2>/dev/null | head -n 1 > "$TMP/p_line.jsonl"
    cat "$TMP/p_line.jsonl"
    sed -e "$IDLE" "$TMP/p_line.jsonl"
    sed -e "$CC0" -e "$FREQ_LO" "$TMP/p_line.jsonl"
    sed -e "$IDLE_HI" -e "$FREQ_HI" "$TMP/p_line.jsonl"
done > "$TMP/power.jsonl"
P_JOBS=$(wc -l < "$TMP/power.jsonl")
"$RUNNER" dump --manifest "$TMP/power.jsonl" --out "$TMP/p_scratch.jsonl"
STSIM_JOBS=2 "$RUNNER" dump --manifest "$TMP/power.jsonl" \
    --memoize-warmup --out "$TMP/p_memo.jsonl" 2> "$TMP/p_memo.err"
cmp "$TMP/p_scratch.jsonl" "$TMP/p_memo.jsonl"
grep -qxF "stsim_runner: 1 warmup(s) for $P_JOBS jobs (memoized)" \
    "$TMP/p_memo.err" || {
    echo "snapshot_equivalence: expected exactly 1 memoized warmup:" >&2
    cat "$TMP/p_memo.err" >&2
    exit 1
}
"$RUNNER" snapshot --manifest "$TMP/power.jsonl" --index 0 \
    --out "$TMP/p_warm.snap"
"$RUNNER" dump --manifest "$TMP/power.jsonl" \
    --from-snapshot "$TMP/p_warm.snap" --out "$TMP/p_fork.jsonl"
cmp "$TMP/p_scratch.jsonl" "$TMP/p_fork.jsonl"
"$RUNNER" run --manifest "$TMP/power.jsonl" --shard 0/2 \
    --memoize-warmup --out "$TMP/p_shard0.jsonl" 2>/dev/null
"$RUNNER" run --manifest "$TMP/power.jsonl" --shard 1/2 \
    --from-snapshot "$TMP/p_warm.snap" --out "$TMP/p_shard1.jsonl"
"$RUNNER" merge --out "$TMP/p_merged.jsonl" \
    --manifest "$TMP/power.jsonl" "$TMP/p_shard0.jsonl" \
    "$TMP/p_shard1.jsonl"
cmp "$TMP/p_scratch.jsonl" "$TMP/p_merged.jsonl"

echo "snapshot_equivalence: memoized matrix, forked sweep (dump and" \
     "sharded run), memoized sweep, memoized multi-class wave and" \
     "shared-trajectory power sweep are all bit-identical to" \
     "from-scratch dumps"
