#!/usr/bin/env bash
#
# Build and run the test suite under ASan+UBSan and under TSan.
#
#   tools/run_sanitized_tests.sh [jobs]
#
# The ASan pass catches memory errors and UB across the whole suite;
# the TSan pass targets the multi-threaded subsystems first (the
# parallel experiment runner and the sharded kernel's worker pool),
# then runs the full suite anyway -- races can hide behind any entry
# point that constructs a runner or a threaded kernel.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_pass() {
    local name="$1" sanitize="$2" dir="build-$1"
    echo "=== ${name}: configure + build (${dir}) ==="
    cmake -B "$dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DREFSCHED_SANITIZE="$sanitize"
    cmake --build "$dir" -j "$JOBS"
}

# One observability export per policy: the timeline recorder, stats
# JSON writer, and JSON parser all run allocation-heavy string paths
# that only sanitizers audit properly.  timeline_check re-parses each
# artifact so the exporter and the validator cover each other.
obs_smoke() {
    local dir="$1" out="$1/obs-smoke"
    mkdir -p "$out"
    for policy in all-bank per-bank per-bank-ooo ddr4-2x ddr4-4x \
            adaptive co-design no-refresh; do
        echo "--- ${dir}: --stats-json/--timeline smoke (${policy}) ---"
        "./$dir/tools/refsched_cli" --policy "$policy" --workload WL-5 \
            --warmup 1 --measure 4 --seed 7 \
            --timeline "$out/$policy.timeline.json" \
            --stats-json "$out/$policy.stats.json" >/dev/null
        "./$dir/tools/timeline_check" "$out/$policy.timeline.json"
    done
}

# The scenario engine's churn/migration paths free and reallocate
# task address spaces mid-run -- prime use-after-free territory that
# only the sanitizers audit.  The CLI run drives the checked-in
# adversarial-colocation fixture end-to-end under validation.
scenario_smoke() {
    local dir="$1" out="$1/scenario-smoke"
    mkdir -p "$out"
    echo "--- ${dir}: --scenario fixture run (churn + migration) ---"
    "./$dir/tools/refsched_cli" --policy co-design \
        --benchmarks GemsFDTD,stream,GemsFDTD,npb_ua --cores 1 \
        --density 32 --scale 1024 --warmup 0 --measure 24 --seed 1 \
        --scenario tests/validate/data/adversarial_colocation.scenario \
        --validate \
        --stats-json "$out/scenario.stats.json" >/dev/null
}

# Telemetry samples counters from the phase-C boundary hook while
# the run stays on real worker threads (unlike a probe, telemetry
# does not force workers=1), then walks the string-heavy JSONL/CSV
# exporters -- both sides are sanitizer targets.  The self-profiler
# also arms here, timing the phase-B barrier it samples behind.
telemetry_smoke() {
    local dir="$1" out="$1/telemetry-smoke"
    mkdir -p "$out"
    echo "--- ${dir}: --telemetry sampled export (threaded kernel) ---"
    "./$dir/tools/refsched_cli" --policy co-design --workload WL-5 \
        --scale 1024 --channels 2 --shards 2 \
        --warmup 1 --measure 8 --seed 7 \
        --serving "arrival=mmpp,load=0.4,pool=4,queue=16,lines=4" \
        --telemetry "$out/telemetry.jsonl" \
        --stats-json "$out/telemetry.stats.json" >/dev/null
    "./$dir/tools/refsched_cli" --policy co-design --workload WL-5 \
        --scale 1024 --channels 2 --warmup 1 --measure 8 --seed 7 \
        --telemetry "$out/telemetry.csv" >/dev/null
}

# The open-loop serving injector shares slot/backlog state between
# the main-lane arrival path and per-line completions delivered from
# channel lanes, and its per-line blocked flags are written by the
# controller -- pointer-lifetime and (under the threaded kernel)
# data-race territory the sanitizers own.  Overload parameters keep
# the drop and retry paths hot.
serving_smoke() {
    local dir="$1" out="$1/serving-smoke"
    mkdir -p "$out"
    echo "--- ${dir}: --serving open-loop run (overload, drops) ---"
    "./$dir/tools/refsched_cli" --policy co-design --workload WL-5 \
        --scale 1024 --channels 2 --warmup 0 --measure 24 --seed 7 \
        --serving "arrival=mmpp,load=6.4,pool=2,queue=2,lines=4" \
        --validate \
        --stats-json "$out/serving.stats.json" >/dev/null
}

run_pass asan address
echo "=== asan: ctest ==="
ctest --test-dir build-asan --output-on-failure -j "$JOBS"
echo "=== asan: per-policy observability exports ==="
obs_smoke build-asan
echo "=== asan: scenario engine (churn + page migration) ==="
scenario_smoke build-asan
echo "=== asan: open-loop serving (drops + retry paths) ==="
serving_smoke build-asan
echo "=== asan: sampled telemetry (boundary-hook sampling + exports) ==="
telemetry_smoke build-asan
echo "=== asan: differential fuzz (corpus replay + short random run) ==="
# The randomized samples drive every refresh policy through configs
# the fixed tests never reach -- exactly where sanitizers earn their
# keep.  Shrinking is disabled: a sanitizer abort is its own repro.
./build-asan/tools/fuzz_policies --replay-dir tests/fuzz/corpus \
    --samples 25 --seed 7 --shrink-budget 0

run_pass tsan thread
echo "=== tsan: parallel-runner + sharded-kernel determinism suites ==="
# ShardIdentityTest runs the channel lanes on real worker threads
# (no probe attached) and asserts bit-identity with the sequential
# run -- the primary TSan target for the sharded kernel.
# ShardKernelTest drives the spin-then-park barrier directly: 10^5
# one-tick windows whose boundary hook reads every lane's writes,
# and worker shutdown from both the spinning and the parked state.
ctest --test-dir build-tsan --output-on-failure \
    -R 'ParallelRunner|GoldenTraceJobs|ShardIdentity|ShardKernel|ScenarioIntegration'
echo "=== tsan: sharded CLI run (real worker threads) ==="
# No --timeline here: attaching a probe forces workers=1, and the
# point of this pass is the threaded phase-B path.
mkdir -p build-tsan/shard-smoke
./build-tsan/tools/refsched_cli --policy co-design --workload WL-5 \
    --channels 2 --shards 2 --warmup 1 --measure 4 --seed 7 \
    --stats-json build-tsan/shard-smoke/sh2.stats.json >/dev/null
echo "=== tsan: sharded scenario run (migration on worker threads) ==="
# Migration copy completions route through the sharded kernel's main
# lane; churn while phase-B workers drain the channel lanes is the
# adversarial interleaving for the director's bookkeeping.
./build-tsan/tools/refsched_cli --policy co-design \
    --benchmarks GemsFDTD,stream,GemsFDTD,npb_ua --cores 1 \
    --density 32 --scale 1024 --channels 2 --shards 2 \
    --warmup 0 --measure 24 --seed 1 \
    --scenario tests/validate/data/adversarial_colocation.scenario \
    --validate \
    --stats-json build-tsan/shard-smoke/scenario.stats.json >/dev/null
echo "=== tsan: serving on the sharded kernel (worker threads) ==="
# Serving arrivals stage on the main lane while channel lanes
# complete the per-line reads and write the per-line blocked flags
# concurrently -- the exact cross-lane surface the flat byte array
# exists for.  Stats-only (a probe would force workers=1).
./build-tsan/tools/refsched_cli --policy co-design --workload WL-5 \
    --scale 1024 --channels 2 --shards 2 \
    --warmup 0 --measure 24 --seed 7 \
    --serving "arrival=mmpp,load=1.6,pool=8,queue=64,lines=4" \
    --stats-json build-tsan/shard-smoke/serving.stats.json >/dev/null
echo "=== tsan: telemetry on the threaded kernel (boundary sampling) ==="
# Telemetry is the one observability consumer that keeps phase-B
# workers threaded: the boundary hook reads channel counters that
# worker threads wrote moments earlier, and the self-profiler
# reads worker finish stamps across the barrier -- both are ordering
# claims TSan can falsify.
telemetry_smoke build-tsan
echo "=== tsan: scenario engine (churn + page migration) ==="
scenario_smoke build-tsan
echo "=== tsan: open-loop serving (drops + retry paths) ==="
serving_smoke build-tsan
echo "=== tsan: full suite ==="
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
echo "=== tsan: per-policy observability exports ==="
obs_smoke build-tsan
echo "=== tsan: fuzz system sweep (parallel policy workers) ==="
# System-mode samples run the policy sweep on worker threads and
# cross-check jobs=1 vs jobs=N traces -- the fuzzer is itself a
# race detector target.
./build-tsan/tools/fuzz_policies --mode system --samples 5 --seed 11 \
    --shrink-budget 0

echo "all sanitizer passes clean"
