#!/usr/bin/env bash
#
# Build and run the test suite under ASan+UBSan and under TSan.
#
#   tools/run_sanitized_tests.sh [jobs]
#
# The ASan pass catches memory errors and UB across the whole suite;
# the TSan pass targets the multi-threaded subsystems first (the
# parallel experiment runner and the fuzzer's policy sweep), then
# runs the full suite anyway -- races can hide behind any entry
# point that constructs a runner.

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

# Telemetry samples counters from the sharded kernel's phase-C
# boundary hook, then walks the string-heavy JSONL/CSV exporters --
# both sides are sanitizer targets.  The kernel self-profiler also
# arms here.
telemetry_smoke() {
    local dir="$1" out="$1/telemetry-smoke"
    mkdir -p "$out"
    echo "--- ${dir}: --telemetry sampled export (sharded kernel) ---"
    "./$dir/tools/refsched_cli" --policy co-design --workload WL-5 \
        --scale 1024 --channels 2 --shards 1 \
        --warmup 1 --measure 8 --seed 7 \
        --serving "arrival=mmpp,load=0.4,pool=4,queue=16,lines=4" \
        --telemetry "$out/telemetry.jsonl" \
        --stats-json "$out/telemetry.stats.json" >/dev/null
    "./$dir/tools/refsched_cli" --policy co-design --workload WL-5 \
        --scale 1024 --channels 2 --warmup 1 --measure 8 --seed 7 \
        --telemetry "$out/telemetry.csv" >/dev/null
}

# The open-loop serving injector shares slot/backlog state between
# the main-lane arrival path and per-line completions, and its
# per-line blocked flags are written by the controller --
# pointer-lifetime territory the sanitizers own.  Overload parameters keep
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
echo "=== tsan: parallel-runner determinism suites ==="
# Each runs cells on parallelFor worker threads, whose only shared
# state is the index cursor, and asserts bit-identity with the
# inline run; bench_artifact_smoke does the same for a figure bench's
# per-cell artifacts.
ctest --test-dir build-tsan --output-on-failure \
    -R 'ParallelFor|GoldenTraceJobs|ScenarioIntegration|bench_artifact_smoke'
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
