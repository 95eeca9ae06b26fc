/**
 * @file
 * Randomized input domain of the cross-policy differential fuzzer.
 *
 * A FuzzSample is one fully-specified fuzz input: a DRAM/system
 * topology, refresh-timing parameters, policy knobs, and a seeded
 * synthetic workload.  Samples come in two kinds:
 *
 *  - Cadence: exercises the RefreshScheduler policies in isolation
 *    (no System), so it may use organizations the full machine
 *    rejects -- notably non-power-of-two rank counts, where the
 *    truncated tREFI staggers historically drifted.
 *  - System: a complete multi-policy machine comparison; every
 *    applicable Policy bundle is simulated on the same topology and
 *    workload with all invariant checkers armed.
 *
 * Samples serialize to a line-oriented `key=value` text form that is
 * checked into tests/fuzz/corpus/ as regression repros; parse() is
 * the exact inverse, so a printed failure is always replayable with
 * `fuzz_policies --replay <file>`.
 */

#ifndef REFSCHED_VALIDATE_FUZZ_FUZZ_SAMPLE_HH
#define REFSCHED_VALIDATE_FUZZ_FUZZ_SAMPLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "dram/timings.hh"
#include "simcore/rng.hh"
#include "workload/scenario.hh"

namespace refsched::validate::fuzz
{

enum class SampleKind
{
    Cadence,
    System,
};

std::string toString(SampleKind k);

struct FuzzSample
{
    SampleKind kind = SampleKind::Cadence;

    /** Seeds the workload trace streams (System kind). */
    std::uint64_t seed = 1;

    // --- Topology ---
    int channels = 1;
    int ranksPerChannel = 2;  ///< Cadence kind permits non-pow2
    int banksPerRank = 8;

    // --- Refresh timing ---
    int densityGb = 32;
    double tREFWms = 64.0;
    unsigned timeScale = 1024;
    bool xorBankHash = false;

    // --- Cadence kind only ---
    int windows = 4;  ///< tREFW windows the oracle buckets over

    // --- System kind only ---
    int cores = 2;
    int tasksPerCore = 4;
    int etaThresh = 64;
    bool bestEffort = true;
    int banksPerTaskPerRank = -1;  ///< -1 = paper rule
    int warmupQuanta = 1;
    int measureQuanta = 2;

    /**
     * Event-kernel timing mode (System kind).  shards > 0 runs the
     * channel-sharded kernel; every such value selects the same
     * kernel.  An absent key parses as 0 (legacy kernel), keeping
     * old corpus entries valid.
     */
    int shards = 0;
    /** One benchmark name per task (cores * tasksPerCore). */
    std::vector<std::string> benchmarks;

    /**
     * Dynamic-workload scenario (System kind): churn, phase changes
     * and migration run identically in every policy cell, with the
     * ScenarioAuditor armed.  Serialized as scenario_-prefixed
     * ScenarioScript lines; absent keys mean a static run, so old
     * corpus entries parse unchanged.
     */
    workload::ScenarioScript scenario;

    /**
     * Open-loop serving spec (System kind), in the exact
     * ServingConfig::parse key=value form, or empty for no serving
     * traffic.  Absent keys parse as empty, keeping old corpus
     * entries valid.
     */
    std::string serving;

    int totalTasks() const { return cores * tasksPerCore; }

    /** Line-oriented key=value form (includes a trailing newline). */
    std::string serialize() const;

    /** One-line human summary for failure reports. */
    std::string describe() const;

    /**
     * Device config for the Cadence kind.  Deliberately skips
     * DramOrganization::check() so non-power-of-two rank counts are
     * reachable; the refresh schedulers themselves must stay exact
     * on such organizations.
     */
    dram::DramDeviceConfig toDeviceConfig() const;

    /**
     * SystemConfig for one policy cell of a System sample.  The
     * caller owns validity: check()/deviceConfig() may still fatal()
     * for infeasible parameter combinations (the sampler rejection-
     * samples those away; replays surface them as oracle failures).
     */
    core::SystemConfig toConfig(core::Policy policy) const;

    /** Inverse of serialize(); fatal() on malformed input. */
    static FuzzSample parse(const std::string &text);

    /** parse() of a corpus file on disk; fatal() on I/O error. */
    static FuzzSample parseFile(const std::string &path);
};

/**
 * Draw one random sample of @p kind.  System samples are rejection-
 * sampled until the derived SystemConfig and DRAM timings validate,
 * so every returned sample is runnable by construction.
 */
FuzzSample sampleOne(Rng &rng, SampleKind kind);

} // namespace refsched::validate::fuzz

#endif // REFSCHED_VALIDATE_FUZZ_FUZZ_SAMPLE_HH
