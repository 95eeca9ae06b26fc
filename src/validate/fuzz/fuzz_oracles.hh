/**
 * @file
 * Differential oracles of the cross-policy fuzzer.
 *
 * Each oracle states a property that must hold for EVERY sampled
 * configuration, not just the curated test points:
 *
 *  - cadence: every refresh policy delivers exactly rowsPerBank row
 *    refreshes to every bank inside every wall-clock tREFW window
 *    (bucketed by command due-time, the form that catches cumulative
 *    cadence drift), schedules monotonically, and -- for the
 *    co-design policy -- pops only banks it had announced via
 *    banksUnderRefreshAt (the Algorithm 1 + 3 contract).
 *  - checkers: a full System run of every policy bundle with all
 *    invariant probes armed (JEDEC timing auditor, refresh-window
 *    monitor, OS auditor) reports zero violations.
 *  - dominance: the ideal NoRefresh machine is at least as fast
 *    (harmonic-mean IPC) as every refreshing policy that shares its
 *    bank-oblivious allocation; CoDesign is excluded because soft
 *    partitioning changes data placement, not just refresh.
 *  - stall-free: with the paper's partitioning rule and an eta
 *    threshold that can reach every runqueue slot, the co-design
 *    scheduler never issues a fallback or best-effort pick.
 *  - jobs: the whole policy sweep, re-run with a single worker,
 *    produces byte-identical golden traces per cell.
 */

#ifndef REFSCHED_VALIDATE_FUZZ_FUZZ_ORACLES_HH
#define REFSCHED_VALIDATE_FUZZ_FUZZ_ORACLES_HH

#include <string>
#include <vector>

#include "validate/fuzz/fuzz_sample.hh"

namespace refsched::validate::fuzz
{

/** One violated oracle, with enough detail to debug from the log. */
struct OracleFailure
{
    std::string oracle;  ///< "cadence", "checkers", "dominance", ...
    std::string detail;
};

using FailureList = std::vector<OracleFailure>;

/** Run the policy-level cadence oracle over @p s (Cadence kind). */
FailureList checkCadence(const FuzzSample &s);

/**
 * Run the full-system differential oracles over @p s (System kind):
 * every applicable policy is simulated through core::parallelFor with
 * @p jobs workers, then once more inline, and the checker /
 * dominance / stall-free / jobs-identity oracles are evaluated.
 */
FailureList checkSystem(const FuzzSample &s, int jobs);

/** Dispatch on s.kind. */
FailureList checkSample(const FuzzSample &s, int jobs);

} // namespace refsched::validate::fuzz

#endif // REFSCHED_VALIDATE_FUZZ_FUZZ_ORACLES_HH
