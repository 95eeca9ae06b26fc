/**
 * @file
 * Driver of the differential fuzzer: sample -> oracle -> (on
 * failure) greedy shrink -> corpus entry.
 *
 * The driver is a library so the CLI (tools/fuzz_policies) and the
 * test suite share one implementation.  Everything is deterministic
 * in (--seed, --samples): the sampler consumes one Rng stream, and
 * each System cell reseeds from its own sample, so a failure report
 * can always be reproduced bit-for-bit from the printed command.
 *
 * Shrinking is greedy field-by-field: from a failing sample, try
 * one-field simplifications in a fixed priority order (fewer
 * channels/ranks/banks, coarser time scale, defaulted scheduler
 * knobs, uniform workload) and adopt any variant that still fails,
 * restarting the scan, until a fixed point or the time budget is
 * reached.  The result is written as a self-contained key=value
 * repro file plus the command line that replays it.
 */

#ifndef REFSCHED_VALIDATE_FUZZ_FUZZ_RUNNER_HH
#define REFSCHED_VALIDATE_FUZZ_FUZZ_RUNNER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "validate/fuzz/fuzz_oracles.hh"
#include "validate/fuzz/fuzz_sample.hh"

namespace refsched::validate::fuzz
{

struct FuzzOptions
{
    int samples = 100;
    std::uint64_t seed = 1;
    /** Worker threads for each sample's policy sweep (0 = auto). */
    int jobs = 0;
    /** Seconds to spend shrinking each failing sample (0 = off). */
    double shrinkBudgetSec = 20.0;
    /** Where failing samples are written ("" = don't write);
     *  created, with its parents, before the first sample. */
    std::string corpusDir;
    /** Restrict the sample stream to one kind ("" = both). */
    std::string onlyKind;
};

struct FuzzReport
{
    int samplesRun = 0;
    int failedSamples = 0;
    std::vector<std::string> corpusPaths;

    bool clean() const { return failedSamples == 0; }
};

/** Fuzz per @p opts, reporting progress and failures to @p log. */
FuzzReport runFuzz(const FuzzOptions &opts, std::ostream &log);

/**
 * Greedy structure-preserving minimization of a failing sample;
 * returns the simplest variant found that still fails some oracle.
 */
FuzzSample shrinkSample(const FuzzSample &failing, int jobs,
                        double budgetSec, std::ostream &log);

/**
 * Serialize @p s (annotated with its failures and replay command)
 * into @p dir under a content-derived file name; returns the path.
 * Creates @p dir if missing; fatal() when it cannot.
 */
std::string writeCorpusEntry(const std::string &dir,
                             const FuzzSample &s,
                             const FailureList &failures);

/** Re-check one corpus file; prints a verdict, returns failures. */
FailureList replayFile(const std::string &path, int jobs,
                       std::ostream &log);

} // namespace refsched::validate::fuzz

#endif // REFSCHED_VALIDATE_FUZZ_FUZZ_RUNNER_HH
