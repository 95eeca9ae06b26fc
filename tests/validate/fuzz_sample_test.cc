/**
 * @file
 * FuzzSample text format: keys the format no longer defines and
 * malformed or out-of-range numbers are rejected rather than
 * silently ignored, truncated or run.
 */

#include <gtest/gtest.h>

#include <string>

#include "simcore/logging.hh"
#include "validate/fuzz/fuzz_sample.hh"

namespace refsched::validate::fuzz
{
namespace
{

TEST(FuzzSampleTest, RejectsRetiredCoreClusterLaneKey)
{
    const std::string sample = "kind=system\n"
                               "cores=2\n"
                               "tasks_per_core=2\n"
                               "shards=2\n"
                               "benchmarks=mcf,stream,povray,mcf\n";
    EXPECT_EQ(FuzzSample::parse(sample).shards, 2);

    // The core-cluster-lane axis was removed from the simulator; a
    // stale corpus entry that still sets it must fail loudly instead
    // of replaying as a different machine.
    const std::string retired = std::string("core") + "_lanes=2\n";
    EXPECT_THROW(FuzzSample::parse(sample + retired), FatalError);
}

TEST(FuzzSampleTest, RejectsMalformedAndOutOfRangeNumbers)
{
    const std::string sample = "kind=system\n"
                               "cores=2\n"
                               "tasks_per_core=2\n"
                               "benchmarks=mcf,stream,povray,mcf\n";
    EXPECT_NO_THROW(FuzzSample::parse(sample + "trefw_ms=64\n"));

    // Each of these was accepted (truncated or run as-is) or crashed
    // the replay; a NaN retention never finished.
    for (const char *bad :
         {"trefw_ms=nan", "trefw_ms=inf", "trefw_ms=0",
          "measure_quanta=-4", "measure_quanta=0", "warmup_quanta=-1",
          "shards=2x", "shards=-1", "cores=2junk", "seed=12abc",
          "seed=-1", "channels= 2", "time_scale=0",
          "density_gb=32.5", "tasks_per_core=99999999999",
          "best_effort=2", "windows="}) {
        EXPECT_THROW(FuzzSample::parse(sample + bad + "\n"), FatalError)
            << bad;
    }
}

} // namespace
} // namespace refsched::validate::fuzz
