/**
 * @file
 * FuzzSample text format: keys the format no longer defines are
 * rejected rather than silently ignored.
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

} // namespace
} // namespace refsched::validate::fuzz
