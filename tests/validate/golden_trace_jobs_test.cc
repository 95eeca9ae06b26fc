/**
 * @file
 * Differential determinism proof for the parallel experiment runner:
 * the same figure-bench cells executed with jobs=1 and jobs=8 must
 * produce byte-identical golden traces (every DRAM command, pick
 * decision, and page movement at the same tick), for two different
 * figure workload/policy grids.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "validate/golden_trace.hh"

namespace refsched::validate
{
namespace
{

struct JobsCell
{
    const char *workload;
    core::Policy policy;
};

/** Run @p cells under @p jobs workers, tracing each into recs[i]. */
std::vector<core::Metrics>
runGrid(const std::vector<JobsCell> &cells, int jobs,
        std::vector<TraceRecorder> &recs)
{
    recs.assign(cells.size(), TraceRecorder{});
    std::vector<core::Metrics> out(cells.size());
    core::parallelFor(cells.size(), jobs, [&](std::size_t i) {
        core::System sys(core::makeConfig(
            cells[i].workload, cells[i].policy, dram::DensityGb::d32,
            milliseconds(64.0), /*numCores=*/2, /*tasksPerCore=*/4,
            /*timeScale=*/1024));
        sys.attachProbe(&recs[i]);
        out[i] = sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);
    });
    return out;
}

void
expectIdenticalTraces(const std::vector<JobsCell> &cells)
{
    std::vector<TraceRecorder> seq, par;
    runGrid(cells, /*jobs=*/1, seq);
    runGrid(cells, /*jobs=*/8, par);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << cells[i].workload << " / "
                     << core::toString(cells[i].policy));
        // A trivial trace would make the comparison vacuous.
        EXPECT_GT(seq[i].eventCount(), 0u);
        if (seq[i].data() == par[i].data())
            continue;
        const TraceDiff d = diffTraces(decodeTrace(seq[i].data()),
                                       decodeTrace(par[i].data()));
        ADD_FAILURE() << "jobs=1 vs jobs=8 trace divergence: "
                      << d.describe();
    }
}

TEST(GoldenTraceJobsTest, MemoryBoundGridIdenticalAcrossJobCounts)
{
    expectIdenticalTraces({{"WL-1", core::Policy::AllBank},
                           {"WL-1", core::Policy::CoDesign}});
}

TEST(GoldenTraceJobsTest, MixedGridIdenticalAcrossJobCounts)
{
    expectIdenticalTraces({{"WL-8", core::Policy::PerBank},
                           {"WL-8", core::Policy::CoDesign}});
}

} // namespace
} // namespace refsched::validate
