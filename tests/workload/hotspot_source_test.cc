/** @file Tests for the adversarial hotspot source. */

#include "workload/hotspot_source.hh"

#include <gtest/gtest.h>

#include <vector>

#include "dram/timings.hh"
#include "os/task.hh"

namespace refsched::workload
{
namespace
{

/**
 * With every access up for redirection, the source asks for the
 * refresh forecast once per handed-out entry, at the clock of that
 * next() call: it must not draw ahead of the core.  With no bank
 * forecast it hands out the wrapped generator's entries unchanged.
 */
TEST(HotspotSourceTest, QueriesTheForecastAtTheClockOfEachNext)
{
    const dram::DramDeviceConfig dev = dram::makeDdr3_1600(
        dram::DensityGb::d32, milliseconds(64.0), 256);
    const dram::AddressMapping mapping(dev.org);
    os::Task task(1, "adv", mapping.totalBanks());
    const BenchmarkProfile profile = profileByName("mcf");

    std::vector<Tick> queried;
    Tick now = 0;
    AdversarialHotspotSource src(
        profile, 5, 1 * kMiB, &task, &mapping,
        [&queried](Tick t) {
            queried.push_back(t);
            return std::vector<int>{};
        },
        [&now] { return now; }, 1.0);
    SyntheticTraceGenerator plain(profile, 5, 1 * kMiB);

    std::vector<Tick> expected;
    for (int i = 0; i < 200; ++i) {
        now = 1000 * static_cast<Tick>(i) + 7;
        expected.push_back(now);
        const cpu::TraceEntry e = src.next();
        const cpu::TraceEntry p = plain.next();
        ASSERT_EQ(e.gap, p.gap) << i;
        ASSERT_EQ(e.vaddr, p.vaddr) << i;
        ASSERT_EQ(queried.size(), expected.size()) << i;
    }
    EXPECT_EQ(queried, expected);
}

} // namespace
} // namespace refsched::workload
