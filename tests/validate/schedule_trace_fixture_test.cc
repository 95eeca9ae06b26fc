/**
 * @file
 * Golden command-trace fixtures for the memory controller.
 *
 * Each case is a (name, config) pair: tests/validate/data/<name>.trace
 * holds the probe event stream of WL-8 on 2 cores x 4 tasks, 32 Gb,
 * timeScale 1024, 1 warm-up + 3 measured quanta, with the case's
 * policy and tweaks.  The current controller must reproduce every
 * fixture byte-for-byte: a host-side change may not move, add or
 * drop a single DRAM command, scheduler pick or page movement.  An
 * intended change to simulated behaviour re-records the fixtures and
 * says so.
 *
 * AllPolicies: one case per refresh policy.  The originals came from
 * the every-edge-polling controller (commit a545fe5) and proved the
 * wake-precise rewrite a pure host-side optimization; they were
 * re-recorded once, when the open page policy gained the idle-row
 * auto-close timeout.
 *
 * ControllerPaths: none of those eight writes, closes pages or
 * pauses a refresh, so three cases pin those paths -- the write
 * queue, drain hysteresis and starvation cap (co-design under the
 * adversarial-colocation scenario), Refresh Pausing (per-bank) and
 * closed-page precharge (all-bank).  A case names the mc.ch0
 * counters its run must drive above zero, so it cannot silently stop
 * covering its path.  forwardedReads is 0 in every case; read
 * forwarding is covered by MemoryControllerTest.
 *
 * Recording: a case whose fixture is missing or diverges writes the
 * stream it produced to <name>.trace in the working directory.  At
 * the commit whose controller the fixture should pin, run
 * `refsched_tests --gtest_filter='*ScheduleTraceFixtureTest*<name>'`
 * and copy <name>.trace into tests/validate/data/.  This is the only
 * way to re-record a fixture.  The ControllerPaths fixtures were
 * recorded this way from the controller that preceded its
 * single-path refactor.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "validate/golden_trace.hh"
#include "workload/scenario.hh"

namespace refsched::validate
{
namespace
{

struct FixtureCase
{
    /** Fixture file stem; also the test-name suffix. */
    std::string name;
    core::SystemConfig cfg;
    /** mc.ch0 counters the measured run must drive above zero. */
    std::vector<std::string> exercised;
};

/** Print a case as its refresh policy, so the per-policy cases keep
 *  the test names they had when the parameter was the policy. */
void
PrintTo(const FixtureCase &c, std::ostream *os)
{
    *os << ::testing::PrintToString(c.cfg.policy);
}

core::SystemConfig
wl8(core::Policy policy)
{
    return core::makeConfig("WL-8", policy, dram::DensityGb::d32,
                            milliseconds(64.0), /*numCores=*/2,
                            /*tasksPerCore=*/4, /*timeScale=*/1024);
}

std::vector<FixtureCase>
policyCases()
{
    std::vector<FixtureCase> cases;
    for (auto p : {core::Policy::AllBank, core::Policy::PerBank,
                   core::Policy::PerBankOoo, core::Policy::Ddr4x2,
                   core::Policy::Ddr4x4, core::Policy::Adaptive,
                   core::Policy::CoDesign, core::Policy::NoRefresh})
        cases.push_back({core::toString(p), wl8(p), {}});
    return cases;
}

std::vector<FixtureCase>
controllerPathCases()
{
    FixtureCase colocation{"co-design-adversarial-colocation",
                           wl8(core::Policy::CoDesign),
                           {"writes", "writeDrainBatches",
                            "promotedReads", "idleRowCloses"}};
    colocation.cfg.scenario = workload::ScenarioScript::parseFile(
        std::string(REFSCHED_TEST_DATA_DIR)
        + "/adversarial_colocation.scenario");

    FixtureCase pausing{"per-bank-refresh-pausing",
                        wl8(core::Policy::PerBank),
                        {"refreshPauses"}};
    pausing.cfg.mcParams.refreshPausing = true;

    FixtureCase closed{"all-bank-closed-page",
                       wl8(core::Policy::AllBank),
                       {}};
    closed.cfg.mcParams.pagePolicy = memctrl::PagePolicy::Closed;

    return {colocation, pausing, closed};
}

class ScheduleTraceFixtureTest
    : public ::testing::TestWithParam<FixtureCase>
{
};

TEST_P(ScheduleTraceFixtureTest, MatchesPrePolledControllerTrace)
{
    const FixtureCase &tc = GetParam();
    const std::string fixture =
        std::string(REFSCHED_TEST_DATA_DIR) + "/" + tc.name + ".trace";

    TraceRecorder rec;
    core::System sys(tc.cfg);
    sys.attachProbe(&rec);
    sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/3);

    for (const auto &stat : tc.exercised) {
        const auto *s = dynamic_cast<const Scalar *>(
            sys.stats().find("mc.ch0." + stat));
        ASSERT_NE(s, nullptr) << stat;
        EXPECT_GT(s->value(), 0.0)
            << tc.name << " no longer exercises mc.ch0." << stat;
    }

    const bool haveFixture = std::filesystem::exists(fixture);
    const TraceDiff d = haveFixture
        ? diffTraces(readTraceFile(fixture), decodeTrace(rec.data()))
        : TraceDiff{};
    if (haveFixture && d.identical)
        return;
    writeTraceFile(tc.name + ".trace", rec);
    FAIL() << (haveFixture ? "trace diverged from " : "missing ")
           << fixture << (haveFixture ? ": " + d.describe() : "")
           << "; wrote the actual stream to " << tc.name << ".trace";
}

std::string
testName(const ::testing::TestParamInfo<FixtureCase> &info)
{
    std::string name = info.param.name;
    for (auto &ch : name)
        if (ch == '-')
            ch = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ScheduleTraceFixtureTest,
                         ::testing::ValuesIn(policyCases()), testName);

INSTANTIATE_TEST_SUITE_P(ControllerPaths, ScheduleTraceFixtureTest,
                         ::testing::ValuesIn(controllerPathCases()),
                         testName);

} // namespace
} // namespace refsched::validate
