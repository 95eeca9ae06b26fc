/**
 * @file
 * Telemetry identity proof: the JSONL export is byte-identical
 * across jobs counts WITHIN one timing mode, exactly like the stats
 * JSON (tests/validate/shard_identity_test.cc).  Sampling happens in
 * the sealed phase-C boundary hook, so the values are a pure
 * function of simulated time.  Timing modes are keyed by shards
 * alone and never compared against each other: the legacy kernel
 * (shards == 0) is checked for run-to-run determinism on its own
 * since its periodic-event driver shares no boundary grid with the
 * sharded one.
 *
 * Identity alone cannot see a rename, reorder or kind flip that
 * changes every run alike, so TelemetryGoldenTest also compares each
 * kernel's export byte-for-byte with a checked-in fixture,
 * tests/validate/data/telemetry_<kernel>.jsonl.  A missing or
 * diverging fixture writes the produced export to
 * telemetry_<kernel>.jsonl in the working directory; copy it into
 * tests/validate/data/ only for an intended change to the series.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "obs/telemetry.hh"
#include "workload/serving.hh"

namespace refsched::obs
{
namespace
{

core::SystemConfig
telemetryConfig(int shards)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-1", core::Policy::CoDesign, dram::DensityGb::d32,
        milliseconds(64.0), /*numCores=*/2, /*tasksPerCore=*/4,
        /*timeScale=*/1024);
    cfg.channels = 2;
    cfg.shards = shards;
    // Serving on, so the serving.* lane-0 series are exercised too.
    cfg.serving = workload::ServingConfig::parse(
        "arrival=mmpp,load=0.3,pool=4,queue=16,lines=4");
    cfg.telemetry.enabled = true;
    return cfg;
}

std::string
runTelemetryJsonl(const core::SystemConfig &cfg)
{
    core::System sys(cfg);
    sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);
    std::ostringstream os;
    sys.telemetry()->writeJsonl(os);
    return os.str();
}

/**
 * Run every shard-count cell under jobs workers and return the
 * telemetry JSONL per cell, in cell order.
 */
std::vector<std::string>
runMatrix(const std::vector<int> &cells, int jobs)
{
    std::vector<std::string> out(cells.size());
    std::vector<core::CellSpec> specs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::SystemConfig cfg = telemetryConfig(cells[i]);
        std::string *slot = &out[i];
        core::CellSpec spec;
        spec.custom = [cfg, slot] {
            core::System sys(cfg);
            const auto m = sys.run(/*warmupQuanta=*/1,
                                   /*measureQuanta=*/2);
            std::ostringstream os;
            sys.telemetry()->writeJsonl(os);
            *slot = os.str();
            return m;
        };
        specs.push_back(std::move(spec));
    }
    core::ParallelRunner(jobs).runCells(specs);
    return out;
}

void
expectGroupIdentical(const std::vector<int> &cells,
                     const std::string &label)
{
    std::vector<std::string> seq, par;
    for (int jobs : {1, 8})
        (jobs == 1 ? seq : par) = runMatrix(cells, jobs);

    // The export must carry real samples from every lane family, or
    // identity proves nothing.
    ASSERT_FALSE(seq[0].empty());
    EXPECT_NE(seq[0].find("\"type\": \"schema\""),
              std::string::npos);
    EXPECT_NE(seq[0].find("ch1.readQ"), std::string::npos);
    EXPECT_NE(seq[0].find("core1.instrs"), std::string::npos);
    EXPECT_NE(seq[0].find("sched.quanta"), std::string::npos);
    EXPECT_NE(seq[0].find("serving.backlog"), std::string::npos);
    EXPECT_NE(seq[0].find("{\"t\": "), std::string::npos)
        << "no sample passes in the measured interval";

    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::ostringstream what;
        what << label << " shards=" << cells[i];
        EXPECT_EQ(seq[0], seq[i]) << what.str() << " jobs=1";
        EXPECT_EQ(seq[0], par[i]) << what.str() << " jobs=8";
    }
}

TEST(TelemetryIdentityTest, ShardedNoLanesGroupIsByteIdentical)
{
    expectGroupIdentical({1}, "sharded");
}

TEST(TelemetryIdentityTest, LegacyKernelIsDeterministic)
{
    // shards == 0: the periodic StatDump event drives sampling.
    const core::SystemConfig cfg = telemetryConfig(0);
    const std::string a = runTelemetryJsonl(cfg);
    const std::string b = runTelemetryJsonl(cfg);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("{\"t\": "), std::string::npos);
}

TEST(TelemetryIdentityTest, CsvMatchesJsonlValues)
{
    // Same run exported both ways: the CSV must hold exactly the
    // JSONL passes (same count, same first stamp), proving the two
    // writers read one buffer rather than resampling.
    const core::SystemConfig cfg = telemetryConfig(1);
    core::System sys(cfg);
    sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);
    const auto *tel = sys.telemetry();
    ASSERT_NE(tel, nullptr);
    ASSERT_GT(tel->passCount(), 0u);

    std::ostringstream csv;
    tel->writeCsv(csv);
    // Header + one row per pass + trailing newline.
    std::size_t rows = 0;
    for (char c : csv.str())
        rows += c == '\n';
    EXPECT_EQ(rows, tel->passCount() + 1);
    EXPECT_NE(csv.str().find(std::to_string(tel->passTick(0))),
              std::string::npos);
}

TEST(TelemetryIdentityTest, EveryRegisteredSeriesIsInTheCatalogue)
{
    core::System sys(telemetryConfig(0));
    const auto *tel = sys.telemetry();
    ASSERT_NE(tel, nullptr);
    // sched 2 + serving 4 + 2 channels x 13 + 2 cores x 4.
    EXPECT_EQ(tel->seriesCount(), 40u);
    for (std::size_t s = 0; s < tel->seriesCount(); ++s)
        EXPECT_TRUE(core::isKnownTelemetrySeries(tel->seriesName(s)))
            << tel->seriesName(s);
}

class TelemetryGoldenTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TelemetryGoldenTest, JsonlMatchesFixture)
{
    const std::string name = std::string("telemetry_")
        + (GetParam() == 0 ? "legacy" : "sharded") + ".jsonl";
    const std::string fixture =
        std::string(REFSCHED_TEST_DATA_DIR) + "/" + name;
    const std::string produced =
        runTelemetryJsonl(telemetryConfig(GetParam()));

    std::ifstream f(fixture, std::ios::binary);
    std::ostringstream expected;
    expected << f.rdbuf();
    if (f && expected.str() == produced)
        return;
    std::ofstream(name, std::ios::binary) << produced;
    FAIL() << (f ? "telemetry diverged from " : "missing ") << fixture
           << "; wrote the actual export to " << name;
}

INSTANTIATE_TEST_SUITE_P(Kernels, TelemetryGoldenTest,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return info.param == 0 ? "legacy"
                                                    : "sharded";
                         });

} // namespace
} // namespace refsched::obs
