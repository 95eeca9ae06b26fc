/**
 * @file
 * Differential determinism proof for the sharded event kernel.
 *
 * Two timing modes exist by contract, keyed by SystemConfig::shards
 * alone: shards == 0 is the untouched legacy kernel; shards >= 1 is
 * the sharded kernel, whose simulated timing (stats JSON) and golden
 * trace are bit-identical run to run, traced or untraced, for every
 * jobs count.  The two modes differ slightly from each other -- the
 * sharded kernel hands DRAM requests to their channel at window
 * boundaries -- so comparisons never cross them.
 *
 * Compared artifacts: the full golden trace (every DRAM command,
 * scheduler pick, and page movement at its tick) and the stats-JSON
 * document minus the host-dependent self-profile line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "validate/golden_trace.hh"
#include "workload/scenario.hh"

namespace refsched::validate
{
namespace
{

core::SystemConfig
shardedConfig(int channels, int shards, int numCores = 2)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-1", core::Policy::CoDesign, dram::DensityGb::d32,
        milliseconds(64.0), numCores, /*tasksPerCore=*/4,
        /*timeScale=*/1024);
    cfg.channels = channels;
    cfg.shards = shards;
    return cfg;
}

/** writeStatsJson with the host-wall-clock self-profile removed. */
std::string
statsJsonStripped(core::System &sys, const core::Metrics &m)
{
    std::ostringstream os;
    sys.writeStatsJson(os, m);
    std::string text = os.str();
    const auto at = text.find("\"selfProfile\"");
    if (at != std::string::npos) {
        const auto end = text.find('\n', at);
        text.erase(at, end == std::string::npos ? text.size() - at
                                                : end - at);
    }
    return text;
}

struct ShardRun
{
    std::vector<std::uint8_t> trace;
    std::string statsJson;
    std::uint64_t traceEvents = 0;
};

ShardRun
runOne(const core::SystemConfig &cfg, bool withProbe)
{
    core::System sys(cfg);
    TraceRecorder rec;
    if (withProbe)
        sys.attachProbe(&rec);
    const auto m = sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);

    ShardRun r;
    r.trace = rec.data();
    r.traceEvents = rec.eventCount();
    r.statsJson = statsJsonStripped(sys, m);
    return r;
}

ShardRun
runSharded(int channels, int shards, bool withProbe)
{
    return runOne(shardedConfig(channels, shards), withProbe);
}

void
expectSameRun(const ShardRun &ref, const ShardRun &got,
              const std::string &what)
{
    if (ref.trace != got.trace) {
        const TraceDiff d = diffTraces(decodeTrace(ref.trace),
                                       decodeTrace(got.trace));
        ADD_FAILURE() << what << ": trace divergence: "
                      << d.describe();
    }
    EXPECT_EQ(ref.statsJson, got.statsJson) << what;
}

TEST(ShardIdentityTest, TraceIdenticalAcrossShardCounts)
{
    // Every shards >= 1 selects the same two-lane kernel, so the
    // count axis reduces to run-to-run identity; the untraced run
    // must match too, since a probe only observes.
    const ShardRun a = runSharded(2, /*shards=*/1, true);
    const ShardRun b = runSharded(2, /*shards=*/1, true);
    const ShardRun untraced = runSharded(2, /*shards=*/1, false);

    EXPECT_GT(a.traceEvents, 0u);
    expectSameRun(a, b, "shards=1 rerun");
    EXPECT_EQ(a.statsJson, untraced.statsJson);
}

TEST(ShardIdentityTest, SingleChannelShardedIsDeterministic)
{
    const ShardRun a = runSharded(1, /*shards=*/1, true);
    const ShardRun b = runSharded(1, /*shards=*/1, true);
    EXPECT_GT(a.traceEvents, 0u);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

/**
 * Run one shard-count cell per grid entry on @p jobs workers,
 * tracing each.
 */
std::vector<ShardRun>
runMatrix(const std::vector<int> &cells, int jobs)
{
    std::vector<ShardRun> runs(cells.size());
    core::parallelFor(cells.size(), jobs, [&](std::size_t i) {
        core::System sys(shardedConfig(2, cells[i]));
        TraceRecorder rec;
        sys.attachProbe(&rec);
        const auto m = sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/2);
        runs[i].trace = rec.data();
        runs[i].traceEvents = rec.eventCount();
        runs[i].statsJson = statsJsonStripped(sys, m);
    });
    return runs;
}

TEST(ShardIdentityTest, LegacyLaneZeroIdenticalAcrossShardsAndJobs)
{
    // The identity matrix {shards 0,1} x {jobs 1,8}: each timing
    // mode is its own deterministic group at any jobs count.
    const std::vector<int> cells = {0, 1};
    const std::vector<ShardRun> seq = runMatrix(cells, /*jobs=*/1);
    const std::vector<ShardRun> par = runMatrix(cells, /*jobs=*/8);
    EXPECT_GT(seq[0].traceEvents, 0u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::ostringstream what;
        what << "shards=" << cells[i];
        expectSameRun(seq[i], par[i], what.str() + " jobs=1 vs 8");
    }
}

TEST(ShardIdentityTest, LaneIdentityHoldsOnEveryRefreshPolicy)
{
    // Boundary-staged request and fill delivery must stay
    // deterministic under every refresh scheduler, since each policy
    // shifts DRAM completion times differently.  The traced run
    // must match the untraced one.
    for (core::Policy p :
         {core::Policy::NoRefresh, core::Policy::AllBank,
          core::Policy::PerBank, core::Policy::PerBankOoo,
          core::Policy::Adaptive, core::Policy::CoDesign}) {
        core::SystemConfig cfg = shardedConfig(2, /*shards=*/1);
        cfg.applyPolicy(p);
        const ShardRun untraced = runOne(cfg, false);
        const ShardRun traced = runOne(cfg, true);
        EXPECT_FALSE(untraced.statsJson.empty());
        EXPECT_GT(traced.traceEvents, 0u);
        EXPECT_EQ(untraced.statsJson, traced.statsJson)
            << "policy " << core::toString(p);
    }
}

TEST(ServingIdentityTest, OpenLoopInjectionIdenticalAcrossPartitionings)
{
    // Open-loop serving arrivals land on the main lane and their
    // line requests route to owning channel lanes.  Sharded
    // identity group: two shards=1 cells x {jobs 1,8} byte-identical
    // stats (which include every serving.* histogram), plus the
    // legacy kernel (shards=0) deterministic on its own.
    auto servingCfg = [](int shards) {
        core::SystemConfig cfg = shardedConfig(2, shards);
        cfg.serving = workload::ServingConfig::parse(
            "arrival=mmpp,load=0.3,pool=4,queue=16,lines=4");
        return cfg;
    };

    const std::vector<int> cells = {1, 1};
    std::vector<ShardRun> seq, par;
    for (int jobs : {1, 8}) {
        std::vector<ShardRun> runs(cells.size());
        core::parallelFor(cells.size(), jobs, [&](std::size_t i) {
            core::System sys(servingCfg(cells[i]));
            const auto m = sys.run(/*warmupQuanta=*/1,
                                   /*measureQuanta=*/2);
            runs[i].statsJson = statsJsonStripped(sys, m);
        });
        (jobs == 1 ? seq : par) = std::move(runs);
    }

    ASSERT_FALSE(seq[0].statsJson.empty());
    // The stats must actually contain serving data, or this test
    // proves nothing.
    EXPECT_NE(seq[0].statsJson.find("serving.arrivals"),
              std::string::npos);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::ostringstream what;
        what << "serving shards=" << cells[i];
        EXPECT_EQ(seq[0].statsJson, seq[i].statsJson)
            << what.str() << " jobs=1";
        EXPECT_EQ(seq[0].statsJson, par[i].statsJson)
            << what.str() << " jobs=8";
    }

    // Legacy kernel with serving: deterministic run-to-run.
    const core::SystemConfig legacy = servingCfg(0);
    const ShardRun a = runOne(legacy, false);
    const ShardRun b = runOne(legacy, false);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_NE(a.statsJson.find("serving.arrivals"),
              std::string::npos);
}

TEST(ShardIdentityTest, ScenarioChurnMigrationIdenticalAcrossShards)
{
    // Tenant churn + page migration on a 4-core system: spawns
    // pinned to cores 0 and 3, the kill + re-binpack strands pages,
    // and migration copy traffic stages through the router onto
    // both channel lanes.  Two runs must produce the same golden
    // trace.
    workload::ScenarioScript script;
    {
        workload::ScenarioEvent spawn;
        spawn.quantum = 1;
        spawn.kind = workload::ScenarioEventKind::Spawn;
        spawn.benchmark = "stream";
        spawn.cpu = 0;
        script.events.push_back(spawn);
        spawn.quantum = 2;
        spawn.benchmark = "mcf";
        spawn.cpu = 3;
        script.events.push_back(spawn);
        workload::ScenarioEvent kill;
        kill.quantum = 3;
        kill.kind = workload::ScenarioEventKind::Kill;
        kill.pid = 2;
        script.events.push_back(kill);
    }
    script.migrate = true;
    script.reassignOnChurn = true;

    std::vector<ShardRun> runs;
    for (int run = 0; run < 2; ++run) {
        core::SystemConfig cfg =
            shardedConfig(2, /*shards=*/1, /*numCores=*/4);
        cfg.scenario = script;
        core::System sys(cfg);
        TraceRecorder rec;
        sys.attachProbe(&rec);
        const auto m =
            sys.run(/*warmupQuanta=*/0, /*measureQuanta=*/6);
        ShardRun r;
        r.trace = rec.data();
        r.traceEvents = rec.eventCount();
        r.statsJson = statsJsonStripped(sys, m);
        runs.push_back(std::move(r));
    }
    EXPECT_GT(runs[0].traceEvents, 0u);
    expectSameRun(runs[0], runs[1], "scenario rerun");
}

} // namespace
} // namespace refsched::validate
