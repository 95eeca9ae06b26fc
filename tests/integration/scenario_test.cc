/**
 * @file
 * End-to-end tests for the dynamic-workload scenario engine on the
 * checked-in adversarial-colocation fixture: churn mechanics and
 * accounting, the migration-recovers-stale-placement headline, and
 * bit-identical determinism across --jobs and on the sharded kernel.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "memctrl/memory_controller.hh"
#include "os/scenario_director.hh"
#include "validate/golden_trace.hh"
#include "workload/scenario.hh"

namespace refsched::core
{
namespace
{

std::string
fixturePath()
{
    return std::string(REFSCHED_TEST_DATA_DIR)
        + "/adversarial_colocation.scenario";
}

/** The run the fixture header documents: co-design, 1 core x 4
 *  tasks, d32, timeScale 1024. */
SystemConfig
fixtureConfig(bool migrate)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.tasksPerCore = 4;
    cfg.timeScale = 1024;
    cfg.density = dram::DensityGb::d32;
    cfg.seed = 1;
    cfg.applyPolicy(Policy::CoDesign);
    cfg.benchmarks = {"GemsFDTD", "stream", "GemsFDTD", "npb_ua"};
    cfg.scenario = workload::ScenarioScript::parseFile(fixturePath());
    cfg.scenario.migrate = migrate;
    cfg.validate = true;
    return cfg;
}

TEST(ScenarioIntegrationTest, ChurnMechanicsAndAccounting)
{
    // warmup=0 so the churn quanta land inside the measured region
    // and the director's counters survive the stats reset.
    System sys(fixtureConfig(/*migrate=*/true));
    const Metrics m = sys.run(/*warmupQuanta=*/0,
                              /*measureQuanta=*/28);
    EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;

    const os::ScenarioDirector *dir = sys.scenarioDirector();
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->spawns.value(), 1.0);
    EXPECT_EQ(dir->kills.value(), 1.0);
    // The re-binpack after the kill strands pages; all of them move,
    // each page as pageBytes/64 read+write line pairs.
    EXPECT_GT(dir->pagesMigrated.value(), 0.0);
    EXPECT_EQ(dir->migrationReads.value(),
              dir->migrationWrites.value());
    EXPECT_EQ(dir->migrationReads.value(),
              dir->pagesMigrated.value()
                  * static_cast<double>(
                      sys.controller().mapping().pageBytes() / 64));
    // 28 quanta are enough for the bandwidth-bound sweep to drain
    // completely (copying is real traffic, not a teleport).
    EXPECT_FALSE(dir->migrationsPending());

    // Survivors (pids 1, 3, 4) plus the adversarial arrival.
    const auto &live = dir->liveTasks();
    ASSERT_EQ(live.size(), 4u);
    EXPECT_EQ(live.back()->pid(), 5);
    EXPECT_EQ(live.back()->name(), "stream");
}

TEST(ScenarioIntegrationTest, MigrationRecoversAdversarialColocation)
{
    // The acceptance experiment: churn + consolidation in warm-up,
    // measure the post-churn steady state.  Stale placement makes
    // the co-design schedule "clean" tasks whose stranded pages sit
    // in refreshing banks; migration restores the guarantee.
    const auto runFixture = [](bool migrate) {
        System sys(fixtureConfig(migrate));
        const Metrics m = sys.run(/*warmupQuanta=*/24,
                                  /*measureQuanta=*/32);
        EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
        const auto &ch = sys.controller().channelStats(0);
        return std::make_tuple(m, ch.readLatencyClean.samples(),
                               ch.readLatencyBlocked.samples(),
                               ch.readLatencyClean.mean(),
                               ch.readLatencyBlocked.mean());
    };

    const auto [stale, staleClean, staleBlocked, staleCleanMean,
                staleBlockedMean] = runFixture(false);
    const auto [moved, movedClean, movedBlocked, movedCleanMean,
                movedBlockedMean] = runFixture(true);

    // Without migration the stale placement leaks blocked reads and
    // forces Algorithm 3 into best-effort picks...
    EXPECT_GT(stale.blockedReadFraction, 0.0);
    EXPECT_GT(stale.bestEffortPicks, 0u);
    EXPECT_GT(staleBlocked, 0u);
    // ...and the clean/blocked latency split shows what each blocked
    // read costs: a refresh-blocked read waits at least twice the
    // mean clean latency.
    EXPECT_GT(staleBlockedMean, 2.0 * staleCleanMean);

    // Migration recovers the co-design's placement guarantee: every
    // pick is clean again and no measured read hits a refreshing
    // bank.
    EXPECT_EQ(moved.bestEffortPicks, 0u);
    EXPECT_EQ(movedBlocked, 0u);
    EXPECT_LT(moved.blockedReadFraction, stale.blockedReadFraction);
    EXPECT_GT(movedClean, 0u);
    (void)movedCleanMean;
    (void)movedBlockedMean;
    (void)staleClean;
}

TEST(ScenarioIntegrationTest, LaterSweepReusesMigrationJobSlots)
{
    // The fixture's kill (quantum 2) and spawn (quantum 3) each
    // re-binpack and sweep; a second kill long after those copies
    // have drained sweeps again.  A finished job gives its slot back,
    // so the slots stay below the pages migrated over the run.
    SystemConfig cfg = fixtureConfig(/*migrate=*/true);
    workload::ScenarioEvent kill;
    kill.kind = workload::ScenarioEventKind::Kill;
    kill.quantum = 24;
    kill.pid = 3;
    cfg.scenario.events.push_back(kill);

    System sys(cfg);
    const Metrics m = sys.run(/*warmupQuanta=*/0, /*measureQuanta=*/48);
    EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
    const os::ScenarioDirector *dir = sys.scenarioDirector();
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->kills.value(), 2.0);
    EXPECT_FALSE(dir->migrationsPending());
    EXPECT_GT(dir->migrationJobSlots(), 0u);
    EXPECT_LT(static_cast<double>(dir->migrationJobSlots()),
              dir->pagesMigrated.value());
}

TEST(ScenarioIntegrationTest, SpawnPeakIsCappedToPhysicalMemory)
{
    // A spawn whose footprint (fp=16) times its phase peak (x16) is
    // far past physical memory on a small machine: WL-1 at 8 Gb
    // and timeScale 1024 has 2048 frames.  The capacity guard scales
    // the tenant down, so it runs instead of touching a vpn past the
    // address-space limit.
    SystemConfig cfg = makeConfig("WL-1", Policy::CoDesign,
                                  dram::DensityGb::d8,
                                  milliseconds(64.0), 2, 4, 1024);
    cfg.scenario = workload::ScenarioScript::parse(
        "ev=1:spawn:mcf:fp=16:phases=mcf@100000@16\n");

    System sys(cfg);
    sys.run(/*warmupQuanta=*/0, /*measureQuanta=*/24);
    const os::ScenarioDirector *dir = sys.scenarioDirector();
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->spawns.value(), 1.0);
    const auto &live = dir->liveTasks();
    ASSERT_EQ(live.size(), 9u);
    EXPECT_EQ(live.back()->name(), "mcf");
    EXPECT_GT(live.back()->pageTable.size(), 0u);
}

/** Run the fixture config under @p jobs workers, tracing each cell. */
std::vector<Metrics>
runScenarioGrid(int jobs, std::vector<validate::TraceRecorder> &recs)
{
    const bool variants[] = {true, false};
    recs.assign(2, validate::TraceRecorder{});
    std::vector<CellSpec> specs;
    for (std::size_t i = 0; i < 2; ++i) {
        SystemConfig cfg = fixtureConfig(variants[i]);
        validate::TraceRecorder *rec = &recs[i];
        CellSpec spec;
        spec.custom = [cfg, rec] {
            System sys(cfg);
            sys.attachProbe(rec);
            return sys.run(/*warmupQuanta=*/1, /*measureQuanta=*/4);
        };
        specs.push_back(std::move(spec));
    }
    return ParallelRunner(jobs).runCells(specs);
}

TEST(ScenarioIntegrationTest, TraceIdenticalAcrossJobCounts)
{
    std::vector<validate::TraceRecorder> seq, par;
    runScenarioGrid(/*jobs=*/1, seq);
    runScenarioGrid(/*jobs=*/8, par);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE(i == 0 ? "migrate=1" : "migrate=0");
        EXPECT_GT(seq[i].eventCount(), 0u);
        if (seq[i].data() == par[i].data())
            continue;
        const validate::TraceDiff d =
            validate::diffTraces(validate::decodeTrace(seq[i].data()),
                                 validate::decodeTrace(par[i].data()));
        ADD_FAILURE() << "jobs=1 vs jobs=8 trace divergence: "
                      << d.describe();
    }
}

/** writeStatsJson minus the host-wall-clock self-profile line. */
std::string
statsJsonStripped(System &sys, const Metrics &m)
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

TEST(ScenarioIntegrationTest, TraceAndStatsIdenticalAcrossShards)
{
    // The legacy (shards=0) and sharded kernels are different
    // machines by design; the determinism claim is within the
    // sharded kernel: reruns, traced or not, produce the same bits.
    const auto runSharded = [](int shards, bool withProbe) {
        SystemConfig cfg = fixtureConfig(/*migrate=*/true);
        cfg.channels = 2;
        cfg.shards = shards;
        System sys(cfg);
        validate::TraceRecorder rec;
        if (withProbe)
            sys.attachProbe(&rec);
        const Metrics m = sys.run(/*warmupQuanta=*/1,
                                  /*measureQuanta=*/4);
        EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
        return std::make_pair(rec.data(), statsJsonStripped(sys, m));
    };

    const auto [traceOne, statsOne] = runSharded(1, true);
    const auto [traceTwo, statsTwo] = runSharded(1, true);
    EXPECT_FALSE(traceOne.empty());
    if (traceOne != traceTwo) {
        const validate::TraceDiff d =
            validate::diffTraces(validate::decodeTrace(traceOne),
                                 validate::decodeTrace(traceTwo));
        ADD_FAILURE() << "shards=1 rerun trace divergence: "
                      << d.describe();
    }
    EXPECT_EQ(statsOne, statsTwo);

    // A probe only observes: the untraced run matches.
    const auto untraced = runSharded(1, false);
    EXPECT_FALSE(untraced.second.empty());
    EXPECT_EQ(statsOne, untraced.second);
}

} // namespace
} // namespace refsched::core
