/**
 * @file
 * Telemetry-recorder units: sampling window semantics for both
 * drivers (sharded boundary hook, legacy periodic event), gauge vs
 * delta accounting, measurement restart re-priming, byte-exact
 * JSONL/CSV export, the sample budget, and the series-name check
 * (core::isKnownTelemetrySeries, answered from System's series
 * catalogue) consumed by tools/timeline_check.
 */

#include "obs/telemetry.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "simcore/event_queue.hh"
#include "simcore/logging.hh"

namespace refsched::obs
{
namespace
{

using core::isKnownTelemetrySeries;

TelemetryConfig
enabledConfig(Tick period)
{
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.periodTicks = period;
    return cfg;
}

TEST(TelemetryConfigTest, DisabledConfigNeedsNoValidation)
{
    TelemetryConfig cfg;
    cfg.periodTicks = -5;  // nonsense, but disabled => ignored
    cfg.check();           // must not fatal()
}

TEST(TelemetryRecorderTest, GaugeSamplesValueAsIs)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t v = 7;
    rec.addGauge("ch0.readQ", 1, [&v] { return v; });

    rec.samplePass(100);
    v = 42;
    rec.samplePass(200);

    ASSERT_EQ(rec.passCount(), 2u);
    EXPECT_EQ(rec.value(0, 0), 7);
    EXPECT_EQ(rec.value(1, 0), 42);
}

TEST(TelemetryRecorderTest, DeltaPrimesAtRegistration)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t v = 50;  // non-zero before registration
    rec.addDelta("ch0.reads", 1, [&v] { return v; });

    v = 70;
    rec.samplePass(100);
    v = 70;  // no progress
    rec.samplePass(200);
    v = 100;
    rec.samplePass(300);

    // First delta is vs the registration-time value, not vs zero.
    EXPECT_EQ(rec.value(0, 0), 20);
    EXPECT_EQ(rec.value(1, 0), 0);
    EXPECT_EQ(rec.value(2, 0), 30);
}

TEST(TelemetryRecorderTest, BoundaryHookSamplesEveryCrossedMultiple)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t v = 0;
    rec.addGauge("sched.quanta", 0, [&v] { return v; });

    // Window [0, 50): no multiple crossed (first sample is at 100,
    // and a boundary at exactly 100 means tick 100 has NOT run yet).
    rec.onBoundary(50);
    EXPECT_EQ(rec.passCount(), 0u);
    rec.onBoundary(100);
    EXPECT_EQ(rec.passCount(), 0u);

    // Window ending at 101 covers tick 100.
    v = 1;
    rec.onBoundary(101);
    ASSERT_EQ(rec.passCount(), 1u);
    EXPECT_EQ(rec.passTick(0), 100);
    EXPECT_EQ(rec.value(0, 0), 1);

    // A wide window takes one pass per crossed multiple, all stamped
    // on the period grid with the sealed end-of-window value.
    v = 9;
    rec.onBoundary(501);
    ASSERT_EQ(rec.passCount(), 5u);
    EXPECT_EQ(rec.passTick(1), 200);
    EXPECT_EQ(rec.passTick(4), 500);
    for (std::size_t p = 1; p < 5; ++p)
        EXPECT_EQ(rec.value(p, 0), 9);
    EXPECT_EQ(rec.nextSampleTick(), 600);
}

TEST(TelemetryRecorderTest, LegacyPeriodicEventSamplesOnTheGrid)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t v = 0;
    rec.addDelta("core0.instrs", 2, [&v] { return v; });

    EventQueue eq;
    rec.armPeriodic(eq);
    // Counter advances by 3 per tick via a self-rescheduling event.
    struct Adv final : Callee
    {
        std::int64_t *v;
        EventQueue *eq;
        void
        fire(Tick now, std::uint64_t, std::uint64_t) override
        {
            *v += 3;
            if (now < 400)
                eq->schedule(now + 1, *this, 0, 0);
        }
    } adv;
    adv.v = &v;
    adv.eq = &eq;
    eq.schedule(1, adv, 0, 0);
    eq.runUntil(351);

    // Samples at 100, 200, 300; each period saw 100 ticks x 3.
    ASSERT_EQ(rec.passCount(), 3u);
    EXPECT_EQ(rec.passTick(0), 100);
    EXPECT_EQ(rec.passTick(2), 300);
    EXPECT_EQ(rec.value(0, 0), 300);
    EXPECT_EQ(rec.value(1, 0), 300);
    EXPECT_EQ(rec.value(2, 0), 300);
}

TEST(TelemetryRecorderTest, RestartDropsSamplesAndReprimesDeltas)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t warm = 0;
    rec.addDelta("ch0.reads", 1, [&warm] { return warm; });

    warm = 500;  // warmup progress
    rec.samplePass(100);
    EXPECT_EQ(rec.value(0, 0), 500);

    rec.restart();  // measurement reset at tick 100
    EXPECT_EQ(rec.passCount(), 0u);

    warm = 530;
    rec.samplePass(200);
    // Re-primed at restart: the measured delta excludes warmup and
    // is never negative.
    ASSERT_EQ(rec.passCount(), 1u);
    EXPECT_EQ(rec.value(0, 0), 30);
}

TEST(TelemetryRecorderTest, JsonlExportIsByteExact)
{
    TelemetryRecorder rec(enabledConfig(250));
    std::int64_t a = 3, b = 10;
    rec.addGauge("ch0.readQ", 1, [&a] { return a; });
    rec.addDelta("ch0.reads", 1, [&b] { return b; });

    b = 14;
    rec.samplePass(250);
    a = 0;
    b = 14;
    rec.samplePass(500);

    std::ostringstream os;
    rec.writeJsonl(os);
    EXPECT_EQ(
        os.str(),
        "{\"type\": \"schema\", \"periodTicks\": 250, \"series\": "
        "[{\"id\": 0, \"lane\": 1, \"kind\": \"gauge\", \"name\": "
        "\"ch0.readQ\"}, {\"id\": 1, \"lane\": 1, \"kind\": "
        "\"delta\", \"name\": \"ch0.reads\"}]}\n"
        "{\"t\": 250, \"v\": [3, 4]}\n"
        "{\"t\": 500, \"v\": [0, 0]}\n");
}

TEST(TelemetryRecorderTest, CsvExportIsByteExact)
{
    TelemetryRecorder rec(enabledConfig(250));
    std::int64_t a = 3;
    rec.addGauge("ch0.readQ", 1, [&a] { return a; });
    rec.samplePass(250);
    a = 5;
    rec.samplePass(500);

    std::ostringstream os;
    rec.writeCsv(os);
    EXPECT_EQ(os.str(), "tick,ch0.readQ\n250,3\n500,5\n");
}

TEST(TelemetryRecorderTest, ReserveBeyondTheBudgetIsFatal)
{
    // Rejected before allocating: a period far below the run length
    // must not take the process down with bad_alloc.
    TelemetryRecorder rec(enabledConfig(1));
    std::int64_t v = 0;
    rec.addGauge("ch0.readQ", 1, [&v] { return v; });
    rec.addGauge("ch0.writeQ", 1, [&v] { return v; });
    EXPECT_THROW(
        rec.reserveSamples(TelemetryRecorder::kMaxSampleValues / 2 + 1),
        FatalError);
    rec.reserveSamples(1000);  // an ordinary run still fits
}

TEST(TelemetrySeriesGrammarTest, AcceptsEveryEmittedName)
{
    // One of each family, plus multi-digit indices.
    EXPECT_TRUE(isKnownTelemetrySeries("ch0.readQ"));
    EXPECT_TRUE(isKnownTelemetrySeries("ch3.writeQ"));
    EXPECT_TRUE(isKnownTelemetrySeries("ch12.refreshBacklog"));
    EXPECT_TRUE(isKnownTelemetrySeries("ch0.readQOccInt"));
    EXPECT_TRUE(isKnownTelemetrySeries("ch0.blockedReadsTotal"));
    EXPECT_TRUE(isKnownTelemetrySeries("core0.instrs"));
    EXPECT_TRUE(isKnownTelemetrySeries("core12.runq"));
    EXPECT_TRUE(isKnownTelemetrySeries("sched.quanta"));
    EXPECT_TRUE(isKnownTelemetrySeries("sched.cleanPicks"));
    EXPECT_TRUE(isKnownTelemetrySeries("serving.backlog"));
    EXPECT_TRUE(isKnownTelemetrySeries("serving.drops"));
}

TEST(TelemetrySeriesGrammarTest, RejectsEverythingElse)
{
    EXPECT_FALSE(isKnownTelemetrySeries(""));
    EXPECT_FALSE(isKnownTelemetrySeries("bogus"));
    EXPECT_FALSE(isKnownTelemetrySeries("ch0"));
    EXPECT_FALSE(isKnownTelemetrySeries("ch0."));
    EXPECT_FALSE(isKnownTelemetrySeries("ch.readQ"));
    EXPECT_FALSE(isKnownTelemetrySeries("chx0.readQ"));
    EXPECT_FALSE(isKnownTelemetrySeries("ch0.bogus"));
    EXPECT_FALSE(isKnownTelemetrySeries("core.instrs"));
    EXPECT_FALSE(isKnownTelemetrySeries("core1.readQ"));
    EXPECT_FALSE(isKnownTelemetrySeries("sched.backlog"));
    EXPECT_FALSE(isKnownTelemetrySeries("serving.quanta"));
    // Legacy pid-1 timeline counters are NOT telemetry series.
    EXPECT_FALSE(isKnownTelemetrySeries("ch0 queues"));
}

} // namespace
} // namespace refsched::obs
