/**
 * @file
 * Tests for the dynamic-workload scenario grammar: PhaseSchedule and
 * ScenarioScript parse/serialize round-trips, validation fatals, the
 * random scenario generator's structural guarantees, and the trace
 * generator's macro-phase switching.
 */

#include "workload/scenario.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "simcore/logging.hh"
#include "simcore/rng.hh"
#include "workload/trace_generator.hh"

namespace refsched::workload
{
namespace
{

TEST(PhaseScheduleTest, ParsesAndSerializesRoundTrip)
{
    const auto sched =
        PhaseSchedule::parse("stream@2000@0.5|mcf@4000@1");
    ASSERT_EQ(sched.phases.size(), 2u);
    EXPECT_EQ(sched.phases[0].profile, "stream");
    EXPECT_EQ(sched.phases[0].instrs, 2000u);
    EXPECT_DOUBLE_EQ(sched.phases[0].footprintScale, 0.5);
    EXPECT_EQ(sched.phases[1].profile, "mcf");
    EXPECT_DOUBLE_EQ(sched.phases[1].footprintScale, 1.0);
    EXPECT_DOUBLE_EQ(sched.maxFootprintScale(), 1.0);

    const auto again = PhaseSchedule::parse(sched.serialize());
    EXPECT_EQ(again.serialize(), sched.serialize());
}

TEST(PhaseScheduleTest, RejectsNonsense)
{
    EXPECT_THROW(PhaseSchedule::parse("notabench@100@1"), FatalError);
    EXPECT_THROW(PhaseSchedule::parse("mcf@0@1"), FatalError);
    EXPECT_THROW(PhaseSchedule::parse("mcf@100@0"), FatalError);
    EXPECT_THROW(PhaseSchedule::parse("mcf@100"), FatalError);
}

TEST(ScenarioScriptTest, ParsesFullGrammar)
{
    const auto script = ScenarioScript::parse(
        "# comment\n"
        "migrate=1\n"
        "reassign=0\n"
        "phase=2:stream@2000@0.5|mcf@2000@1\n"
        "ev=5:kill:3\n"
        "ev=2:spawn:povray:fp=0.25:cpu=1:adv=1\n"
        "ev=4:spawn:mcf:phases=h264ref@1000@0.5|mcf@1000@1\n");
    EXPECT_TRUE(script.migrate);
    EXPECT_FALSE(script.reassignOnChurn);
    ASSERT_EQ(script.initialPhases.size(), 1u);
    EXPECT_EQ(script.initialPhases[0].first, 2);

    // Events are sorted by quantum regardless of file order.
    ASSERT_EQ(script.events.size(), 3u);
    EXPECT_EQ(script.events[0].quantum, 2u);
    EXPECT_EQ(script.events[0].kind, ScenarioEventKind::Spawn);
    EXPECT_EQ(script.events[0].benchmark, "povray");
    EXPECT_DOUBLE_EQ(script.events[0].footprintScale, 0.25);
    EXPECT_EQ(script.events[0].cpu, 1);
    EXPECT_TRUE(script.events[0].adversarial);
    EXPECT_EQ(script.events[1].quantum, 4u);
    EXPECT_EQ(script.events[1].phases.phases.size(), 2u);
    EXPECT_EQ(script.events[2].kind, ScenarioEventKind::Kill);
    EXPECT_EQ(script.events[2].pid, 3);

    EXPECT_TRUE(script.hasAdversarial());
    EXPECT_FALSE(script.empty());
}

TEST(ScenarioScriptTest, SerializeParseRoundTrip)
{
    const auto script = ScenarioScript::parse(
        "migrate=1\n"
        "reassign=1\n"
        "phase=0:stream@2000@0.5|mcf@2000@1\n"
        "ev=1:spawn:stream:fp=0.5\n"
        "ev=3:kill:2\n"
        "ev=4:spawn:povray:adv=1\n");
    const auto again = ScenarioScript::parse(script.serialize());
    EXPECT_EQ(again.serialize(), script.serialize());
}

TEST(ScenarioScriptTest, RejectsInvalidScripts)
{
    // Quantum 0 belongs to the initial placement.
    EXPECT_THROW(ScenarioScript::parse("ev=0:kill:1\n"), FatalError);
    EXPECT_THROW(ScenarioScript::parse("ev=1:spawn:nosuch\n"),
                 FatalError);
    EXPECT_THROW(ScenarioScript::parse("ev=1:kill:0\n"), FatalError);
    EXPECT_THROW(ScenarioScript::parse("ev=1:spawn:mcf:fp=0\n"),
                 FatalError);
    EXPECT_THROW(ScenarioScript::parse("migrate=2\n"), FatalError);
    EXPECT_THROW(ScenarioScript::parse("bogus=1\n"), FatalError);
}

TEST(ScenarioScriptTest, RejectsMalformedNumbers)
{
    // NaN fails every range comparison, so it must be caught as
    // non-finite before it reaches a float-to-integer cast.
    for (const char *text : {
             "ev=1:spawn:mcf:fp=nan\n",
             "ev=1:spawn:mcf:fp=inf\n",
             "ev=1:spawn:mcf:fp=1.5junk\n",
             "ev=1:spawn:mcf:fp=\n",
             "ev=1:spawn:mcf:fp= 1\n",
             "ev=1:spawn:mcf:phases=mcf@1000@nan\n",
             "ev=1:spawn:mcf:phases=mcf@-5@1\n",
             "ev=1:spawn:mcf:phases=mcf@+5@1\n",
             "ev=1:spawn:mcf:phases=mcf@5x@1\n",
             "ev=1:spawn:mcf:phases=mcf@99999999999999999999@1\n",
             "ev=1x:kill:1\n",
             "ev=-1:kill:1\n",
             "ev=:kill:1\n",
             "ev=1:kill:1x\n",
             "ev=1:kill:4294967297\n",
             "ev=1:spawn:mcf:cpu=1x\n",
             "ev=1:spawn:mcf:cpu=-2\n",
             "ev=1:spawn:mcf:cpu=4294967296\n",
             "phase=0x:mcf@1000@1\n",
             "phase=4294967296:mcf@1000@1\n",
         }) {
        EXPECT_THROW(ScenarioScript::parse(text), FatalError) << text;
    }
    const auto ok = ScenarioScript::parse(
        "phase=1:mcf@1000@0.5\n"
        "ev=3:spawn:mcf:fp=1.5:cpu=-1:phases=mcf@1000@2\n"
        "ev=4:kill:7\n");
    ASSERT_EQ(ok.events.size(), 2u);
    EXPECT_EQ(ok.events[0].footprintScale, 1.5);
    EXPECT_EQ(ok.events[0].cpu, -1);
    EXPECT_EQ(ok.events[1].pid, 7);
}

TEST(PhaseScheduleTest, RejectsMalformedNumbers)
{
    EXPECT_THROW(PhaseSchedule::parse("mcf@1000@nan"), FatalError);
    EXPECT_THROW(PhaseSchedule::parse("mcf@-5@1"), FatalError);
    EXPECT_THROW(PhaseSchedule::parse("mcf@1000@1.5junk"), FatalError);
    EXPECT_THROW(PhaseSchedule::parse("mcf@1000junk@1"), FatalError);
    PhaseSchedule direct;
    direct.phases.push_back({"mcf", 1000, std::nan("")});
    EXPECT_THROW(direct.check(), FatalError);
}

TEST(ScenarioScriptTest, EmptyScriptIsEmpty)
{
    const ScenarioScript script;
    EXPECT_TRUE(script.empty());
    EXPECT_FALSE(script.hasAdversarial());
    const auto parsed = ScenarioScript::parse("# nothing here\n");
    EXPECT_TRUE(parsed.empty());
}

TEST(ScenarioScriptTest, RandomScenariosAreValidAndDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng a(seed), b(seed);
        const auto s1 = randomScenario(a, 8, 12);
        const auto s2 = randomScenario(b, 8, 12);
        EXPECT_EQ(s1.serialize(), s2.serialize())
            << "seed " << seed << " not deterministic";
        // check() already ran inside; re-assert the horizon bound
        // and the kill-target discipline the sampler promises.
        for (const auto &ev : s1.events) {
            EXPECT_GE(ev.quantum, 1u);
            EXPECT_LT(ev.quantum, 12u);
        }
        // Round-trips through the text form.
        EXPECT_EQ(ScenarioScript::parse(s1.serialize()).serialize(),
                  s1.serialize());
    }
}

TEST(ScenarioTraceGeneratorTest, MacroPhasesSwitchProfileAndFootprint)
{
    BenchmarkProfile prof = profileByName("mcf");
    prof.phases = PhaseSchedule::parse("stream@5000@0.5|mcf@5000@1");
    const std::uint64_t fp = 1 << 20;
    SyntheticTraceGenerator gen(prof, 42, fp);

    // Enters phase 0 immediately: half footprint.
    EXPECT_EQ(gen.phaseEpoch(), 0u);
    EXPECT_EQ(gen.footprintBytes(), fp / 2);

    std::uint64_t lastEpoch = 0;
    std::uint64_t instrs = 0;
    while (gen.phaseEpoch() < 4 && instrs < 1000000) {
        const auto e = gen.next();
        instrs += e.gap + 1;
        if (gen.phaseEpoch() != lastEpoch) {
            lastEpoch = gen.phaseEpoch();
            // Cyclic: odd epochs are the full-footprint mcf phase.
            EXPECT_EQ(gen.footprintBytes(),
                      lastEpoch % 2 ? fp : fp / 2);
        }
    }
    EXPECT_GE(gen.phaseEpoch(), 4u) << "phases never advanced";
    // ~5000 instructions per phase, 4 phases: the switch cadence is
    // tied to retired instructions, not call count.
    EXPECT_NEAR(static_cast<double>(instrs), 20000.0, 8000.0);
}

TEST(ScenarioTraceGeneratorTest, UnphasedProfileNeverSwitches)
{
    const BenchmarkProfile prof = profileByName("mcf");
    SyntheticTraceGenerator gen(prof, 42, 1 << 20);
    for (int i = 0; i < 20000; ++i)
        gen.next();
    EXPECT_EQ(gen.phaseEpoch(), 0u);
    EXPECT_EQ(gen.footprintBytes(), 1u << 20);
}

} // namespace
} // namespace refsched::workload
