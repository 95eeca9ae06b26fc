#include "validate/fuzz/fuzz_oracles.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "dram/refresh_scheduler.hh"
#include "simcore/logging.hh"
#include "validate/golden_trace.hh"

namespace refsched::validate::fuzz
{
namespace
{

/**
 * Relative slack of the NoRefresh dominance oracle.  Removing
 * refresh cannot slow a machine down systemically, but it perturbs
 * command interleaving (an all-bank REF precharges open rows, which
 * occasionally pre-pays a precharge a row-conflict would have
 * needed), so per-sample harmonic-mean IPC wobbles.  The row-close
 * side effect is real and worth ~1.5% for row-conflict-heavy mixes
 * at low density (8 Gb has the smallest tRFC, so refresh overhead
 * can dip below the precharge benefit); short-horizon alignment
 * noise adds a few percent more on top.  The oracle flags beyond
 * this slack and then CONFIRMS by re-running the sample at a
 * longer horizon (>= kDominanceConfirmQuanta) -- alignment noise
 * flips sign across horizons, a systematic inversion does not.
 */
constexpr double kDominanceSlack = 0.02;
constexpr int kDominanceConfirmQuanta = 32;

/** Refresh-idle view: no queued requests, idle bus. */
class IdleView final : public dram::McRefreshView
{
  public:
    int queuedToBank(int, int, int) const override { return 0; }
    double channelUtilization(int) const override { return 0.0; }
};

void
fail(FailureList &out, std::string oracle, std::string detail)
{
    out.push_back({std::move(oracle), std::move(detail)});
}

/** The scheduler-level policies the cadence oracle sweeps. */
constexpr dram::RefreshPolicy kCadencePolicies[] = {
    dram::RefreshPolicy::NoRefresh,
    dram::RefreshPolicy::AllBank,
    dram::RefreshPolicy::PerBankRoundRobin,
    dram::RefreshPolicy::SequentialPerBank,
    dram::RefreshPolicy::OooPerBank,
    dram::RefreshPolicy::Adaptive,
};

/** The full policy bundles the system oracle sweeps. */
constexpr core::Policy kSystemPolicies[] = {
    core::Policy::NoRefresh,  core::Policy::AllBank,
    core::Policy::PerBank,    core::Policy::PerBankOoo,
    core::Policy::Ddr4x2,     core::Policy::Ddr4x4,
    core::Policy::Adaptive,   core::Policy::CoDesign,
};

void
checkCadencePolicy(const FuzzSample &s, dram::RefreshPolicy policy,
                   FailureList &out)
{
    const auto dev = s.toDeviceConfig();
    auto sched = dram::makeRefreshScheduler(policy, dev);
    IdleView view;

    const auto numWindows = static_cast<std::uint64_t>(s.windows);
    const Tick window = dev.timings.tREFW;
    const Tick horizon = static_cast<Tick>(numWindows) * window;
    const int banksTotal = dev.org.banksTotal();
    const bool isCoDesign =
        policy == dram::RefreshPolicy::SequentialPerBank;

    // Generous runaway bound: the densest schedule issues one
    // command per bank per tREFI_pb, i.e. refreshCommandsPerWindow
    // commands per bank per window.
    const std::uint64_t maxPops = 4
        * numWindows * dev.timings.refreshCommandsPerWindow
        * static_cast<std::uint64_t>(banksTotal);

    for (int ch = 0; ch < dev.org.channels; ++ch) {
        std::vector<std::vector<std::uint64_t>> rows(
            numWindows,
            std::vector<std::uint64_t>(
                static_cast<std::size_t>(banksTotal), 0));
        Tick prevDue = 0;
        std::uint64_t pops = 0;
        while (sched->nextDue(ch) < horizon) {
            const Tick due = sched->nextDue(ch);
            if (due < prevDue) {
                fail(out, "cadence",
                     toString(policy) + ": nextDue went backwards ("
                         + std::to_string(due) + " after "
                         + std::to_string(prevDue) + ")");
                return;
            }
            prevDue = due;
            if (++pops > maxPops) {
                fail(out, "cadence",
                     toString(policy)
                         + ": runaway schedule, more than "
                         + std::to_string(maxPops)
                         + " commands before the horizon");
                return;
            }
            const auto cmd = sched->pop(ch, view);
            auto &bucket = rows[static_cast<std::size_t>(
                due / window)];
            if (cmd.isAllBank()) {
                for (int b = 0; b < dev.org.banksPerRank; ++b)
                    bucket[static_cast<std::size_t>(
                        cmd.rank * dev.org.banksPerRank + b)]
                        += cmd.rows;
            } else {
                const int global =
                    cmd.rank * dev.org.banksPerRank + cmd.bank;
                bucket[static_cast<std::size_t>(global)] += cmd.rows;
                // Algorithm 1 + 3 contract: the co-design scheduler
                // must only refresh banks it announced to the OS.
                // banksUnderRefreshAt speaks OS-global bank indices
                // (offset by the channel's bank base).
                if (isCoDesign && cmd.rows > 0) {
                    const int osGlobal = ch * banksTotal + global;
                    const auto announced =
                        sched->banksUnderRefreshAt(ch, due);
                    if (std::find(announced.begin(), announced.end(),
                                  osGlobal)
                        == announced.end()) {
                        fail(out, "cadence",
                             toString(policy) + ": bank "
                                 + std::to_string(global)
                                 + " refreshed at tick "
                                 + std::to_string(due)
                                 + " but banksUnderRefreshAt did "
                                   "not announce it");
                    }
                }
            }
        }

        const std::uint64_t expected =
            policy == dram::RefreshPolicy::NoRefresh
                ? 0
                : dev.org.rowsPerBank;
        for (std::uint64_t w = 0; w < numWindows; ++w) {
            for (int b = 0; b < banksTotal; ++b) {
                const auto got =
                    rows[w][static_cast<std::size_t>(b)];
                if (got != expected) {
                    fail(out, "cadence",
                         toString(policy) + ": channel "
                             + std::to_string(ch) + " bank "
                             + std::to_string(b) + " got "
                             + std::to_string(got) + " rows in "
                             + "wall-clock window "
                             + std::to_string(w) + ", expected "
                             + std::to_string(expected));
                }
            }
        }
    }
}

/**
 * Oracle: the counter-based streams behind open-loop serving are
 * pairwise independent and none of them aliases the stateful
 * Rng(seed) sequence the workload samplers and trace generators
 * consume.  Two generators silently sharing a stream would correlate
 * arrivals with workload randomness -- runs would still be
 * deterministic, so no other oracle can catch it; only a direct
 * sequence comparison does.  A 16-draw window has a ~2^-60 chance of
 * a single honest collision, so more than one matching position is
 * an alias, not luck.
 */
void
checkRngStreamSeparation(const FuzzSample &s, FailureList &out)
{
    constexpr int kProbe = 16;
    constexpr std::uint64_t kKeys[] = {
        rngstream::kArrival, rngstream::kArrivalPhase,
        rngstream::kServingTask, rngstream::kServingAddr};
    constexpr const char *kNames[] = {
        "arrival", "arrivalPhase", "servingTask", "servingAddr",
        "statefulRng(seed)", "statefulRng(task0)"};

    std::vector<std::vector<std::uint64_t>> seqs;
    for (const auto key : kKeys) {
        CounterRng rng(s.seed, key);
        std::vector<std::uint64_t> v;
        for (int i = 0; i < kProbe; ++i)
            v.push_back(rng.next());
        seqs.push_back(std::move(v));
    }
    // The stateful streams the rest of the simulator draws from:
    // the raw seed (scenario/fuzz samplers) and the first derived
    // per-task trace seed (seed*1000003 + coreIdx, coreIdx = 0).
    const std::uint64_t statefulSeeds[] = {s.seed,
                                           s.seed * 1000003ULL};
    for (const std::uint64_t seed : statefulSeeds) {
        Rng st(seed);
        std::vector<std::uint64_t> v;
        for (int i = 0; i < kProbe; ++i)
            v.push_back(st.next());
        seqs.push_back(std::move(v));
    }

    for (std::size_t a = 0; a < seqs.size(); ++a) {
        for (std::size_t b = a + 1; b < seqs.size(); ++b) {
            int matches = 0;
            for (int i = 0; i < kProbe; ++i)
                matches += seqs[a][static_cast<std::size_t>(i)]
                    == seqs[b][static_cast<std::size_t>(i)];
            if (matches > 1) {
                fail(out, "rng-streams",
                     std::string(kNames[a]) + " aliases "
                         + kNames[b] + ": " + std::to_string(matches)
                         + "/" + std::to_string(kProbe)
                         + " identical draws at seed "
                         + std::to_string(s.seed));
            }
        }
    }
}

/**
 * Run every policy cell of @p s on @p jobs workers, recording golden
 * traces.  Throws FatalError for infeasible configs (hand-written
 * corpus entries); the caller converts that to a failure.
 */
std::vector<core::Metrics>
runPolicyGrid(const FuzzSample &s, int jobs,
              std::vector<TraceRecorder> &recs)
{
    const std::size_t n = std::size(kSystemPolicies);
    recs.assign(n, TraceRecorder{});
    std::vector<core::SystemConfig> cfgs;
    for (const auto policy : kSystemPolicies) {
        cfgs.push_back(s.toConfig(policy));
        cfgs.back().check();
    }
    std::vector<core::Metrics> out(n);
    core::parallelFor(n, jobs, [&](std::size_t i) {
        core::System sys(cfgs[i]);
        sys.attachProbe(&recs[i]);
        out[i] = sys.run(s.warmupQuanta, s.measureQuanta);
    });
    return out;
}

} // namespace

FailureList
checkCadence(const FuzzSample &s)
{
    FailureList out;
    for (const auto policy : kCadencePolicies)
        checkCadencePolicy(s, policy, out);
    return out;
}

FailureList
checkSystem(const FuzzSample &s, int jobs)
{
    FailureList out;
    checkRngStreamSeparation(s, out);
    std::vector<TraceRecorder> par, seq;
    std::vector<core::Metrics> results;
    try {
        results = runPolicyGrid(s, jobs, par);
    } catch (const FatalError &e) {
        fail(out, "config",
             std::string("sample rejected by the system: ")
                 + e.what());
        return out;
    }

    // Oracle: armed invariant checkers stayed silent everywhere.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &m = results[i];
        if (m.validationViolations != 0) {
            fail(out, "checkers",
                 core::toString(kSystemPolicies[i]) + ": "
                     + std::to_string(m.validationViolations)
                     + " violations, first: " + m.firstViolation);
        }
    }

    // Oracle: the refresh-free ideal dominates every refreshing
    // policy with the same (bank-oblivious) allocation.  Tasks with
    // zero measured IPC are excluded from the harmonic mean, so the
    // comparison is only meaningful when both runs counted every
    // task; short-interval starvation otherwise shrinks one side's
    // task set and the means are no longer comparable.
    const auto allCounted = [](const core::Metrics &m) {
        for (const auto &t : m.tasks)
            if (t.ipc <= 0.0)
                return false;
        return true;
    };
    const auto dominanceSuspects =
        [&](const std::vector<core::Metrics> &res) {
            std::vector<std::size_t> suspects;
            const auto &nr = res[0];
            for (std::size_t i = 1; i < res.size(); ++i) {
                if (kSystemPolicies[i] == core::Policy::CoDesign)
                    continue;  // soft partitioning changes placement
                if (!allCounted(nr) || !allCounted(res[i]))
                    continue;
                if (res[i].harmonicMeanIpc
                    > nr.harmonicMeanIpc * (1.0 + kDominanceSlack)) {
                    suspects.push_back(i);
                }
            }
            return suspects;
        };
    // The adversarial hotspot source consumes the refresh schedule,
    // so each policy cell sees a DIFFERENT access stream -- cross-
    // policy IPC ordering is no longer an invariant there.  Open-
    // loop serving is gated for the same reason as scenarios'
    // adversarial mode: injected reads contend with task traffic at
    // policy-dependent times (slower policies queue more injected
    // work into the same interval), so per-task IPC ordering is not
    // an invariant either.
    if (!s.scenario.hasAdversarial() && s.serving.empty()
        && !dominanceSuspects(results).empty()) {
        // Confirmation pass at a longer horizon: alignment noise
        // decays, a genuine inversion persists.
        FuzzSample longer = s;
        longer.measureQuanta =
            std::max(4 * s.measureQuanta, kDominanceConfirmQuanta);
        std::vector<TraceRecorder> ignored;
        try {
            const auto confirm = runPolicyGrid(longer, jobs, ignored);
            for (const auto i : dominanceSuspects(confirm)) {
                std::ostringstream os;
                os << core::toString(kSystemPolicies[i])
                   << " harmonic-mean IPC "
                   << confirm[i].harmonicMeanIpc
                   << " exceeds no-refresh "
                   << confirm[0].harmonicMeanIpc
                   << " (confirmed at the "
                   << longer.measureQuanta << "-quanta horizon)";
                fail(out, "dominance", os.str());
            }
        } catch (const FatalError &e) {
            fail(out, "dominance",
                 std::string("confirmation re-run rejected: ")
                     + e.what());
        }
    }

    // Oracle: with the paper's partitioning rule and an eta wide
    // enough to reach every runqueue slot, Algorithms 1 + 3
    // guarantee a clean pick every quantum (section 5.3).
    // Churn breaks the guarantee transiently: an arriving tenant
    // holds the default all-banks mask until the post-churn
    // re-binpack, and departures thin the mask cover, so the oracle
    // only applies to static runs.
    if (s.scenario.empty() && s.banksPerTaskPerRank == -1
        && s.etaThresh >= s.tasksPerCore && s.tasksPerCore >= 2) {
        const auto &cd = results[std::size(kSystemPolicies) - 1];
        if (cd.fallbackPicks != 0 || cd.bestEffortPicks != 0) {
            fail(out, "stall-free",
                 "co-design made " + std::to_string(cd.fallbackPicks)
                     + " fallback and "
                     + std::to_string(cd.bestEffortPicks)
                     + " best-effort picks under a mask cover that "
                       "guarantees a clean task");
        }
    }

    // Oracle: the sweep is deterministic in the worker count.
    try {
        runPolicyGrid(s, /*jobs=*/1, seq);
    } catch (const FatalError &e) {
        fail(out, "jobs",
             std::string("inline re-run rejected: ") + e.what());
        return out;
    }
    for (std::size_t i = 0; i < par.size(); ++i) {
        if (par[i].data() == seq[i].data())
            continue;
        const auto d = diffTraces(decodeTrace(par[i].data()),
                                  decodeTrace(seq[i].data()));
        fail(out, "jobs",
             core::toString(kSystemPolicies[i])
                 + ": jobs=N vs jobs=1 trace divergence: "
                 + d.describe());
    }
    return out;
}

FailureList
checkSample(const FuzzSample &s, int jobs)
{
    return s.kind == SampleKind::Cadence ? checkCadence(s)
                                         : checkSystem(s, jobs);
}

} // namespace refsched::validate::fuzz
