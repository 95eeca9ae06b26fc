#include "validate/fuzz/fuzz_runner.hh"

#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>

#include "simcore/logging.hh"

namespace refsched::validate::fuzz
{
namespace
{

std::string
formatFailures(const FailureList &failures)
{
    std::ostringstream os;
    for (const auto &f : failures)
        os << "  [" << f.oracle << "] " << f.detail << "\n";
    return os.str();
}

/**
 * One-field simplifications of @p s, simplest-first.  Only variants
 * that differ from @p s are emitted; the shrinker adopts the first
 * one that still fails.
 */
std::vector<FuzzSample>
shrinkCandidates(const FuzzSample &s)
{
    std::vector<FuzzSample> out;
    const auto add = [&](FuzzSample v) { out.push_back(std::move(v)); };

    if (s.channels > 1) {
        auto v = s;
        v.channels = 1;
        add(v);
    }
    for (const int r : {1, 2, 3}) {
        if (r < s.ranksPerChannel) {
            auto v = s;
            v.ranksPerChannel = r;
            add(v);
        }
    }
    for (const int b : {4, 8}) {
        if (b < s.banksPerRank) {
            auto v = s;
            v.banksPerRank = b;
            if (v.banksPerTaskPerRank > b)
                v.banksPerTaskPerRank = -1;
            add(v);
        }
    }
    if (s.densityGb != 8) {
        auto v = s;
        v.densityGb = 8;
        add(v);
    }
    if (s.tREFWms != 64.0) {
        auto v = s;
        v.tREFWms = 64.0;
        add(v);
    }
    // Coarser time scales mean fewer commands/instructions, i.e. a
    // cheaper and smaller repro.
    if (s.timeScale < 1024) {
        auto v = s;
        v.timeScale = 1024;
        add(v);
    }
    if (s.xorBankHash) {
        auto v = s;
        v.xorBankHash = false;
        add(v);
    }

    if (s.kind == SampleKind::Cadence) {
        if (s.windows > 2) {
            auto v = s;
            v.windows = s.windows - 1;
            add(v);
        }
        return out;
    }

    if (s.cores > 1) {
        auto v = s;
        v.cores = 1;
        add(v);
    }
    if (s.tasksPerCore > 2) {
        auto v = s;
        v.tasksPerCore = 2;
        v.benchmarks.resize(
            static_cast<std::size_t>(v.totalTasks()),
            s.benchmarks.front());
        add(v);
    }
    if (s.etaThresh != 64) {
        auto v = s;
        v.etaThresh = 64;
        add(v);
    }
    if (!s.bestEffort) {
        auto v = s;
        v.bestEffort = true;
        add(v);
    }
    if (s.banksPerTaskPerRank != -1) {
        auto v = s;
        v.banksPerTaskPerRank = -1;
        add(v);
    }
    if (s.warmupQuanta > 0) {
        auto v = s;
        v.warmupQuanta = 0;
        add(v);
    }
    // Kernel partitioning off is the simpler machine; a defect that
    // survives shards=0 is not a partitioning bug.
    if (s.shards != 0) {
        auto v = s;
        v.shards = 0;
        add(v);
    }
    if (s.measureQuanta > 2) {
        auto v = s;
        v.measureQuanta = 2;
        add(v);
    }
    // Uniform workload: every task running the first benchmark.
    bool uniform = true;
    for (const auto &b : s.benchmarks)
        uniform = uniform && b == s.benchmarks.front();
    if (!uniform) {
        auto v = s;
        for (auto &b : v.benchmarks)
            b = s.benchmarks.front();
        add(v);
    }

    // Scenario simplifications, most drastic first: a static run is
    // the simplest repro, then peel events from the back (kills of
    // pids whose spawn was dropped are skipped with a warning, so
    // partial scripts stay runnable), then drop the side features.
    if (!s.scenario.empty()) {
        {
            auto v = s;
            v.scenario = {};
            add(v);
        }
        if (!s.scenario.events.empty()) {
            auto v = s;
            v.scenario.events.pop_back();
            add(v);
        }
        if (!s.scenario.initialPhases.empty()) {
            auto v = s;
            v.scenario.initialPhases.clear();
            add(v);
        }
        if (s.scenario.migrate) {
            auto v = s;
            v.scenario.migrate = false;
            add(v);
        }
        if (s.scenario.hasAdversarial()) {
            auto v = s;
            for (auto &ev : v.scenario.events)
                ev.adversarial = false;
            add(v);
        }
    }
    return out;
}

/** FNV-1a over the serialized sample, for stable corpus names. */
std::uint64_t
contentHash(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

FuzzSample
shrinkSample(const FuzzSample &failing, int jobs, double budgetSec,
             std::ostream &log)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now()
        + std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(budgetSec));

    // A shrink step must preserve the ORIGINAL defect: a candidate
    // that fails a different oracle (typically "config", from a
    // simplification that made the sample infeasible) is a new
    // input, not a smaller witness of the same bug.
    std::vector<std::string> wanted;
    for (const auto &f : checkSample(failing, jobs))
        wanted.push_back(f.oracle);
    const auto sameDefect = [&](const FailureList &failures) {
        for (const auto &f : failures)
            for (const auto &w : wanted)
                if (f.oracle == w)
                    return true;
        return false;
    };

    FuzzSample best = failing;
    bool progress = true;
    while (progress && Clock::now() < deadline) {
        progress = false;
        for (const auto &cand : shrinkCandidates(best)) {
            if (Clock::now() >= deadline)
                break;
            if (sameDefect(checkSample(cand, jobs))) {
                best = cand;
                progress = true;
                log << "  shrink: " << best.describe() << "\n";
                break;  // restart the scan from the new base
            }
        }
    }
    return best;
}

std::string
writeCorpusEntry(const std::string &dir, const FuzzSample &s,
                 const FailureList &failures)
{
    const std::string body = s.serialize();
    std::ostringstream name;
    name << (failures.empty() ? "sample" : failures.front().oracle)
         << "-" << toString(s.kind) << "-" << std::hex
         << (contentHash(body) & 0xffffffffULL) << ".txt";
    const std::string path = dir + "/" + name.str();

    std::ofstream out(path);
    if (!out)
        fatal("cannot write corpus entry: ", path);
    out << "# " << s.describe() << "\n";
    for (const auto &f : failures)
        out << "# violated oracle [" << f.oracle << "]: " << f.detail
            << "\n";
    out << "# repro: fuzz_policies --replay " << path << "\n";
    out << body;
    return path;
}

FailureList
replayFile(const std::string &path, int jobs, std::ostream &log)
{
    const auto s = FuzzSample::parseFile(path);
    log << "replay " << path << ": " << s.describe() << "\n";
    const auto failures = checkSample(s, jobs);
    if (failures.empty())
        log << "  ok\n";
    else
        log << formatFailures(failures);
    return failures;
}

FuzzReport
runFuzz(const FuzzOptions &opts, std::ostream &log)
{
    Rng rng(opts.seed);
    FuzzReport report;
    for (int i = 0; i < opts.samples; ++i) {
        SampleKind kind = i % 2 == 0 ? SampleKind::Cadence
                                     : SampleKind::System;
        if (opts.onlyKind == "cadence")
            kind = SampleKind::Cadence;
        else if (opts.onlyKind == "system")
            kind = SampleKind::System;

        const FuzzSample s = sampleOne(rng, kind);
        const auto failures = checkSample(s, opts.jobs);
        ++report.samplesRun;
        if ((i + 1) % 25 == 0) {
            log << "... " << (i + 1) << "/" << opts.samples
                << " samples, " << report.failedSamples
                << " failing\n";
        }
        if (failures.empty())
            continue;

        ++report.failedSamples;
        log << "FAIL sample " << i << " (seed " << opts.seed
            << "): " << s.describe() << "\n"
            << formatFailures(failures);

        FuzzSample minimized = s;
        if (opts.shrinkBudgetSec > 0.0) {
            minimized =
                shrinkSample(s, opts.jobs, opts.shrinkBudgetSec, log);
        }
        const auto minFailures = checkSample(minimized, opts.jobs);
        if (!opts.corpusDir.empty()) {
            const auto path = writeCorpusEntry(
                opts.corpusDir, minimized,
                minFailures.empty() ? failures : minFailures);
            report.corpusPaths.push_back(path);
            log << "  corpus entry: " << path << "\n"
                << "  repro: fuzz_policies --replay " << path << "\n";
        } else {
            log << "  minimized sample:\n" << minimized.serialize();
            log << "  repro: save the above as s.txt and run "
                   "fuzz_policies --replay s.txt\n";
        }
    }
    log << "fuzz: " << report.samplesRun << " samples, "
        << report.failedSamples << " failing\n";
    return report;
}

} // namespace refsched::validate::fuzz
