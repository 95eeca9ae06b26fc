#include "validate/fuzz/fuzz_sample.hh"

#include <fstream>
#include <sstream>

#include "simcore/logging.hh"
#include "workload/profile.hh"
#include "workload/workloads.hh"

namespace refsched::validate::fuzz
{
namespace
{

dram::DensityGb
densityFromGb(int gb)
{
    switch (gb) {
      case 8:
        return dram::DensityGb::d8;
      case 16:
        return dram::DensityGb::d16;
      case 24:
        return dram::DensityGb::d24;
      case 32:
        return dram::DensityGb::d32;
      default:
        fatal("unsupported density_gb: ", gb);
    }
}

std::string
joinBenchmarks(const std::vector<std::string> &names)
{
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i)
            out += ',';
        out += names[i];
    }
    return out;
}

std::vector<std::string>
splitBenchmarks(const std::string &csv)
{
    std::vector<std::string> names;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            names.push_back(item);
    }
    return names;
}

} // namespace

std::string
toString(SampleKind k)
{
    return k == SampleKind::Cadence ? "cadence" : "system";
}

std::string
FuzzSample::serialize() const
{
    std::ostringstream os;
    os << "kind=" << toString(kind) << "\n"
       << "seed=" << seed << "\n"
       << "channels=" << channels << "\n"
       << "ranks=" << ranksPerChannel << "\n"
       << "banks_per_rank=" << banksPerRank << "\n"
       << "density_gb=" << densityGb << "\n"
       << "trefw_ms=" << tREFWms << "\n"
       << "time_scale=" << timeScale << "\n"
       << "xor_bank_hash=" << (xorBankHash ? 1 : 0) << "\n";
    if (kind == SampleKind::Cadence) {
        os << "windows=" << windows << "\n";
    } else {
        os << "cores=" << cores << "\n"
           << "tasks_per_core=" << tasksPerCore << "\n"
           << "eta_thresh=" << etaThresh << "\n"
           << "best_effort=" << (bestEffort ? 1 : 0) << "\n"
           << "banks_per_task=" << banksPerTaskPerRank << "\n"
           << "warmup_quanta=" << warmupQuanta << "\n"
           << "measure_quanta=" << measureQuanta << "\n"
           << "shards=" << shards << "\n"
           << "benchmarks=" << joinBenchmarks(benchmarks) << "\n";
        if (!serving.empty())
            os << "serving=" << serving << "\n";
        if (!scenario.empty()) {
            // Embed the ScenarioScript line-form, each line prefixed
            // so the sample keyspace stays flat and unambiguous.
            std::stringstream lines(scenario.serialize());
            std::string line;
            while (std::getline(lines, line))
                if (!line.empty())
                    os << "scenario_" << line << "\n";
        }
    }
    return os.str();
}

std::string
FuzzSample::describe() const
{
    std::ostringstream os;
    os << toString(kind) << " " << channels << "ch x "
       << ranksPerChannel << "r x " << banksPerRank << "b, "
       << densityGb << "Gb, tREFW " << tREFWms << "ms, ts "
       << timeScale;
    if (kind == SampleKind::System) {
        os << ", " << cores << "core 1:" << tasksPerCore << ", eta "
           << etaThresh << (bestEffort ? "" : " (no best-effort)")
           << ", bpt " << banksPerTaskPerRank
           << (xorBankHash ? ", xor-hash" : "") << ", seed " << seed
           << ", [" << joinBenchmarks(benchmarks) << "]";
        if (shards > 0)
            os << ", shards " << shards;
        if (!scenario.empty()) {
            os << ", scenario(" << scenario.events.size() << " ev"
               << (scenario.migrate ? ", migrate" : "")
               << (scenario.hasAdversarial() ? ", adversarial" : "")
               << ")";
        }
        if (!serving.empty())
            os << ", serving(" << serving << ")";
    } else {
        os << ", " << windows << " windows";
    }
    return os.str();
}

dram::DramDeviceConfig
FuzzSample::toDeviceConfig() const
{
    auto dev = dram::makeDdr3_1600(densityFromGb(densityGb),
                                   milliseconds(tREFWms), timeScale);
    dev.org.channels = channels;
    dev.org.ranksPerChannel = ranksPerChannel;
    dev.org.banksPerRank = banksPerRank;
    dev.org.xorBankHash = xorBankHash;
    return dev;
}

core::SystemConfig
FuzzSample::toConfig(core::Policy policy) const
{
    core::SystemConfig cfg;
    cfg.numCores = cores;
    cfg.tasksPerCore = tasksPerCore;
    cfg.channels = channels;
    cfg.ranksPerChannel = ranksPerChannel;
    cfg.banksPerRank = banksPerRank;
    cfg.density = densityFromGb(densityGb);
    cfg.tREFW = milliseconds(tREFWms);
    cfg.timeScale = timeScale;
    cfg.xorBankHash = xorBankHash;
    cfg.applyPolicy(policy);
    cfg.etaThresh = etaThresh;
    cfg.bestEffort = bestEffort;
    cfg.banksPerTaskPerRank = banksPerTaskPerRank;
    cfg.shards = shards;
    cfg.benchmarks = benchmarks;
    cfg.scenario = scenario;
    if (!serving.empty())
        cfg.serving = workload::ServingConfig::parse(serving);
    cfg.seed = seed;
    cfg.validate = true;
    return cfg;
}

FuzzSample
FuzzSample::parse(const std::string &text)
{
    FuzzSample s;
    bool sawKind = false;
    std::string scenarioText;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("malformed fuzz sample line: ", line);
        const std::string key = line.substr(0, eq);
        const std::string val = line.substr(eq + 1);
        // Numeric values are whole, in-range tokens (FatalError
        // otherwise): a sample file is untrusted input.
        const std::string what = "fuzz sample " + key;
        const auto intVal = [&](int lo, int hi) {
            return static_cast<int>(
                workload::parseSignedToken(val, what.c_str(), lo, hi));
        };
        if (key.rfind("scenario_", 0) == 0) {
            scenarioText += key.substr(9) + "=" + val + "\n";
        } else if (key == "kind") {
            if (val == "cadence")
                s.kind = SampleKind::Cadence;
            else if (val == "system")
                s.kind = SampleKind::System;
            else
                fatal("unknown sample kind: ", val);
            sawKind = true;
        } else if (key == "seed") {
            s.seed = workload::parseUnsignedToken(val, what.c_str());
        } else if (key == "channels") {
            s.channels = intVal(1, 64);
        } else if (key == "ranks") {
            s.ranksPerChannel = intVal(1, 64);
        } else if (key == "banks_per_rank") {
            s.banksPerRank = intVal(1, 64);
        } else if (key == "density_gb") {
            s.densityGb = intVal(8, 32);
        } else if (key == "trefw_ms") {
            s.tREFWms = workload::parseFiniteToken(val, what.c_str());
            if (s.tREFWms < 1.0 || s.tREFWms > 1024.0)
                fatal(what, ": ", val, " out of [1, 1024] ms");
        } else if (key == "time_scale") {
            s.timeScale = static_cast<unsigned>(intVal(1, 1 << 16));
        } else if (key == "xor_bank_hash") {
            s.xorBankHash = intVal(0, 1) != 0;
        } else if (key == "windows") {
            s.windows = intVal(1, 1 << 10);
        } else if (key == "cores") {
            s.cores = intVal(1, 256);
        } else if (key == "tasks_per_core") {
            s.tasksPerCore = intVal(1, 64);
        } else if (key == "eta_thresh") {
            s.etaThresh = intVal(1, 1 << 20);
        } else if (key == "best_effort") {
            s.bestEffort = intVal(0, 1) != 0;
        } else if (key == "banks_per_task") {
            s.banksPerTaskPerRank = intVal(-1, 64);
        } else if (key == "warmup_quanta") {
            s.warmupQuanta = intVal(0, 1 << 20);
        } else if (key == "measure_quanta") {
            s.measureQuanta = intVal(1, 1 << 20);
        } else if (key == "shards") {
            s.shards = intVal(0, 1 << 16);
        } else if (key == "benchmarks") {
            s.benchmarks = splitBenchmarks(val);
        } else if (key == "serving") {
            s.serving = val;
        } else {
            fatal("unknown fuzz sample key: ", key);
        }
    }
    if (!sawKind)
        fatal("fuzz sample is missing the kind= line");
    if (!scenarioText.empty())
        s.scenario = workload::ScenarioScript::parse(scenarioText);
    if (s.kind == SampleKind::System
        && static_cast<int>(s.benchmarks.size()) != s.totalTasks()) {
        fatal("fuzz sample has ", s.benchmarks.size(),
              " benchmarks for ", s.totalTasks(), " tasks");
    }
    return s;
}

FuzzSample
FuzzSample::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fuzz sample file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

namespace
{

template <typename T, std::size_t N>
T
pick(Rng &rng, const T (&options)[N])
{
    return options[rng.below(N)];
}

FuzzSample
sampleCadence(Rng &rng)
{
    FuzzSample s;
    s.kind = SampleKind::Cadence;
    s.seed = rng.next();
    s.channels = static_cast<int>(rng.inRange(1, 2));
    // Non-power-of-two rank counts are the interesting corner: the
    // per-rank stagger tREFI/N then truncates, which is where the
    // cadence-drift bug lived.  The full System rejects them, so the
    // policy-level oracle is the only coverage.
    static constexpr int kRanks[] = {1, 2, 3, 4, 5, 6, 8};
    s.ranksPerChannel = pick(rng, kRanks);
    static constexpr int kBanks[] = {4, 8, 16};
    s.banksPerRank = pick(rng, kBanks);
    static constexpr int kDensity[] = {8, 16, 24, 32};
    s.densityGb = pick(rng, kDensity);
    s.tREFWms = rng.bernoulli(0.5) ? 64.0 : 32.0;
    static constexpr unsigned kScale[] = {64, 128, 256, 512, 1024};
    s.timeScale = pick(rng, kScale);
    s.windows = static_cast<int>(rng.inRange(2, 4));
    return s;
}

FuzzSample
sampleSystemOnce(Rng &rng)
{
    FuzzSample s;
    s.kind = SampleKind::System;
    s.seed = rng.next();
    s.channels = static_cast<int>(rng.inRange(1, 2));
    static constexpr int kRanks[] = {1, 2, 4};
    s.ranksPerChannel = pick(rng, kRanks);
    static constexpr int kBanks[] = {4, 8, 16};
    s.banksPerRank = pick(rng, kBanks);
    static constexpr int kDensity[] = {8, 16, 24, 32};
    s.densityGb = pick(rng, kDensity);
    s.tREFWms = rng.bernoulli(0.5) ? 64.0 : 32.0;
    // Large scale factors keep a full policy sweep per sample cheap
    // while preserving every behaviour-determining timing ratio.
    static constexpr unsigned kScale[] = {512, 1024};
    s.timeScale = pick(rng, kScale);
    s.xorBankHash = rng.bernoulli(0.25);
    s.cores = static_cast<int>(rng.inRange(1, 2));
    s.tasksPerCore = rng.bernoulli(0.5) ? 2 : 4;
    static constexpr int kEta[] = {1, 2, 3, 64};
    s.etaThresh = pick(rng, kEta);
    s.bestEffort = rng.bernoulli(0.75);
    s.banksPerTaskPerRank = rng.bernoulli(0.5)
        ? -1
        : static_cast<int>(rng.inRange(
              1, static_cast<std::uint64_t>(s.banksPerRank)));
    s.warmupQuanta = static_cast<int>(rng.inRange(0, 2));
    // Half the samples run the sharded kernel.  Every shards >= 1
    // selects the same kernel; the count is still drawn from three
    // values so the sample stream stays what it always was.
    if (rng.bernoulli(0.5)) {
        static constexpr int kShards[] = {1, 2, 4};
        s.shards = pick(rng, kShards);
    }
    // Measure at least one full runqueue rotation so every task gets
    // scheduled and contributes a non-zero IPC to the harmonic mean
    // (a starved task would zero the dominance oracle's comparison).
    s.measureQuanta = s.tasksPerCore
        * static_cast<int>(rng.inRange(2, 4));
    s.benchmarks = workload::randomTaskList(rng, s.totalTasks());
    // Half the samples run a dynamic scenario: churn/phase/migration
    // events confined to the simulated horizon so every scripted
    // quantum actually executes.
    if (rng.bernoulli(0.5)) {
        const auto horizon = static_cast<std::uint64_t>(
            s.warmupQuanta + s.measureQuanta);
        s.scenario =
            workload::randomScenario(rng, s.totalTasks(), horizon);
    }
    // A third of the samples add open-loop serving traffic on top,
    // spanning quiet-to-overload offered loads and both arrival
    // kinds; tiny pools/queues make the drop path reachable.
    if (rng.bernoulli(0.35)) {
        static constexpr const char *kArrivals[] = {"poisson",
                                                    "mmpp"};
        static constexpr const char *kLoads[] = {"0.1", "0.4", "1.6",
                                                 "6.4"};
        static constexpr int kPools[] = {1, 2, 8};
        static constexpr int kQueues[] = {0, 2, 16};
        static constexpr int kLines[] = {1, 4, 8};
        s.serving = std::string("arrival=") + pick(rng, kArrivals)
            + ",load=" + pick(rng, kLoads)
            + ",pool=" + std::to_string(pick(rng, kPools))
            + ",queue=" + std::to_string(pick(rng, kQueues))
            + ",lines=" + std::to_string(pick(rng, kLines));
    }
    return s;
}

/** True when every policy cell of @p s constructs a valid config. */
bool
systemSampleFeasible(const FuzzSample &s)
{
    try {
        // CoDesign exercises the partitioning checks, AllBank the
        // common path; deviceConfig() + timings.check() covers the
        // density/tREFW/banksPerRank feasibility rules (e.g. 32 ms
        // retention with 16 banks/rank under-runs tRFC_pb).
        for (const auto p :
             {core::Policy::CoDesign, core::Policy::AllBank}) {
            const auto cfg = s.toConfig(p);
            cfg.check();
            const auto dev = cfg.deviceConfig();
            dev.timings.check(dev.org);
        }
    } catch (const FatalError &) {
        return false;
    }
    return true;
}

} // namespace

FuzzSample
sampleOne(Rng &rng, SampleKind kind)
{
    if (kind == SampleKind::Cadence)
        return sampleCadence(rng);
    for (int attempt = 0; attempt < 256; ++attempt) {
        FuzzSample s = sampleSystemOnce(rng);
        if (systemSampleFeasible(s))
            return s;
    }
    fatal("system sampler failed to find a feasible config in 256 "
          "attempts; the parameter domain is broken");
}

} // namespace refsched::validate::fuzz
