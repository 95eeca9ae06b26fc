/**
 * @file
 * refsched command-line driver: run any single experiment the
 * library supports without writing code.
 *
 *   refsched_cli --workload WL-8 --policy co-design --density 32
 *   refsched_cli --benchmarks mcf,povray,mcf,povray --cores 2 \
 *                --policy per-bank --dump-stats
 *
 * Prints the headline metrics, a per-task table, and (optionally)
 * every registered statistic.  Exit code 0 on success, 2 on usage
 * errors (including a malformed or out-of-range numeric flag).
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/system.hh"
#include "obs/timeline.hh"
#include "workload/profile.hh"
#include "workload/workloads.hh"

using namespace refsched;

namespace
{

struct CliOptions
{
    std::string workload;
    std::vector<std::string> benchmarks;
    std::string scenarioPath;
    workload::ServingConfig serving;  ///< enabled iff --serving given
    core::Policy policy = core::Policy::CoDesign;
    int densityGb = 32;
    double retentionMs = 64.0;
    int cores = 2;
    int tasksPerCore = 4;
    int channels = 1;
    int shards = 0;
    unsigned timeScale = 128;
    int warmupQuanta = 8;
    int measureQuanta = 16;
    int etaThresh = 64;
    int banksPerTask = -1;
    std::string partition;  // "", "soft", "hard", "none"
    std::uint64_t seed = 1;
    bool validate = false;
    bool dumpStats = false;
    bool csv = false;
    bool json = false;
    bool verbose = false;
    std::string timelinePath;
    std::string statsJsonPath;
    std::string telemetryPath;
    Tick telemetryPeriod = 0;  // 0 keeps the config default
    obs::TimelineOptions window;
};

/** Minimal JSON rendering of the metrics (machine consumption). */
void
printJson(std::ostream &os, const core::SystemConfig &cfg,
          const core::Metrics &m)
{
    os << "{\n"
       << "  \"policy\": \"" << core::toString(cfg.policy) << "\",\n"
       << "  \"density\": \"" << dram::toString(cfg.density)
       << "\",\n"
       << "  \"timeScale\": " << cfg.timeScale << ",\n"
       << "  \"metrics\": ";
    m.toJson(os, 2);
    os << "\n}\n";
}

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: " << argv0 << " [options]\n\n"
        << "workload selection (one of):\n"
        << "  --workload NAME        Table 2 workload (WL-1..WL-10)\n"
        << "  --benchmarks a,b,...   explicit per-task benchmark "
           "list\n"
        << "                         (mcf bwaves stream GemsFDTD "
           "npb_ua povray h264ref)\n"
        << "  --scenario FILE        dynamic-workload scenario script "
           "(tenant churn,\n"
        << "                         phase changes, page migration; "
           "see workload/scenario.hh)\n"
        << "  --serving SPEC         open-loop serving traffic on top "
           "of the task set:\n"
        << "                         arrival=poisson|mmpp,load=<req/"
           "us>,pool=N,queue=N,\n"
        << "                         lines=N[,burst-ratio=X,burst-"
           "frac=X,burst-dwell=X]\n"
        << "                         (see workload/serving.hh)\n\n"
        << "policy and hardware:\n"
        << "  --policy P             all-bank | per-bank | "
           "per-bank-ooo |\n"
        << "                         ddr4-2x | ddr4-4x | adaptive | "
           "co-design | no-refresh\n"
        << "  --density G            8 | 16 | 24 | 32  (default 32)\n"
        << "  --retention MS         64 or 32 (default 64)\n"
        << "  --cores N              (default 2)\n"
        << "  --channels N           memory channels (default 1)\n"
        << "  --tasks-per-core N     consolidation ratio (default 4)\n"
        << "  --banks-per-task N     override the 8 - 8/ratio rule\n"
        << "  --partition M          soft | hard | none (default: "
           "policy's)\n"
        << "  --eta N                Algorithm 3 fairness valve\n\n"
        << "simulation control:\n"
        << "  --scale N              ratio-preserving timeScale "
           "(default 128)\n"
        << "  --warmup N             warm-up quanta (default 8)\n"
        << "  --measure N            measured quanta (default 16)\n"
        << "  --seed S               trace RNG seed\n"
        << "  --validate             run the invariant checkers; "
           "exit 1 on any violation\n"
        << "  --shards N             0 = legacy event kernel "
           "(default); >= 1 = sharded\n"
        << "                         kernel, one event lane per "
           "channel\n\n"
        << "output:\n"
        << "  --dump-stats           print every registered stat\n"
        << "  --csv                  per-task table as CSV\n"
        << "  --verbose              inform-level logging\n\n"
        << "observability:\n"
        << "  --timeline FILE        write a Chrome trace-event "
           "timeline\n"
        << "                         (open in Perfetto / "
           "chrome://tracing); add --telemetry\n"
        << "                         for queue-depth and "
           "blocked-read counter tracks\n"
        << "  --stats-json FILE      write metrics + self-profile + "
           "all stats as JSON\n"
        << "  --telemetry FILE       sample queue depths, row-hit/"
           "refresh rates,\n"
        << "                         per-core progress and serving "
           "backlog every\n"
        << "                         telemetry period; write JSONL "
           "(or CSV when FILE\n"
        << "                         ends in .csv).  With --timeline "
           "the samples are\n"
        << "                         also merged as Perfetto counter "
           "tracks\n"
        << "  --telemetry-period PS  sampling cadence in picoseconds "
           "(default 1000000)\n"
        << "  --trace-window S:E     restrict the timeline to "
           "simulated ticks [S, E)\n"
        << "                         (picoseconds; default: whole "
           "run)\n";
    std::exit(2);
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

core::Policy
parsePolicy(const std::string &s, const char *argv0)
{
    for (auto p : {core::Policy::AllBank, core::Policy::PerBank,
                   core::Policy::PerBankOoo, core::Policy::Ddr4x2,
                   core::Policy::Ddr4x4, core::Policy::Adaptive,
                   core::Policy::CoDesign, core::Policy::NoRefresh}) {
        if (core::toString(p) == s)
            return p;
    }
    usage(argv0, "unknown policy: " + s);
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0], std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    // Numeric flags take one whole, in-range number; anything else
    // is a usage error.
    const auto unsignedToken = [&](const std::string &v,
                                   const char *what) -> std::uint64_t {
        try {
            return workload::parseUnsignedToken(v, what);
        } catch (const FatalError &e) {
            usage(argv[0], e.what());
        }
    };
    const auto intFlag = [&](int &i, int lo, int hi) -> int {
        const char *flag = argv[i];
        const std::string v = need(i);
        try {
            return static_cast<int>(
                workload::parseSignedToken(v, flag, lo, hi));
        } catch (const FatalError &e) {
            usage(argv[0], e.what());
        }
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload") {
            o.workload = need(i);
        } else if (a == "--benchmarks") {
            o.benchmarks = splitCsv(need(i));
        } else if (a == "--scenario") {
            o.scenarioPath = need(i);
        } else if (a == "--serving") {
            const std::string v = need(i);
            try {
                if (!v.empty())
                    o.serving = workload::ServingConfig::parse(v);
            } catch (const FatalError &e) {
                usage(argv[0], e.what());
            }
        } else if (a == "--policy") {
            o.policy = parsePolicy(need(i), argv[0]);
        } else if (a == "--density") {
            o.densityGb = intFlag(i, 8, 32);
            if (o.densityGb % 8 != 0)
                usage(argv[0], "--density must be 8, 16, 24 or 32");
        } else if (a == "--retention") {
            const std::string v = need(i);
            try {
                o.retentionMs =
                    workload::parseFiniteToken(v, "--retention");
            } catch (const FatalError &e) {
                usage(argv[0], e.what());
            }
            if (o.retentionMs < 1.0 || o.retentionMs > 1024.0)
                usage(argv[0], "--retention must be in [1, 1024] ms");
        } else if (a == "--cores") {
            o.cores = intFlag(i, 1, 256);
        } else if (a == "--channels") {
            o.channels = intFlag(i, 1, 64);
        } else if (a == "--shards") {
            o.shards = intFlag(i, 0, 1 << 16);
        } else if (a == "--tasks-per-core") {
            o.tasksPerCore = intFlag(i, 1, 64);
        } else if (a == "--banks-per-task") {
            o.banksPerTask = intFlag(i, -1, 64);
        } else if (a == "--partition") {
            o.partition = need(i);
        } else if (a == "--eta") {
            o.etaThresh = intFlag(i, 1, 1 << 20);
        } else if (a == "--scale") {
            o.timeScale =
                static_cast<unsigned>(intFlag(i, 1, 1 << 16));
        } else if (a == "--warmup") {
            o.warmupQuanta = intFlag(i, 0, 1 << 20);
        } else if (a == "--measure") {
            o.measureQuanta = intFlag(i, 1, 1 << 20);
        } else if (a == "--seed") {
            o.seed = unsignedToken(need(i), "--seed");
        } else if (a == "--validate") {
            o.validate = true;
        } else if (a == "--timeline") {
            o.timelinePath = need(i);
        } else if (a == "--stats-json") {
            o.statsJsonPath = need(i);
        } else if (a == "--telemetry") {
            o.telemetryPath = need(i);
        } else if (a == "--telemetry-period") {
            o.telemetryPeriod =
                unsignedToken(need(i), "--telemetry-period");
            if (o.telemetryPeriod == 0)
                usage(argv[0], "--telemetry-period must be positive");
        } else if (a == "--trace-window") {
            const std::string w = need(i);
            const auto colon = w.find(':');
            if (colon == std::string::npos)
                usage(argv[0], "--trace-window wants START:END");
            o.window.windowStart =
                unsignedToken(w.substr(0, colon), "--trace-window START");
            const std::string endStr = w.substr(colon + 1);
            o.window.windowEnd = endStr.empty()
                ? kMaxTick
                : unsignedToken(endStr, "--trace-window END");
            if (o.window.windowStart >= o.window.windowEnd)
                usage(argv[0], "--trace-window is empty");
        } else if (a == "--dump-stats") {
            o.dumpStats = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--verbose") {
            o.verbose = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else {
            usage(argv[0], "unknown option: " + a);
        }
    }
    if (o.workload.empty() && o.benchmarks.empty())
        o.workload = "WL-5";
    return o;
}

core::SystemConfig
buildConfig(const CliOptions &o, const char *argv0)
{
    core::SystemConfig cfg;
    cfg.numCores = o.cores;
    cfg.tasksPerCore = o.tasksPerCore;
    cfg.density = static_cast<dram::DensityGb>(o.densityGb);
    cfg.tREFW = milliseconds(o.retentionMs);
    cfg.timeScale = o.timeScale;
    cfg.applyPolicy(o.policy);
    cfg.etaThresh = o.etaThresh;
    cfg.banksPerTaskPerRank = o.banksPerTask;
    cfg.seed = o.seed;
    cfg.validate = o.validate;
    cfg.channels = o.channels;
    cfg.shards = o.shards;

    if (!o.partition.empty()) {
        if (o.partition == "soft")
            cfg.partitioning = core::Partitioning::Soft;
        else if (o.partition == "hard")
            cfg.partitioning = core::Partitioning::Hard;
        else if (o.partition == "none")
            cfg.partitioning = core::Partitioning::None;
        else
            usage(argv0, "unknown partition mode: " + o.partition);
    }

    if (!o.benchmarks.empty()) {
        if (static_cast<int>(o.benchmarks.size())
            != cfg.totalTasks()) {
            usage(argv0,
                  "--benchmarks needs exactly cores*tasks-per-core "
                  "entries ("
                      + std::to_string(cfg.totalTasks()) + ")");
        }
        cfg.benchmarks = o.benchmarks;
    } else {
        cfg.benchmarks = workload::workloadByName(o.workload)
                             .taskList(cfg.totalTasks());
    }
    if (!o.scenarioPath.empty())
        cfg.scenario = workload::ScenarioScript::parseFile(
            o.scenarioPath);
    if (o.serving.enabled)
        cfg.serving = o.serving;
    if (!o.telemetryPath.empty()) {
        cfg.telemetry.enabled = true;
        if (o.telemetryPeriod > 0)
            cfg.telemetry.periodTicks = o.telemetryPeriod;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = parse(argc, argv);
    if (opts.verbose)
        setLogLevel(LogLevel::Inform);

    try {
        const auto cfg = buildConfig(opts, argv[0]);
        core::System sys(cfg);

        std::unique_ptr<obs::TimelineRecorder> timeline;
        if (!opts.timelinePath.empty()) {
            timeline = std::make_unique<obs::TimelineRecorder>(
                sys.controller().config().org, cfg.numCores,
                opts.window);
            sys.attachProbe(timeline.get());
        }

        const auto m =
            sys.run(opts.warmupQuanta, opts.measureQuanta);

        if (!opts.telemetryPath.empty()) {
            sys.telemetry()->writeFile(opts.telemetryPath);
            if (timeline)
                sys.telemetry()->exportCounters(*timeline);
        }
        if (timeline)
            timeline->writeFile(opts.timelinePath);
        if (!opts.statsJsonPath.empty()) {
            std::ofstream f(opts.statsJsonPath);
            if (!f)
                fatal("cannot open --stats-json file: ",
                      opts.statsJsonPath);
            sys.writeStatsJson(f, m);
        }

        const auto validationStatus = [&]() -> int {
            if (!opts.validate)
                return 0;
            if (m.validationViolations == 0) {
                std::cerr << "validation: clean\n";
                return 0;
            }
            std::cerr << "validation: " << m.validationViolations
                      << " violation(s); first: " << m.firstViolation
                      << "\n";
            return 1;
        };

        if (opts.json) {
            printJson(std::cout, cfg, m);
            return validationStatus();
        }

        std::cout << "policy=" << core::toString(cfg.policy)
                  << " density=" << dram::toString(cfg.density)
                  << " retention="
                  << core::fmt(opts.retentionMs, 0) << "ms cores="
                  << cfg.numCores << " ratio=1:" << cfg.tasksPerCore
                  << " scale=" << cfg.timeScale << "\n\n";

        std::cout << "harmonic-mean IPC   "
                  << core::fmt(m.harmonicMeanIpc) << "\n"
                  << "avg read latency    "
                  << core::fmt(m.avgReadLatencyMemCycles, 1)
                  << " memory cycles\n"
                  << "row hit rate        "
                  << core::fmt(m.rowHitRate * 100.0, 1) << "%\n"
                  << "dram reads/writes   " << m.dramReads << " / "
                  << m.dramWrites << "\n"
                  << "refresh commands    " << m.refreshCommands
                  << "\n"
                  << "blocked reads       "
                  << core::fmt(m.blockedReadFraction * 100.0, 3)
                  << "%\n"
                  << "energy              "
                  << core::fmt(m.energy.totalPj() / 1e9, 3)
                  << " mJ (refresh "
                  << core::fmt(m.energy.refreshShare() * 100.0, 1)
                  << "%), "
                  << core::fmt(m.energyPerInstructionPj, 1)
                  << " pJ/instr\n"
                  << "scheduler picks     " << m.cleanPicks
                  << " clean, " << m.deferredPicks << " deferred, "
                  << m.bestEffortPicks << " best-effort, "
                  << m.fallbackPicks << " fallback\n"
                  << "fairness spread     "
                  << core::fmt(m.vruntimeSpreadQuanta, 2)
                  << " quanta\n\n";

        core::Table tasks({"pid", "benchmark", "IPC", "MPKI",
                           "quanta", "dram reads", "resident pages",
                           "fallback pages"});
        for (const auto &t : m.tasks) {
            tasks.addRow({std::to_string(t.pid), t.benchmark,
                          core::fmt(t.ipc, 3), core::fmt(t.mpki, 1),
                          std::to_string(t.quantaRun),
                          std::to_string(t.dramReads),
                          std::to_string(t.residentPages),
                          std::to_string(t.fallbackAllocs)});
        }
        if (opts.csv)
            tasks.printCsv(std::cout);
        else
            tasks.print(std::cout);

        if (opts.dumpStats) {
            std::cout << "\n";
            sys.dumpStats(std::cout);
        }
        return validationStatus();
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
