/**
 * @file
 * Simulation-performance smoke bench: the perf trajectory's data
 * source.
 *
 * Runs a fixed three-config set -- all-bank refresh at 32 Gb (the
 * refresh-heaviest baseline), per-bank round-robin, and the paper's
 * co-design -- and reports, per config:
 *
 *   simMs            simulated milliseconds covered by the run
 *   wallMs           host wall-clock for System::run
 *   events           kernel events executed across every lane
 *   events/quantum   executed events per simulated scheduling quantum
 *   Mticks/s         simulated ticks per wall second, in millions
 *
 * Tables are archived through the standard --json flag; the checked-in
 * archive is tools/perf_baseline.json (tools/perf_regress.sh --update
 * re-records it).  At the default parameters a second
 * table compares against the seed-controller reference measured
 * before the wake-precise optimization (PR 3), tracking the event
 * and wall-clock trajectory.
 *
 * Regression mode (used by tools/perf_regress.sh):
 *
 *   perf_smoke --check BASELINE.json [--wall-tol PCT] [--events-only]
 *
 * re-runs the set and compares against a previously archived
 * table such as tools/perf_baseline.json: events and events/quantum
 * must match exactly
 * (the simulation is deterministic, sharded or not), wall-clock may
 * regress by at most PCT percent and Mticks/s may drop by the same
 * factor (default 20; faster is never a failure; --events-only
 * skips both host-speed checks for heterogeneous machines).  Exits
 * non-zero on any regression.  Every row runs on one thread.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "bench_util.hh"

using namespace refsched;
using namespace refsched::bench;
using core::Policy;

namespace
{

struct SmokeConfig
{
    const char *name;
    Policy policy;
    int channels = 1;
    int shards = 0;  ///< 0 = legacy kernel, >0 = sharded kernel
    int cores = 2;
    /** Open-loop serving spec (ServingConfig::parse), or null. */
    const char *serving = nullptr;
    /** Run with epoch-sampled telemetry enabled. */
    bool telemetry = false;
};

/** The fixed config set; order is part of the archive format.  The
 *  2-channel co-design cell exercises the multi-controller scan
 *  paths; the -sh2 cell runs the same machine on the sharded kernel;
 *  the -8c-4ch-sh4 row is the 8-core 4-channel co-design machine on
 *  the sharded kernel.  Any shards >= 1 selects the same kernel; the
 *  row names keep their archived spelling. */
constexpr SmokeConfig kConfigs[] = {
    {"allbank-32gb", Policy::AllBank, 1},
    {"perbank-32gb", Policy::PerBank, 1},
    {"codesign-32gb", Policy::CoDesign, 1},
    {"codesign-32gb-2ch", Policy::CoDesign, 2},
    {"codesign-32gb-2ch-sh2", Policy::CoDesign, 2, 2},
    {"codesign-32gb-8c-4ch-sh4", Policy::CoDesign, 4, 4, 8},
    // Serving rows ride at the END so the legacy baseline prefix
    // stays byte-identical; the injector runs on the main lane.
    {"codesign-32gb-2ch-serving", Policy::CoDesign, 2, 0, 2,
     "arrival=mmpp,load=0.4,pool=8,queue=32,lines=4"},
    {"codesign-32gb-2ch-sh2-serving", Policy::CoDesign, 2, 2, 2,
     "arrival=mmpp,load=0.4,pool=8,queue=32,lines=4"},
    // Telemetry rows, also at the END.  The sharded row must execute
    // exactly the events of its telemetry-off twin above (sampling
    // is a boundary hook, not an event); the legacy row adds one
    // periodic sampling event per period.  Earlier rows running with
    // telemetry disabled and events unchanged is the perf gate's
    // zero-cost-when-off evidence.
    {"codesign-32gb-2ch-sh2-telem", Policy::CoDesign, 2, 2, 2,
     nullptr, true},
    {"codesign-32gb-telem", Policy::CoDesign, 1, 0, 2, nullptr, true},
};

/**
 * Seed-controller reference (commit a545fe5, pre wake-precise
 * scheduling), measured at the default parameters: WL-1, 32 Gb,
 * --scale 128 --warmup 8 --measure 16, single-threaded, Release.
 * Events are exact (deterministic); wall-clock is indicative of the
 * reference machine and only used for the trajectory table.
 */
struct SeedRef
{
    double eventsPerQuantum;
    double wallMs;
};
constexpr SeedRef kSeedRef[] = {
    {27608.2, 124.8},  // allbank-32gb
    {27833.8, 148.3},  // perbank-32gb
    {27747.1, 164.8},  // codesign-32gb
};

struct SmokeResult
{
    std::string name;
    std::string policy;
    double simMs = 0.0;
    double wallMs = 0.0;
    std::uint64_t events = 0;
    double eventsPerQuantum = 0.0;
    double mticksPerSec = 0.0;
};

SmokeResult
runConfig(const SmokeConfig &sc, const BenchOptions &opts)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-1", sc.policy, dram::DensityGb::d32, milliseconds(64.0),
        sc.cores, /*tasksPerCore=*/4, opts.timeScale);
    cfg.channels = sc.channels;
    cfg.shards = sc.shards;
    if (sc.serving)
        cfg.serving = workload::ServingConfig::parse(sc.serving);
    cfg.telemetry.enabled = sc.telemetry;

    core::System sys(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(opts.warmupQuanta, opts.measureQuanta);
    const auto t1 = std::chrono::steady_clock::now();

    SmokeResult r;
    r.name = sc.name;
    r.policy = core::toString(sc.policy);
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
    r.simMs = static_cast<double>(sys.eventQueue().now())
        / static_cast<double>(kPsPerMs);
    r.events = sys.executedEvents();
    const int quanta = opts.warmupQuanta + opts.measureQuanta;
    r.eventsPerQuantum =
        static_cast<double>(r.events) / static_cast<double>(quanta);
    r.mticksPerSec = r.wallMs > 0.0
        ? static_cast<double>(sys.eventQueue().now())
            / (r.wallMs * 1e3)  // ticks/ms -> Mticks/s
        : 0.0;
    return r;
}

// ---------------------------------------------------------------
// Baseline comparison (--check): parse the archive written by a
// previous --json run (tools/perf_baseline.json) and diff events /
// wall-clock.
// ---------------------------------------------------------------

/** Row cells of the "perf_smoke" table in an archived JSON file.
 *  The archive format is ours (bench_util JsonArchive): every cell
 *  is a quoted string, rows are arrays of cells. */
std::vector<std::vector<std::string>>
readBaselineRows(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read baseline file: ", path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();

    const auto label = text.find("\"label\": \"perf_smoke\"");
    if (label == std::string::npos)
        fatal(path, ": no perf_smoke table in archive");
    const auto rowsKey = text.find("\"rows\": [", label);
    if (rowsKey == std::string::npos)
        fatal(path, ": malformed archive (no rows)");

    std::vector<std::vector<std::string>> rows;
    std::size_t i = rowsKey + 9;
    int depth = 1;  // inside the rows [...] array
    std::vector<std::string> cur;
    while (i < text.size() && depth > 0) {
        const char ch = text[i];
        if (ch == '[') {
            ++depth;
            cur.clear();
            ++i;
        } else if (ch == ']') {
            --depth;
            if (depth == 1 && !cur.empty())
                rows.push_back(cur);
            ++i;
        } else if (ch == '"') {
            std::string cell;
            ++i;
            while (i < text.size() && text[i] != '"') {
                if (text[i] == '\\' && i + 1 < text.size())
                    ++i;
                cell += text[i++];
            }
            ++i;  // closing quote
            cur.push_back(cell);
        } else {
            ++i;
        }
    }
    return rows;
}

int
checkAgainstBaseline(const std::vector<SmokeResult> &now,
                     const std::string &path, double wallTolPct,
                     bool eventsOnly)
{
    const auto rows = readBaselineRows(path);
    bool ok = true;

    for (const auto &r : now) {
        const std::vector<std::string> *base = nullptr;
        for (const auto &row : rows) {
            if (!row.empty() && row[0] == r.name) {
                base = &row;
                break;
            }
        }
        if (!base || base->size() < 7) {
            std::cerr << r.name << ": missing from baseline " << path
                      << "\n";
            ok = false;
            continue;
        }
        const std::uint64_t baseEvents =
            std::strtoull((*base)[4].c_str(), nullptr, 10);
        const double baseWall = std::atof((*base)[3].c_str());
        const std::string &baseEpq = (*base)[5];
        const double baseMticks = std::atof((*base)[6].c_str());

        if (r.events != baseEvents) {
            std::cerr << r.name << ": events REGRESSED: " << r.events
                      << " executed vs baseline " << baseEvents
                      << " (simulation is deterministic; an intended"
                         " change must update the baseline)\n";
            ok = false;
        } else {
            std::cout << r.name << ": events ok (" << r.events
                      << ")\n";
        }

        // events/quantum is derived from the deterministic event
        // count; compare the formatted cell so the archive and the
        // live run round identically.
        if (core::fmt(r.eventsPerQuantum, 1) != baseEpq) {
            std::cerr << r.name << ": events/quantum REGRESSED: "
                      << core::fmt(r.eventsPerQuantum, 1)
                      << " vs baseline " << baseEpq << "\n";
            ok = false;
        }

        if (eventsOnly)
            continue;
        const double limit = baseWall * (1.0 + wallTolPct / 100.0);
        if (r.wallMs > limit) {
            std::cerr << r.name << ": wall-clock REGRESSED: "
                      << core::fmt(r.wallMs, 1) << " ms vs baseline "
                      << core::fmt(baseWall, 1) << " ms (+"
                      << core::fmt(wallTolPct, 0)
                      << "% tolerance exceeded)\n";
            ok = false;
        } else {
            std::cout << r.name << ": wall-clock ok ("
                      << core::fmt(r.wallMs, 1) << " ms vs "
                      << core::fmt(baseWall, 1) << " ms baseline)\n";
        }
        const double floor =
            baseMticks / (1.0 + wallTolPct / 100.0);
        if (baseMticks > 0.0 && r.mticksPerSec < floor) {
            std::cerr << r.name << ": Mticks/s REGRESSED: "
                      << core::fmt(r.mticksPerSec, 2)
                      << " vs baseline " << core::fmt(baseMticks, 2)
                      << " (floor " << core::fmt(floor, 2) << ")\n";
            ok = false;
        } else {
            std::cout << r.name << ": Mticks/s ok ("
                      << core::fmt(r.mticksPerSec, 2) << " vs "
                      << core::fmt(baseMticks, 2) << " baseline)\n";
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the regression-mode flags before the shared parser sees
    // the command line.
    std::string checkPath;
    double wallTolPct = 20.0;
    bool eventsOnly = false;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (i > 0 && a == "--check" && i + 1 < argc) {
            checkPath = argv[++i];
        } else if (i > 0 && a == "--wall-tol" && i + 1 < argc) {
            wallTolPct = std::atof(argv[++i]);
        } else if (i > 0 && a == "--events-only") {
            eventsOnly = true;
        } else {
            rest.push_back(argv[i]);
        }
    }
    const auto opts =
        parseArgs(static_cast<int>(rest.size()), rest.data());

    std::vector<SmokeResult> results;
    for (const auto &sc : kConfigs)
        results.push_back(runConfig(sc, opts));

    core::Table table({"config", "policy", "simMs", "wallMs",
                       "events", "events/quantum", "Mticks/s"});
    for (const auto &r : results) {
        table.addRow({r.name, r.policy, core::fmt(r.simMs, 2),
                      core::fmt(r.wallMs, 2),
                      std::to_string(r.events),
                      core::fmt(r.eventsPerQuantum, 1),
                      core::fmt(r.mticksPerSec, 2)});
    }
    std::cout << "Simulation performance smoke (WL-1, 32 Gb, scale "
              << opts.timeScale << ")\n\n";
    emit(opts, table, "perf_smoke");
    std::cout << "\n";

    // Trajectory vs the seed controller, only meaningful at the
    // parameters the reference was measured with.
    const bool defaults = opts.timeScale == 128
        && opts.warmupQuanta == 8 && opts.measureQuanta == 16
        && kSeedRef[0].eventsPerQuantum > 0.0;
    if (defaults) {
        core::Table traj({"config", "seed events/q", "events/q",
                          "events reduction", "seed wallMs", "wallMs",
                          "wall speedup"});
        const std::size_t refs =
            sizeof(kSeedRef) / sizeof(kSeedRef[0]);
        for (std::size_t i = 0; i < results.size() && i < refs; ++i) {
            const auto &r = results[i];
            const auto &s = kSeedRef[i];
            traj.addRow(
                {r.name, core::fmt(s.eventsPerQuantum, 1),
                 core::fmt(r.eventsPerQuantum, 1),
                 core::fmt(s.eventsPerQuantum / r.eventsPerQuantum, 2)
                     + "x",
                 core::fmt(s.wallMs, 1), core::fmt(r.wallMs, 1),
                 core::fmt(s.wallMs / r.wallMs, 2) + "x"});
        }
        std::cout << "Trajectory vs seed controller (pre"
                     " wake-precise scheduling)\n\n";
        emit(opts, traj, "perf_vs_seed");
        std::cout << "\n";
    }

    if (!checkPath.empty())
        return checkAgainstBaseline(results, checkPath, wallTolPct,
                                    eventsOnly);
    return 0;
}
