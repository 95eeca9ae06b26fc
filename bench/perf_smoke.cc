/**
 * @file
 * Simulation-work smoke bench: the event-count gate.
 *
 * Runs a fixed config set -- all-bank refresh at 32 Gb (the
 * refresh-heaviest baseline), per-bank round-robin, the paper's
 * co-design, and co-design on wider machines, with serving and with
 * telemetry -- and reports, per config:
 *
 *   simMs            simulated milliseconds covered by the run
 *   events           kernel events executed across every lane
 *   events/quantum   executed events per simulated scheduling quantum
 *
 * Tables are archived through the standard --json flag; the checked-in
 * archive is tools/perf_baseline.json, re-recorded with
 *
 *   perf_smoke --json tools/perf_baseline.json
 *
 * when a change intentionally moves an event count.  Regression mode
 *
 *   perf_smoke --check BASELINE.json
 *
 * re-runs the set and compares against a previously archived table:
 * events and events/quantum must match exactly (the simulation is
 * deterministic, sharded or not).  Exits non-zero on any mismatch.
 * Every row runs on one thread.  Host speed is not judged here:
 * tools/perf_ab.py compares a change's wall clock against its parent
 * in interleaved pairs on the same host.
 */

#include <cstdint>
#include <fstream>
#include <sstream>

#include "bench_util.hh"
#include "obs/json.hh"

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

struct SmokeResult
{
    std::string name;
    std::string policy;
    double simMs = 0.0;
    std::uint64_t events = 0;
    double eventsPerQuantum = 0.0;
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
    sys.run(opts.warmupQuanta, opts.measureQuanta);

    SmokeResult r;
    r.name = sc.name;
    r.policy = core::toString(sc.policy);
    r.simMs = static_cast<double>(sys.eventQueue().now())
        / static_cast<double>(kPsPerMs);
    r.events = sys.executedEvents();
    const int quanta = opts.warmupQuanta + opts.measureQuanta;
    r.eventsPerQuantum =
        static_cast<double>(r.events) / static_cast<double>(quanta);
    return r;
}

/** Cell @p header of an archived row, located by the table's headers
 *  (fatal when the archive lacks the column or the row is short). */
const std::string &
cell(const obs::JsonValue &table, const obs::JsonValue &row,
     const std::string &header, const std::string &path)
{
    const auto &headers = table.find("headers")->array;
    for (std::size_t i = 0; i < headers.size(); ++i) {
        if (headers[i].string == header && i < row.array.size()
            && row.array[i].isString())
            return row.array[i].string;
    }
    fatal(path, ": perf_smoke row lacks a \"", header, "\" cell");
}

/** The "perf_smoke" table of an archive written by a previous --json
 *  run (bench_util JsonArchive). */
obs::JsonValue
readBaseline(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read baseline file: ", path);
    std::stringstream ss;
    ss << is.rdbuf();
    const obs::JsonValue doc = obs::parseJson(ss.str());
    const obs::JsonValue *tables = doc.find("tables");
    if (tables && tables->isArray()) {
        for (const auto &t : tables->array) {
            const auto *label = t.find("label");
            const auto *headers = t.find("headers");
            const auto *rows = t.find("rows");
            if (label && label->string == "perf_smoke" && headers
                && headers->isArray() && rows && rows->isArray())
                return t;
        }
    }
    fatal(path, ": no perf_smoke table in archive");
}

int
checkAgainstBaseline(const std::vector<SmokeResult> &now,
                     const std::string &path)
{
    const obs::JsonValue table = readBaseline(path);
    bool ok = true;

    for (const auto &r : now) {
        const obs::JsonValue *base = nullptr;
        for (const auto &row : table.find("rows")->array) {
            if (row.isArray() && cell(table, row, "config", path) == r.name) {
                base = &row;
                break;
            }
        }
        if (!base) {
            std::cerr << r.name << ": missing from baseline " << path
                      << "\n";
            ok = false;
            continue;
        }
        const std::uint64_t baseEvents = std::strtoull(
            cell(table, *base, "events", path).c_str(), nullptr, 10);
        const std::string &baseEpq =
            cell(table, *base, "events/quantum", path);

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
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the regression-mode flag before the shared parser sees
    // the command line.
    std::string checkPath;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (i > 0 && a == "--check" && i + 1 < argc)
            checkPath = argv[++i];
        else
            rest.push_back(argv[i]);
    }
    const auto opts =
        parseArgs(static_cast<int>(rest.size()), rest.data());

    std::vector<SmokeResult> results;
    for (const auto &sc : kConfigs)
        results.push_back(runConfig(sc, opts));

    core::Table table(
        {"config", "policy", "simMs", "events", "events/quantum"});
    for (const auto &r : results) {
        table.addRow({r.name, r.policy, core::fmt(r.simMs, 2),
                      std::to_string(r.events),
                      core::fmt(r.eventsPerQuantum, 1)});
    }
    std::cout << "Simulation work smoke (WL-1, 32 Gb, scale "
              << opts.timeScale << ")\n\n";
    emit(opts, table, "perf_smoke");
    std::cout << "\n";

    if (checkPath.empty())
        return 0;
    try {
        return checkAgainstBaseline(results, checkPath);
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
