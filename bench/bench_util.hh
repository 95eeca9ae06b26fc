/**
 * @file
 * Shared plumbing for the figure-reproduction benches.
 *
 * Every bench accepts:
 *   --full        run all ten Table 2 workloads (default: a
 *                 representative five covering H/M/L classes)
 *   --scale N     ratio-preserving timeScale (default 128)
 *   --csv         emit CSV instead of an aligned table
 *   --jobs N      worker threads for the experiment grid (default:
 *                 all hardware threads; 1 = sequential)
 *   --warmup Q    warm-up quanta before the statistics reset
 *   --measure Q   measured quanta
 *   --json FILE   additionally archive every emitted table as JSON
 *                 (e.g. BENCH_fig10.json, for the perf trajectory)
 *
 * Runs are deterministic; the same invocation always reproduces the
 * same numbers, regardless of --jobs (each cell is an independent
 * deterministic simulation and results are ordered by submission).
 *
 * Bench structure: enumerate the full experiment grid first through
 * GridRunner::add (recording cell indices), call run() once to fan
 * the cells out across workers, then format tables from the
 * submission-ordered results.
 */

#ifndef REFSCHED_BENCH_BENCH_UTIL_HH
#define REFSCHED_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"
#include "simcore/logging.hh"
#include "workload/profile.hh"
#include "workload/workloads.hh"

namespace refsched::bench
{

struct BenchOptions
{
    bool full = false;
    bool csv = false;
    unsigned timeScale = 128;
    int warmupQuanta = 8;
    int measureQuanta = 16;
    /** Grid worker threads; 0 = hardware_concurrency. */
    int jobs = 0;
    /** When non-empty, archive emitted tables to this JSON file. */
    std::string jsonPath;
    /** argv[0], recorded for the JSON archive. */
    std::string benchName;
    /** Run the invariant checkers on every cell; any violation
     *  fails the bench with a diagnostic. */
    bool validate = false;
    /** When non-empty, each grid cell writes a Chrome trace-event
     *  timeline to "<prefix>.cell<N>.json". */
    std::string timelinePrefix;
    /** When non-empty, each grid cell writes its stats/metrics JSON
     *  to "<prefix>.cell<N>.json". */
    std::string statsJsonPrefix;
    /** When non-empty, each grid cell runs with sampled telemetry
     *  enabled and writes the series to "<prefix>.cell<N>.jsonl". */
    std::string telemetryPrefix;
};

namespace detail
{

/** Tables emitted so far, flushed to opts.jsonPath at exit. */
struct JsonArchive
{
    std::string path;
    std::string bench;
    std::string options;
    std::vector<std::pair<std::string, core::Table>> tables;

    ~JsonArchive()
    {
        if (path.empty() || tables.empty())
            return;
        std::ofstream os(path);
        if (!os) {
            std::cerr << "cannot write " << path << "\n";
            return;
        }
        os << "{\n  \"bench\": \"" << obs::jsonEscape(bench) << "\",\n"
           << "  \"options\": " << options << ",\n"
           << "  \"tables\": [\n";
        for (std::size_t t = 0; t < tables.size(); ++t) {
            const auto &[label, table] = tables[t];
            os << "    {\"label\": \"" << obs::jsonEscape(label)
               << "\", \"headers\": ";
            writeRow(os, table.headers());
            os << ", \"rows\": [";
            const auto &rows = table.rowData();
            for (std::size_t r = 0; r < rows.size(); ++r) {
                if (r > 0)
                    os << ", ";
                writeRow(os, rows[r]);
            }
            os << "]}" << (t + 1 < tables.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
    }

    static void
    writeRow(std::ostream &os, const std::vector<std::string> &cells)
    {
        os << "[";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << "\"" << obs::jsonEscape(cells[i]) << "\"";
        }
        os << "]";
    }
};

inline JsonArchive &
jsonArchive()
{
    static JsonArchive archive;
    return archive;
}

} // namespace detail

[[noreturn]] inline void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--full] [--csv] [--scale N] [--jobs N]"
           " [--warmup Q] [--measure Q] [--json FILE] [--validate]\n"
           "  --full       run all ten Table 2 workloads (default:"
           " a representative five)\n"
           "  --csv        emit CSV instead of aligned tables\n"
           "  --scale N    ratio-preserving timeScale divisor"
           " (default 128)\n"
           "  --jobs N     worker threads for the experiment grid\n"
           "               (default: all hardware threads;"
           " 1 = sequential)\n"
           "  --warmup Q   warm-up quanta before the stats reset"
           " (default 8)\n"
           "  --measure Q  measured quanta (default 16)\n"
           "  --json FILE  archive emitted tables as JSON"
           " (e.g. BENCH_fig10.json)\n"
           "  --validate   run the invariant checkers on every cell"
           " (fails on any violation)\n"
           "  --timeline-prefix P   write a Chrome trace-event"
           " timeline per grid cell (P.cellN.json)\n"
           "  --stats-json-prefix P write stats/metrics JSON per"
           " grid cell (P.cellN.json)\n"
           "  --telemetry-prefix P  sample telemetry per grid cell"
           " and write the\n"
           "               time-series JSONL to P.cellN.jsonl\n";
    std::exit(2);
}

inline BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opts;
    opts.benchName = argc > 0 ? argv[0] : "bench";

    // One whole, in-range integer; anything else is a usage error
    // before any simulation starts.
    auto intArg = [&](int &i, int lo) {
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *flag = argv[i];
        try {
            return static_cast<int>(workload::parseSignedToken(
                argv[++i], flag, lo, std::numeric_limits<int>::max()));
        } catch (const FatalError &e) {
            std::cerr << "error: " << e.what() << "\n";
            usage(argv[0]);
        }
    };

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            opts.full = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opts.csv = true;
        } else if (std::strcmp(argv[i], "--scale") == 0) {
            opts.timeScale = static_cast<unsigned>(intArg(i, 1));
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            opts.jobs = intArg(i, 0);
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            opts.warmupQuanta = intArg(i, 0);
        } else if (std::strcmp(argv[i], "--measure") == 0) {
            opts.measureQuanta = intArg(i, 1);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--validate") == 0) {
            opts.validate = true;
        } else if (std::strcmp(argv[i], "--timeline-prefix") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.timelinePrefix = argv[++i];
        } else if (std::strcmp(argv[i], "--stats-json-prefix") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.statsJsonPrefix = argv[++i];
        } else if (std::strcmp(argv[i], "--telemetry-prefix") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.telemetryPrefix = argv[++i];
        } else {
            usage(argv[0]);
        }
    }

    // Every output path's directory must exist before any cell runs;
    // a late write failure would cost the whole grid.
    auto requireDir = [&](const char *flag, const std::string &path) {
        const auto dir = std::filesystem::path(path).parent_path();
        std::error_code ec;
        if (path.empty()
            || std::filesystem::is_directory(dir.empty() ? "." : dir, ec))
            return;
        std::cerr << "error: " << flag << " " << path
                  << ": no such directory\n";
        usage(argv[0]);
    };
    requireDir("--json", opts.jsonPath);
    requireDir("--timeline-prefix", opts.timelinePrefix);
    requireDir("--stats-json-prefix", opts.statsJsonPrefix);
    requireDir("--telemetry-prefix", opts.telemetryPrefix);

    if (!opts.jsonPath.empty()) {
        auto &archive = detail::jsonArchive();
        archive.path = opts.jsonPath;
        archive.bench = opts.benchName;
        archive.options = "{\"full\": "
            + std::string(opts.full ? "true" : "false")
            + ", \"scale\": " + std::to_string(opts.timeScale)
            + ", \"warmup\": " + std::to_string(opts.warmupQuanta)
            + ", \"measure\": " + std::to_string(opts.measureQuanta)
            + ", \"jobs\": " + std::to_string(opts.jobs) + "}";
    }
    return opts;
}

/** Workloads to evaluate: all ten, or a class-covering subset. */
inline std::vector<std::string>
workloadNames(const BenchOptions &opts)
{
    if (opts.full) {
        std::vector<std::string> names;
        for (const auto &wl : workload::table2Workloads())
            names.push_back(wl.name);
        return names;
    }
    return {"WL-1", "WL-2", "WL-5", "WL-8", "WL-10"};
}

/**
 * Deferred experiment grid: benches enumerate every cell up front
 * (add returns the cell's index), run() fans the whole grid out with
 * core::parallelFor, and operator[] retrieves the metrics afterwards
 * in submission order.
 */
class GridRunner
{
  public:
    explicit GridRunner(const BenchOptions &opts) : opts_(opts) {}
    // Queued cells hold this runner's address.
    GridRunner(const GridRunner &) = delete;
    GridRunner &operator=(const GridRunner &) = delete;

    /** Queue a standard Table 1 cell; returns its result index. */
    std::size_t
    add(const std::string &workload, core::Policy policy,
        dram::DensityGb density, Tick tREFW = milliseconds(64.0),
        int numCores = 2, int tasksPerCore = 4)
    {
        return add(core::makeConfig(workload, policy, density, tREFW,
                                    numCores, tasksPerCore,
                                    opts_.timeScale));
    }

    /**
     * Queue a custom-configured cell (ablations).  Each per-cell
     * artifact prefix that is set attaches a timeline recorder or
     * enables sampled telemetry and writes one file per cell.  Probes
     * and samplers observe, never steer, so results stay
     * byte-identical to a plain cell and across --jobs.
     */
    std::size_t
    add(core::SystemConfig cfg)
    {
        cfg.validate = opts_.validate;
        if (!opts_.telemetryPrefix.empty())
            cfg.telemetry.enabled = true;
        const std::size_t idx = cells_.size();
        return add([this, cfg = std::move(cfg), idx] {
            core::System sys(cfg);
            std::unique_ptr<obs::TimelineRecorder> tl;
            if (!opts_.timelinePrefix.empty()) {
                tl = std::make_unique<obs::TimelineRecorder>(
                    sys.controller().config().org, cfg.numCores);
                sys.attachProbe(tl.get());
            }
            const auto m =
                sys.run(opts_.warmupQuanta, opts_.measureQuanta);
            const std::string cell = ".cell" + std::to_string(idx);
            if (!opts_.telemetryPrefix.empty()) {
                sys.telemetry()->writeFile(opts_.telemetryPrefix + cell
                                           + ".jsonl");
                if (tl)
                    sys.telemetry()->exportCounters(*tl);
            }
            if (tl)
                tl->writeFile(opts_.timelinePrefix + cell + ".json");
            if (!opts_.statsJsonPrefix.empty()) {
                const std::string path =
                    opts_.statsJsonPrefix + cell + ".json";
                std::ofstream f(path);
                if (!f)
                    fatal("cannot write ", path);
                sys.writeStatsJson(f, m);
            }
            return m;
        });
    }

    /** Queue a fully custom cell (must be self-contained). */
    std::size_t
    add(std::function<core::Metrics()> custom)
    {
        cells_.push_back(std::move(custom));
        return cells_.size() - 1;
    }

    /** Run every queued cell across --jobs workers. */
    void
    run()
    {
        results_.assign(cells_.size(), core::Metrics{});
        core::parallelFor(cells_.size(), opts_.jobs,
                          [&](std::size_t i) { results_[i] = cells_[i](); });
        ran_ = true;
        if (opts_.validate)
            reportValidation();
    }

    const core::Metrics &
    operator[](std::size_t i) const
    {
        REFSCHED_ASSERT(ran_, "GridRunner::run() not called");
        return results_[i];
    }

    std::size_t size() const { return cells_.size(); }

  private:
    /** Aggregate checker results; exits non-zero on any violation. */
    void
    reportValidation() const
    {
        if (!validate::kValidateCompiledIn) {
            std::cerr << "--validate requested but this build has "
                         "REFSCHED_VALIDATE=0; checkers were inert\n";
            return;
        }
        std::uint64_t violations = 0;
        std::string first;
        for (const auto &m : results_) {
            violations += m.validationViolations;
            if (first.empty() && !m.firstViolation.empty())
                first = m.firstViolation;
        }
        if (violations == 0) {
            std::cerr << "validation: clean (" << results_.size()
                      << " cells)\n";
            return;
        }
        std::cerr << "validation: " << violations
                  << " violation(s); first: " << first << "\n";
        std::exit(1);
    }

    BenchOptions opts_;
    std::vector<std::function<core::Metrics()>> cells_;
    std::vector<core::Metrics> results_;
    bool ran_ = false;
};

/**
 * Emit @p table to stdout (aligned or CSV per @p opts) and, when
 * --json is active, record it for the archive written at exit.
 */
inline void
emit(const BenchOptions &opts, const core::Table &table,
     const std::string &label = "")
{
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    if (!opts.jsonPath.empty()) {
        auto &archive = detail::jsonArchive();
        const std::string name = !label.empty()
            ? label
            : "table" + std::to_string(archive.tables.size());
        archive.tables.emplace_back(name, table);
    }
}

/**
 * Geometric mean of a vector of ratios, accumulated in log space so
 * long products of small ratios cannot underflow (a 10-cell product
 * of 1e-40s is zero in double arithmetic, but fine as a log sum).
 * Non-positive inputs have no geometric mean; they yield 0.0.
 */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

} // namespace refsched::bench

#endif // REFSCHED_BENCH_BENCH_UTIL_HH
