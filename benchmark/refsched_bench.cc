/**
 * @file
 * refsched_bench: runs one benchmark workload and writes its per-pass
 * metric samples, correctness checks and fingerprint as JSON.
 *
 *   refsched_bench --workload NAME [--seed S] [--seconds N]
 *                  [--trace 0|1] [--smoke] [--out FILE]
 *                  [--artifact-dir DIR]
 *
 * One untimed warm-up pass runs first, then timed passes until
 * --seconds have elapsed (at least three; exactly one with --smoke,
 * which also divides every run length by four), each followed by
 * three constructor-only passes that time set-up.  With --trace 1 the
 * run additionally profiles the sharded kernel, times post-run
 * Scheduler/BuddyAllocator calls, writes every cell's stats JSON and
 * records spans (pass -> cell -> construct / run / artifacts /
 * post-run calls) to <artifact-dir>/<workload>.trace.json as Chrome
 * trace events.  benchmark/run.sh builds this program and turns its
 * output into the reported medians; see benchmark/README.md.
 *
 * Exit status: 0 when every check passed, 1 when a check failed,
 * 2 on bad arguments.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_util.hh"
#include "measure.hh"
#include "obs/json.hh"
#include "workloads.hh"

using namespace refsched;
using namespace refsched::rsbench;
using core::Policy;

namespace
{

constexpr int kSetupPassesPerPass = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string artifactDir = "build-benchmark/artifacts";
};

[[noreturn]] void
usage()
{
    std::cerr << "usage: refsched_bench --workload NAME [--seed S] "
                 "[--seconds N] [--trace 0|1] [--smoke] [--out FILE] "
                 "[--artifact-dir DIR]\nworkloads:";
    for (const auto &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    const auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        try {
            if (a == "--workload")
                o.workload = value(i);
            else if (a == "--seed")
                o.seed = std::stoull(value(i));
            else if (a == "--seconds")
                o.seconds = std::stod(value(i));
            else if (a == "--trace")
                o.trace = std::stoi(value(i)) != 0;
            else if (a == "--smoke")
                o.smoke = true;
            else if (a == "--out")
                o.out = value(i);
            else if (a == "--artifact-dir")
                o.artifactDir = value(i);
            else
                usage();
        } catch (const std::logic_error &) {
            usage();
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()
        || !(o.seconds > 0.0))
        usage();
    if (o.out.empty())
        o.out = o.artifactDir + "/" + o.workload + ".results.json";
    return o;
}

// --- Checks ----------------------------------------------------------

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

struct Verdict
{
    std::vector<Check> checks;
    double ops = 0.0;
    double opsFailed = 0.0;

    void
    add(const std::string &name, bool ok, const std::string &detail,
        double failedOps)
    {
        checks.push_back({name, ok, detail});
        if (!ok)
            opsFailed += failedOps;
    }

    bool
    allOk() const
    {
        return std::all_of(checks.begin(), checks.end(),
                           [](const Check &c) { return c.ok; });
    }
};

std::uint64_t
passHash(const PassOut &p)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &c : p.cells)
        h = fnv1a(std::string_view(reinterpret_cast<const char *>(&c.hash),
                                   sizeof c.hash),
                  h);
    return h;
}

std::string
hex(std::uint64_t h)
{
    std::ostringstream os;
    os << std::hex << h;
    return os.str();
}

/** The paper's co-design gain over all-bank refresh (Fig. 10). */
double
paperGainPct(dram::DensityGb d)
{
    switch (d) {
      case dram::DensityGb::d16: return 9.03;
      case dram::DensityGb::d24: return 12.1;
      default: return 16.2;
    }
}

/** Geomean IPC speedup of @p pol over all-bank per density, as
 *  percent, over a paper-grid pass. */
std::map<dram::DensityGb, double>
gainsPct(const PassOut &p, Policy pol)
{
    std::map<std::pair<dram::DensityGb, std::string>, double> base;
    for (const auto &c : p.cells)
        if (c.policy == Policy::AllBank)
            base[{c.density, c.workload}] = c.m.harmonicMeanIpc;
    std::map<dram::DensityGb, std::vector<double>> ratios;
    for (const auto &c : p.cells)
        if (c.policy == pol)
            ratios[c.density].push_back(
                c.m.harmonicMeanIpc / base.at({c.density, c.workload}));
    std::map<dram::DensityGb, double> out;
    for (const auto &[d, r] : ratios)
        out[d] = 100.0 * (bench::geomean(r) - 1.0);
    return out;
}

const CellOut *
findCell(const PassOut &p, Policy pol, double load)
{
    for (const auto &c : p.cells)
        if (c.policy == pol && c.servingLoad == load)
            return &c;
    return nullptr;
}

Verdict
runChecks(const std::string &wl, const PassOut &warm,
          const std::vector<PassOut> &passes)
{
    Verdict v;
    const auto cells = static_cast<double>(passes.front().cells.size());
    for (const auto &p : passes) {
        v.ops += cells;
        for (const auto &c : p.cells) {
            v.ops += c.get("serving.arrivals");
            v.opsFailed += c.get("serving.drops");
        }
    }

    const std::uint64_t ref = passHash(passes.front());
    int mismatched = 0;
    for (const auto &p : passes)
        mismatched += passHash(p) != ref;
    v.add("fingerprint_stable_across_passes", mismatched == 0,
          std::to_string(mismatched) + " of "
              + std::to_string(passes.size()) + " passes differ",
          mismatched * cells);
    const bool twinOk = passHash(warm) == ref;
    v.add(wl == "sharded-8c4ch" ? "fingerprint_threaded_eq_sequential"
                                : "fingerprint_warmup_eq_timed",
          twinOk, "warm-up " + hex(passHash(warm)) + " vs " + hex(ref),
          twinOk ? 0.0 : cells);

    int zeroIpc = 0;
    for (const auto &p : passes)
        for (const auto &c : p.cells)
            zeroIpc += !(c.m.harmonicMeanIpc > 0.0);
    v.add("no_zero_ipc_cell", zeroIpc == 0,
          std::to_string(zeroIpc) + " cells with zero IPC", zeroIpc);

    const PassOut &p = passes.front();
    if (wl == "paper-grid") {
        const auto pb = gainsPct(p, Policy::PerBank);
        const auto cd = gainsPct(p, Policy::CoDesign);
        for (const auto &[d, cdGain] : cd) {
            const double pbGain = pb.at(d);
            std::ostringstream os;
            os << "co-design " << cdGain << "% > per-bank " << pbGain
               << "% > all-bank 0%";
            v.add("geomean_order_" + dram::toString(d),
                  cdGain > pbGain && pbGain > 0.0, os.str(),
                  cells / 3.0 * static_cast<double>(passes.size()));
        }
        double blocked = 0.0;
        int offenders = 0;
        for (const auto &c : p.cells) {
            if (c.policy == Policy::CoDesign) {
                blocked += c.get("mc.readsBlockedByRefresh");
                offenders += c.get("mc.readsBlockedByRefresh") > 0.0;
            }
        }
        v.add("codesign_zero_blocked_reads", blocked == 0.0,
              std::to_string(static_cast<long long>(blocked))
                  + " co-design reads blocked by refresh",
              offenders * static_cast<double>(passes.size()));
    }
    if (wl == "serving-mmpp") {
        int leaks = 0;
        std::ostringstream os;
        for (const auto &c : p.cells) {
            // The warm-up reset can carry in-flight requests into the
            // measured interval, so conservation holds up to the
            // in-system capacity at either end, in both directions.
            const double gap = c.get("serving.arrivals")
                - c.get("serving.completed") - c.get("serving.drops");
            os << (os.tellp() ? ", " : "") << "gap " << gap;
            leaks += std::abs(gap) > c.servingSlots;
        }
        v.add("serving_requests_conserved", leaks == 0,
              os.str() + " (bound: pool + queue)",
              leaks * static_cast<double>(passes.size()));
        const CellOut *rep = findCell(p, Policy::CoDesign, 3.2);
        const double n = rep ? rep->get("serving.latency.count") : 0.0;
        v.add("serving_p99_has_10_beyond", n * 0.01 >= 10.0,
              std::to_string(static_cast<long long>(n))
                  + " latency samples",
              1.0);
    }
    return v;
}

// --- Metrics ---------------------------------------------------------

double
sumOf(const PassOut &p, double (*f)(const CellOut &))
{
    double s = 0.0;
    for (const auto &c : p.cells)
        s += f(c);
    return s;
}

double
sumStat(const PassOut &p, const std::string &key)
{
    double s = 0.0;
    for (const auto &c : p.cells)
        s += c.get(key);
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank quantile of @p xs (0 < q <= 1). */
double
nearestRank(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

void
shardMetrics(const PassOut &p, const PassOut &twin, MetricTable &t)
{
    const CellOut &c = p.cells.front();
    const CellOut &s = twin.cells.front();
    if (!c.kernel || !s.kernel)
        return;
    const auto &k = *c.kernel;
    const auto L = [&](const std::string &n, const std::string &u,
                       double v) { t.add(n, u, "layer", v); };
    double busy = 0.0, wait = 0.0, busyMax = 0.0;
    for (double b : k.workerBusyMs) {
        busy += b;
        busyMax = std::max(busyMax, b);
    }
    for (double w : k.workerWaitMs)
        wait += w;
    const double kernelMs = k.mainMs + k.parallelMs + k.boundaryMs;
    L("simcore.shard.windows", "count", static_cast<double>(k.windows));
    L("simcore.shard.main_ms", "ms", k.mainMs);
    L("simcore.shard.parallel_ms", "ms", k.parallelMs);
    L("simcore.shard.boundary_ms", "ms", k.boundaryMs);
    L("simcore.shard.worker_busy_ms", "ms", busy);
    L("simcore.shard.barrier_wait_ms", "ms", wait);
    L("simcore.shard.main_frac", "frac", ratio(k.mainMs, kernelMs));
    L("simcore.shard.parallel_frac", "frac", ratio(k.parallelMs, kernelMs));
    L("simcore.shard.boundary_frac", "frac", ratio(k.boundaryMs, kernelMs));
    L("simcore.shard.barrier_wait_frac", "frac", ratio(wait, busy + wait));
    L("simcore.shard.imbalance", "ratio",
      ratio(busyMax, busy / static_cast<double>(k.workerBusyMs.size())));
    L("simcore.shard.us_per_window", "us",
      ratio(kernelMs * 1e3, static_cast<double>(k.windows)));
    L("simcore.shard.parallel_speedup", "x", ratio(s.runMs(), c.runMs()));
    L("simcore.shard.seq_main_ms", "ms", s.kernel->mainMs);
    const auto &lanes = s.kernel->laneBusyMs;
    for (int ch = 0; ch < c.channels; ++ch) {
        const double ms = lanes.at(static_cast<std::size_t>(ch));
        L("memctrl.lane_busy_ms.ch" + std::to_string(ch), "ms", ms);
        L("memctrl.lane_busy_frac.ch" + std::to_string(ch), "frac",
          ratio(ms, s.runMs()));
    }
}

void
passMetrics(const Workload &w, const PassOut &p, const PassOut &warm,
            MetricTable &t)
{
    const auto E = [&](const std::string &n, const std::string &u,
                       double v) { t.add(n, u, "e2e", v); };
    const auto F = [&](const std::string &n, const std::string &u,
                       double v) { t.add(n, u, "fidelity", v); };
    const auto L = [&](const std::string &n, const std::string &u,
                       double v) { t.add(n, u, "layer", v); };
    const auto S = [&](const std::string &k) { return sumStat(p, k); };
    const double n = static_cast<double>(p.cells.size());

    // End to end.
    const double runMs = sumOf(p, [](const CellOut &c) { return c.runMs(); });
    const double events = sumOf(p, [](const CellOut &c) { return c.events; });
    std::vector<double> ipcs;
    for (const auto &c : p.cells)
        ipcs.push_back(c.m.harmonicMeanIpc);
    // Host interference only ever slows a pass, so the host-speed
    // metrics report the best pass (README: Metrics).
    t.add("wall_s", "s", "e2e", p.wallMs() / 1e3, "min");
    t.add("sim_mticks_per_s", "Mticks/s", "e2e",
          ratio(sumOf(p, [](const CellOut &c) { return c.simTicks; })
                    / 1e6,
                runMs / 1e3),
          "max");
    E("sim_ipc", "IPC", bench::geomean(ipcs));
    E("sim_read_latency_ns", "sim_ns",
      ratio(S("mc.readLatencySum"), S("mc.readLatencyCount")) / 1e3);

    // Simulated outcomes that only some workloads have (README:
    // Simulated outcomes per workload).
    if (w.name == "paper-grid") {
        double err = 0.0;
        const auto cd = gainsPct(p, Policy::CoDesign);
        for (const auto &[d, g] : cd)
            err += std::abs(g - paperGainPct(d));
        F("paper_error_pp", "pp", err / static_cast<double>(cd.size()));
        for (const auto &[d, g] : cd)
            F("codesign_gain_pct." + dram::toString(d), "%", g);
    }
    if (w.name != "serving-mmpp") {
        double blocked = 0.0, reads = 0.0;
        for (const auto &c : p.cells) {
            if (c.policy == Policy::CoDesign) {
                blocked += c.get("mc.readsBlockedByRefresh");
                reads += c.get("mc.reads");
            }
        }
        F("blocked_read_pct", "%", 100.0 * ratio(blocked, reads));
    }
    const CellOut *rep = findCell(p, Policy::CoDesign, 3.2);
    const CellOut *allBank = findCell(p, Policy::AllBank, 3.2);
    if (rep && allBank) {
        F("serving_p50_ns", "sim_ns", rep->get("serving.latency.p50") / 1e3);
        F("serving_p99_ns", "sim_ns", rep->get("serving.latency.p99") / 1e3);
        F("serving_samples", "count", rep->get("serving.latency.count"));
        F("serving_drop_pct", "%",
          100.0 * ratio(S("serving.drops"), S("serving.arrivals")));
    }

    // Per layer: simcore.
    L("simcore.events", "count", events);
    L("simcore.events_per_quantum", "count",
      ratio(events, sumOf(p, [](const CellOut &c) { return c.quanta; })));
    L("simcore.host_ns_per_event", "ns", ratio(runMs * 1e6, events));
    if (w.name == "sharded-8c4ch")
        shardMetrics(p, warm, t);

    // memctrl and dram (simulated; summed over every cell).
    double measuredChTicks = 0.0, measuredCoreTicks = 0.0;
    for (const auto &c : p.cells) {
        const auto mt = static_cast<double>(c.m.measuredTicks);
        measuredChTicks += mt * c.channels;
        measuredCoreTicks += mt * c.numCores;
    }
    L("memctrl.reads", "count", S("mc.reads"));
    L("memctrl.writes", "count", S("mc.writes"));
    L("memctrl.row_hit_rate", "frac",
      ratio(S("mc.rowHits"), S("mc.rowHits") + S("mc.rowMisses")));
    L("memctrl.read_queue_wait_ns_mean", "sim_ns",
      ratio(S("mc.readQueueWaitSum"), S("mc.readQueueWaitCount")) / 1e3);
    L("memctrl.readq_occupancy_mean", "count",
      ratio(S("mc.readQOccIntegral"), measuredChTicks));
    double peak = 0.0;
    for (const auto &c : p.cells)
        peak = std::max(peak, c.get("mc.readQPeakDepth"));
    L("memctrl.readq_peak", "count", peak);
    L("memctrl.write_drain_batches", "count", S("mc.writeDrainBatches"));
    L("memctrl.blocked_reads", "count", S("mc.readsBlockedByRefresh"));
    L("memctrl.refresh_blocked_ns", "sim_ns", S("mc.refreshBlockedTicks") / 1e3);
    L("dram.refresh_commands", "count", S("mc.refreshCommands"));
    L("dram.refresh_noops", "count", S("mc.refreshNoops"));
    L("dram.refresh_pauses", "count", S("mc.refreshPauses"));

    // cpu and cache.
    L("cpu.instrs", "count", S("core.instrsIssued"));
    L("cpu.rob_stall_frac", "frac",
      ratio(S("core.robStallTicks"), measuredCoreTicks));
    L("cpu.mshr_stall_frac", "frac",
      ratio(S("core.mshrStallTicks"), measuredCoreTicks));
    L("cpu.mc_backpressure_events", "count", S("core.mcBackpressureEvents"));
    L("cpu.context_switches", "count", S("core.contextSwitches"));
    L("cache.accesses", "count", S("caches.accesses"));
    L("cache.l1_miss_rate", "frac",
      ratio(S("caches.l1Misses"), S("caches.accesses")));
    L("cache.l2_miss_rate", "frac",
      ratio(S("caches.l2Misses"), S("caches.l1Misses")));
    L("cache.dram_writebacks", "count", S("caches.dramWritebacks"));

    // os.
    double cdQuanta = 0.0, cdClean = 0.0;
    for (const auto &c : p.cells) {
        if (c.policy == Policy::CoDesign) {
            cdQuanta += c.get("sched.quantaScheduled");
            cdClean += c.get("sched.cleanPicks");
        }
    }
    L("os.sched.quanta", "count", S("sched.quantaScheduled"));
    L("os.sched.clean_pick_ratio", "frac", ratio(cdClean, cdQuanta));
    L("os.sched.best_effort_picks", "count", S("sched.bestEffortPicks"));
    L("os.sched.fallback_picks", "count", S("sched.fallbackPicks"));
    for (const auto &c : p.cells) {
        if (c.pickNs > 0.0) {
            L("os.pick_ns", "ns", c.pickNs);
            L("os.buddy.alloc_free_ns", "ns", c.allocFreeNs);
        }
    }
    L("os.buddy.fallback_allocs", "count", S("os.fallbackAllocs"));
    L("os.page_faults", "count", S("os.pageFaults"));
    if (w.name == "churn-migrate") {
        L("os.scenario.spawns", "count", S("scenario.spawns"));
        L("os.scenario.kills", "count", S("scenario.kills"));
        L("os.scenario.pages_migrated", "count", S("scenario.pagesMigrated"));
        L("os.scenario.migration_reads", "count",
          S("scenario.migrationReads"));
        L("os.scenario.migration_writes", "count",
          S("scenario.migrationWrites"));
    }

    // workload (serving).
    if (rep && allBank) {
        L("workload.serving.arrivals", "count", S("serving.arrivals"));
        L("workload.serving.completed", "count", S("serving.completed"));
        L("workload.serving.drops", "count", S("serving.drops"));
        L("workload.serving.retry_waits", "count", S("serving.retryWaits"));
        double backlog = 0.0;
        for (const auto &c : p.cells)
            backlog = std::max(backlog, c.get("serving.backlogPeak"));
        L("workload.serving.backlog_peak", "count", backlog);
        L("workload.serving.queue_delay_ns_p99", "sim_ns",
          rep->get("serving.queueDelay.p99") / 1e3);
        L("workload.serving.blocked_frac", "frac",
          ratio(rep->get("serving.blocked.count"),
                rep->get("serving.latency.count")));
        L("workload.serving.clean_p99_ns", "sim_ns",
          rep->get("serving.clean.p99") / 1e3);
        L("workload.serving.blocked_p99_ns", "sim_ns",
          rep->get("serving.blocked.p99") / 1e3);
        L("workload.serving.allbank_p99_ns", "sim_ns",
          allBank->get("serving.latency.p99") / 1e3);
    }

    // core: per-cell phases and the grid runner.
    std::vector<double> cellMs;
    std::map<int, Clock::time_point> lastEnd;
    for (const auto &c : p.cells) {
        cellMs.push_back(c.totalMs());
        lastEnd[c.tid] = std::max(lastEnd[c.tid], c.end);
    }
    Clock::time_point firstIdle = p.end;
    for (const auto &[tid, end] : lastEnd)
        firstIdle = std::min(firstIdle, end);
    L("core.setup_ms", "ms",
      sumOf(p, [](const CellOut &c) { return c.setupMs(); }) / n);
    L("core.warmup_ms", "ms",
      sumOf(p, [](const CellOut &c) { return c.warmupMs; }) / n);
    L("core.measure_ms", "ms",
      sumOf(p, [](const CellOut &c) { return c.measureMs; }) / n);
    L("core.runner.cells", "count", n);
    L("core.runner.cell_ms_p50", "ms", nearestRank(cellMs, 0.5));
    L("core.runner.cell_ms_p98", "ms", nearestRank(cellMs, 0.98));
    L("core.runner.utilization", "frac",
      ratio(sumOf(p, [](const CellOut &c) { return c.totalMs(); }),
            w.jobs * p.wallMs()));
    L("core.runner.tail_ms", "ms", msBetween(firstIdle, p.end));

    // obs: artifacts are written by churn-migrate and traced runs.
    const double telBytes =
        sumOf(p, [](const CellOut &c) { return c.telemetryBytes; });
    const double statsBytes =
        sumOf(p, [](const CellOut &c) { return c.statsJsonBytes; });
    const double statsMs =
        sumOf(p, [](const CellOut &c) { return c.statsJsonMs; });
    if (telBytes > 0.0) {
        L("obs.telemetry_write_ms", "ms",
          sumOf(p, [](const CellOut &c) { return c.telemetryMs; }));
    }
    if (statsBytes > 0.0) {
        L("obs.stats_json_ms", "ms", statsMs);
        L("obs.artifact_bytes", "count", telBytes + statsBytes);
    }
}

void
writeResults(const Options &o, const Workload &w, const PassOut &warm,
             const std::vector<PassOut> &passes, const Verdict &v,
             const MetricTable &t, const std::map<std::string, double> &self,
             const std::string &traceFile)
{
    std::filesystem::create_directories(
        std::filesystem::path(o.out).parent_path());
    std::ofstream os(o.out);
    if (!os)
        fatal("cannot write ", o.out);
    const CellSpec &cell = w.cells.front();
    os << "{\n  \"workload\": \"" << w.name << "\",\n"
       << "  \"loop\": \"" << w.loop << "\",\n"
       << "  \"seed\": " << o.seed << ",\n"
       << "  \"trace\": " << (o.trace ? 1 : 0) << ",\n"
       << "  \"smoke\": " << (o.smoke ? "true" : "false") << ",\n"
       << "  \"seconds\": " << o.seconds << ",\n"
       << "  \"scale\": " << w.scale << ",\n"
       << "  \"warmup_quanta\": " << cell.warmupQuanta << ",\n"
       << "  \"measure_quanta\": " << cell.measureQuanta << ",\n"
       << "  \"jobs\": " << w.jobs << ",\n"
       << "  \"threads\": " << w.threads << ",\n"
       << "  \"cells_per_pass\": " << w.cells.size() << ",\n"
       << "  \"passes\": " << passes.size() << ",\n"
       << "  \"warmup_pass_s\": " << warm.wallMs() / 1e3 << ",\n"
       << "  \"fingerprint\": \"" << hex(passHash(passes.front()))
       << "\",\n"
       << "  \"ops\": " << static_cast<long long>(v.ops) << ",\n"
       << "  \"ops_failed\": " << static_cast<long long>(v.opsFailed)
       << ",\n"
       << "  \"correct\": " << (v.allOk() ? "true" : "false") << ",\n"
       << "  \"checks\": [";
    for (std::size_t i = 0; i < v.checks.size(); ++i) {
        const Check &c = v.checks[i];
        os << (i ? "," : "") << "\n    {\"name\": \"" << c.name
           << "\", \"ok\": " << (c.ok ? "true" : "false")
           << ", \"detail\": \"" << obs::jsonEscape(c.detail) << "\"}";
    }
    os << "\n  ],\n  \"trace_file\": \"" << traceFile << "\",\n"
       << "  \"span_self_ms_per_pass\": {";
    bool first = true;
    for (const auto &[name, ms] : self) {
        os << (first ? "" : ", ") << "\"" << obs::jsonEscape(name)
           << "\": " << ms / static_cast<double>(passes.size());
        first = false;
    }
    os << "},\n  \"metrics\": ";
    t.writeJson(os);
    os << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    std::filesystem::create_directories(o.artifactDir);
    WorkloadParams wp;
    wp.seed = o.seed;
    wp.smoke = o.smoke;
    wp.trace = o.trace;
    wp.artifactDir = o.artifactDir;
    const Workload w = makeWorkload(o.workload, wp);
    const auto epoch = Clock::now();

    // The untimed warm-up pass: faults in the binary and allocator
    // arenas, and (for sharded-8c4ch) is the sequential twin.
    const PassOut warm = runPass(w.warmupCells, w.jobs);
    std::cerr << w.name << " warm-up: " << warm.wallMs() / 1e3 << " s\n";

    // Set-up time gets passes of its own (constructors only), a few
    // after every timed pass: enough samples for a steady median even
    // where a pass has one cell, spread over the whole run.
    MetricTable table;
    std::vector<PassOut> passes;
    const int minPasses = o.smoke ? 1 : 3;
    const auto t0 = Clock::now();
    while (static_cast<int>(passes.size()) < minPasses
           || (!o.smoke && msBetween(t0, Clock::now()) < o.seconds * 1e3)) {
        passes.push_back(runPass(w.cells, w.jobs));
        std::cerr << w.name << " pass " << passes.size() << ": "
                  << passes.back().wallMs() / 1e3 << " s\n";
        for (int i = 0; i < kSetupPassesPerPass; ++i) {
            const PassOut s = runPass(w.cells, w.jobs, true);
            table.add("setup_s", "s", "e2e",
                      sumOf(s, [](const CellOut &c) { return c.setupMs(); })
                          / 1e3);
        }
    }

    for (const auto &p : passes)
        passMetrics(w, p, warm, table);
    table.add("peak_rss_mb", "MB", "e2e", peakRssMb());

    const Verdict v = runChecks(w.name, warm, passes);
    for (const auto &c : v.checks) {
        if (!c.ok)
            std::cerr << w.name << " CHECK FAILED " << c.name << ": "
                      << c.detail << "\n";
    }

    std::string traceFile;
    std::map<std::string, double> self;
    if (o.trace) {
        std::vector<Span> spans;
        for (const auto &p : passes) {
            spans.push_back({"pass", p.start, p.end, threadIndex(),
                             p.spanId, 0, w.name});
            for (const auto &c : p.cells)
                spans.insert(spans.end(), c.spans.begin(), c.spans.end());
        }
        traceFile = o.artifactDir + "/" + w.name + ".trace.json";
        writeChromeTrace(traceFile, spans, epoch);
        self = selfTimeMs(spans);
    }
    writeResults(o, w, warm, passes, v, table, self, traceFile);
    return v.allOk() ? 0 : 1;
}
