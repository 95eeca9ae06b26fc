#include "workloads.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "simcore/logging.hh"
#include "simcore/rng.hh"
#include "workload/profile.hh"
#include "workload/scenario.hh"
#include "workload/serving.hh"

namespace refsched::rsbench
{

namespace
{

using core::Policy;

/** Post-run calls per timed loop: enough for a ms-scale total. */
constexpr int kPostRunCalls = 20000;

/** The fingerprint input of one cell: everything simulated, nothing
 *  host-dependent (writeStatsJson's selfProfile is left out). */
std::uint64_t
fingerprint(const core::Metrics &m, const StatRegistry &reg)
{
    std::ostringstream os;
    m.toJson(os);
    reg.dumpJson(os);
    return fnv1a(os.str());
}

void
collectStats(core::System &sys, const core::Metrics &m, CellOut &out)
{
    const StatRegistry &reg = sys.stats();
    auto &st = out.stat;
    const auto sum = [&](const std::string &key, const std::string &name) {
        st[key] += scalarStat(reg, name);
    };
    const auto peak = [&](const std::string &key, double v) {
        st[key] = std::max(st[key], v);
    };

    for (int ch = 0; ch < out.channels; ++ch) {
        const std::string p = "mc.ch" + std::to_string(ch) + ".";
        for (const char *n :
             {"reads", "writes", "rowHits", "rowMisses",
              "refreshCommands", "refreshNoops", "refreshPauses",
              "readsBlockedByRefresh", "refreshBlockedTicks",
              "writeDrainBatches", "readQOccIntegral"})
            sum(std::string("mc.") + n, p + n);
        peak("mc.readQPeakDepth", scalarStat(reg, p + "readQPeakDepth"));
        if (const auto *a = averageStat(reg, p + "readLatency")) {
            st["mc.readLatencySum"] += a->total();
            st["mc.readLatencyCount"] += static_cast<double>(a->samples());
        }
        if (const auto *a = averageStat(reg, p + "readQueueWait")) {
            st["mc.readQueueWaitSum"] += a->total();
            st["mc.readQueueWaitCount"] +=
                static_cast<double>(a->samples());
        }
    }
    for (int c = 0; c < out.numCores; ++c) {
        const std::string p = "core" + std::to_string(c) + ".";
        for (const char *n :
             {"instrsIssued", "robStallTicks", "mshrStallTicks",
              "mcBackpressureEvents", "contextSwitches"})
            sum(std::string("core.") + n, p + n);
    }
    for (const char *n :
         {"caches.accesses", "caches.l1Misses", "caches.l2Misses",
          "caches.dramWritebacks", "sched.quantaScheduled",
          "sched.cleanPicks", "sched.bestEffortPicks",
          "sched.fallbackPicks", "scenario.spawns", "scenario.kills",
          "scenario.pagesMigrated", "scenario.migrationReads",
          "scenario.migrationWrites", "serving.arrivals",
          "serving.completed", "serving.drops", "serving.retryWaits",
          "serving.backlogPeak"})
        sum(n, n);

    const auto hist = [&](const std::string &key, const char *name) {
        if (const auto *h = histogramStat(reg, name)) {
            st[key + ".count"] = static_cast<double>(h->samples());
            st[key + ".p50"] = h->quantile(0.5);
            st[key + ".p99"] = h->quantile(0.99);
        }
    };
    hist("serving.latency", "serving.reqLatency");
    hist("serving.clean", "serving.reqLatencyClean");
    hist("serving.blocked", "serving.reqLatencyBlocked");
    hist("serving.queueDelay", "serving.queueDelay");

    for (const auto &t : m.tasks) {
        st["os.pageFaults"] += static_cast<double>(t.pageFaults);
        st["os.fallbackAllocs"] += static_cast<double>(t.fallbackAllocs);
    }
}

/** Time Algorithm 3 picks and allocator round trips on the live
 *  system (after the fingerprint, so they cannot perturb it). */
void
timePostRunCalls(core::System &sys, CellOut &out, int parent)
{
    const auto p0 = Clock::now();
    std::vector<int> banks;
    for (int ch = 0; ch < out.channels; ++ch) {
        const auto b = sys.controller().refreshScheduler()
                           .banksUnderRefreshAt(ch, sys.eventQueue().now());
        banks.insert(banks.end(), b.begin(), b.end());
    }
    for (int i = 0; i < kPostRunCalls; ++i)
        sys.scheduler().pickNextTask(i % out.numCores, banks);
    const auto p1 = Clock::now();

    os::Task *task = sys.scenarioDirector()
        ? sys.scenarioDirector()->liveTasks().front()
        : sys.tasks().front();
    const auto &mapping = sys.controller().mapping();
    for (int i = 0; i < kPostRunCalls; ++i) {
        const auto pfn = sys.buddy().allocPage(*task);
        if (!pfn)
            fatal("post-run allocPage failed for pid ", task->pid());
        sys.buddy().freePage(*pfn, task->pid());
        task->removeResidentPage(mapping.bankOfFrame(*pfn));
    }
    const auto p2 = Clock::now();

    out.pickNs = msBetween(p0, p1) * 1e6 / kPostRunCalls;
    out.allocFreeNs = msBetween(p1, p2) * 1e6 / kPostRunCalls;
    out.spans.push_back(
        {"os.pick", p0, p1, out.tid, nextSpanId(), parent, ""});
    out.spans.push_back(
        {"os.buddy.alloc_free", p1, p2, out.tid, nextSpanId(), parent, ""});
}

CellOut
runCell(const CellSpec &spec, bool setupOnly, int passSpan)
{
    CellOut out;
    out.policy = spec.cfg.policy;
    out.density = spec.cfg.density;
    out.workload = spec.label.substr(0, spec.label.find('/'));
    out.numCores = spec.cfg.numCores;
    out.channels = spec.cfg.channels;
    if (spec.cfg.serving.enabled) {
        out.servingLoad = spec.cfg.serving.loadReqPerUs;
        out.servingSlots =
            spec.cfg.serving.poolSize + spec.cfg.serving.queueCapacity;
    }
    out.tid = threadIndex();
    const int cellSpan = nextSpanId();

    out.start = Clock::now();
    core::System sys(spec.cfg);
    out.built = Clock::now();
    if (setupOnly) {
        out.ran = out.end = out.built;
        return out;
    }
    if (spec.profileKernel && sys.shardKernel())
        sys.shardKernel()->enableProfile();
    out.m = sys.run(spec.warmupQuanta, spec.measureQuanta);
    out.ran = Clock::now();

    out.hash = fingerprint(out.m, sys.stats());
    const auto &prof = sys.profile();
    out.warmupMs = prof.warmupMs;
    out.measureMs = prof.measureMs;
    out.events =
        static_cast<double>(prof.warmupEvents + prof.measureEvents);
    out.quanta = spec.warmupQuanta + spec.measureQuanta;
    out.simTicks =
        out.quanta * static_cast<double>(spec.cfg.effectiveQuantum());
    if (sys.shardKernel() && sys.shardKernel()->profileEnabled())
        out.kernel = sys.shardKernel()->profileData();
    collectStats(sys, out.m, out);

    if (!spec.artifactPrefix.empty()) {
        const auto a0 = Clock::now();
        if (sys.telemetry()) {
            const std::string path =
                spec.artifactPrefix + ".telemetry.jsonl";
            sys.telemetry()->writeFile(path);
            out.telemetryBytes =
                static_cast<double>(std::filesystem::file_size(path));
        }
        const auto a1 = Clock::now();
        const std::string path = spec.artifactPrefix + ".stats.json";
        {
            std::ofstream f(path);
            if (!f)
                fatal("cannot write ", path);
            sys.writeStatsJson(f, out.m);
        }
        out.statsJsonBytes =
            static_cast<double>(std::filesystem::file_size(path));
        const auto a2 = Clock::now();
        out.telemetryMs = msBetween(a0, a1);
        out.statsJsonMs = msBetween(a1, a2);
        out.spans.push_back(
            {"obs.artifacts", a0, a2, out.tid, nextSpanId(), cellSpan, ""});
    }
    if (spec.postRunCalls)
        timePostRunCalls(sys, out, cellSpan);
    out.end = Clock::now();

    out.spans.push_back({"cell", out.start, out.end, out.tid, cellSpan,
                         passSpan, spec.label});
    out.spans.push_back({"core.construct", out.start, out.built, out.tid,
                         nextSpanId(), cellSpan, ""});
    out.spans.push_back({"core.run", out.built, out.ran, out.tid,
                         nextSpanId(), cellSpan, ""});
    return out;
}

// --- Workload definitions ------------------------------------------

constexpr const char *kServingSpec =
    "arrival=mmpp,pool=8,queue=32,lines=4,load=";

core::SystemConfig
config(const std::string &wl, Policy policy, dram::DensityGb d,
       int cores, int channels, unsigned scale, std::uint64_t seed)
{
    auto cfg = core::makeConfig(wl, policy, d, milliseconds(64.0), cores,
                                4, scale);
    cfg.channels = channels;
    cfg.seed = seed;
    return cfg;
}

std::string
label(const std::string &wl, Policy p, const std::string &rest)
{
    return wl + "/" + core::toString(p) + "/" + rest;
}

Workload
paperGrid(const WorkloadParams &p)
{
    Workload w{"paper-grid", "closed", p.smoke ? 512u : 128u, 4, 4, {}, {}};
    for (const auto d : {dram::DensityGb::d16, dram::DensityGb::d24,
                         dram::DensityGb::d32}) {
        for (const auto &spec : workload::table2Workloads()) {
            for (const auto pol :
                 {Policy::AllBank, Policy::PerBank, Policy::CoDesign}) {
                CellSpec c;
                c.label = label(spec.name, pol, dram::toString(d));
                c.cfg = config(spec.name, pol, d, 2, 1, w.scale, p.seed);
                c.postRunCalls = p.trace && spec.name == "WL-10"
                    && pol == Policy::CoDesign
                    && d == dram::DensityGb::d32;
                w.cells.push_back(std::move(c));
            }
        }
    }
    w.warmupCells = w.cells;
    return w;
}

Workload
sharded(const WorkloadParams &p)
{
    Workload w{"sharded-8c4ch", "closed", p.smoke ? 128u : 32u, 1, 3, {}, {}};
    CellSpec c;
    c.label = label("WL-10", Policy::CoDesign, "32Gb/8c4ch/shards2");
    c.cfg = config("WL-10", Policy::CoDesign, dram::DensityGb::d32, 8, 4,
                   w.scale, p.seed);
    c.cfg.shards = 2;
    c.profileKernel = p.trace;
    c.postRunCalls = p.trace;
    w.cells.push_back(c);

    c.label = label("WL-10", Policy::CoDesign, "32Gb/8c4ch/shards1");
    c.cfg.shards = 1;
    c.postRunCalls = false;
    w.warmupCells.push_back(c);
    return w;
}

Workload
serving(const WorkloadParams &p)
{
    Workload w{"serving-mmpp", "open", p.smoke ? 128u : 32u, 1, 1, {}, {}};
    for (const auto pol : {Policy::CoDesign, Policy::AllBank}) {
        for (const char *load : {"0.8", "3.2"}) {
            CellSpec c;
            c.label = label("WL-5", pol, std::string("32Gb/") + load
                                             + "req_per_us");
            c.cfg = config("WL-5", pol, dram::DensityGb::d32, 2, 2,
                           w.scale, p.seed);
            c.cfg.serving =
                workload::ServingConfig::parse(kServingSpec
                                               + std::string(load));
            c.postRunCalls = p.trace && pol == Policy::CoDesign
                && std::string(load) == "3.2";
            w.cells.push_back(std::move(c));
        }
    }
    w.warmupCells = w.cells;
    return w;
}

Workload
churn(const WorkloadParams &p)
{
    Workload w{"churn-migrate", "closed", p.smoke ? 32u : 8u, 1, 1, {}, {}};
    CellSpec c;
    c.label = label("WL-10", Policy::CoDesign, "32Gb/churn");
    c.cfg = config("WL-10", Policy::CoDesign, dram::DensityGb::d32, 2, 1,
                   w.scale, p.seed);
    c.cfg.scenario = workload::ScenarioScript::parse(
        churnScript(p.seed, c.cfg.benchmarks,
                    c.warmupQuanta + c.measureQuanta));
    c.cfg.telemetry.enabled = true;
    c.postRunCalls = p.trace;
    w.cells.push_back(c);
    w.warmupCells = w.cells;
    return w;
}

} // namespace

PassOut
runPass(const std::vector<CellSpec> &specs, int jobs, bool setupOnly)
{
    bench::BenchOptions opts;
    opts.jobs = jobs;
    bench::GridRunner grid(opts);
    PassOut pass;
    pass.spanId = nextSpanId();
    pass.cells.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        grid.add([&, i] {
            pass.cells[i] = runCell(specs[i], setupOnly, pass.spanId);
            return pass.cells[i].m;
        });
    }
    pass.start = Clock::now();
    grid.run();
    pass.end = Clock::now();
    return pass;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "paper-grid", "sharded-8c4ch", "serving-mmpp", "churn-migrate"};
    return names;
}

Workload
makeWorkload(const std::string &name, const WorkloadParams &p)
{
    Workload w;
    if (name == "paper-grid")
        w = paperGrid(p);
    else if (name == "sharded-8c4ch")
        w = sharded(p);
    else if (name == "serving-mmpp")
        w = serving(p);
    else if (name == "churn-migrate")
        w = churn(p);
    else
        fatal("unknown workload '", name, "'");

    // Every cell of a traced run, and every churn-migrate cell,
    // writes its artifacts; cells share a prefix per cell index.
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (p.trace || name == "churn-migrate")
            w.cells[i].artifactPrefix = p.artifactDir + "/" + name
                + ".cell" + std::to_string(i);
    }
    return w;
}

std::string
churnScript(std::uint64_t seed, const std::vector<std::string> &initial,
            int totalQuanta)
{
    // Every 4 quanta the oldest tenant departs and a new one of the
    // same benchmark arrives, its footprint scaled by a seed-drawn
    // factor in [0.9, 1.1]; once, between two churn points, an
    // adversarial stream tenant arrives and hotspots the banks about
    // to be refreshed.  Departing the oldest shifts every survivor's
    // partition group, so each churn point strands pages and the
    // migration volume is comparable across seeds.  Spawned pids
    // follow the director's rule (sequential from initial.size() + 1).
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x636875726EULL);
    std::vector<std::pair<Pid, std::string>> live;
    for (std::size_t i = 0; i < initial.size(); ++i)
        live.emplace_back(static_cast<Pid>(i + 1), initial[i]);
    Pid nextPid = static_cast<Pid>(initial.size() + 1);
    const int churnPoints = (totalQuanta - 1) / 4;
    const int advAt = 4 * (1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(
                                   std::max(churnPoints - 1, 1)))))
        + 2;

    std::ostringstream os;
    os << "migrate=1\nreassign=1\n";
    for (int q = 1; q < totalQuanta; ++q) {
        if (q % 4 == 0) {
            const auto [pid, bench] = live.front();
            os << "ev=" << q << ":kill:" << pid << "\n"
               << "ev=" << q << ":spawn:" << bench
               << ":fp=" << 0.9 + 0.05 * static_cast<double>(rng.below(5))
               << "\n";
            live.erase(live.begin());
            live.emplace_back(nextPid++, bench);
        }
        if (q == advAt) {
            os << "ev=" << q << ":spawn:stream:fp=0.5:adv=1\n";
            ++nextPid;  // never a kill victim
        }
    }
    return os.str();
}

} // namespace refsched::rsbench
