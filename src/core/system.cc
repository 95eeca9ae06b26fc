#include "core/system.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "simcore/logging.hh"
#include "validate/checker.hh"
#include "validate/os_auditor.hh"
#include "validate/refresh_window_monitor.hh"
#include "validate/scenario_auditor.hh"
#include "validate/timing_auditor.hh"
#include "workload/hotspot_source.hh"
#include "workload/profile.hh"

namespace refsched::core
{

namespace
{

using ProfileClock = std::chrono::steady_clock;

/**
 * Window length E of the sharded kernel.  Read completions cross
 * back exactly when E <= tCL + tBURST; 15 ns sits under that bound
 * for DDR3-1600 (~18.75 ns).  Each request to a channel waits for
 * the next boundary, about E/2 on average.
 */
constexpr Tick kShardEpoch = 15000;

double
msSince(ProfileClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               ProfileClock::now() - start)
        .count();
}

/** The SyntheticTraceGenerator behind a task's source (direct, or
 *  wrapped by the adversarial hotspot source). */
const workload::SyntheticTraceGenerator &
generatorOf(const os::Task &t)
{
    if (const auto *adv =
            dynamic_cast<const workload::AdversarialHotspotSource *>(
                t.source))
        return adv->generator();
    return *static_cast<const workload::SyntheticTraceGenerator *>(
        t.source);
}

/** A telemetry scope: the series-name head, the StatRegistry head
 *  its delta rows read under, and whether both carry the channel or
 *  core index ("ch0.reads" differences "mc.ch0.reads"). */
struct SeriesScope
{
    const char *head;
    const char *statHead;
    bool indexed;
};

constexpr SeriesScope kSched{"sched", "sched", false};
constexpr SeriesScope kServing{"serving", "serving", false};
constexpr SeriesScope kChannel{"ch", "mc.ch", true};
constexpr SeriesScope kCore{"core", "core", true};

/** One telemetry series.  A delta row names the Scalar it
 *  differences; a gauge row has no stat and reads instantaneous
 *  state (c = channel or core index, 0 otherwise). */
struct SeriesRow
{
    const SeriesScope *scope;
    const char *name;
    const char *stat;
    std::int64_t (*read)(System &, int c);
};

template <typename T>
constexpr std::int64_t
i64(T v)
{
    return static_cast<std::int64_t>(v);
}

/**
 * The series catalogue, in emission order within each scope: the one
 * list of telemetry series names.  Every series is an integer (byte-
 * stable formatting): the occupancy integrals are sums of depth x dt
 * products, so llround is lossless, and IPC is left to the reader.
 */
constexpr SeriesRow kSeriesCatalogue[] = {
    {&kSched, "quanta", "quantaScheduled", nullptr},
    {&kSched, "cleanPicks", "cleanPicks", nullptr},
    {&kServing, "backlog", nullptr,
     [](System &s, int) { return i64(s.servingInjector()->backlogDepth()); }},
    {&kServing, "arrivals", "arrivals", nullptr},
    {&kServing, "drops", "drops", nullptr},
    {&kServing, "completed", "completed", nullptr},
    {&kChannel, "readQ", nullptr,
     [](System &s, int c) { return i64(s.controller().readQueueSize(c)); }},
    {&kChannel, "writeQ", nullptr,
     [](System &s, int c) { return i64(s.controller().writeQueueSize(c)); }},
    {&kChannel, "blockedReads", nullptr,
     [](System &s, int c) { return i64(s.controller().blockedReadsNow(c)); }},
    {&kChannel, "refreshBacklog", nullptr,
     [](System &s, int c) { return i64(s.controller().refreshBacklog(c)); }},
    {&kChannel, "refreshEngaged", nullptr,
     [](System &s, int c) {
         return i64(s.controller().refreshEngagedNow(c));
     }},
    {&kChannel, "reads", "reads", nullptr},
    {&kChannel, "writes", "writes", nullptr},
    {&kChannel, "rowHits", "rowHits", nullptr},
    {&kChannel, "rowMisses", "rowMisses", nullptr},
    {&kChannel, "refreshCommands", "refreshCommands", nullptr},
    {&kChannel, "blockedReadsTotal", "readsBlockedByRefresh", nullptr},
    {&kChannel, "readQOccInt", nullptr,
     [](System &s, int c) {
         return i64(std::llround(
             s.controller().readQueueOccupancyIntegral(c)));
     }},
    {&kChannel, "writeQOccInt", nullptr,
     [](System &s, int c) {
         return i64(std::llround(
             s.controller().writeQueueOccupancyIntegral(c)));
     }},
    {&kCore, "instrs", "instrsIssued", nullptr},
    {&kCore, "dramReads", "dramReads", nullptr},
    {&kCore, "robStallTicks", "robStallTicks", nullptr},
    {&kCore, "runq", nullptr,
     [](System &s, int c) { return i64(s.scheduler().runQueue(c).size()); }},
};

} // namespace

System::System(const SystemConfig &cfg)
    : cfg_(cfg), dev_(cfg.deviceConfig())
{
    const auto t0 = ProfileClock::now();
    cfg_.check();

    // Default workload when none given: mcf on every task.
    if (cfg_.benchmarks.empty())
        cfg_.benchmarks.assign(
            static_cast<std::size_t>(cfg_.totalTasks()), "mcf");

    auto refresh =
        dram::makeRefreshScheduler(cfg_.refreshPolicy(), dev_);
    mc_ = std::make_unique<memctrl::MemoryController>(
        eq_, dev_, std::move(refresh), cfg_.mcParams);
    mc_->registerStats(registry_, "mc");

    // Sharded kernel: one controller lane per channel plus the
    // cross-shard router; cores then talk to the router, not the
    // controller.
    if (cfg_.shards > 0) {
        shardKernel_ = std::make_unique<ShardKernel>(
            eq_, cfg_.channels, kShardEpoch);
        shardRouter_ = std::make_unique<memctrl::ShardRouter>(
            *shardKernel_, *mc_);
    }
    memPort_ = shardRouter_
        ? static_cast<memctrl::MemoryPort *>(shardRouter_.get())
        : static_cast<memctrl::MemoryPort *>(mc_.get());
    memctrl::MemoryPort &memPort = *memPort_;

    buddy_ = std::make_unique<os::BuddyAllocator>(mc_->mapping());
    vm_ = std::make_unique<os::VirtualMemory>(mc_->mapping(), *buddy_);
    caches_ = std::make_unique<cache::CacheHierarchy>(
        cfg_.numCores, cfg_.cacheParams,
        mc_->mapping().totalFrames() * mc_->mapping().pageBytes());
    caches_->registerStats(registry_, "caches");

    for (int i = 0; i < cfg_.numCores; ++i) {
        cores_.push_back(std::make_unique<cpu::Core>(
            eq_, i, cfg_.coreParams, *caches_, memPort, *vm_));
        cores_.back()->registerStats(registry_,
                                     "core" + std::to_string(i));
    }

    os::SchedulerParams sp;
    sp.quantum = cfg_.effectiveQuantum();
    sp.refreshAware = cfg_.refreshAwareScheduling;
    sp.etaThresh = cfg_.etaThresh;
    sp.bestEffort = cfg_.bestEffort;
    sched_ = std::make_unique<os::Scheduler>(eq_, sp);

    std::vector<os::CpuContext *> cpuPtrs;
    for (auto &c : cores_)
        cpuPtrs.push_back(c.get());
    sched_->attachCpus(std::move(cpuPtrs));
    sched_->registerStats(registry_, "sched");

    // The co-design's hardware/software contract: the MC exposes
    // which bank each channel refreshes during a quantum.  Built
    // unconditionally (it returns empty under non-analytic policies)
    // because the adversarial scenario generator consumes it even
    // when refresh-aware scheduling is off.
    {
        auto &rs = mc_->refreshScheduler();
        const int channels = cfg_.channels;
        refreshQuery_ = [&rs, channels](Tick from) {
            std::vector<int> banks;
            for (int ch = 0; ch < channels; ++ch) {
                const auto chBanks = rs.banksUnderRefreshAt(ch, from);
                banks.insert(banks.end(), chBanks.begin(),
                             chBanks.end());
            }
            return banks;
        };
    }
    if (cfg_.refreshAwareScheduling)
        sched_->setRefreshQuery(refreshQuery_);

    // Install the invariant checkers BEFORE the tasks build so the
    // OS auditor observes the pre-touch page allocations too.
    if (cfg_.validate) {
        if (!validate::kValidateCompiledIn) {
            warn("cfg.validate requested but the build has "
                 "REFSCHED_VALIDATE=0; checkers are inert");
        } else {
            enableProbeHub();
            probeHub_->add(
                std::make_unique<validate::TimingAuditor>(dev_));
            probeHub_->add(
                std::make_unique<validate::RefreshWindowMonitor>(
                    dev_, cfg_.refreshPolicy(),
                    cfg_.mcParams.maxPostponedRefreshes,
                    cfg_.mcParams.refreshPausing));
            probeHub_->add(std::make_unique<validate::OsAuditor>(
                mc_->mapping(), buddy_.get(),
                cfg_.refreshAwareScheduling, cfg_.etaThresh,
                cfg_.bestEffort));
            probeHub_->add(
                std::make_unique<validate::ScenarioAuditor>(
                    mc_->mapping()));
        }
    }

    buildTasks();
    assignBankMasks();
    // Touch every task page at setup (the paper's tasks have
    // allocated their footprint before the region of interest).
    preTouchFootprints();

    if (!cfg_.scenario.empty()) {
        os::ScenarioDirector::Hooks hooks;
        hooks.spawnTask = [this](const workload::ScenarioEvent &ev,
                                 Pid pid) {
            return spawnScenarioTask(ev, pid);
        };
        hooks.reassignMasks =
            [this](const std::vector<os::Task *> &live) {
                assignBankMasks(live);
            };
        hooks.phaseState = [](const os::Task &t) {
            const auto &gen = generatorOf(t);
            return std::make_pair(gen.phaseEpoch(),
                                  gen.footprintBytes());
        };
        director_ = std::make_unique<os::ScenarioDirector>(
            eq_, *sched_, *vm_, *buddy_, *memPort_, mc_->mapping(),
            cfg_.scenario, std::move(hooks));
        director_->registerStats(registry_, "scenario");
        director_->setProbe(probeHub_.get());
    }

    // Open-loop serving: the injector lives on the main lane (like
    // the scenario director); its coreId = -1 reads stage through
    // the router onto their owning channel lane at epoch boundaries
    // in sharded mode, so enabling it never perturbs the
    // {jobs}x{shards} identity matrix.
    if (cfg_.serving.enabled) {
        workload::ServingInjector::Hooks hooks;
        if (director_) {
            hooks.liveTasks =
                [this]() -> const std::vector<os::Task *> & {
                return director_->liveTasks();
            };
        } else {
            for (auto &t : tasks_)
                servingTasks_.push_back(t.get());
            hooks.liveTasks =
                [this]() -> const std::vector<os::Task *> & {
                return servingTasks_;
            };
        }
        hooks.footprintBytes = [](const os::Task &t) {
            return generatorOf(t).footprintBytes();
        };
        hooks.translate = [this](os::Task &t, Addr vaddr) {
            return vm_->translate(t, vaddr);
        };
        servingInjector_ = std::make_unique<workload::ServingInjector>(
            cfg_.serving, eq_, *memPort_, std::move(hooks),
            cfg_.seed);
        servingInjector_->registerStats(registry_, "serving");
    }

    // Sampled telemetry: constructed and hooked AFTER every other
    // component so that in sharded mode its boundary hook is the
    // LAST phase-C hook -- the router has drained its mailboxes and
    // the window is sealed when the samplers read the component
    // counters.  The kernel self-profiler rides along: it is opt-in
    // for the same runs.
    if (cfg_.telemetry.enabled) {
        telemetry_ =
            std::make_unique<obs::TelemetryRecorder>(cfg_.telemetry);
        wireTelemetry();
        if (shardKernel_) {
            shardKernel_->setBoundaryHook(
                [this](Tick b) { telemetry_->onBoundary(b); });
            shardKernel_->enableProfile();
        } else {
            telemetry_->armPeriodic(eq_);
        }
    }
    profile_.constructMs = msSince(t0);
}

System::~System() = default;

void
System::enableProbeHub()
{
    if (probeHub_)
        return;
    probeHub_ = std::make_unique<validate::CheckerSet>();
    mc_->setProbe(probeHub_.get());
    sched_->setProbe(probeHub_.get());
    buddy_->setProbe(probeHub_.get(), &eq_);
    if (director_)
        director_->setProbe(probeHub_.get());
}

void
System::attachProbe(validate::Probe *probe)
{
    enableProbeHub();
    probeHub_->attachExternal(probe);
}

std::vector<os::Task *>
System::tasks()
{
    std::vector<os::Task *> out;
    for (auto &t : tasks_)
        out.push_back(t.get());
    return out;
}

void
System::buildTasks()
{
    const int totalBanks = cfg_.totalBanks();
    const auto pageBytes = mc_->mapping().pageBytes();

    // Per-task macro-phase schedules from the scenario script.
    std::vector<workload::PhaseSchedule> phases(
        static_cast<std::size_t>(cfg_.totalTasks()));
    for (const auto &[idx, sched] : cfg_.scenario.initialPhases) {
        if (idx < cfg_.totalTasks())
            phases[static_cast<std::size_t>(idx)] = sched;
        else
            warn("scenario phase= names task ", idx, " but only ",
                 cfg_.totalTasks(), " task(s) exist; ignored");
    }

    // Capacity guard: scaled footprints must fit physical memory
    // (the paper's region-of-interest working sets fit its DIMM; at
    // low densities we shrink proportionally, mirroring how a real
    // run would be memory-capacity limited).  Phase schedules can
    // grow a footprint mid-run, so reserve each task's peak.
    std::uint64_t wanted = 0;
    std::vector<std::uint64_t> footprints;
    for (std::size_t i = 0; i < cfg_.benchmarks.size(); ++i) {
        const auto &prof =
            workload::profileByName(cfg_.benchmarks[i]);
        std::uint64_t fp = std::max<std::uint64_t>(
            prof.footprintBytes / cfg_.timeScale, prof.hotsetBytes);
        fp = divCeil(fp, pageBytes) * pageBytes;
        footprints.push_back(fp);
        const double peak =
            i < phases.size() ? phases[i].maxFootprintScale() : 1.0;
        wanted += static_cast<std::uint64_t>(
            static_cast<double>(fp) * std::max(peak, 1.0));
    }
    const std::uint64_t budget = footprintBudgetBytes();
    if (wanted > budget) {
        const double scale = static_cast<double>(budget)
            / static_cast<double>(wanted);
        warn("footprints exceed physical memory; scaling by ", scale);
        for (auto &fp : footprints) {
            fp = static_cast<std::uint64_t>(
                static_cast<double>(fp) * scale);
            fp = std::max<std::uint64_t>(fp / pageBytes, 1) * pageBytes;
        }
    }

    for (int i = 0; i < cfg_.totalTasks(); ++i) {
        const auto &name =
            cfg_.benchmarks[static_cast<std::size_t>(i)];
        // The time-scaled simulation shrinks the instructions
        // executed per quantum by timeScale, so cache-residency is
        // only preserved if the hot working set shrinks by the same
        // factor (keeping instructions-per-quantum : hot-set-size
        // constant).  Footprints were scaled above for the same
        // reason.
        workload::BenchmarkProfile prof = workload::profileByName(name);
        prof.hotsetBytes = std::max<std::uint64_t>(
            prof.hotsetBytes / cfg_.timeScale, 4 * kKiB);
        prof.phases = phases[static_cast<std::size_t>(i)];
        auto task = std::make_unique<os::Task>(
            static_cast<Pid>(i + 1), name, totalBanks);
        auto src = std::make_unique<workload::SyntheticTraceGenerator>(
            prof, cfg_.seed * 1000003ULL + static_cast<std::uint64_t>(i),
            footprints[static_cast<std::size_t>(i)]);
        task->source = src.get();
        // Interleave tasks across cores so mixed workloads land
        // evenly (task i runs on core i % numCores and belongs to
        // per-core partition group i / numCores).
        sched_->addTask(task.get(), i % cfg_.numCores);
        REFSCHED_PROBE(probeHub_.get(),
                       onTaskSpawn({eq_.now(), task->pid(), true,
                                    i % cfg_.numCores}));
        sources_.push_back(std::move(src));
        tasks_.push_back(std::move(task));
    }
}

std::uint64_t
System::footprintBudgetBytes() const
{
    return mc_->mapping().totalFrames() * mc_->mapping().pageBytes()
        * 9 / 10;
}

void
System::assignBankMasks()
{
    std::vector<os::Task *> all;
    for (auto &t : tasks_)
        all.push_back(t.get());
    assignBankMasks(all);
}

void
System::assignBankMasks(const std::vector<os::Task *> &live)
{
    if (cfg_.partitioning == Partitioning::None)
        return;  // bank-oblivious: all banks allowed (default)

    const int bpr = cfg_.banksPerRank;
    const int allowedPerRank = cfg_.effectiveBanksPerTask();
    const int excluded = bpr - allowedPerRank;

    for (int i = 0; i < static_cast<int>(live.size()); ++i) {
        os::Task &t = *live[static_cast<std::size_t>(i)];
        const int group = i / cfg_.numCores;  // slot within its core

        std::vector<bool> allowedInRank(
            static_cast<std::size_t>(bpr), true);
        if (cfg_.partitioning == Partitioning::Soft) {
            // Group g is excluded from `excluded` consecutive
            // bank-ids starting at g*excluded (mod bpr): every
            // bank-id is excluded by some group when the groups
            // cover the rank, which is what lets the refresh-aware
            // scheduler always find a clean task (section 5.3).
            // The start is additionally staggered per core so that
            // tasks co-scheduled on different cores have different
            // (overlapping) allowed sets, preserving more combined
            // bank-level parallelism than identical masks would.
            const int coreStagger = i % cfg_.numCores;
            for (int k = 0; k < excluded; ++k) {
                allowedInRank[static_cast<std::size_t>(
                    (group * excluded + coreStagger + k) % bpr)] =
                    false;
            }
        } else {  // Hard partitioning (Liu et al.): exclusive slices.
            std::fill(allowedInRank.begin(), allowedInRank.end(),
                      false);
            const int per = std::max(1, bpr / cfg_.tasksPerCore);
            for (int k = 0; k < per; ++k) {
                allowedInRank[static_cast<std::size_t>(
                    (group * per + k) % bpr)] = true;
            }
        }

        // Mirror the per-rank pattern across all ranks and channels.
        for (int g = 0; g < cfg_.totalBanks(); ++g)
            t.allowBank(g, allowedInRank[static_cast<std::size_t>(
                               g % bpr)]);
    }
}

void
System::preTouchFootprints()
{
    const auto pageBytes = mc_->mapping().pageBytes();

    // Allocate in interleaved rounds so no task monopolises the
    // shared free lists (soft partitioning shares banks by design).
    std::vector<std::uint64_t> nextPage(tasks_.size(), 0);
    std::vector<std::uint64_t> numPages;
    for (auto &t : tasks_) {
        numPages.push_back(
            divCeil(generatorOf(*t).footprintBytes(), pageBytes));
        t->pageTable.reserve(numPages.back(),
                             mc_->mapping().totalFrames());
    }

    constexpr std::uint64_t kChunk = 64;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t i = 0; i < tasks_.size(); ++i) {
            const std::uint64_t end =
                std::min(numPages[i], nextPage[i] + kChunk);
            for (; nextPage[i] < end; ++nextPage[i]) {
                vm_->translate(*tasks_[i], nextPage[i] * pageBytes);
                progress = true;
            }
        }
    }
}

os::Task *
System::spawnScenarioTask(const workload::ScenarioEvent &ev, Pid pid)
{
    const auto pageBytes = mc_->mapping().pageBytes();
    workload::BenchmarkProfile prof =
        workload::profileByName(ev.benchmark);
    prof.hotsetBytes = std::max<std::uint64_t>(
        prof.hotsetBytes / cfg_.timeScale, 4 * kKiB);
    prof.phases = ev.phases;

    std::uint64_t fp = std::max<std::uint64_t>(
        prof.footprintBytes / cfg_.timeScale,
        workload::profileByName(ev.benchmark).hotsetBytes);
    fp = static_cast<std::uint64_t>(static_cast<double>(fp)
                                    * ev.footprintScale);
    fp = std::max<std::uint64_t>(fp, prof.hotsetBytes);
    fp = divCeil(fp, pageBytes) * pageBytes;
    // The same capacity guard as buildTasks, per tenant: its phase
    // peak must fit physical memory, or its vpns would outrun the
    // address-space limit (VirtualMemory::translate).
    const double peakScale = std::max(ev.phases.maxFootprintScale(), 1.0);
    const double peak = static_cast<double>(fp) * peakScale;
    const std::uint64_t budget = footprintBudgetBytes();
    if (peak > static_cast<double>(budget)) {
        const double scale = static_cast<double>(budget) / peak;
        warn("spawned ", ev.benchmark, " (pid ", pid,
             ") exceeds physical memory at its peak; scaling by ",
             scale);
        fp = static_cast<std::uint64_t>(static_cast<double>(fp) * scale);
        fp = std::max<std::uint64_t>(fp / pageBytes, 1) * pageBytes;
    }

    auto task = std::make_unique<os::Task>(pid, ev.benchmark,
                                           cfg_.totalBanks());
    task->pageTable.reserve(fp / pageBytes, mc_->mapping().totalFrames());
    const std::uint64_t seed = cfg_.seed * 1000003ULL
        + 7919ULL * static_cast<std::uint64_t>(pid);
    std::unique_ptr<cpu::InstructionSource> src;
    if (ev.adversarial) {
        src = std::make_unique<workload::AdversarialHotspotSource>(
            prof, seed, fp, task.get(), &mc_->mapping(),
            refreshQuery_, [this] { return eq_.now(); });
    } else {
        src = std::make_unique<workload::SyntheticTraceGenerator>(
            prof, seed, fp);
    }
    task->source = src.get();
    // No pre-touch: an arriving tenant demand-pages its footprint,
    // which is exactly the fragmentation regime churn should test.
    sources_.push_back(std::move(src));
    tasks_.push_back(std::move(task));
    return tasks_.back().get();
}

void
System::wireTelemetry()
{
    // One pass over the catalogue per scope instance, in lane order.
    const auto wire = [this](const SeriesScope &scope, int c, int lane) {
        const std::string idx = scope.indexed ? std::to_string(c) : "";
        for (const auto &row : kSeriesCatalogue) {
            if (row.scope != &scope)
                continue;
            const std::string name = scope.head + idx + "." + row.name;
            if (!row.stat) {
                telemetry_->addGauge(name, lane, [this, r = row.read, c] {
                    return r(*this, c);
                });
                continue;
            }
            const std::string stat = scope.statHead + idx + "." + row.stat;
            const auto *s =
                dynamic_cast<const Scalar *>(registry_.find(stat));
            REFSCHED_ASSERT(s != nullptr, "telemetry series ", name,
                            " names no Scalar ", stat);
            telemetry_->addDelta(name, lane, [s] {
                return i64(std::llround(s->value()));
            });
        }
    };
    wire(kSched, 0, 0);
    if (servingInjector_)
        wire(kServing, 0, 0);
    for (int ch = 0; ch < cfg_.channels; ++ch)
        wire(kChannel, ch, 1 + ch);
    for (int i = 0; i < cfg_.numCores; ++i)
        wire(kCore, i, 1 + cfg_.channels + i);
}

bool
isKnownTelemetrySeries(const std::string &name)
{
    const auto dot = name.find('.');
    if (dot == std::string::npos)
        return false;
    std::string head = name.substr(0, dot);
    // Split a trailing index off the head: "ch12" -> "ch" + "12".
    const auto digits = head.find_last_not_of("0123456789") + 1;
    const bool indexed = digits < head.size();
    head.resize(digits);
    return std::any_of(
        std::begin(kSeriesCatalogue), std::end(kSeriesCatalogue),
        [&](const SeriesRow &row) {
            return name.compare(dot + 1, std::string::npos, row.name) == 0
                && head == row.scope->head
                && indexed == row.scope->indexed;
        });
}

void
System::resetMeasurement()
{
    registry_.resetAll();
    caches_->resetStats();
    // Re-seed the queue-occupancy accrual marks (and peaks) so the
    // integrals cover the measured interval only.
    mc_->resetOccupancyMarks();
    for (auto &t : tasks_)
        t->resetAccounting();
    if (telemetry_)
        telemetry_->restart();
}

Metrics
System::run(int warmupQuanta, int measureQuanta)
{
    REFSCHED_ASSERT(!ran_, "System::run may only be called once");
    REFSCHED_ASSERT(measureQuanta > 0, "need a measurement interval");
    ran_ = true;

    const Tick q = cfg_.effectiveQuantum();
    sched_->start();
    if (director_) {
        std::vector<os::Task *> initial;
        for (auto &t : tasks_)
            initial.push_back(t.get());
        director_->start(initial);
    }

    const auto runKernel = [this](Tick limit) {
        return shardKernel_ ? shardKernel_->runUntil(limit)
                            : eq_.runUntil(limit);
    };

    // Pre-size the sample buffers for the whole run so the sampling
    // hot path never allocates (warmup passes are dropped at the
    // measurement reset; the capacity survives).
    if (telemetry_) {
        const Tick total =
            static_cast<Tick>(warmupQuanta + measureQuanta) * q;
        telemetry_->reserveSamples(static_cast<std::size_t>(
            total / cfg_.telemetry.periodTicks + 2));
    }

    const auto w0 = ProfileClock::now();
    profile_.warmupEvents =
        runKernel(static_cast<Tick>(warmupQuanta) * q);
    profile_.warmupMs = msSince(w0);
    resetMeasurement();

    const Tick start = eq_.now();
    const auto m0 = ProfileClock::now();
    profile_.measureEvents = runKernel(
        static_cast<Tick>(warmupQuanta + measureQuanta) * q);
    profile_.measureMs = msSince(m0);
    if (probeHub_)
        probeHub_->finalize(eq_.now());
    return collectMetrics(eq_.now() - start);
}

void
System::writeStatsJson(std::ostream &os, const Metrics &m) const
{
    os << "{\n"
       << "  \"policy\": \"" << toString(cfg_.policy) << "\",\n"
       << "  \"density\": \"" << dram::toString(cfg_.density)
       << "\",\n"
       << "  \"timeScale\": " << cfg_.timeScale << ",\n"
       << "  \"seed\": " << cfg_.seed << ",\n"
       << "  \"serving\": \""
       << (cfg_.serving.enabled ? cfg_.serving.serialize() : "")
       << "\",\n"
       << "  \"cores\": " << cfg_.numCores << ",\n"
       << "  \"tasksPerCore\": " << cfg_.tasksPerCore << ",\n"
       << "  \"metrics\": ";
    m.toJson(os, 2);
    os << ",\n"
       << "  \"selfProfile\": {\"constructMs\": "
       << profile_.constructMs
       << ", \"warmupMs\": " << profile_.warmupMs
       << ", \"measureMs\": " << profile_.measureMs
       << ", \"warmupEvents\": " << profile_.warmupEvents
       << ", \"measureEvents\": " << profile_.measureEvents
       << ", \"measureEventsPerSec\": "
       << profile_.measureEventsPerSec();
    if (shardKernel_ && shardKernel_->profileEnabled()) {
        os << ", \"kernel\": ";
        shardKernel_->renderProfileJson(os);
    }
    os << "},\n"
       << "  \"stats\": ";
    registry_.dumpJson(os, 2);
    os << "\n}\n";
}

Metrics
System::collectMetrics(Tick measuredTicks) const
{
    Metrics m;
    m.measuredTicks = measuredTicks;

    const Tick cpuPeriod = cfg_.coreParams.cpuPeriod;

    double invIpcSum = 0.0;
    int counted = 0;
    for (const auto &t : tasks_) {
        TaskMetrics tm;
        tm.pid = t->pid();
        tm.benchmark = t->name();
        tm.instructions = t->instrsRetired;
        tm.cycles = t->scheduledTicks / cpuPeriod;
        tm.ipc = t->ipc(cpuPeriod);
        const auto misses = caches_->l2MissesOf(t->pid());
        tm.mpki = tm.instructions
            ? 1000.0 * static_cast<double>(misses)
                / static_cast<double>(tm.instructions)
            : 0.0;
        tm.dramReads = t->dramReads;
        tm.pageFaults = t->pageFaults;
        tm.fallbackAllocs = t->fallbackAllocs;
        tm.residentPages = t->residentPages();
        tm.quantaRun = t->quantaRun;
        m.tasks.push_back(tm);

        if (tm.ipc > 0.0) {
            invIpcSum += 1.0 / tm.ipc;
            m.weightedIpcSum += tm.ipc;
            ++counted;
        } else if (cfg_.scenario.empty()) {
            // Under churn a task may legitimately exit before the
            // measured interval (or spawn after it) -- zero IPC is
            // expected, not a configuration bug.
            warn("task ", t->name(), " (pid ", t->pid(),
                 ") has zero IPC in the measured interval");
        }
    }
    m.harmonicMeanIpc =
        counted ? static_cast<double>(counted) / invIpcSum : 0.0;

    double latSum = 0.0;
    std::uint64_t latSamples = 0;
    double rowHits = 0.0, rowMisses = 0.0;
    for (int ch = 0; ch < cfg_.channels; ++ch) {
        const auto &s = mc_->channelStats(ch);
        m.dramReads += static_cast<std::uint64_t>(s.reads.value());
        m.dramWrites += static_cast<std::uint64_t>(s.writes.value());
        m.refreshCommands +=
            static_cast<std::uint64_t>(s.refreshCommands.value());
        m.readsBlockedByRefresh += static_cast<std::uint64_t>(
            s.readsBlockedByRefresh.value());
        latSum += s.readLatency.total();
        latSamples += s.readLatency.samples();
        rowHits += s.rowHits.value();
        rowMisses += s.rowMisses.value();
    }
    if (latSamples > 0) {
        m.avgReadLatencyMemCycles = latSum
            / static_cast<double>(latSamples)
            / static_cast<double>(dev_.timings.tCK);
    }
    if (rowHits + rowMisses > 0.0)
        m.rowHitRate = rowHits / (rowHits + rowMisses);
    if (m.dramReads > 0) {
        m.blockedReadFraction =
            static_cast<double>(m.readsBlockedByRefresh)
            / static_cast<double>(m.dramReads);
    }

    std::uint64_t totalInstrs = 0;
    for (const auto &t : m.tasks)
        totalInstrs += t.instructions;
    for (int ch = 0; ch < cfg_.channels; ++ch) {
        const auto e = mc_->energyBreakdown(ch, measuredTicks);
        m.energy.activatePj += e.activatePj;
        m.energy.readWritePj += e.readWritePj;
        m.energy.refreshPj += e.refreshPj;
        m.energy.backgroundPj += e.backgroundPj;
    }
    if (totalInstrs > 0)
        m.energyPerInstructionPj =
            m.energy.totalPj() / static_cast<double>(totalInstrs);

    m.quantaScheduled =
        static_cast<std::uint64_t>(sched_->quantaScheduled.value());
    m.cleanPicks =
        static_cast<std::uint64_t>(sched_->cleanPicks.value());
    m.deferredPicks =
        static_cast<std::uint64_t>(sched_->deferredPicks.value());
    m.fallbackPicks =
        static_cast<std::uint64_t>(sched_->fallbackPicks.value());
    m.bestEffortPicks =
        static_cast<std::uint64_t>(sched_->bestEffortPicks.value());
    m.vruntimeSpreadQuanta =
        static_cast<double>(sched_->vruntimeSpread())
        / static_cast<double>(cfg_.effectiveQuantum());

    if (probeHub_) {
        m.validationViolations = probeHub_->violationCount();
        if (const auto *v = probeHub_->firstViolation()) {
            m.firstViolation = v->checker + " @" +
                std::to_string(v->tick) + "ps: " + v->message;
        }
    }

    return m;
}

} // namespace refsched::core
