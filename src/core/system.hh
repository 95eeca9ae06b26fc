/**
 * @file
 * The fully-wired simulated machine: cores + caches + memory
 * controller + DRAM + OS (allocator, VM, scheduler) + workload.
 *
 * Construction performs the co-design setup the paper describes:
 * the DRAM address mapping is exposed to the OS, tasks receive
 * possible_banks_vector masks per the partitioning mode, footprints
 * are pre-allocated through the bank-aware buddy allocator, and the
 * refresh schedule is exposed to the process scheduler when the
 * policy is CoDesign.
 *
 * run() executes warm-up quanta, resets all statistics, then runs
 * the measured quanta and returns Metrics.
 */

#ifndef REFSCHED_CORE_SYSTEM_HH
#define REFSCHED_CORE_SYSTEM_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.hh"
#include "core/metrics.hh"
#include "core/system_config.hh"
#include "cpu/core.hh"
#include "memctrl/memory_controller.hh"
#include "os/buddy_allocator.hh"
#include "os/scenario_director.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "memctrl/shard_router.hh"
#include "os/virtual_memory.hh"
#include "obs/telemetry.hh"
#include "simcore/event_queue.hh"
#include "simcore/probe.hh"
#include "simcore/shard_kernel.hh"
#include "simcore/stats.hh"
#include "workload/serving.hh"
#include "workload/trace_generator.hh"

namespace refsched::validate
{
class CheckerSet;
} // namespace refsched::validate

namespace refsched::core
{

class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run @p warmupQuanta scheduling quanta, reset statistics, run
     * @p measureQuanta more, and return the measured metrics.  May
     * be called once per System.
     */
    Metrics run(int warmupQuanta, int measureQuanta);

    // --- Component access (examples, tests, custom experiments) ---
    EventQueue &eventQueue() { return eq_; }

    /** The sharded kernel, or null under the legacy kernel. */
    ShardKernel *shardKernel() { return shardKernel_.get(); }

    /** Events executed across every lane (legacy: the one queue). */
    std::uint64_t
    executedEvents() const
    {
        return shardKernel_ ? shardKernel_->executedTotal()
                            : eq_.executedCount();
    }
    memctrl::MemoryController &controller() { return *mc_; }
    os::BuddyAllocator &buddy() { return *buddy_; }
    os::VirtualMemory &vm() { return *vm_; }
    cache::CacheHierarchy &caches() { return *caches_; }
    os::Scheduler &scheduler() { return *sched_; }
    cpu::Core &core(int i) { return *cores_[static_cast<std::size_t>(i)]; }
    std::vector<os::Task *> tasks();

    /** The scenario engine, or null when cfg.scenario is empty. */
    os::ScenarioDirector *scenarioDirector() { return director_.get(); }

    /** The open-loop serving injector, or null when cfg.serving is
     *  disabled. */
    workload::ServingInjector *servingInjector()
    {
        return servingInjector_.get();
    }
    /** The telemetry recorder, or null when cfg.telemetry is
     *  disabled.  Sampling never perturbs simulated behaviour: in
     *  sharded mode it reads sealed window state from a boundary
     *  hook; in legacy mode it is a StatDump-priority event.
     *  Series values are byte-identical across {jobs} x {shards}
     *  within a timing mode (legacy, or sharded with any
     *  shards >= 1). */
    obs::TelemetryRecorder *telemetry() { return telemetry_.get(); }

    const SystemConfig &config() const { return cfg_; }
    StatRegistry &stats() { return registry_; }

    /** Dump every registered statistic. */
    void dumpStats(std::ostream &os) const { registry_.dump(os); }

    /**
     * Simulator self-profiling: host wall-clock and event-kernel
     * throughput per run phase.  Populated by the constructor and
     * run(); values are host-dependent and must never feed back into
     * simulated behaviour.
     */
    struct SelfProfile
    {
        double constructMs = 0.0;
        double warmupMs = 0.0;
        double measureMs = 0.0;
        std::uint64_t warmupEvents = 0;
        std::uint64_t measureEvents = 0;

        /** Measured-phase event throughput (events/s of host time). */
        double
        measureEventsPerSec() const
        {
            return measureMs > 0.0
                ? static_cast<double>(measureEvents)
                    / (measureMs / 1000.0)
                : 0.0;
        }
    };

    const SelfProfile &profile() const { return profile_; }

    /**
     * Machine-readable run artifact: configuration identity, the
     * measured Metrics, the simulator self-profile, and every
     * registered statistic (StatRegistry::dumpJson), as one JSON
     * document.
     */
    void writeStatsJson(std::ostream &os, const Metrics &m) const;

    /** Collect metrics for the interval since the last stat reset. */
    Metrics collectMetrics(Tick measuredTicks) const;

    /**
     * Route all component instrumentation events (DRAM commands,
     * scheduler picks, runqueue churn, page alloc/free) to @p probe
     * in addition to any checkers cfg.validate installed.  The probe
     * must outlive the System.  Call before run().
     */
    void attachProbe(validate::Probe *probe);

    /** The checkers installed by cfg.validate (null otherwise). */
    const validate::CheckerSet *checkers() const
    {
        return probeHub_.get();
    }

  private:
    void enableProbeHub();
    void buildTasks();
    /** Bytes of footprint, phase peaks included, that tasks may
     *  reserve: 9/10 of physical memory.  buildTasks scales initial
     *  footprints to fit it together; a scenario spawn is capped to
     *  it alone. */
    std::uint64_t footprintBudgetBytes() const;
    void assignBankMasks();
    /** Re-binpack possible_banks_vector over @p live (list order
     *  decides partition groups -- the consolidation semantics). */
    void assignBankMasks(const std::vector<os::Task *> &live);
    void preTouchFootprints();
    void resetMeasurement();
    /** Register every series of the catalogue (core/system.cc) for
     *  the scheduler, serving, each channel and each core, in
     *  (laneId, seriesId) order. */
    void wireTelemetry();

    /** ScenarioDirector spawn hook: create the Task + source for a
     *  scenario spawn event and take ownership of both. */
    os::Task *spawnScenarioTask(const workload::ScenarioEvent &ev,
                                Pid pid);

    SystemConfig cfg_;
    dram::DramDeviceConfig dev_;
    EventQueue eq_;
    StatRegistry registry_;

    std::unique_ptr<memctrl::MemoryController> mc_;
    std::unique_ptr<ShardKernel> shardKernel_;
    std::unique_ptr<memctrl::ShardRouter> shardRouter_;
    std::unique_ptr<os::BuddyAllocator> buddy_;
    std::unique_ptr<os::VirtualMemory> vm_;
    std::unique_ptr<cache::CacheHierarchy> caches_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<os::Scheduler> sched_;
    std::vector<std::unique_ptr<cpu::InstructionSource>> sources_;
    std::vector<std::unique_ptr<os::Task>> tasks_;
    std::unique_ptr<os::ScenarioDirector> director_;
    std::unique_ptr<workload::ServingInjector> servingInjector_;
    /** Stable live-task list for serving without a scenario. */
    std::vector<os::Task *> servingTasks_;
    std::unique_ptr<obs::TelemetryRecorder> telemetry_;

    /** The port cores (and the scenario engine's migration traffic)
     *  enqueue into: the router in sharded mode, else the MC. */
    memctrl::MemoryPort *memPort_ = nullptr;

    /** Refresh-schedule exposure (empty result under non-analytic
     *  policies); feeds Algorithm 3 and the adversarial generator. */
    std::function<std::vector<int>(Tick)> refreshQuery_;

    /** Fan-out hub for checkers + externally attached probes. */
    std::unique_ptr<validate::CheckerSet> probeHub_;

    SelfProfile profile_;
    bool ran_ = false;
};

/** True iff @p name is a series of the telemetry catalogue under its
 *  scope's head ("sched.", "serving.", "ch<N>." or "core<N>."); what
 *  tools/timeline_check validates counter tracks against. */
bool isKnownTelemetrySeries(const std::string &name);

} // namespace refsched::core

#endif // REFSCHED_CORE_SYSTEM_HH
