/**
 * @file
 * Top-level configuration of a simulated system, and the named
 * policy bundles the paper evaluates.
 *
 * A Policy selects the refresh scheduler AND the matching OS
 * behaviour:
 *
 *   AllBank      DDRx rank-level refresh, bank-oblivious OS (baseline)
 *   PerBank      LPDDR3 per-bank round-robin refresh, bank-oblivious OS
 *   PerBankOoo   Chang et al. out-of-order per-bank refresh
 *   Ddr4x2/x4    DDR4 fine-granularity refresh modes (all-bank)
 *   Adaptive     Mukundan et al. adaptive 1x/4x refresh
 *   CoDesign     the paper: sequential per-bank refresh + soft bank
 *                partitioning + refresh-aware scheduling
 *   NoRefresh    ideal refresh-free upper bound
 */

#ifndef REFSCHED_CORE_SYSTEM_CONFIG_HH
#define REFSCHED_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "dram/refresh_scheduler.hh"
#include "dram/timings.hh"
#include "memctrl/memory_controller.hh"
#include "obs/telemetry.hh"
#include "simcore/types.hh"
#include "workload/scenario.hh"
#include "workload/serving.hh"

namespace refsched::core
{

enum class Policy
{
    AllBank,
    PerBank,
    PerBankOoo,
    Ddr4x2,
    Ddr4x4,
    Adaptive,
    CoDesign,
    NoRefresh,
};

std::string toString(Policy p);

/** How task data is confined to banks. */
enum class Partitioning
{
    None,  ///< bank-oblivious allocation (baseline Linux)
    Soft,  ///< groups of tasks share bank subsets (section 5.2.1)
    Hard,  ///< exclusive bank ownership (Liu et al., for ablation)
};

struct SystemConfig
{
    // --- Topology (Table 1) ---
    int numCores = 2;
    int tasksPerCore = 4;  ///< consolidation ratio 1:tasksPerCore
    int channels = 1;
    int ranksPerChannel = 2;
    int banksPerRank = 8;

    // --- DRAM ---
    dram::DensityGb density = dram::DensityGb::d32;
    Tick tREFW = milliseconds(64.0);
    unsigned timeScale = 64;

    /** Bank-address hashing (see DramOrganization::xorBankHash). */
    bool xorBankHash = false;

    // --- Policy bundle ---
    Policy policy = Policy::AllBank;
    Partitioning partitioning = Partitioning::None;  ///< set by policy
    bool refreshAwareScheduling = false;             ///< set by policy

    /**
     * Banks per rank a task may allocate in under partitioning.
     * -1 selects the paper's rule: 8 - banksPerRank/tasksPerCore
     * (6 banks at 1:4, 4 banks at 1:2 -- sections 6.2 and 6.6).
     */
    int banksPerTaskPerRank = -1;

    // --- OS ---
    /** 0 = auto: tREFW / total banks, aligning quanta with the
     *  sequential refresh slots (4 ms for 64 ms/16 banks). */
    Tick quantum = 0;

    /**
     * Algorithm 3's fairness threshold: how many in-order runqueue
     * candidates the refresh-aware pick may examine.  The default
     * covers any realistic runqueue (normal co-design operation);
     * small values (1..3) are the paper's way of overriding the
     * refresh-aware schedule for fairness (section 5.4).
     */
    int etaThresh = 64;
    bool bestEffort = true;

    /**
     * Attach the invariant checkers (JEDEC timing auditor, refresh
     * window monitor, OS auditor) for this run.  Requires the build
     * to have REFSCHED_VALIDATE=1 (the default); with validation
     * compiled out this flag warns and has no effect.
     */
    bool validate = false;

    // --- Sharded event kernel ---
    /**
     * The timing mode; there are exactly two, keyed by this field
     * alone.  0 (default): the legacy exact kernel -- every
     * component on one event queue, results bit-identical to prior
     * releases.  >= 1: the sharded kernel -- each channel's
     * controller runs on its own event-queue lane, synchronized
     * with the cores at 15 ns epoch boundaries, all on the calling
     * thread.  Every value >= 1 selects the same kernel and gives
     * identical results, which differ slightly from the legacy
     * kernel (requests cross into their channel at the next epoch
     * boundary instead of immediately; see simcore/shard_kernel.hh).
     */
    int shards = 0;

    // --- Components ---
    cpu::CoreParams coreParams;
    cache::HierarchyParams cacheParams;
    memctrl::ControllerParams mcParams;

    // --- Workload ---
    /** One benchmark name per task (numCores * tasksPerCore). */
    std::vector<std::string> benchmarks;

    /**
     * Dynamic-workload scenario: tenant churn, macro-phase changes
     * and page migration, executed by a ScenarioDirector at quantum
     * boundaries.  Empty (the default) runs the static task set.
     */
    workload::ScenarioScript scenario;

    /**
     * Open-loop serving workload: a deterministic arrival process
     * (Poisson/MMPP) injecting read requests at an offered load over
     * the live tasks' footprints, with bounded-queue drop semantics.
     * Disabled by default; composes with both the static task set
     * and scenario churn (requests always target currently-live
     * tasks).  See workload/serving.hh.
     */
    workload::ServingConfig serving;

    /**
     * Epoch-sampled telemetry time-series: per-channel queue depths
     * and row-buffer/refresh rates, per-core progress, scheduler and
     * serving counters, snapshotted every periodTicks of simulated
     * time.  Disabled by default (zero cost); see obs/telemetry.hh.
     */
    obs::TelemetryConfig telemetry;

    std::uint64_t seed = 1;

    /** Apply the OS/hardware bundle implied by @p policy. */
    void applyPolicy(Policy p);

    /** Derived: refresh scheduler type for the active policy. */
    dram::RefreshPolicy refreshPolicy() const;

    /** Derived: DDR4 FGR mode for the active policy. */
    dram::FgrMode fgrMode() const;

    /** Derived: DRAM device config (timings, organization). */
    dram::DramDeviceConfig deviceConfig() const;

    /** Derived: effective quantum (auto rule applied). */
    Tick effectiveQuantum() const;

    /** Derived: effective banks-per-task-per-rank. */
    int effectiveBanksPerTask() const;

    int totalTasks() const { return numCores * tasksPerCore; }
    int
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** Validate; fatal() on inconsistencies. */
    void check() const;
};

} // namespace refsched::core

#endif // REFSCHED_CORE_SYSTEM_CONFIG_HH
