/**
 * @file
 * Trace-driven out-of-order core model (Table 1: 3.2 GHz, 8-wide
 * issue, 128-entry ROB).
 *
 * The model captures the two effects the paper's evaluation depends
 * on: (1) memory-level parallelism bounded by ROB capacity -- the
 * core keeps issuing past outstanding DRAM misses until the ROB
 * fills, then stalls until the OLDEST miss returns (in-order
 * retirement); and (2) sensitivity to DRAM latency, since every
 * cycle a refresh adds to a blocking miss lengthens the stall.
 *
 * Cache-resident work is executed in batches inside one event
 * (nothing observable happens between hits); every DRAM-touching
 * operation is replayed at its exact issue tick so the memory
 * controller sees a faithful arrival process.  The OS scheduler
 * drives context switches via setTask().
 */

#ifndef REFSCHED_CPU_CORE_HH
#define REFSCHED_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.hh"
#include "cpu/instruction_source.hh"
#include "memctrl/memory_port.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "os/virtual_memory.hh"
#include "simcore/event_queue.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace refsched::cpu
{

struct CoreParams
{
    /** CPU clock period in ticks (312 ps ~= 3.2 GHz). */
    Tick cpuPeriod = 312;
    int issueWidth = 8;
    int robSize = 128;

    /** Outstanding DRAM reads per core (MSHR / prefetch depth). */
    int mshrCount = 16;

    /**
     * Treat sequential-stream misses as prefetch-covered (they use
     * bandwidth and MSHRs but never block retirement).  The paper's
     * gem5 O3 substrate has no prefetcher, so the default is off;
     * bench/abl_partitioning flips it to study the bandwidth-bound
     * regime.
     */
    bool prefetchSequential = false;
};

class Core : public os::CpuContext, public Callee
{
  public:
    Core(EventQueue &eq, int id, const CoreParams &params,
         cache::CacheHierarchy &caches, memctrl::MemoryPort &mc,
         os::VirtualMemory &vm);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    // --- os::CpuContext ---
    void setTask(os::Task *task, Tick runUntil) override;

    int id() const { return id_; }
    os::Task *currentTask() const { return task_; }
    const CoreParams &params() const { return params_; }

    void registerStats(StatRegistry &reg, const std::string &prefix);

    // --- Statistics ---
    Scalar instrsIssued;
    Scalar dramReads;
    Scalar dramWrites;
    Scalar robStallTicks;
    Scalar mshrStallTicks;
    Scalar mcBackpressureEvents;
    Scalar contextSwitches;
    Scalar droppedWritebacks;

  private:
    struct OutstandingMiss
    {
        std::uint64_t instrIdx;
    };

    /** Run the issue loop until a sync point.  @p now is the firing
     *  tick of the invoking event (== the owning queue's now()). */
    void advance(Tick now);

    /** ROB cannot accept instruction @p instrIdx: it lies robSize
     *  or more past the oldest outstanding miss. */
    bool robFull(std::uint64_t instrIdx) const;

    /** DRAM read response for (epoch, instrIdx). */
    void onFill(std::uint64_t epoch, std::uint64_t instrIdx,
                Tick fillTick);

    /** Callee: read-completion events carry (epoch, instrIdx) as the
     *  two cookies; the controller schedules us directly, with no
     *  per-request closure. */
    void
    fire(Tick now, std::uint64_t epoch,
         std::uint64_t instrIdx) override
    {
        onFill(epoch, instrIdx, now);
    }

    /** Issue queued write-backs to the MC; false on backpressure. */
    bool flushWritebacks();

    /** Schedule advance() to resume at @p when. */
    void scheduleResume(Tick when);

    /** Intrusive resume event and memory-port retry notification:
     *  fires advance() if the scheduling epoch is still current; a
     *  non-zero @p isRetry also ends the retry wait.  A separate
     *  Callee from the Core itself, whose fire() is the
     *  read-completion path. */
    class ResumeCallee : public Callee
    {
      public:
        void fire(Tick now, std::uint64_t epoch,
                  std::uint64_t isRetry) override;
        Core *core = nullptr;
    };

    EventQueue &eq_;
    int id_;
    CoreParams params_;
    cache::CacheHierarchy &caches_;
    memctrl::MemoryPort &mc_;
    os::VirtualMemory &vm_;

    os::Task *task_ = nullptr;
    Tick runUntil_ = 0;
    std::uint64_t epoch_ = 0;

    /** Core-local issue clock; may run ahead of eq_.now() while
     *  processing cache-resident work.  advance() works on a local
     *  copy and stores it back when it returns. */
    Tick localTick_ = 0;

    /** Page size shift of the VM's mapping (inline translation). */
    unsigned pageShift_ = 0;

    /** Extra cycles a minor page fault costs the core. */
    static constexpr Cycles kPageFaultPenalty = 3000;

    /**
     * Fraction of L2-hit latency the out-of-order window fails to
     * hide (0 = fully hidden, 1 = fully exposed).
     */
    static constexpr double kHitLatencyVisibility = 0.3;

    /** Tick charge of a minor page fault (kPageFaultPenalty cycles). */
    Tick pageFaultCharge_ = 0;

    std::uint64_t instrIdx_ = 0;
    std::deque<OutstandingMiss> outstanding_;

    /**
     * O(1) fill lookup, replacing a linear scan of outstanding_ per
     * DRAM completion.  Every live miss index lies in [front, front
     * + robSize]: the stage-E gate admits the memory instruction at
     * distance <= robSize - 1 and charging it adds one, and stage B
     * pushes the staged miss without a further ROB check.  That is
     * robSize + 1 distinct values, so idx % (robSize + 1) is
     * collision-free among live entries: slot idx mod (robSize + 1)
     * holds (owner instrIdx, filled flag).  A fill marks its slot
     * only when the owner matches -- prefetch-covered misses were
     * never pushed, and their index can trail the ROB window
     * arbitrarily, so an unconditional mark could corrupt an
     * innocent resident entry.
     */
    std::vector<std::uint64_t> fillSlotIdx_;
    std::vector<std::uint8_t> fillSlotFilled_;
    /** An entry the ROB stopped (or a sync paused) before its memory
     *  op, and the part of its gap still to issue.  advance() runs
     *  every other entry in locals. */
    std::optional<TraceEntry> pendingEntry_;
    std::uint64_t pendingGap_ = 0;
    std::optional<Addr> pendingMiss_;
    std::uint64_t pendingMissIdx_ = 0;
    bool pendingMissSequential_ = false;
    bool pendingMissDependent_ = false;
    std::deque<Addr> pendingWritebacks_;

    /** DRAM reads in flight from this core (bounded by mshrCount);
     *  persists across context switches (it is core hardware). */
    int inFlightReads_ = 0;

    bool stalledOnRob_ = false;
    bool stalledOnMshr_ = false;
    bool stalledOnDependency_ = false;
    bool waitingRetry_ = false;
    Tick stallStart_ = 0;
    EventHandle resumeEvent_;
    ResumeCallee resumeCallee_;

    double cpiTicks_ = 0.0;  ///< ticks per non-memory instruction

    /** chargeTable_[n] = llround(n * cpiTicks_) for n in [0,
     *  robSize]; an issued batch is ROB-bounded, so the hot
     *  path replaces an llround per call with a table load.  Rebuilt
     *  only when cpiTicks_ changes (context switch to a different
     *  CPI), yielding identical tick charges. */
    std::vector<Tick> chargeTable_;
    double chargeTableCpi_ = -1.0;

    /** hitChargeTable_[c] = llround(c * kHitLatencyVisibility *
     *  cpuPeriod), the tick charge of a c-cycle cache hit, for c in
     *  [0, L1 hit + L2 hit]: every cache-hit latency the hierarchy
     *  reports.  Fixed at construction, so a hit costs a table load,
     *  not an llround. */
    std::vector<Tick> hitChargeTable_;
};

} // namespace refsched::cpu

#endif // REFSCHED_CPU_CORE_HH
