/**
 * @file
 * Zero-cost-when-disabled instrumentation hooks.
 *
 * Simulation components (memory controller, scheduler, buddy
 * allocator) publish their externally-observable decisions through a
 * Probe pointer.  When REFSCHED_VALIDATE is compiled out (cmake
 * -DREFSCHED_VALIDATE=OFF), every emission site collapses to nothing
 * and the components carry only an unused pointer; when compiled in
 * but no probe is attached, each site costs one null check.
 *
 * Consumers: the invariant checkers in src/validate/ (JEDEC timing
 * auditor, refresh-window monitor, OS auditor, scenario auditor),
 * the golden-trace recorder used by the differential harness, and
 * the timeline recorder (obs/timeline.hh).  Periodic state such as
 * queue depths is not a probe event: telemetry reads it directly
 * (obs/telemetry.hh).
 */

#ifndef REFSCHED_SIMCORE_PROBE_HH
#define REFSCHED_SIMCORE_PROBE_HH

#include <cstdint>
#include <vector>

#include "simcore/types.hh"

#ifndef REFSCHED_VALIDATE
#define REFSCHED_VALIDATE 1
#endif

namespace refsched::validate
{

/** True when the hook layer is compiled into this build. */
constexpr bool kValidateCompiledIn = REFSCHED_VALIDATE != 0;

/** DRAM command classes as seen on the simulated command bus. */
enum class DramOp : std::uint8_t {
    Act,
    Read,
    Write,
    Pre,
    RefPerBank,
    RefAllBank,
    /** A per-bank refresh interrupted by Refresh Pausing. */
    RefPause,
};

/**
 * One issued DRAM command.  Events are emitted in issue order; the
 * struct describes the command as the controller issued it, before
 * its side effects are applied to the bank model.
 */
struct DramCmdEvent
{
    Tick tick = 0;
    DramOp op = DramOp::Act;
    int channel = 0;
    int rank = 0;
    /** Bank within the rank; -1 for all-bank refresh. */
    int bank = 0;
    /** Act/Read/Write/Pre: the row involved.  RefPerBank/RefAllBank:
     *  rows refreshed by this command.  RefPause: rows rolled back
     *  (still owed by a later resume command). */
    std::uint64_t row = 0;
    /** RefPerBank/RefAllBank/RefPause: the tick until which the
     *  refreshed bank(s) stay busy. */
    Tick busyUntil = 0;
};

/** How pickNextTask arrived at its choice (Algorithm 3). */
enum class PickKind : std::uint8_t {
    /** Refresh-aware scheduling off, or no bank under refresh:
     *  leftmost (minimum-vruntime) task. */
    Baseline,
    /** A clean task was found within the eta_thresh walk. */
    Clean,
    /** No clean task; best-effort minimum-residency fallback. */
    BestEffort,
    /** No clean task and best-effort disabled: leftmost task. */
    Fallback,
    /** Empty runqueue. */
    Idle,
};

/** One runqueue entry examined during the bounded pick walk. */
struct SchedCandidate
{
    Pid pid = -1;
    Tick vruntime = 0;
    /** No resident pages in any bank currently under refresh. */
    bool clean = false;
    /** Fraction of the task's resident pages in refreshing banks. */
    double resident = 0.0;
};

/**
 * One pick_next_task decision.  The pointer members reference
 * caller-owned storage valid only for the duration of the callback.
 */
struct SchedPickEvent
{
    Tick tick = 0;
    int cpu = 0;
    PickKind kind = PickKind::Baseline;
    /** Chosen task, or -1 when idle. */
    Pid chosen = -1;
    int etaThresh = 0;
    bool bestEffort = false;
    /** Scheduler quantum length (ticks); the picked task runs until
     *  tick + quantum unless it blocks.  0 when unknown. */
    Tick quantum = 0;
    /** Global bank ids under refresh at pick time (may be null for
     *  Baseline/Idle picks). */
    const std::vector<int> *refreshBanks = nullptr;
    /** Entries examined, in tree order, including the chosen clean
     *  task when one was found (null for Baseline/Idle picks). */
    const std::vector<SchedCandidate> *candidates = nullptr;
};

/** A task entering or leaving a per-CPU runqueue. */
struct RqEvent
{
    Tick tick = 0;
    int cpu = 0;
    Pid pid = -1;
    /** The key vruntime at enqueue/dequeue time. */
    Tick vruntime = 0;
};

/** A page frame handed out by the buddy allocator. */
struct PageAllocEvent
{
    Tick tick = 0;
    /** Owning task, or -1 for anonymous allocations. */
    Pid pid = -1;
    std::uint64_t pfn = 0;
    /** True when Algorithm 2 fell back outside the bank mask. */
    bool fallback = false;
    /** The task's possible_banks_vector (indexed by global bank id);
     *  null for anonymous allocations.  Caller-owned, valid only for
     *  the duration of the callback. */
    const std::vector<bool> *allowedBanks = nullptr;
};

/** A page frame returned to the buddy allocator. */
struct PageFreeEvent
{
    Tick tick = 0;
    std::uint64_t pfn = 0;
    /** Releasing task, or -1 when the owner is unknown (legacy
     *  anonymous frees). */
    Pid pid = -1;
};

/** A task entering (spawn) or leaving (exit) the system; emitted by
 *  the scenario engine for churned tasks and by System for the
 *  initial task set. */
struct TaskLifeEvent
{
    Tick tick = 0;
    Pid pid = -1;
    /** True for a spawn, false for an exit. */
    bool spawn = false;
    /** Home CPU at spawn time; -1 for exits. */
    int cpu = -1;
};

/**
 * One page migrated by the OS after a task's possible_banks_vector
 * changed (consolidation re-binpack).  Emitted after the mapping has
 * been rewritten; the copy traffic follows as real read/write
 * requests through the memory controller.
 */
struct PageMigrateEvent
{
    Tick tick = 0;
    Pid pid = -1;
    std::uint64_t vpn = 0;
    std::uint64_t fromPfn = 0;
    std::uint64_t toPfn = 0;
    /** Cache lines copied through the controller for this page. */
    int linesCopied = 0;
    /** The task's possible_banks_vector at migration time (indexed by
     *  global bank id).  Caller-owned, valid only for the duration of
     *  the callback. */
    const std::vector<bool> *allowedBanks = nullptr;
};

/**
 * Instrumentation sink.  All callbacks default to no-ops so a probe
 * implements only what it needs; emission sites fire in simulated
 * time order within each component.
 */
class Probe
{
  public:
    virtual ~Probe() = default;

    virtual void onDramCommand(const DramCmdEvent &) {}
    virtual void onSchedPick(const SchedPickEvent &) {}
    virtual void onRqEnqueue(const RqEvent &) {}
    virtual void onRqDequeue(const RqEvent &) {}
    virtual void onPageAlloc(const PageAllocEvent &) {}
    virtual void onPageFree(const PageFreeEvent &) {}
    virtual void onTaskSpawn(const TaskLifeEvent &) {}
    virtual void onTaskExit(const TaskLifeEvent &) {}
    virtual void onPageMigrate(const PageMigrateEvent &) {}

    /** End of simulation: whole-run invariants (refresh-window
     *  coverage, allocator conservation) are settled here. */
    virtual void finalize(Tick /*endTick*/) {}
};

} // namespace refsched::validate

/**
 * Emission macro: REFSCHED_PROBE(probe_, onDramCommand({...})).
 * Argument expressions are not evaluated when validation is compiled
 * out, so emission sites may build event structs inline for free.
 */
#if REFSCHED_VALIDATE
#define REFSCHED_PROBE(probe, call)                                       \
    do {                                                                  \
        if (probe)                                                        \
            (probe)->call;                                                \
    } while (0)
#else
#define REFSCHED_PROBE(probe, call)                                       \
    do {                                                                  \
    } while (0)
#endif

#endif // REFSCHED_SIMCORE_PROBE_HH
