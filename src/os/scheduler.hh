/**
 * @file
 * The OS process scheduler: CFS baseline plus the paper's
 * refresh-aware pick_next_task (Algorithm 3).
 *
 * All CPUs share one quantum boundary (the baseline round-robin of
 * Table 1 behaves this way, and the co-design depends on quantum
 * boundaries coinciding with the hardware's per-bank refresh slots).
 * At each boundary the running tasks are charged one quantum of
 * vruntime and re-enqueued; then each CPU picks its next task:
 *
 *  - baseline: the leftmost (minimum-vruntime) task;
 *  - refresh-aware: the leftmost task with NO data in the bank(s)
 *    scheduled for refresh during the upcoming quantum, giving up
 *    after eta_thresh candidates (Algorithm 3's fairness valve);
 *  - best-effort (section 5.4.1): when no task is fully clean,
 *    the walked candidate with the smallest fraction of its pages
 *    in the refreshing bank(s).
 *
 * Tasks are statically assigned to CPUs (the paper consolidates a
 * fixed set of tasks per core); a least-loaded choice is made when
 * no CPU is given.
 */

#ifndef REFSCHED_OS_SCHEDULER_HH
#define REFSCHED_OS_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "os/cfs_runqueue.hh"
#include "os/task.hh"
#include "simcore/event_queue.hh"
#include "simcore/probe.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace refsched::os
{

/** What the scheduler needs from a CPU core. */
class CpuContext
{
  public:
    virtual ~CpuContext() = default;

    /**
     * Context-switch to @p task (nullptr idles the core) and run it
     * until @p runUntil.
     */
    virtual void setTask(Task *task, Tick runUntil) = 0;
};

struct SchedulerParams
{
    Tick quantum = milliseconds(4.0);
    bool refreshAware = false;
    /** Algorithm 3's fairness threshold: max in-order candidates
     *  examined before falling back.  1 disables deviation. */
    int etaThresh = 3;
    /** Enable the section 5.4.1 best-effort fallback. */
    bool bestEffort = true;
};

class Scheduler final : public Callee
{
  public:
    Scheduler(EventQueue &eq, const SchedulerParams &params);

    /** Attach the CPUs (index = cpu id). */
    void attachCpus(std::vector<CpuContext *> cpus);

    /**
     * Provide the hardware refresh schedule exposure: given a tick,
     * return the global banks under refresh during the quantum that
     * starts then (one per channel), or an empty vector when the
     * refresh policy has no analytic schedule.
     */
    void setRefreshQuery(std::function<std::vector<int>(Tick)> query);

    /** Add a runnable task; @p cpu = -1 picks the least loaded. */
    void addTask(Task *task, int cpu = -1);

    /** Move @p task to the Sleeping state (dequeue). */
    void sleepTask(Task *task);

    /** Wake a sleeping task back onto its CPU's queue. */
    void wakeTask(Task *task);

    /**
     * Remove @p task from the scheduler for good (process exit).
     * The task must not be Running on a CPU -- a caller tearing down
     * a running task sleeps it first and completes the removal at the
     * next quantum boundary.  Dequeues if queued, marks the task
     * Finished and forgets it.
     */
    void removeTask(Task *task);

    /** Begin scheduling: the first pick happens immediately. */
    void start();

    // --- Introspection ---
    Task *currentOn(int cpu) const
    {
        return current_[static_cast<std::size_t>(cpu)];
    }
    const CfsRunQueue &runQueue(int cpu) const
    {
        return queues_[static_cast<std::size_t>(cpu)];
    }
    int cpuOf(const Task *task) const;
    const SchedulerParams &params() const { return params_; }

    /** max - min vruntime across all tasks (fairness measure). */
    Tick vruntimeSpread() const;

    /**
     * Algorithm 3.  Exposed for unit testing; normal operation calls
     * it from the quantum-expiry handler.
     * @param refreshBanks global banks refreshing next quantum.
     */
    Task *pickNextTask(int cpu, const std::vector<int> &refreshBanks);

    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Attach an instrumentation probe; runqueue churn and every
     *  pick decision are reported through it.  Null detaches. */
    void setProbe(validate::Probe *probe) { probe_ = probe; }

    // --- Statistics ---
    Scalar quantaScheduled;
    Scalar cleanPicks;      ///< eligible task found (Algorithm 3 hit)
    Scalar deferredPicks;   ///< eligible but not the leftmost task
    Scalar fallbackPicks;   ///< eta exhausted -> leftmost
    Scalar bestEffortPicks; ///< eta exhausted -> min-resident task
    Scalar idleQuanta;      ///< a CPU had no runnable task

    /** Callee: the quantum-expiry event (no arguments). */
    void fire(Tick now, std::uint64_t, std::uint64_t) override;

  private:

    void emitRq(void (validate::Probe::*hook)(const validate::RqEvent &),
                int cpu, const Task *task);

    /** True iff @p t's resident-bank bitmap is disjoint from the
     *  refreshing-bank word mask. */
    static bool cleanOf(const Task &t,
                        const std::vector<std::uint64_t> &mask);

    /** Sum of @p t's resident fractions over @p banks. */
    static double residentIn(const Task &t,
                             const std::vector<int> &banks);

    EventQueue &eq_;
    SchedulerParams params_;
    std::vector<CpuContext *> cpus_;
    std::vector<CfsRunQueue> queues_;
    std::vector<Task *> current_;
    std::vector<Task *> allTasks_;

    /** Scratch refreshing-bank word mask, rebuilt per pick (sized
     *  to the widest attached task's resident-bank bitmap). */
    std::vector<std::uint64_t> refreshMask_;
    std::size_t maskWords_ = 0;
    std::function<std::vector<int>(Tick)> refreshQuery_;
    bool started_ = false;
    validate::Probe *probe_ = nullptr;
};

} // namespace refsched::os

#endif // REFSCHED_OS_SCHEDULER_HH
