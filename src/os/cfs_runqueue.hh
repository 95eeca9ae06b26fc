/**
 * @file
 * CFS-style per-CPU runqueue: tasks ordered by (vruntime, pid) in a
 * red-black tree (std::map), exactly like the Linux scheduler's
 * cfs_rq (paper section 2.4).  The leftmost node is the conventional
 * pick; the refresh-aware scheduler walks in-order from the left
 * (Algorithm 3).
 */

#ifndef REFSCHED_OS_CFS_RUNQUEUE_HH
#define REFSCHED_OS_CFS_RUNQUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "os/task.hh"
#include "simcore/types.hh"

namespace refsched::os
{

/** Tree key: vruntime ordered, pid tie-broken, so keys are unique. */
struct VruntimeKey
{
    Tick vruntime = 0;
    Pid pid = 0;

    bool
    operator<(const VruntimeKey &o) const
    {
        if (vruntime != o.vruntime)
            return vruntime < o.vruntime;
        return pid < o.pid;
    }
};

class CfsRunQueue
{
  public:
    CfsRunQueue() = default;

    /** Add a runnable task (keyed by its current vruntime). */
    void enqueue(Task *task);

    /** Remove @p task (it must be enqueued here). */
    void dequeue(Task *task);

    /** True if @p task is currently enqueued. */
    bool contains(const Task *task) const;

    /** Leftmost (minimum-vruntime) task, or nullptr. */
    Task *first() const;

    /**
     * Visit tasks in vruntime order until @p visit returns false.
     * Used by the refresh-aware pick (Algorithm 3's bounded walk).
     */
    void forEachInOrder(
        const std::function<bool(Task *)> &visit) const;

    /**
     * Smallest vruntime in the queue, or nullopt when empty.  An
     * empty queue deliberately has NO min vruntime: returning a
     * sentinel 0 would be indistinguishable from a real vruntime of
     * 0 and would drag the wake-clamp floor (Scheduler::wakeTask) to
     * zero whenever any sibling queue is momentarily empty.
     */
    std::optional<Tick> minVruntime() const;

    std::size_t size() const { return tree_.size(); }
    bool empty() const { return tree_.empty(); }

  private:
    using Tree = std::map<VruntimeKey, Task *>;

    Tree tree_;
    /** Each enqueued task's tree node, so dequeue erases in O(1). */
    std::unordered_map<const Task *, Tree::iterator> nodes_;
};

} // namespace refsched::os

#endif // REFSCHED_OS_CFS_RUNQUEUE_HH
