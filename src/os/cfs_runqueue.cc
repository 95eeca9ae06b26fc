#include "os/cfs_runqueue.hh"

#include "simcore/logging.hh"

namespace refsched::os
{

void
CfsRunQueue::enqueue(Task *task)
{
    REFSCHED_ASSERT(task != nullptr, "enqueue null task");
    REFSCHED_ASSERT(!contains(task), "task already enqueued: pid ",
                    task->pid());
    const auto [node, inserted] =
        tree_.emplace(VruntimeKey{task->vruntime, task->pid()}, task);
    REFSCHED_ASSERT(inserted, "duplicate runqueue key: pid ",
                    task->pid());
    nodes_.emplace(task, node);
}

void
CfsRunQueue::dequeue(Task *task)
{
    auto it = nodes_.find(task);
    REFSCHED_ASSERT(it != nodes_.end(), "dequeue of absent task: pid ",
                    task->pid());
    tree_.erase(it->second);
    nodes_.erase(it);
}

bool
CfsRunQueue::contains(const Task *task) const
{
    return nodes_.count(task) != 0;
}

Task *
CfsRunQueue::first() const
{
    return tree_.empty() ? nullptr : tree_.begin()->second;
}

void
CfsRunQueue::forEachInOrder(
    const std::function<bool(Task *)> &visit) const
{
    for (const auto &[key, task] : tree_) {
        if (!visit(task))
            return;
    }
}

std::optional<Tick>
CfsRunQueue::minVruntime() const
{
    if (tree_.empty())
        return std::nullopt;
    return tree_.begin()->first.vruntime;
}

} // namespace refsched::os
