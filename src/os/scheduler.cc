#include "os/scheduler.hh"

#include <algorithm>
#include <limits>

#include "simcore/logging.hh"

namespace refsched::os
{

Scheduler::Scheduler(EventQueue &eq, const SchedulerParams &params)
    : eq_(eq), params_(params)
{
    if (params_.quantum == 0)
        fatal("scheduler quantum must be non-zero");
    if (params_.etaThresh < 1)
        fatal("eta_thresh must be >= 1");
}

void
Scheduler::attachCpus(std::vector<CpuContext *> cpus)
{
    REFSCHED_ASSERT(!started_, "cannot attach CPUs after start");
    if (cpus.empty())
        fatal("scheduler needs at least one CPU");
    cpus_ = std::move(cpus);
    queues_ = std::vector<CfsRunQueue>(cpus_.size());
    current_.assign(cpus_.size(), nullptr);
}

void
Scheduler::setRefreshQuery(std::function<std::vector<int>(Tick)> query)
{
    refreshQuery_ = std::move(query);
}

void
Scheduler::emitRq(
    void (validate::Probe::*hook)(const validate::RqEvent &), int cpu,
    const Task *task)
{
#if REFSCHED_VALIDATE
    if (probe_)
        (probe_->*hook)(
            {eq_.now(), cpu, task->pid(), task->vruntime});
#else
    (void)hook;
    (void)cpu;
    (void)task;
#endif
}

void
Scheduler::addTask(Task *task, int cpu)
{
    REFSCHED_ASSERT(task != nullptr, "null task");
    REFSCHED_ASSERT(!cpus_.empty(), "attach CPUs before adding tasks");
    if (cpu < 0) {
        // Least-loaded CPU, lowest index on ties.
        std::size_t best = 0;
        for (std::size_t i = 1; i < queues_.size(); ++i) {
            if (queues_[i].size() < queues_[best].size())
                best = i;
        }
        cpu = static_cast<int>(best);
    }
    if (cpu >= static_cast<int>(cpus_.size()))
        fatal("task assigned to nonexistent cpu ", cpu);
    task->state = TaskState::Runnable;
    queues_[static_cast<std::size_t>(cpu)].enqueue(task);
    emitRq(&validate::Probe::onRqEnqueue, cpu, task);
    allTasks_.push_back(task);
    maskWords_ = std::max(maskWords_, task->residentBanksMask.size());
}

int
Scheduler::cpuOf(const Task *task) const
{
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        if (queues_[i].contains(task)
            || current_[i] == task) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

void
Scheduler::sleepTask(Task *task)
{
    const int cpu = cpuOf(task);
    REFSCHED_ASSERT(cpu >= 0, "sleepTask of unknown task");
    auto &rq = queues_[static_cast<std::size_t>(cpu)];
    if (rq.contains(task)) {
        rq.dequeue(task);
        emitRq(&validate::Probe::onRqDequeue, cpu, task);
    }
    // A currently-running task sleeps at the next boundary; mark it.
    task->state = TaskState::Sleeping;
}

void
Scheduler::wakeTask(Task *task)
{
    REFSCHED_ASSERT(task->state == TaskState::Sleeping,
                    "wake of non-sleeping task");
    // Re-enter on the least loaded queue; clamp vruntime forward so
    // a long sleep does not let the task monopolise the CPU.
    Tick minV = kMaxTick;
    for (const auto &q : queues_) {
        if (const auto mv = q.minVruntime())
            minV = std::min(minV, *mv);
    }
    for (const Task *cur : current_) {
        if (cur)
            minV = std::min(minV, cur->vruntime);
    }
    if (minV != kMaxTick)
        task->vruntime = std::max(task->vruntime, minV);
    task->state = TaskState::Runnable;
    std::size_t best = 0;
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        if (queues_[i].size() < queues_[best].size())
            best = i;
    }
    queues_[best].enqueue(task);
    emitRq(&validate::Probe::onRqEnqueue, static_cast<int>(best),
           task);
}

void
Scheduler::removeTask(Task *task)
{
    REFSCHED_ASSERT(task != nullptr, "null task");
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
        REFSCHED_ASSERT(current_[i] != task,
                        "removeTask of task running on cpu ", i,
                        " (sleep it and retry at the next boundary)");
    }
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        if (queues_[i].contains(task)) {
            queues_[i].dequeue(task);
            emitRq(&validate::Probe::onRqDequeue,
                   static_cast<int>(i), task);
            break;
        }
    }
    task->state = TaskState::Finished;
    allTasks_.erase(
        std::remove(allTasks_.begin(), allTasks_.end(), task),
        allTasks_.end());
}

void
Scheduler::start()
{
    REFSCHED_ASSERT(!started_, "scheduler already started");
    REFSCHED_ASSERT(!cpus_.empty(), "no CPUs attached");
    started_ = true;
    eq_.schedule(eq_.now(), *this, 0, 0, EventPriority::Scheduler);
}

bool
Scheduler::cleanOf(const Task &t,
                   const std::vector<std::uint64_t> &mask)
{
    // Word intersection of the task's resident-bank bitmap with the
    // refreshing-bank mask: clean iff every word is disjoint.
    for (std::size_t w = 0; w < mask.size(); ++w) {
        if (t.residentBanksMask[w] & mask[w])
            return false;
    }
    return true;
}

double
Scheduler::residentIn(const Task &t, const std::vector<int> &banks)
{
    double sum = 0.0;
    for (const int b : banks)
        sum += t.residentFractionIn(b);
    return sum;
}

Task *
Scheduler::pickNextTask(int cpu, const std::vector<int> &refreshBanks)
{
    auto &rq = queues_[static_cast<std::size_t>(cpu)];

    // When a probe is attached, capture the walk so the auditor can
    // re-derive the decision; candidates are recorded during the
    // real walk (not a replay) so a walk bug cannot hide itself.
#if REFSCHED_VALIDATE
    const bool capture = probe_ != nullptr;
#else
    constexpr bool capture = false;
#endif
    std::vector<validate::SchedCandidate> cand;
    auto emitPick = [&](validate::PickKind kind, const Task *chosen) {
        if (!capture)
            return;
        validate::SchedPickEvent ev;
        ev.tick = eq_.now();
        ev.cpu = cpu;
        ev.kind = kind;
        ev.chosen = chosen ? chosen->pid() : -1;
        ev.etaThresh = params_.etaThresh;
        ev.bestEffort = params_.bestEffort;
        ev.quantum = params_.quantum;
        ev.refreshBanks = &refreshBanks;
        ev.candidates = &cand;
        probe_->onSchedPick(ev);
    };

    if (rq.empty()) {
        emitPick(validate::PickKind::Idle, nullptr);
        return nullptr;
    }

    if (!params_.refreshAware || refreshBanks.empty()) {
        Task *first = rq.first();
        emitPick(validate::PickKind::Baseline, first);
        return first;
    }

    // The refreshing banks as a word mask, built once per pick; each
    // candidate's clean test is then one intersection against its
    // resident-bank bitmap instead of a per-bank count loop.
    refreshMask_.assign(maskWords_, 0);
    for (const int b : refreshBanks) {
        refreshMask_[static_cast<std::size_t>(b) / 64] |=
            1ULL << (b % 64);
    }

    // Algorithm 3: walk the red-black tree from the left, looking
    // for a task with no data in the bank(s) to be refreshed,
    // examining at most eta_thresh candidates.
    Task *firstSchedEntity = nullptr;
    Task *found = nullptr;
    std::vector<Task *> walked;
    int count = 0;

    rq.forEachInOrder([&](Task *p) {
        ++count;
        if (count == 1)
            firstSchedEntity = p;
        const bool clean = cleanOf(*p, refreshMask_);
        if (capture)
            cand.push_back({p->pid(), p->vruntime, clean,
                            residentIn(*p, refreshBanks)});
        if (clean) {
            found = p;
            return false;
        }
        walked.push_back(p);
        return count < params_.etaThresh;
    });

    if (found) {
        ++cleanPicks;
        if (found != firstSchedEntity)
            ++deferredPicks;
        emitPick(validate::PickKind::Clean, found);
        return found;
    }

    // eta_thresh exhausted (Algorithm 3 line 31 falls back to the
    // leftmost entity; section 5.4.1 refines that to the candidate
    // with the least data in the refreshing banks).
    if (params_.bestEffort && !walked.empty()) {
        Task *best = walked.front();
        double bestFrac = residentIn(*best, refreshBanks);
        for (Task *p : walked) {
            const double f = residentIn(*p, refreshBanks);
            if (f < bestFrac) {
                best = p;
                bestFrac = f;
            }
        }
        ++bestEffortPicks;
        emitPick(validate::PickKind::BestEffort, best);
        return best;
    }

    ++fallbackPicks;
    emitPick(validate::PickKind::Fallback, firstSchedEntity);
    return firstSchedEntity;
}

void
Scheduler::fire(Tick now, std::uint64_t, std::uint64_t)
{
    // Charge and re-enqueue the outgoing tasks.
    for (std::size_t cpu = 0; cpu < cpus_.size(); ++cpu) {
        Task *cur = current_[cpu];
        if (!cur)
            continue;
        cur->vruntime += cur->vruntimeDelta(params_.quantum);
        cur->scheduledTicks += params_.quantum;
        ++cur->quantaRun;
        current_[cpu] = nullptr;
        if (cur->state == TaskState::Sleeping
            || cur->state == TaskState::Finished)
            continue;  // slept/exited while running; stays dequeued
        cur->state = TaskState::Runnable;
        queues_[cpu].enqueue(cur);
        emitRq(&validate::Probe::onRqEnqueue, static_cast<int>(cpu),
               cur);
    }

    // The banks the hardware will refresh during the coming quantum.
    std::vector<int> refreshBanks;
    if (params_.refreshAware && refreshQuery_)
        refreshBanks = refreshQuery_(now);

    for (std::size_t cpu = 0; cpu < cpus_.size(); ++cpu) {
        Task *next = pickNextTask(static_cast<int>(cpu), refreshBanks);
        if (next) {
            queues_[cpu].dequeue(next);
            emitRq(&validate::Probe::onRqDequeue,
                   static_cast<int>(cpu), next);
            next->state = TaskState::Running;
            current_[cpu] = next;
            ++quantaScheduled;
        } else {
            ++idleQuanta;
        }
        cpus_[cpu]->setTask(next, now + params_.quantum);
    }

    eq_.schedule(now + params_.quantum, *this, 0, 0,
                 EventPriority::Scheduler);
}

Tick
Scheduler::vruntimeSpread() const
{
    Tick lo = kMaxTick, hi = 0;
    for (const Task *t : allTasks_) {
        lo = std::min(lo, t->vruntime);
        hi = std::max(hi, t->vruntime);
    }
    return allTasks_.empty() ? 0 : hi - lo;
}

void
Scheduler::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.add(prefix + ".quantaScheduled", &quantaScheduled);
    reg.add(prefix + ".cleanPicks", &cleanPicks);
    reg.add(prefix + ".deferredPicks", &deferredPicks);
    reg.add(prefix + ".fallbackPicks", &fallbackPicks);
    reg.add(prefix + ".bestEffortPicks", &bestEffortPicks);
    reg.add(prefix + ".idleQuanta", &idleQuanta);
}

} // namespace refsched::os
