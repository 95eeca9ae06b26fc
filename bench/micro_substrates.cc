/**
 * @file
 * google-benchmark microbenchmarks for the hot substrate operations:
 * the CFS runqueue, buddy allocator, event queue, cache, trace
 * generation, and memory-controller throughput.  These guard against
 * performance regressions in the simulator itself.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "dram/refresh_scheduler.hh"
#include "memctrl/memory_controller.hh"
#include "os/buddy_allocator.hh"
#include "os/cfs_runqueue.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "workload/trace_generator.hh"

using namespace refsched;

namespace
{

/** @p n tasks with random vruntimes, all enqueued on @p rq. */
std::vector<std::unique_ptr<os::Task>>
fillRunQueue(os::CfsRunQueue &rq, std::int64_t n, Rng &rng)
{
    std::vector<std::unique_ptr<os::Task>> tasks;
    for (std::int64_t i = 0; i < n; ++i) {
        tasks.push_back(std::make_unique<os::Task>(
            static_cast<Pid>(i + 1), "t", 16));
        tasks.back()->vruntime = rng.next();
        rq.enqueue(tasks.back().get());
    }
    return tasks;
}

void
BM_CfsRunQueueChurn(benchmark::State &state)
{
    // Dequeue a task and re-enqueue it at a random vruntime, round
    // robin over a standing population of state.range(0) tasks.
    os::CfsRunQueue rq;
    Rng rng(1);
    auto tasks = fillRunQueue(rq, state.range(0), rng);
    std::size_t i = 0;
    for (auto _ : state) {
        os::Task *t = tasks[i].get();
        rq.dequeue(t);
        t->vruntime = rng.next();
        rq.enqueue(t);
        i = (i + 1) % tasks.size();
    }
}
BENCHMARK(BM_CfsRunQueueChurn)->Arg(16)->Arg(1024);

void
BM_CfsRunQueueFirst(benchmark::State &state)
{
    os::CfsRunQueue rq;
    Rng rng(1);
    auto tasks = fillRunQueue(rq, 1024, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(rq.first());
}
BENCHMARK(BM_CfsRunQueueFirst);

void
BM_BuddyAllocFreePage(benchmark::State &state)
{
    const auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                         milliseconds(64.0), 64);
    dram::AddressMapping mapping(dev.org);
    os::BuddyAllocator buddy(mapping);
    os::Task task(1, "bench", mapping.totalBanks());
    for (auto _ : state) {
        auto pfn = buddy.allocPage(task);
        buddy.freePage(*pfn);
    }
}
BENCHMARK(BM_BuddyAllocFreePage);

/** Event receiver that does nothing: times the kernel alone. */
struct NopCallee final : Callee
{
    void fire(Tick, std::uint64_t, std::uint64_t) override {}
};

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    NopCallee nop;
    for (auto _ : state) {
        eq.schedule(eq.now() + 10, nop, 0, 0);
        eq.runOne();
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    // Schedule/cancel churn against a standing population of pending
    // events: exercises the O(1) generation-counter cancel and the
    // slab free-list recycle path (steady state allocates nothing).
    EventQueue eq;
    NopCallee nop;
    std::vector<EventHandle> standing;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        standing.push_back(eq.schedule(1'000'000 + i, nop, 0, 0));
    for (auto _ : state) {
        auto h = eq.schedule(eq.now() + 10, nop, 0, 0);
        h.cancel();
        // Pops the stale heap entry just cancelled (it sorts before
        // the standing population), so the heap does not grow.
        benchmark::DoNotOptimize(eq.nextEventTick());
    }
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(0)->Arg(1024);

void
BM_CacheAccess(benchmark::State &state)
{
    cache::Cache c(cache::CacheParams{2 * kMiB, 16, 64, 20});
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(rng.below(8 * kMiB) & ~63ULL, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheL1Hit(benchmark::State &state)
{
    // The Table 1 L1 (32 KB, 4-way) under a time-scaled 4 KB hot
    // set: after the first 64 misses every access hits.
    cache::Cache c(cache::CacheParams{32 * kKiB, 4, 64, 2});
    Addr a = 0;
    for (auto _ : state) {
        a = (a + 7 * 64) & (4 * kKiB - 1);
        benchmark::DoNotOptimize(c.access(a, (a & 64) != 0));
    }
}
BENCHMARK(BM_CacheL1Hit);

void
BM_GeometricGap(benchmark::State &state)
{
    // One instruction gap as the trace generator draws it, at a
    // Table-2 memOpFraction given in percent.
    const double p = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.geometric(p, 4096));
}
BENCHMARK(BM_GeometricGap)->Arg(30)->Arg(35)->Arg(40)->Arg(45);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &prof = workload::profileByName("mcf");
    workload::SyntheticTraceGenerator gen(prof, 7, 32 * kMiB);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneration);

void
BM_RefreshSchedulerPop(benchmark::State &state)
{
    const auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                         milliseconds(64.0), 1);
    dram::SequentialPerBank sched(dev);
    class IdleView : public dram::McRefreshView
    {
        int queuedToBank(int, int, int) const override { return 0; }
        double channelUtilization(int) const override { return 0.0; }
    } view;
    for (auto _ : state)
        benchmark::DoNotOptimize(sched.pop(0, view));
}
BENCHMARK(BM_RefreshSchedulerPop);

/** Completion receiver counting read completions. */
struct CompletionCounter : Callee
{
    std::uint64_t count = 0;
    void
    fire(Tick, std::uint64_t, std::uint64_t) override
    {
        ++count;
    }
};

void
BM_ControllerRandomReads(benchmark::State &state)
{
    // Steady-state open-loop random reads through the controller;
    // reports simulated reads per wall second.
    const auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                         milliseconds(64.0), 64);
    EventQueue eq;
    memctrl::MemoryController mc(
        eq, dev,
        dram::makeRefreshScheduler(
            dram::RefreshPolicy::PerBankRoundRobin, dev));
    Rng rng(3);
    CompletionCounter completed;
    for (auto _ : state) {
        if (mc.readQueueSize(0) < 32) {
            memctrl::Request r;
            r.paddr = rng.below(dev.org.totalBytes() / 64) * 64;
            r.type = memctrl::Request::Type::Read;
            r.completion = &completed;
            mc.enqueue(std::move(r));
        }
        eq.runUntil(eq.now() + dev.timings.tCK * 4);
    }
    state.counters["readsCompleted"] =
        static_cast<double>(completed.count);
}
BENCHMARK(BM_ControllerRandomReads);

void
BM_ControllerSaturatedPick(benchmark::State &state)
{
    // FR-FCFS pick cost with the read queue held at capacity: every
    // controller tick scans for a row hit / ACT / PRE candidate over
    // a full queue, so the per-bank request lists dominate.
    const auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                         milliseconds(64.0), 64);
    EventQueue eq;
    memctrl::MemoryController mc(
        eq, dev,
        dram::makeRefreshScheduler(
            dram::RefreshPolicy::PerBankRoundRobin, dev));
    Rng rng(4);
    CompletionCounter completed;
    for (auto _ : state) {
        while (mc.readQueueSize(0) < 64) {
            memctrl::Request r;
            r.paddr = rng.below(dev.org.totalBytes() / 64) * 64;
            r.type = memctrl::Request::Type::Read;
            r.completion = &completed;
            if (!mc.enqueue(std::move(r)))
                break;
        }
        eq.runUntil(eq.now() + dev.timings.tCK * 4);
    }
    state.counters["readsCompleted"] =
        static_cast<double>(completed.count);
}
BENCHMARK(BM_ControllerSaturatedPick);

void
BM_SchedulerAlg3Pick(benchmark::State &state)
{
    // Algorithm 3 pick cost: mask-intersection cleanliness test over
    // a populated runqueue, as a function of the fairness threshold
    // eta (arg).  pickNextTask is side-effect free -- the quantum
    // handler dequeues -- so the same queue is re-picked each
    // iteration.
    constexpr int kBanks = 64;
    EventQueue eq;
    os::SchedulerParams params;
    params.refreshAware = true;
    params.etaThresh = static_cast<int>(state.range(0));
    os::Scheduler sched(eq, params);

    class IdleCpu : public os::CpuContext
    {
        void setTask(os::Task *, Tick) override {}
    } cpu;
    sched.attachCpus({&cpu});

    Rng rng(5);
    std::vector<std::unique_ptr<os::Task>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back(std::make_unique<os::Task>(
            static_cast<Pid>(i + 1), "bench", kBanks));
        // Each task resident in 8 random banks: most picks must walk
        // a few dirty candidates before finding a clean one.
        for (int j = 0; j < 8; ++j)
            tasks.back()->addResidentPage(
                static_cast<int>(rng.below(kBanks)));
        sched.addTask(tasks.back().get(), 0);
    }

    std::vector<int> refreshBanks(2);
    std::uint64_t n = 0;
    for (auto _ : state) {
        refreshBanks[0] = static_cast<int>(n % kBanks);
        refreshBanks[1] = static_cast<int>((n + kBanks / 2) % kBanks);
        ++n;
        benchmark::DoNotOptimize(sched.pickNextTask(0, refreshBanks));
    }
}
BENCHMARK(BM_SchedulerAlg3Pick)->Arg(1)->Arg(3)->Arg(8);

void
BM_ControllerGateBatchReeval(benchmark::State &state)
{
    // Batched timing-gate re-evaluation: demand reads spread over
    // every bank while dense per-bank refresh constantly freezes and
    // thaws banks, so each service window re-derives gate deadlines
    // for whole banks at a time rather than per request.
    const auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                         milliseconds(64.0), 64);
    EventQueue eq;
    memctrl::MemoryController mc(
        eq, dev,
        dram::makeRefreshScheduler(
            dram::RefreshPolicy::SequentialPerBank, dev));
    Rng rng(6);
    CompletionCounter completed;
    const int banks = dev.org.banksTotal();
    int nextBank = 0;
    for (auto _ : state) {
        while (mc.readQueueSize(0) < 64) {
            dram::DramCoord c;
            c.rank = nextBank / dev.org.banksPerRank;
            c.bank = nextBank % dev.org.banksPerRank;
            nextBank = (nextBank + 1) % banks;
            c.row = rng.below(4);
            c.column = rng.below(8);
            memctrl::Request r;
            r.paddr = mc.mapping().compose(c);
            r.type = memctrl::Request::Type::Read;
            r.completion = &completed;
            if (!mc.enqueue(std::move(r)))
                break;
        }
        // A window long enough to cross refresh starts/ends, where
        // the controller re-gates every queued request per bank.
        eq.runUntil(eq.now() + dev.timings.tRFCpb);
    }
    state.counters["readsCompleted"] =
        static_cast<double>(completed.count);
}
BENCHMARK(BM_ControllerGateBatchReeval);

void
BM_CfsEnqueueDequeue(benchmark::State &state)
{
    os::CfsRunQueue rq;
    std::vector<std::unique_ptr<os::Task>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(std::make_unique<os::Task>(
            static_cast<Pid>(i + 1), "t", 16));
        rq.enqueue(tasks.back().get());
    }
    Tick v = 0;
    for (auto _ : state) {
        os::Task *t = rq.first();
        rq.dequeue(t);
        t->vruntime = ++v;
        rq.enqueue(t);
    }
}
BENCHMARK(BM_CfsEnqueueDequeue);

} // namespace

BENCHMARK_MAIN();
