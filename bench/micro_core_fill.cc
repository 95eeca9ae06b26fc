/**
 * @file
 * Microbenchmarks for the core's DRAM-fill bookkeeping: onFill used
 * to scan the outstanding-miss deque linearly per completion, which
 * is O(depth) exactly when memory-level parallelism is high; the
 * slot-array lookup replaced it with O(1).  The out-of-order variant
 * below is the old scan's worst case -- every fill lands on a
 * non-head entry of a full deque -- and guards the constant-time
 * behaviour against regression.
 *
 * The port stub completes reads itself (no MemoryController), so
 * the measured work is the core issue loop + fill path, not FR-FCFS.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>

#include "cache/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "dram/address_mapping.hh"
#include "dram/timings.hh"
#include "memctrl/memory_port.hh"
#include "os/buddy_allocator.hh"
#include "os/task.hh"
#include "os/virtual_memory.hh"
#include "simcore/event_queue.hh"

using namespace refsched;

namespace
{

/**
 * MemoryPort that acks every read after a fixed latency, optionally
 * INVERTING completion order within the in-flight window: each new
 * read completes sooner than the previous one, so the oldest miss
 * (the deque head) always returns last and the deque sits at full
 * MSHR depth when every fill arrives.
 */
class CompletingPort final : public memctrl::MemoryPort
{
  public:
    CompletingPort(EventQueue &eq, Tick baseLatency, bool inverted)
        : eq_(eq), baseLatency_(baseLatency), inverted_(inverted)
    {
    }

    bool
    enqueue(memctrl::Request req) override
    {
        if (!req.completion)
            return true;  // posted write
        Tick latency = baseLatency_;
        if (inverted_) {
            // Newer requests finish earlier; the window resets once
            // the schedule would go below half the base latency.
            latency = baseLatency_ - inFlight_ * step_;
            if (latency < baseLatency_ / 2) {
                inFlight_ = 0;
                latency = baseLatency_;
            }
            ++inFlight_;
        }
        eq_.schedule(eq_.now() + latency, *req.completion,
                     req.cookie0, req.cookie1);
        return true;
    }

    void
    requestRetryNotification(Callee &, std::uint64_t,
                             std::uint64_t) override
    {
    }

  private:
    EventQueue &eq_;
    Tick baseLatency_;
    bool inverted_;
    int inFlight_ = 0;
    static constexpr Tick step_ = 1500;
};

/** Independent blocking misses striding a footprint the small L2
 *  cannot hold: every access reaches the port. */
class StrideMissSource final : public cpu::InstructionSource
{
  private:
    std::uint32_t
    refill(cpu::TraceEntry *block) override
    {
        block[0] = cpu::TraceEntry{};
        block[0].gap = 3;
        block[0].vaddr = next_;
        next_ = (next_ + 64) % (256 * kKiB);
        return 1;
    }

    Addr next_ = 0;
};

struct FillBench
{
    FillBench(int mshrs, Tick latency, bool inverted)
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 256)),
          mapping(dev.org), buddy(mapping), vm(mapping, buddy),
          caches(1, smallCaches()),
          port(eq, latency, inverted),
          core(eq, 0, params(mshrs), caches, port, vm),
          task(1, "fill", mapping.totalBanks())
    {
        // Pre-fault the footprint so no page faults pollute timing.
        for (Addr a = 0; a < 256 * kKiB; a += mapping.pageBytes())
            vm.translate(task, a);
        task.source = &src;
        core.setTask(&task, ~Tick{0} >> 1);
    }

    static cpu::CoreParams
    params(int mshrs)
    {
        cpu::CoreParams p;
        p.mshrCount = mshrs;
        return p;
    }

    static cache::HierarchyParams
    smallCaches()
    {
        cache::HierarchyParams p;
        p.l1 = cache::CacheParams{1 * kKiB, 2, 64, 2};
        p.l2 = cache::CacheParams{8 * kKiB, 4, 64, 20};
        return p;
    }

    EventQueue eq;
    dram::DramDeviceConfig dev;
    dram::AddressMapping mapping;
    os::BuddyAllocator buddy;
    os::VirtualMemory vm;
    cache::CacheHierarchy caches;
    CompletingPort port;
    cpu::Core core;
    StrideMissSource src;
    os::Task task;
};

constexpr Tick kChunk = 100'000;  // sim ticks advanced per iteration

void
BM_CoreFillInOrder(benchmark::State &state)
{
    // Fills return in issue order: each completion hits the deque
    // head and pops immediately, so the deque stays shallow.
    FillBench b(static_cast<int>(state.range(0)), 50'000, false);
    for (auto _ : state)
        b.eq.runUntil(b.eq.now() + kChunk);
    state.counters["fills"] = b.core.dramReads.value();
}
BENCHMARK(BM_CoreFillInOrder)->Arg(16)->Arg(64);

void
BM_CoreFillOutOfOrder(benchmark::State &state)
{
    // Inverted completion order: the head returns last, so every
    // fill lands mid-deque at full MSHR depth -- the linear scan's
    // O(depth) worst case, O(1) with the slot array.
    FillBench b(static_cast<int>(state.range(0)), 50'000, true);
    for (auto _ : state)
        b.eq.runUntil(b.eq.now() + kChunk);
    state.counters["fills"] = b.core.dramReads.value();
}
BENCHMARK(BM_CoreFillOutOfOrder)->Arg(16)->Arg(64);

/** A 64-entry block source replaying one fixed block: gaps from 0
 *  to 300 (below and above the 128-entry ROB) over 8 lines of one
 *  page, so every access hits L1 once the lines are warm. */
class HotBlockSource final : public cpu::InstructionSource
{
  public:
    HotBlockSource()
    {
        static constexpr std::uint32_t kGaps[] = {0, 3, 1, 17, 0, 60,
                                                  2, 200, 5, 0, 9, 300};
        for (std::uint32_t i = 0; i < kBlockEntries; ++i) {
            pattern_[i].gap = kGaps[i % std::size(kGaps)];
            pattern_[i].vaddr = (i * 7 % 8) * 64;
            pattern_[i].isWrite = i % 5 == 0;
        }
    }

  private:
    std::uint32_t
    refill(cpu::TraceEntry *block) override
    {
        std::copy(std::begin(pattern_), std::end(pattern_), block);
        return kBlockEntries;
    }

    cpu::TraceEntry pattern_[kBlockEntries];
};

/** The issue loop on an all-L1-hit stream: no DRAM traffic, no page
 *  fault, so one quantum is one advance() call. */
void
BM_CoreL1HitRun(benchmark::State &state)
{
    EventQueue eq;
    dram::DramDeviceConfig dev(dram::makeDdr3_1600(
        dram::DensityGb::d32, milliseconds(64.0), 256));
    dram::AddressMapping mapping(dev.org);
    os::BuddyAllocator buddy(mapping);
    os::VirtualMemory vm(mapping, buddy);
    cache::CacheHierarchy caches(1, FillBench::smallCaches());
    CompletingPort port(eq, 50'000, false);
    cpu::Core core(eq, 0, cpu::CoreParams{}, caches, port, vm);
    os::Task task(1, "hits", mapping.totalBanks());
    for (Addr a = 0; a < 8 * 64; a += 64)
        caches.access(0, task.pid(), vm.translate(task, a), false);
    HotBlockSource src;
    task.source = &src;

    const Tick quantum = static_cast<Tick>(state.range(0));
    for (auto _ : state) {
        const Tick until = eq.now() + quantum;
        core.setTask(&task, until);
        eq.runUntil(until);
        benchmark::DoNotOptimize(task.memOps);
    }
    const std::uint64_t memOps = task.memOps;
    if (core.dramReads.value() != 0.0 || memOps == 0)
        state.SkipWithError("the stream left L1");
    state.SetItemsProcessed(static_cast<std::int64_t>(memOps));
    state.counters["ns_per_entry"] = benchmark::Counter(
        static_cast<double>(memOps),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CoreL1HitRun)->Arg(1'000'000)->Arg(10'000'000);

} // namespace

BENCHMARK_MAIN();
