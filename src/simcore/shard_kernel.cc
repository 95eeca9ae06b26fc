#include "simcore/shard_kernel.hh"

#include <algorithm>
#include <chrono>

#include "simcore/logging.hh"

namespace refsched
{

namespace
{

using ProfClock = std::chrono::steady_clock;

double
profMs(ProfClock::time_point from, ProfClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

} // namespace

ShardKernel::ShardKernel(EventQueue &main, int lanes, Tick epoch)
    : main_(main), epoch_(epoch)
{
    REFSCHED_ASSERT(lanes > 0, "sharded kernel needs >= 1 lane");
    REFSCHED_ASSERT(epoch > 0, "shard epoch must be positive");
    for (int i = 0; i < lanes; ++i)
        lanes_.push_back(std::make_unique<EventQueue>());
}

void
ShardKernel::enableProfile()
{
    profile_ = true;
    prof_.laneBusyMs.assign(
        static_cast<std::size_t>(laneCount()), 0.0);
    prof_.workerBusyMs.assign(1, 0.0);
    prof_.workerWaitMs.assign(1, 0.0);
}

std::uint64_t
ShardKernel::runUntil(Tick limit)
{
    const std::uint64_t before = executedTotal();
    do {
        // Window [t, end); `end - 1` is inclusive for runUntil.  The
        // final window absorbs the ragged remainder so every lane
        // finishes exactly at `limit` (events AT limit included,
        // matching EventQueue::runUntil's contract).
        const Tick t = main_.now();
        const Tick end = std::min(t + epoch_, limit + 1);
        const Tick target = end - 1;

        if (!profile_) {
            main_.runUntil(target);
            for (const auto &l : lanes_)
                l->runUntil(target);
            for (const auto &hook : boundaryHooks_)
                hook(end);
            continue;
        }

        // Phase A: the main lane, alone.
        const auto t0 = ProfClock::now();
        main_.runUntil(target);

        // Phase B: the channel lanes, mutually independent.
        const auto t1 = ProfClock::now();
        auto laneStart = t1;
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            lanes_[i]->runUntil(target);
            const auto laneEnd = ProfClock::now();
            prof_.laneBusyMs[i] += profMs(laneStart, laneEnd);
            laneStart = laneEnd;
        }
        const auto t2 = laneStart;

        // Phase C: seal the window; cross-lane deliveries land at
        // >= end, i.e. inside the next window.
        for (const auto &hook : boundaryHooks_)
            hook(end);

        const auto t3 = ProfClock::now();
        prof_.mainMs += profMs(t0, t1);
        prof_.parallelMs += profMs(t1, t2);
        prof_.workerBusyMs[0] += profMs(t1, t2);
        prof_.boundaryMs += profMs(t2, t3);
        ++prof_.windows;
    } while (main_.now() < limit);
    return executedTotal() - before;
}

std::uint64_t
ShardKernel::executedTotal() const
{
    std::uint64_t total = main_.executedCount();
    for (const auto &l : lanes_)
        total += l->executedCount();
    return total;
}

namespace
{

void
jsonDoubleArray(std::ostream &os, const std::vector<double> &xs)
{
    os << '[';
    for (std::size_t i = 0; i < xs.size(); ++i)
        os << (i ? ", " : "") << xs[i];
    os << ']';
}

/** max/mean over @p xs; 1 when empty or all zero. */
double
imbalanceRatio(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double sum = 0.0;
    double mx = 0.0;
    for (double x : xs) {
        sum += x;
        mx = std::max(mx, x);
    }
    if (sum <= 0.0)
        return 1.0;
    return mx / (sum / static_cast<double>(xs.size()));
}

} // namespace

void
ShardKernel::renderProfileJson(std::ostream &os) const
{
    os << "{\"windows\": " << prof_.windows
       << ", \"mainMs\": " << prof_.mainMs
       << ", \"parallelMs\": " << prof_.parallelMs
       << ", \"boundaryMs\": " << prof_.boundaryMs;
    os << ", \"laneEvents\": [";
    for (int i = 0; i < laneCount(); ++i)
        os << (i ? ", " : "") << laneExecuted(i);
    os << ']';
    os << ", \"laneBusyMs\": ";
    jsonDoubleArray(os, prof_.laneBusyMs);
    os << ", \"workerBusyMs\": ";
    jsonDoubleArray(os, prof_.workerBusyMs);
    os << ", \"workerWaitMs\": ";
    jsonDoubleArray(os, prof_.workerWaitMs);
    os << ", \"imbalance\": " << imbalanceRatio(prof_.laneBusyMs)
       << '}';
}

} // namespace refsched
