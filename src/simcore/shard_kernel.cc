#include "simcore/shard_kernel.hh"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

/** Busy-wait hint: lets the sibling hyperthread run and avoids the
 *  memory-order pipeline flush when the spun-on line changes. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Polls before a barrier side parks: about 100 us at ~25 ns per
 *  poll.  A worker waits out phase A+C (typically 10-15 us) and the
 *  caller waits out the slowest worker's range, so the spin almost
 *  always ends without a futex round trip, while a stalled peer
 *  (long phase, busy host) still gets its CPU back. */
constexpr int kSpinIters = 1 << 12;

/**
 * Wait until @p ready holds for the value of @p a: spin up to
 * @p spins polls, then park in atomic::wait.  Every load acquires,
 * so the caller happens-after the release that published the value.
 */
template <typename T, typename Ready>
T
awaitValue(const std::atomic<T> &a, int spins, Ready ready)
{
    for (int i = 0; i < spins; ++i) {
        const T v = a.load(std::memory_order_acquire);
        if (ready(v))
            return v;
        cpuRelax();
    }
    while (true) {
        const T v = a.load(std::memory_order_acquire);
        if (ready(v))
            return v;
        a.wait(v, std::memory_order_acquire);
    }
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

ShardKernel::~ShardKernel()
{
    stopWorkers();
}

void
ShardKernel::setWorkers(int n)
{
    REFSCHED_ASSERT(threads_.empty(),
                    "setWorkers must precede the first runUntil");
    workers_ = std::clamp(n, 1, laneCount());
}

void
ShardKernel::enableProfile()
{
    REFSCHED_ASSERT(threads_.empty(),
                    "enableProfile must precede the first runUntil");
    profile_ = true;
    prof_.laneBusyMs.assign(
        static_cast<std::size_t>(laneCount()), 0.0);
}

void
ShardKernel::startWorkers()
{
    if (workers_ <= 1 || !threads_.empty())
        return;
    if (profile_) {
        prof_.workerBusyMs.assign(
            static_cast<std::size_t>(workers_), 0.0);
        prof_.workerWaitMs.assign(
            static_cast<std::size_t>(workers_), 0.0);
        workerStamps_.resize(static_cast<std::size_t>(workers_));
    }
    // Spinning pays only while every worker has a CPU of its own.
    // With more workers than CPUs a spinning thread holds the CPU
    // that the thread it waits for needs, so both sides park at once.
    const unsigned cpus = std::thread::hardware_concurrency();
    spinIters_ =
        static_cast<unsigned>(workers_) <= cpus ? kSpinIters : 0;
    // Worker 0 is the caller itself.
    threads_.reserve(static_cast<std::size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

void
ShardKernel::stopWorkers()
{
    if (threads_.empty())
        return;
    quit_.store(true, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (auto &t : threads_)
        t.join();
    threads_.clear();
}

void
ShardKernel::runLaneRange(int first, int last)
{
    for (int i = first; i < last; ++i)
        lanes_[static_cast<std::size_t>(i)]->runUntil(target_);
}

void
ShardKernel::runWorker(int workerId)
{
    // Static partition: lane ownership never changes, so a lane's
    // events always run on the same thread and successive windows
    // of one lane are ordered by the barrier alone.
    const LaneRange r =
        workerLanes(workerId, workers_, laneCount());
    if (!profile_) {
        runLaneRange(r.first, r.last);
        return;
    }
    auto &s = workerStamps_[static_cast<std::size_t>(workerId)];
    s.start = ProfClock::now();
    runLaneRange(r.first, r.last);
    s.finish = ProfClock::now();
}

void
ShardKernel::workerLoop(int workerId)
{
    std::uint64_t seen = 0;
    while (true) {
        seen = awaitValue(gen_, spinIters_, [seen](std::uint64_t g) {
            return g != seen;
        });
        if (quit_.load(std::memory_order_acquire))
            return;
        runWorker(workerId);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            pending_.notify_one();
    }
}

std::uint64_t
ShardKernel::runUntil(Tick limit)
{
    startWorkers();

    const std::uint64_t before = executedTotal();
    do {
        // Window [t, end); `end - 1` is inclusive for runUntil.  The
        // final window absorbs the ragged remainder so every lane
        // finishes exactly at `limit` (events AT limit included,
        // matching EventQueue::runUntil's contract).
        const Tick t = main_.now();
        const Tick end = std::min(t + epoch_, limit + 1);
        target_ = end - 1;

        ProfClock::time_point t0;
        if (profile_)
            t0 = ProfClock::now();

        // Phase A: the main lane, alone.
        main_.runUntil(target_);

        ProfClock::time_point t1;
        if (profile_)
            t1 = ProfClock::now();

        // Phase B: the channel lanes, mutually independent.
        if (threads_.empty()) {
            if (profile_) {
                for (int i = 0; i < laneCount(); ++i) {
                    const auto l0 = ProfClock::now();
                    lanes_[static_cast<std::size_t>(i)]->runUntil(
                        target_);
                    prof_.laneBusyMs[static_cast<std::size_t>(i)] +=
                        profMs(l0, ProfClock::now());
                }
            } else {
                runLaneRange(0, laneCount());
            }
        } else {
            pending_.store(workers_ - 1, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_release);
            gen_.notify_all();
            runWorker(0);
            awaitValue(pending_, spinIters_,
                       [](int p) { return p == 0; });
            if (profile_) {
                // Acquiring pending_ == 0 happens-after every
                // worker's stamp writes; the gap from a worker's
                // finish to now is its barrier wait.
                const auto tb = ProfClock::now();
                for (std::size_t w = 0; w < workerStamps_.size(); ++w) {
                    const auto &s = workerStamps_[w];
                    prof_.workerBusyMs[w] += profMs(s.start, s.finish);
                    prof_.workerWaitMs[w] +=
                        std::max(profMs(s.finish, tb), 0.0);
                }
                ++prof_.barriers;
            }
        }

        ProfClock::time_point t2;
        if (profile_)
            t2 = ProfClock::now();

        // Phase C: seal the window; cross-lane deliveries land at
        // >= end, i.e. inside the next window.
        for (const auto &hook : boundaryHooks_)
            hook(end);

        if (profile_) {
            const auto t3 = ProfClock::now();
            prof_.mainMs += profMs(t0, t1);
            prof_.parallelMs += profMs(t1, t2);
            prof_.boundaryMs += profMs(t2, t3);
            ++prof_.windows;
        }
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

/** max/mean over @p xs; 1 for empty or all-zero partitions. */
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
    // Threaded mode times worker ranges, sequential mode times
    // individual lanes; the imbalance ratio is over whichever
    // partition actually ran the lanes.
    const bool threaded = !prof_.workerBusyMs.empty();
    os << "{\"windows\": " << prof_.windows
       << ", \"barriers\": " << prof_.barriers
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
    os << ", \"imbalance\": "
       << imbalanceRatio(threaded ? prof_.workerBusyMs
                                  : prof_.laneBusyMs)
       << '}';
}

} // namespace refsched
