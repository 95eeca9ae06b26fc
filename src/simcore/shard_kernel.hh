/**
 * @file
 * The sharded discrete-event kernel: one event-queue lane per DRAM
 * channel beside the main lane, synchronized at epoch boundaries.
 *
 * The legacy kernel interleaves every component on one EventQueue.
 * The sharded kernel splits the event population by owner:
 *
 *   lane 0 (the "main" lane, the caller's EventQueue) -- the cores,
 *     OS scheduler, scenario director, caches and virtual memory:
 *     everything that shares state with the software side.
 *   channel lanes (owned by the kernel) -- one per DRAM channel:
 *     the memory controller's per-channel clock ticks.
 *
 * Time advances in epoch windows [T, T+E).  Within a window every
 * lane runs its own events independently; anything that crosses a
 * lane boundary (a core's request entering a channel, a channel's
 * read completion returning to a core) is staged in a mailbox and
 * delivered at the next window boundary, never mid-window.  That
 * makes the window execution order unobservable: channel lanes may
 * run sequentially in any order or concurrently on worker threads
 * and the simulation is bit-for-bit identical, because no lane can
 * read another lane's state until the single-threaded boundary
 * phase has sealed the window.
 *
 * Window phasing (runUntil):
 *
 *   phase A   main lane runs [T, T+E) on the caller's thread, alone.
 *             Cross-lane READS that the software side performs (the
 *             refresh-aware scheduler's analytic schedule query) are
 *             safe here because the other lanes are quiescent.
 *   phase B   channel lanes run [T, T+E), mutually independent --
 *             sequentially, or in parallel when workers > 1 (the
 *             caller runs worker 0's lanes).
 *   phase C   barrier; the boundary hooks run single-threaded in
 *             registration order and drain the mailboxes, scheduling
 *             deliveries at >= T+E.
 *
 * Exactness: a read CAS issued inside a window completes tCL+tBURST
 * later, so with E <= tCL+tBURST every staged completion already
 * lies at or beyond the next boundary and delivery never distorts
 * its tick.  Requests travelling main->channel are delivered at the
 * boundary, adding up to E of latency -- the documented
 * approximation of sharded mode (lane and worker counts never
 * change results; the epoch length is the accuracy knob).
 */

#ifndef REFSCHED_SIMCORE_SHARD_KERNEL_HH
#define REFSCHED_SIMCORE_SHARD_KERNEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/types.hh"

namespace refsched
{

class ShardKernel
{
  public:
    /**
     * @p main   the system's main event queue (not owned).
     * @p lanes  number of channel lanes to create (>= 1).
     * @p epoch  window length E in ticks.
     */
    ShardKernel(EventQueue &main, int lanes, Tick epoch);
    ~ShardKernel();

    ShardKernel(const ShardKernel &) = delete;
    ShardKernel &operator=(const ShardKernel &) = delete;

    /** Channel lane @p i in [0, lanes). */
    EventQueue &lane(int i)
    {
        return *lanes_[static_cast<std::size_t>(i)];
    }

    /** Lane 0: the caller's main event queue. */
    EventQueue &mainLane() { return main_; }

    int laneCount() const { return static_cast<int>(lanes_.size()); }
    Tick epoch() const { return epoch_; }

    /**
     * Workers for phase B, counting the caller.  1 (default) runs
     * the lanes sequentially on the caller's thread; n > 1 spreads
     * them over w = min(n, laneCount) workers: the caller runs
     * worker 0's lanes and w - 1 persistent threads run the rest.
     * The worker count never affects results.  Must be set before
     * the first runUntil.
     */
    void setWorkers(int n);
    int workers() const { return workers_; }

    /** Channel lanes [first, last) of one worker. */
    struct LaneRange
    {
        int first;
        int last;
    };

    /**
     * The static partition of @p lanes over @p workers: worker @p w
     * owns the contiguous range starting at w*lanes/workers.  Ranges
     * differ in size by at most one, so with workers <= lanes every
     * worker owns at least one lane.
     */
    static LaneRange
    workerLanes(int w, int workers, int lanes)
    {
        return {w * lanes / workers, (w + 1) * lanes / workers};
    }

    /**
     * Register a hook invoked single-threaded at every window
     * boundary with the boundary tick (the start of the next
     * window).  Hooks run in registration order; the router drains
     * its mailboxes here.  Deliveries must be
     * scheduled at or after the boundary tick.
     */
    void setBoundaryHook(std::function<void(Tick boundary)> hook)
    {
        boundaryHooks_.push_back(std::move(hook));
    }

    /**
     * Run every lane up to and including @p limit (same contract as
     * EventQueue::runUntil), in epoch windows.  All lanes end with
     * now() == limit.  @return events executed across all lanes.
     */
    std::uint64_t runUntil(Tick limit);

    /** Lifetime events executed across all lanes. */
    std::uint64_t executedTotal() const;

    /** Lifetime events executed on channel lane @p i. */
    std::uint64_t
    laneExecuted(int i) const
    {
        return lanes_[static_cast<std::size_t>(i)]->executedCount();
    }

    /**
     * Wall-clock self-profile of the window phases.  Host-dependent
     * measurements; they must never feed back into simulated
     * behaviour.  All times are milliseconds of std::chrono
     * steady_clock.
     */
    struct KernelProfile
    {
        std::uint64_t windows = 0;   ///< windows run
        std::uint64_t barriers = 0;  ///< windows run on worker threads
        double mainMs = 0.0;      ///< phase A (main lane, alone)
        double parallelMs = 0.0;  ///< phase B span (incl. barrier)
        double boundaryMs = 0.0;  ///< phase C (boundary hooks)
        /** Per-lane run time, sequential mode only (empty when
         *  workers ran the lanes). */
        std::vector<double> laneBusyMs;
        /** Per-worker lane-range run time, threaded mode only. */
        std::vector<double> workerBusyMs;
        /** Per-worker per-barrier wait: from a worker finishing its
         *  range to the barrier completing, summed over windows. */
        std::vector<double> workerWaitMs;
    };

    /**
     * Start collecting the self-profile.  Adds a couple of clock
     * reads per window (and two per worker per window), so it is
     * opt-in: System enables it with telemetry.  Call before the
     * first runUntil.
     */
    void enableProfile();
    bool profileEnabled() const { return profile_; }
    const KernelProfile &profileData() const { return prof_; }

    /**
     * Render the self-profile as a single-line JSON object: window
     * and phase totals, per-lane events, the busy/wait arrays and
     * the busy-imbalance ratio (max/mean over the active lane or
     * worker partition).
     */
    void renderProfileJson(std::ostream &os) const;

  private:
    void startWorkers();
    void stopWorkers();
    void workerLoop(int workerId);
    /** Run channel lanes [first, last) up to target_. */
    void runLaneRange(int first, int last);
    /** Run worker @p workerId's lanes up to target_, profiled. */
    void runWorker(int workerId);

    EventQueue &main_;
    std::vector<std::unique_ptr<EventQueue>> lanes_;
    Tick epoch_;
    int workers_ = 1;
    std::vector<std::function<void(Tick)>> boundaryHooks_;

    // Phase-B thread pool (workers 1..w-1; the caller is worker
    // 0): an atomic generation barrier.  The caller sets pending_,
    // then bumps gen_ with release to publish target_ and phase C's
    // mailbox deliveries; each worker acquires gen_, runs its range
    // and decrements pending_ with release; the caller acquires
    // pending_ == 0 before phase C reads what the lanes wrote.  Both
    // sides spin briefly, then park on the atomic.  stopWorkers sets
    // quit_ and bumps gen_ once more.  spinIters_ is the spin bound,
    // 0 when there are more workers than host CPUs; set before the
    // threads start.  gen_ shares its cache line only with the other
    // caller-written fields (quit_, target_) and pending_, written by
    // the workers, has a line to itself, so neither side's spin is
    // disturbed by the other's traffic.
    static constexpr std::size_t kCacheLine = 64;
    int spinIters_ = 0;
    alignas(kCacheLine) std::atomic<std::uint64_t> gen_{0};
    std::atomic<bool> quit_{false};
    Tick target_ = 0;
    alignas(kCacheLine) std::atomic<int> pending_{0};

    /** Self-profiling; set before worker threads start (read-only
     *  afterwards, so workers may read it unsynchronized). */
    alignas(kCacheLine) bool profile_ = false;
    KernelProfile prof_;
    /** One worker's lane-range start/finish stamps for the current
     *  window, a cache line each so concurrent workers do not
     *  false-share.  Written by the worker before its release
     *  decrement of pending_, folded into prof_ by the caller after
     *  acquiring pending_ == 0. */
    struct alignas(kCacheLine) WorkerStamps
    {
        std::chrono::steady_clock::time_point start;
        std::chrono::steady_clock::time_point finish;
    };
    std::vector<WorkerStamps> workerStamps_;

    /** Workers 1..w-1, declared after everything they touch. */
    std::vector<std::thread> threads_;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_SHARD_KERNEL_HH
