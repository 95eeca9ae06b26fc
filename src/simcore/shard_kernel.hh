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
 * makes the order of the channel lanes within a window unobservable:
 * no lane can read another lane's state until the boundary phase
 * has sealed the window.  Every lane runs on the caller's thread.
 *
 * Window phasing (runUntil):
 *
 *   phase A   main lane runs [T, T+E) on the caller's thread, alone.
 *             Cross-lane READS that the software side performs (the
 *             refresh-aware scheduler's analytic schedule query) are
 *             safe here because the other lanes are quiescent.
 *   phase B   channel lanes run [T, T+E) one after another,
 *             mutually independent.
 *   phase C   the boundary hooks run in registration order and drain
 *             the mailboxes, scheduling deliveries at >= T+E.
 *
 * Exactness: a read CAS issued inside a window completes tCL+tBURST
 * later, so with E <= tCL+tBURST every staged completion already
 * lies at or beyond the next boundary and delivery never distorts
 * its tick.  Requests travelling main->channel are delivered at the
 * boundary, adding up to E of latency -- the documented
 * approximation of sharded mode (the epoch length is the accuracy
 * knob; System fixes it at 15 ns).
 */

#ifndef REFSCHED_SIMCORE_SHARD_KERNEL_HH
#define REFSCHED_SIMCORE_SHARD_KERNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
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
     * Register a hook invoked at every window boundary with the
     * boundary tick (the start of the next window).  Hooks run in
     * registration order; the router drains its mailboxes here.
     * Deliveries must be scheduled at or after the boundary tick.
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
        std::uint64_t windows = 0;  ///< windows run
        double mainMs = 0.0;      ///< phase A (main lane)
        double parallelMs = 0.0;  ///< phase B (channel lanes)
        double boundaryMs = 0.0;  ///< phase C (boundary hooks)
        /** Per-lane run time. */
        std::vector<double> laneBusyMs;
        /** One entry, the caller: its summed phase-B lane time. */
        std::vector<double> workerBusyMs;
        /** One entry, the caller: always 0, since nothing waits. */
        std::vector<double> workerWaitMs;
    };

    /**
     * Start collecting the self-profile, from zero.  Adds a few
     * clock reads per window and lane, so it is opt-in: System
     * enables it with telemetry.
     */
    void enableProfile();
    bool profileEnabled() const { return profile_; }
    const KernelProfile &profileData() const { return prof_; }

    /**
     * Render the self-profile as a single-line JSON object: window
     * and phase totals, per-lane events, the busy/wait arrays and
     * the busy-imbalance ratio (max/mean over the lanes).
     */
    void renderProfileJson(std::ostream &os) const;

  private:
    EventQueue &main_;
    std::vector<std::unique_ptr<EventQueue>> lanes_;
    Tick epoch_;
    std::vector<std::function<void(Tick)>> boundaryHooks_;

    bool profile_ = false;
    KernelProfile prof_;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_SHARD_KERNEL_HH
