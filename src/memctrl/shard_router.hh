/**
 * @file
 * Cross-shard mailboxes between the cores and the per-channel
 * controller lanes of the sharded kernel.
 *
 * The router is the MemoryPort the cores see in sharded mode and
 * the CompletionSink the controller reports into.  Both directions
 * are staged, never delivered mid-window:
 *
 *   core -> channel   enqueue() stages the request straight into
 *     the target channel's inbox in arrival order (phase A: the
 *     cores, director and serving injector all live on the main
 *     lane, the inbox's only writer).  The boundary moves the
 *     requests onto the channel's pending list and arms a delivery
 *     event at the boundary tick on the channel's lane; the delivery
 *     calls MemoryController::enqueue there.  A full controller
 *     queue bounces the request back onto the pending list -- the
 *     router retries at the next boundary and the core never sees a
 *     NACK (sharded mode has no core-side retry protocol).
 *
 *   channel -> core   complete() stages the controller's read
 *     completion in the channel's outbox (the channel's own lane).
 *     The boundary drains every outbox in channel order and
 *     schedules each completion at max(when, boundary) on the main
 *     lane; with epoch <= tCL + tBURST the max never clamps a CAS
 *     completion (see shard_kernel.hh).
 *
 * Each mailbox has exactly one writer phase and one reader phase,
 * so a lane never sees another lane's traffic mid-window.
 */

#ifndef REFSCHED_MEMCTRL_SHARD_ROUTER_HH
#define REFSCHED_MEMCTRL_SHARD_ROUTER_HH

#include <cstdint>
#include <vector>

#include "memctrl/memory_controller.hh"
#include "memctrl/memory_port.hh"
#include "simcore/shard_kernel.hh"

namespace refsched::memctrl
{

class ShardRouter final : public MemoryPort,
                          public MemoryController::CompletionSink,
                          public Callee
{
  public:
    /**
     * Wires itself up: moves each controller channel onto its own
     * kernel lane (requires laneCount >= channels), installs the
     * boundary hook on @p kernel and the completion sink on @p mc.
     */
    ShardRouter(ShardKernel &kernel, MemoryController &mc);

    // --- MemoryPort (issuing core's lane / main lane) ---
    bool enqueue(Request req) override;
    void requestRetryNotification(std::function<void()> cb) override;

    // --- CompletionSink (controller's lane) ---
    void complete(int channel, int coreId, Tick when, Callee &callee,
                  std::uint64_t cookie0,
                  std::uint64_t cookie1) override;

    // --- Callee: per-channel delivery event (controller's lane) ---
    void fire(Tick now, std::uint64_t channel, std::uint64_t) override;

    /** Window boundary (phase C). */
    void onBoundary(Tick boundary);

    /** Requests staged or bounced, not yet in a controller queue. */
    std::size_t inFlight(int channel) const;

  private:
    struct Completion
    {
        Tick when;
        Callee *callee;
        std::uint64_t cookie0;
        std::uint64_t cookie1;
    };

    struct LaneBox
    {
        std::vector<Request> inbox;       ///< staged pre-boundary
        std::vector<Request> pending;     ///< awaiting delivery
        std::vector<Completion> outbox;   ///< staged by controller
        bool deliveryArmed = false;
    };

    ShardKernel &kernel_;
    MemoryController &mc_;
    std::vector<LaneBox> boxes_;
    std::vector<std::function<void()>> retryWaiters_;
};

} // namespace refsched::memctrl

#endif // REFSCHED_MEMCTRL_SHARD_ROUTER_HH
