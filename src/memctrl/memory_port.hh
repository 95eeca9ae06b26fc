/**
 * @file
 * The request-side interface cores see of the memory system.
 *
 * Cores issue requests against this narrow port rather than against
 * the MemoryController directly so the sharded kernel can interpose
 * a ShardRouter: in the legacy single-queue kernel the port IS the
 * controller, in sharded mode it is a staging router that defers the
 * cross-shard hand-off to the next epoch boundary.
 */

#ifndef REFSCHED_MEMCTRL_MEMORY_PORT_HH
#define REFSCHED_MEMCTRL_MEMORY_PORT_HH

#include <cstdint>
#include <vector>

#include "memctrl/request.hh"
#include "simcore/event_queue.hh"

namespace refsched::memctrl
{

class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Try to enqueue @p req.  Returns false when the target queue is
     * full; the caller should wait for a retry notification.  Writes
     * are posted (no completion); reads fire req.completion at
     * data-burst-done time.
     */
    virtual bool enqueue(Request req) = 0;

    /**
     * One-shot notification when queue space frees up: the port calls
     * `callee.fire(now, arg0, arg1)` synchronously, waiters in
     * registration order, with @p now the tick of the issuing side's
     * event queue.
     */
    virtual void requestRetryNotification(Callee &callee,
                                          std::uint64_t arg0,
                                          std::uint64_t arg1) = 0;

  protected:
    /** A registered retry notification. */
    struct RetryWaiter
    {
        Callee *callee;
        std::uint64_t arg0;
        std::uint64_t arg1;
    };

    /** Fire and clear @p waiters in registration order.  Waiters that
     *  register again while firing are kept for the next round. */
    static void
    fireRetryWaiters(std::vector<RetryWaiter> &waiters, Tick now)
    {
        if (waiters.empty())
            return;
        std::vector<RetryWaiter> due;
        due.swap(waiters);
        for (const RetryWaiter &w : due)
            w.callee->fire(now, w.arg0, w.arg1);
    }
};

} // namespace refsched::memctrl

#endif // REFSCHED_MEMCTRL_MEMORY_PORT_HH
