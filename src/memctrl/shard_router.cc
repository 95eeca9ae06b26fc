#include "memctrl/shard_router.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::memctrl
{

ShardRouter::ShardRouter(ShardKernel &kernel, MemoryController &mc)
    : kernel_(kernel), mc_(mc)
{
    const int channels = mc_.config().org.channels;
    boxes_.resize(static_cast<std::size_t>(channels));

    REFSCHED_ASSERT(kernel_.laneCount() >= channels,
                    "kernel has fewer lanes than channels");
    for (int ch = 0; ch < channels; ++ch)
        mc_.setChannelLane(ch, &kernel_.lane(ch));
    mc_.setCompletionSink(this);
    kernel_.setBoundaryHook([this](Tick b) { onBoundary(b); });
}

bool
ShardRouter::enqueue(Request req)
{
    // The main lane is the only writer: stage straight into the
    // target channel's inbox.
    const int ch = mc_.mapping().decompose(req.paddr).channel;
    boxes_[static_cast<std::size_t>(ch)].inbox.push_back(
        std::move(req));
    return true;
}

void
ShardRouter::requestRetryNotification(Callee &callee,
                                      std::uint64_t arg0,
                                      std::uint64_t arg1)
{
    // Unreachable through the cores (enqueue never refuses), kept
    // functional for robustness: fire at the next boundary.
    retryWaiters_.push_back(RetryWaiter{&callee, arg0, arg1});
}

void
ShardRouter::complete(int channel, int, Tick when,
                      Callee &callee, std::uint64_t cookie0,
                      std::uint64_t cookie1)
{
    boxes_[static_cast<std::size_t>(channel)].outbox.push_back(
        Completion{when, &callee, cookie0, cookie1});
}

void
ShardRouter::fire(Tick, std::uint64_t channel, std::uint64_t)
{
    auto &box = boxes_[static_cast<std::size_t>(channel)];
    box.deliveryArmed = false;

    // Deliver in arrival order; the first refusal preserves FIFO by
    // bouncing the whole tail to the next boundary.
    std::size_t i = 0;
    while (i < box.pending.size()) {
        if (!mc_.enqueue(box.pending[i]))
            break;
        ++i;
    }
    box.pending.erase(box.pending.begin(),
                      box.pending.begin()
                          + static_cast<std::ptrdiff_t>(i));
}

void
ShardRouter::onBoundary(Tick boundary)
{
    for (std::size_t ch = 0; ch < boxes_.size(); ++ch) {
        auto &box = boxes_[ch];

        // channel -> core: read completions, in staged order, on
        // the main lane.
        for (const auto &comp : box.outbox) {
            kernel_.mainLane().schedule(std::max(comp.when, boundary),
                                        *comp.callee, comp.cookie0,
                                        comp.cookie1);
        }
        box.outbox.clear();

        // core -> channel: bounced requests first, then this
        // window's arrivals.
        if (!box.inbox.empty()) {
            box.pending.insert(
                box.pending.end(),
                std::make_move_iterator(box.inbox.begin()),
                std::make_move_iterator(box.inbox.end()));
            box.inbox.clear();
        }
        if (!box.pending.empty() && !box.deliveryArmed) {
            kernel_.lane(static_cast<int>(ch))
                .schedule(boundary, *this,
                          static_cast<std::uint64_t>(ch), 0);
            box.deliveryArmed = true;
        }
    }

    // Waiters live on the main lane, with the cores.
    fireRetryWaiters(retryWaiters_, kernel_.mainLane().now());
}

std::size_t
ShardRouter::inFlight(int channel) const
{
    const auto &box = boxes_[static_cast<std::size_t>(channel)];
    std::size_t n = box.inbox.size() + box.pending.size();
    return n;
}

} // namespace refsched::memctrl
