#include "simcore/event_queue.hh"

#include "simcore/logging.hh"

namespace refsched
{

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != kNoSlot) {
        const std::uint32_t idx = freeHead;
        freeHead = slotAt(idx).nextFree;
        return idx;
    }
    if (slotCount % kSlabSize == 0)
        slabs.push_back(std::make_unique<Slot[]>(kSlabSize));
    return slotCount++;
}

EventHandle
EventQueue::schedule(Tick when, Callee &callee, std::uint64_t arg0,
                     std::uint64_t arg1, EventPriority prio)
{
    REFSCHED_ASSERT(when >= curTick, "event scheduled in the past: ",
                    when, " < ", curTick);
    const std::uint32_t idx = allocSlot();
    Slot &s = slotAt(idx);
    s.callee = &callee;
    s.arg0 = arg0;
    s.arg1 = arg1;
    heapPush(Entry{when,
                   (static_cast<std::uint64_t>(prio) << kPrioShift)
                       | nextSeq++,
                   idx, s.gen});
    ++live;
    return EventHandle(this, idx, s.gen);
}

void
EventQueue::cancelSlot(std::uint32_t slot, std::uint32_t gen)
{
    if (slotAt(slot).gen != gen)
        return;  // already fired or cancelled
    retireSlot(slot);
    --live;
}

void
EventQueue::skipDead() const
{
    while (!heap_.empty() && !entryLive(heap_.front()))
        heapPopTop();
}

bool
EventQueue::empty() const
{
    return live == 0;
}

Tick
EventQueue::nextEventTick() const
{
    skipDead();
    return heap_.empty() ? kMaxTick : heap_.front().when;
}

void
EventQueue::execEntry(const Entry &e)
{
    curTick = e.when;
    // Copy the triple out and retire the slot before invoking: the
    // callee may schedule new events (possibly reusing this very
    // slot) or cancel its own, already-dead handle harmlessly.
    const Slot &s = slotAt(e.slot);
    Callee *callee = s.callee;
    const std::uint64_t a0 = s.arg0;
    const std::uint64_t a1 = s.arg1;
    retireSlot(e.slot);
    --live;
    ++executed;
    callee->fire(curTick, a0, a1);
}

bool
EventQueue::runOne()
{
    skipDead();
    if (heap_.empty())
        return false;
    const Entry e = heap_.front();
    heapPopTop();
    execEntry(e);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (true) {
        skipDead();
        if (heap_.empty() || heap_.front().when > limit)
            break;
        const Entry e = heap_.front();
        heapPopTop();
        execEntry(e);
        ++count;
    }
    if (curTick < limit)
        curTick = limit;
    return count;
}

} // namespace refsched
