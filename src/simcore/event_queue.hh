/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders events by (tick, priority, sequence).
 * Sequence numbers make scheduling deterministic: two events at the
 * same tick and priority fire in the order they were scheduled.
 * Events may be cancelled through the EventHandle returned at
 * scheduling time; cancellation is O(1).
 *
 * There is one kind of event: a (Callee&, arg0, arg1) triple, fired
 * as `callee.fire(tick, arg0, arg1)`.  The triple is plain data, so
 * every event has a receiving class and carries no owned resources.
 *
 * Storage: event triples live in slab-allocated slots that are
 * recycled through a free list, so steady-state schedule/cancel/fire
 * cycles perform no heap allocation.  A per-slot generation counter
 * makes EventHandle validity checks O(1) without per-event
 * shared_ptr control blocks: a handle is pending iff its remembered
 * generation still matches the slot's.  Cancelled slots are recycled
 * immediately; their stale heap entries are skipped when they
 * surface at the top of the priority queue.
 *
 * Handles must not outlive their EventQueue (they hold a plain
 * back-pointer); in practice handles are owned by components that
 * the queue outlives.
 */

#ifndef REFSCHED_SIMCORE_EVENT_QUEUE_HH
#define REFSCHED_SIMCORE_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/types.hh"

namespace refsched
{

class EventQueue;

/**
 * Relative ordering of events scheduled for the same tick.  Lower
 * values fire first.  The defaults mirror gem5: clocked-component
 * work happens before generic callbacks, the OS scheduler sees
 * completed hardware state, stat dumps run last.
 */
enum class EventPriority : int
{
    ClockEdge = 0,   ///< Clocked-component ticks (MC, cores).
    Default = 10,    ///< Generic callbacks.
    Scheduler = 20,  ///< OS quantum expiry.
    StatDump = 30,   ///< Statistics snapshots.
};

/**
 * Intrusive event receiver, the only kind of deferred call.  A
 * scheduled (callee, arg0, arg1) triple is stored as plain data
 * inside the event slot, so scheduling one never heap-allocates no
 * matter how much context the receiver needs -- the receiver IS the
 * context, and the two 64-bit cookies carry the per-event payload
 * (an epoch, an index, a reserved kind tag...).  Memory-port retry
 * notifications use the same triple.
 *
 * The callee must outlive the scheduled event (or cancel it); callees
 * are long-lived components the queue's owner also owns.
 */
class Callee
{
  public:
    /** @p now is the firing tick (== EventQueue::now()). */
    virtual void fire(Tick now, std::uint64_t arg0,
                      std::uint64_t arg1) = 0;

  protected:
    ~Callee() = default;
};

/** Cancellation token for a scheduled event. */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Prevent the event from firing; idempotent. */
    void cancel();

    /** True if the event is still pending (not fired, not cancelled). */
    bool pending() const;

  private:
    friend class EventQueue;
    EventHandle(EventQueue *q, std::uint32_t s, std::uint32_t g)
        : queue_(q), slot_(s), gen_(g)
    {
    }

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns simulated time: now() advances only while run
 * methods execute, and only to ticks of scheduled events.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * At absolute tick @p when, invoke `callee.fire(when, arg0,
     * arg1)`.  Never allocates beyond the slot pool: the triple is
     * stored as POD in the slot.  Scheduling in the past is a panic
     * (simulator bug).
     */
    EventHandle schedule(Tick when, Callee &callee,
                         std::uint64_t arg0, std::uint64_t arg1,
                         EventPriority prio = EventPriority::Default);

    /** True if no live events remain. */
    bool empty() const;

    /** Tick of the next live event, or kMaxTick when empty. */
    Tick nextEventTick() const;

    /**
     * Run events until the queue is empty or the next event lies
     * beyond @p limit.  Events scheduled exactly at @p limit ARE
     * executed.  now() is advanced to @p limit when the queue runs
     * dry earlier, so subsequent scheduling is relative to the limit.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run a single event; returns false if the queue was empty. */
    bool runOne();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executedCount() const { return executed; }

    /** Live (scheduled, not cancelled) events; O(1). */
    std::size_t liveCount() const { return live; }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::size_t kSlabSize = 256;

    /** Pooled event storage: the scheduled triple plus the
     *  generation and free-list link. */
    struct Slot
    {
        Callee *callee = nullptr;
        std::uint64_t arg0 = 0;
        std::uint64_t arg1 = 0;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
    };
    static_assert(sizeof(Slot) == 32, "an event slot holds no callable");

    /**
     * Heap entry; points into the slot pool, no owned resources.
     * Priority and sequence are packed into one key word (priority in
     * the top byte, sequence below), so the (tick, priority, seq)
     * order reduces to two integer compares and the entry to 24
     * bytes -- the heap is the kernel's hottest data structure.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;  ///< (prio << kPrioShift) | seq
        std::uint32_t slot;
        std::uint32_t gen;
    };

    static constexpr unsigned kPrioShift = 56;

    /** True iff @p a fires after @p b.  (when, key) is a strict
     *  total order -- sequence numbers are unique -- so ANY correct
     *  heap pops entries in one global order and the heap layout is
     *  not observable: determinism does not depend on the arity. */
    static bool
    laterThan(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.key > b.key;
    }

    Slot &
    slotAt(std::uint32_t idx) const
    {
        return slabs[idx / kSlabSize][idx % kSlabSize];
    }

    std::uint32_t allocSlot();

    /** An entry is live iff its generation still matches its slot. */
    bool
    entryLive(const Entry &e) const
    {
        return slotAt(e.slot).gen == e.gen;
    }

    void cancelSlot(std::uint32_t slot, std::uint32_t gen);

    bool
    slotPending(std::uint32_t slot, std::uint32_t gen) const
    {
        return slotAt(slot).gen == gen;
    }

    /** Retire @p slot: invalidate handles/entries and recycle. */
    void
    retireSlot(std::uint32_t idx)
    {
        Slot &s = slotAt(idx);
        ++s.gen;
        s.callee = nullptr;
        s.nextFree = freeHead;
        freeHead = idx;
    }

    /** Pop stale (cancelled) entries off the top. */
    void skipDead() const;

    /** Fire the already-popped live entry @p e. */
    void execEntry(const Entry &e);

    /**
     * Implicit 4-ary min-heap (earliest entry at heap_[0]).  Versus
     * the binary std::priority_queue this halves the sift depth and
     * keeps each child scan inside one or two cache lines -- the
     * heap is the kernel's hottest data structure and most pushed
     * entries are later cancelled, so cheap sifts matter more than
     * minimal comparisons.  Hole-based sifting avoids swaps.
     */
    void
    heapPush(const Entry &e) const
    {
        std::size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            const std::size_t p = (i - 1) >> 2;
            if (!laterThan(heap_[p], e))
                break;
            heap_[i] = heap_[p];
            i = p;
        }
        heap_[i] = e;
    }

    /** Remove heap_[0]. */
    void
    heapPopTop() const
    {
        const Entry e = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n == 0)
            return;
        std::size_t i = 0;
        while (true) {
            const std::size_t c = 4 * i + 1;
            if (c >= n)
                break;
            std::size_t m = c;
            const std::size_t end = c + 4 < n ? c + 4 : n;
            for (std::size_t k = c + 1; k < end; ++k) {
                if (laterThan(heap_[m], heap_[k]))
                    m = k;
            }
            if (!laterThan(e, heap_[m]))
                break;
            heap_[i] = heap_[m];
            i = m;
        }
        heap_[i] = e;
    }

    mutable std::vector<Entry> heap_;
    std::vector<std::unique_ptr<Slot[]>> slabs;
    std::uint32_t freeHead = kNoSlot;
    std::uint32_t slotCount = 0;
    std::size_t live = 0;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

inline void
EventHandle::cancel()
{
    if (queue_)
        queue_->cancelSlot(slot_, gen_);
}

inline bool
EventHandle::pending() const
{
    return queue_ && queue_->slotPending(slot_, gen_);
}

} // namespace refsched

#endif // REFSCHED_SIMCORE_EVENT_QUEUE_HH
