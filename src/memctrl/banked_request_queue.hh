/**
 * @file
 * Fixed-capacity request container for the memory controller,
 * indexed two ways at once:
 *
 *   - a global arrival (FCFS) order over all queued requests, and
 *   - a per-bank arrival order, one intrusive list per bank, plus a
 *     ready-bank bitmask of banks with at least one queued request.
 *
 * The FR-FCFS scheduler only ever needs (a) the globally oldest
 * request and (b) per-bank candidates, so the controller's pick
 * loops iterate over occupied banks (popcount-style, via the
 * bitmask) instead of rescanning the whole queue: candidate scan
 * cost drops from O(queue length) to O(occupied banks) for the
 * activate pass and to O(requests in one bank) for the row-hit and
 * precharge passes.
 *
 * Nodes live in a fixed array sized at construction (queue capacity
 * is a hard controller parameter), linked through indices; push and
 * erase are O(1) and allocation-free.
 */

#ifndef REFSCHED_MEMCTRL_BANKED_REQUEST_QUEUE_HH
#define REFSCHED_MEMCTRL_BANKED_REQUEST_QUEUE_HH

#include <cstdint>
#include <vector>

#include "memctrl/request.hh"
#include "simcore/logging.hh"
#include "simcore/types.hh"

namespace refsched::memctrl
{

class BankedRequestQueue
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    BankedRequestQueue(std::size_t capacity, int banks)
        : nodes_(capacity),
          bankHead_(static_cast<std::size_t>(banks), kNone),
          bankTail_(static_cast<std::size_t>(banks), kNone),
          bankCount_(static_cast<std::size_t>(banks), 0)
    {
        REFSCHED_ASSERT(banks <= 64, "ready-bank mask holds 64 banks");
        for (std::size_t i = 0; i < capacity; ++i) {
            nodes_[i].nextFree = i + 1 < capacity
                ? static_cast<std::uint32_t>(i + 1)
                : kNone;
        }
        freeHead_ = capacity > 0 ? 0 : kNone;
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return freeHead_ == kNone; }
    std::size_t size() const { return size_; }

    /** Queued requests targeting @p bank. */
    int
    bankCount(int bank) const
    {
        return bankCount_[static_cast<std::size_t>(bank)];
    }

    /** Append @p r, which targets @p bank; queue must not be full. */
    std::uint32_t
    push(Request &&r, int bank)
    {
        REFSCHED_ASSERT(freeHead_ != kNone, "push on full queue");
        const std::uint32_t idx = freeHead_;
        Node &n = nodes_[idx];
        freeHead_ = n.nextFree;

        n.req = std::move(r);
        n.bank = bank;

        n.agePrev = ageTail_;
        n.ageNext = kNone;
        if (ageTail_ != kNone)
            nodes_[ageTail_].ageNext = idx;
        else
            ageHead_ = idx;
        ageTail_ = idx;

        auto &head = bankHead_[static_cast<std::size_t>(bank)];
        auto &tail = bankTail_[static_cast<std::size_t>(bank)];
        n.bankPrev = tail;
        n.bankNext = kNone;
        if (tail != kNone)
            nodes_[tail].bankNext = idx;
        else
            head = idx;
        tail = idx;

        if (bankCount_[static_cast<std::size_t>(bank)]++ == 0)
            occupied_ |= 1ULL << bank;
        ++size_;
        return idx;
    }

    /** Unlink and recycle @p slot. */
    void
    erase(std::uint32_t slot)
    {
        Node &n = nodes_[slot];

        if (n.agePrev != kNone)
            nodes_[n.agePrev].ageNext = n.ageNext;
        else
            ageHead_ = n.ageNext;
        if (n.ageNext != kNone)
            nodes_[n.ageNext].agePrev = n.agePrev;
        else
            ageTail_ = n.agePrev;

        const int bank = n.bank;
        if (n.bankPrev != kNone)
            nodes_[n.bankPrev].bankNext = n.bankNext;
        else
            bankHead_[static_cast<std::size_t>(bank)] = n.bankNext;
        if (n.bankNext != kNone)
            nodes_[n.bankNext].bankPrev = n.bankPrev;
        else
            bankTail_[static_cast<std::size_t>(bank)] = n.bankPrev;

        if (--bankCount_[static_cast<std::size_t>(bank)] == 0)
            occupied_ &= ~(1ULL << bank);

        n.req = Request{};  // clear the completion record
        n.nextFree = freeHead_;
        freeHead_ = slot;
        --size_;
    }

    Request &request(std::uint32_t slot) { return nodes_[slot].req; }
    const Request &
    request(std::uint32_t slot) const
    {
        return nodes_[slot].req;
    }

    /** Oldest queued request, or kNone. */
    std::uint32_t front() const { return ageHead_; }

    /** Oldest request for @p bank, or kNone. */
    std::uint32_t
    bankFront(int bank) const
    {
        return bankHead_[static_cast<std::size_t>(bank)];
    }
    std::uint32_t
    nextInBank(std::uint32_t slot) const
    {
        return nodes_[slot].bankNext;
    }

    /**
     * The ready-bank bitmask: bit b set iff bank b has a queued
     * request.  The word-scan issue passes intersect it with the
     * controller's open-row and row-hit masks, and refresh
     * arbitration with its target banks; the controller asserts at
     * construction that a channel has at most 64 banks.
     */
    std::uint64_t occupiedWord() const { return occupied_; }

  private:
    struct Node
    {
        Request req;
        int bank = 0;
        std::uint32_t agePrev = kNone;
        std::uint32_t ageNext = kNone;
        std::uint32_t bankPrev = kNone;
        std::uint32_t bankNext = kNone;
        std::uint32_t nextFree = kNone;
    };

    std::vector<Node> nodes_;
    std::uint32_t freeHead_ = kNone;
    std::uint32_t ageHead_ = kNone;
    std::uint32_t ageTail_ = kNone;
    std::vector<std::uint32_t> bankHead_;
    std::vector<std::uint32_t> bankTail_;
    std::vector<int> bankCount_;
    std::uint64_t occupied_ = 0;  ///< ready-bank bitmask
    std::size_t size_ = 0;
};

} // namespace refsched::memctrl

#endif // REFSCHED_MEMCTRL_BANKED_REQUEST_QUEUE_HH
