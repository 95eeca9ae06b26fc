/**
 * @file
 * Bank-aware buddy allocator (paper Algorithm 2).
 *
 * A classic binary-buddy physical frame allocator (orders 0..11, like
 * Linux's MAX_ORDER) extended with the paper's two mechanisms:
 *
 *  1. Per-bank free-list caches: order-0 pages popped from the buddy
 *     free lists whose bank does not match the requested bank are
 *     stashed in a per-bank cache rather than returned, so a free
 *     page of any bank is later found without traversing the OS
 *     free list (Algorithm 2, lines 15/33).
 *  2. Round-robin allocation over a task's possibleBanksVector, via
 *     the task's lastAllocedBank cursor, preserving bank-level
 *     parallelism within the permitted subset (lines 10-11).
 *
 * The allocator learns bank placement through the hardware
 * AddressMapping that the co-design exposes to the OS.
 */

#ifndef REFSCHED_OS_BUDDY_ALLOCATOR_HH
#define REFSCHED_OS_BUDDY_ALLOCATOR_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dram/address_mapping.hh"
#include "os/task.hh"
#include "simcore/event_queue.hh"
#include "simcore/probe.hh"
#include "simcore/stats.hh"

namespace refsched::os
{

/**
 * Free-block list for one buddy order: a binary min-heap over a flat
 * vector.  The allocator only ever pops the minimum (deterministic
 * lowest-address-first, same order a std::set yields) and pushes
 * split halves, both O(log n) with no node allocation -- the hot
 * demand-paging path used to spend ~10% of a co-design run inside
 * red-black-tree erase.  Arbitrary-element erase (coalescing) is
 * linear but only runs on teardown paths.  Elements are 32-bit
 * StoredPfns (os/page_table.hh).
 */
class PfnMinHeap
{
  public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }

    void
    push(std::uint64_t pfn)
    {
        v_.push_back(static_cast<StoredPfn>(pfn));
        std::push_heap(v_.begin(), v_.end(), std::greater<StoredPfn>{});
    }

    /** Remove and return the smallest pfn; heap must be non-empty. */
    std::uint64_t
    popMin()
    {
        std::pop_heap(v_.begin(), v_.end(), std::greater<StoredPfn>{});
        const std::uint64_t pfn = v_.back();
        v_.pop_back();
        return pfn;
    }

    /** Remove @p pfn if present; false when absent. */
    bool
    erase(std::uint64_t pfn)
    {
        auto it = std::find(v_.begin(), v_.end(), pfn);
        if (it == v_.end())
            return false;
        *it = v_.back();
        v_.pop_back();
        std::make_heap(v_.begin(), v_.end(), std::greater<StoredPfn>{});
        return true;
    }

    bool
    contains(std::uint64_t pfn) const
    {
        return std::find(v_.begin(), v_.end(), pfn) != v_.end();
    }

    /** Unordered view of the stored pfns (for invariant checks). */
    const std::vector<StoredPfn> &items() const { return v_; }

  private:
    std::vector<StoredPfn> v_;
    static_assert(sizeof(decltype(v_)::value_type) == 4,
                  "free-list heap elements are 4 bytes");
};

class BuddyAllocator
{
  public:
    /** Largest block order (2^11 pages = 8 MB with 4 KB pages). */
    static constexpr int kMaxOrder = 11;

    /** fatal() when @p mapping has more than PageTable::kMaxPfn
     *  frames: every container of frame numbers in the OS stores
     *  them in 32 bits (StoredPfn) and relies on this check alone. */
    explicit BuddyAllocator(const dram::AddressMapping &mapping);

    // ------------------------------------------------------------------
    // Algorithm 2: bank-aware page allocation
    // ------------------------------------------------------------------

    /**
     * Allocate one page for @p task honouring its
     * possibleBanksVector, rotating over permitted banks.  Returns
     * std::nullopt when no page in a permitted bank exists.  On
     * success the task's residentPagesPerBank footprint is updated
     * here, at the allocation site -- the refresh-aware scheduler
     * (Algorithm 3) reads that footprint, so every allocation path
     * must record it, not just the virtual-memory fault handler.
     */
    std::optional<std::uint64_t> allocPage(Task &task);

    /**
     * Fallback of section 5.4.1: allocate one page from any bank
     * (used when the soft-partitioned banks are exhausted).  A spill
     * outside the mask is never silent: the task's bank footprint
     * and fallbackAllocs counter are updated and the probe event is
     * emitted with fallback=true so the OsAuditor can check the
     * spill was justified (all permitted banks full).
     */
    std::optional<std::uint64_t> allocPageAnyBank(Task *task);

    /** Return one page; it lands in its bank's free-list cache.
     *  @p owner is the releasing task's pid (reported to the probe so
     *  auditors can keep per-task residency exact); -1 when the owner
     *  is unknown. */
    void freePage(std::uint64_t pfn, Pid owner = -1);

    // ------------------------------------------------------------------
    // Generic buddy interface
    // ------------------------------------------------------------------

    /** Allocate a 2^order-page block (lowest address first). */
    std::optional<std::uint64_t> allocBlock(int order);

    /** Free a block previously returned by allocBlock, coalescing
     *  with free buddies up to kMaxOrder. */
    void freeBlock(std::uint64_t pfn, int order);

    /** Push per-bank cached pages back into the buddy lists (with
     *  coalescing), e.g. when tearing a workload down. */
    void drainBankCaches();

    /**
     * Attach an instrumentation probe; page-granularity alloc/free
     * events are reported through it, timestamped from @p clock.
     * Block-granularity allocBlock/freeBlock calls are not reported
     * (the simulated OS only uses the page interface).
     */
    void
    setProbe(validate::Probe *probe, const EventQueue *clock)
    {
        probe_ = probe;
        clock_ = clock;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /** Free frames in buddy lists + per-bank caches. */
    std::uint64_t freeFrames() const { return freeFrames_; }

    std::uint64_t totalFrames() const { return totalFrames_; }

    std::uint64_t bankCacheSize(int globalBank) const
    {
        return perBankFree_[static_cast<std::size_t>(globalBank)].size();
    }

    std::uint64_t freeListSize(int order) const
    {
        return freeLists_[static_cast<std::size_t>(order)].size();
    }

    /**
     * Check structural invariants: free blocks aligned to their
     * order, in range, non-overlapping, and the free-frame count
     * consistent.  O(free blocks log n); for tests.
     */
    bool checkInvariants(std::string *why = nullptr) const;

    // --- Statistics ---
    std::uint64_t bankCacheHits() const { return bankCacheHits_; }
    std::uint64_t fallbackAllocations() const { return fallbacks_; }

  private:
    /** Pop a page from @p bank's cache, if any. */
    std::optional<std::uint64_t> popBankCache(int bank);

    const dram::AddressMapping &mapping_;
    std::uint64_t totalFrames_;
    std::uint64_t freeFrames_ = 0;
    int numBanks_;

    /** Buddy free lists, one min-heap of block-start pfns per order
     *  (min-pop => deterministic lowest-address-first). */
    std::vector<PfnMinHeap> freeLists_;

    /** Per-bank caches of order-0 pages (Algorithm 2). */
    std::vector<std::vector<StoredPfn>> perBankFree_;
    static_assert(
        sizeof(decltype(perBankFree_)::value_type::value_type) == 4,
        "per-bank cache elements are 4 bytes");

    validate::Probe *probe_ = nullptr;
    const EventQueue *clock_ = nullptr;

    std::uint64_t bankCacheHits_ = 0;
    std::uint64_t fallbacks_ = 0;
};

} // namespace refsched::os

#endif // REFSCHED_OS_BUDDY_ALLOCATOR_HH
