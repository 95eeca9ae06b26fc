/**
 * @file
 * A task's vpn -> pfn page table: one flat array indexed by vpn.
 *
 * Slot v holds pfn + 1 for a mapped vpn v and 0 for an unmapped one,
 * so a lookup is one bounds check and one load, and walks visit
 * mappings in vpn order without sorting.  A slot is 32 bits (see
 * StoredPfn).  The owner sizes the table for a task's footprint
 * when the task is created (reserve()); past that it grows
 * geometrically up to a caller-given vpn limit (VirtualMemory passes
 * the physical frame count, which bounds every task's virtual space).
 */

#ifndef REFSCHED_OS_PAGE_TABLE_HH
#define REFSCHED_OS_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "simcore/logging.hh"

namespace refsched::os
{

/**
 * A frame number as the OS's large frame tables store it: page-table
 * slots (as pfn + 1), buddy free-list heaps and per-bank free-page
 * caches.  Their APIs take and return 64-bit pfns.  32 bits hold
 * every pfn because BuddyAllocator's constructor rejects a machine
 * with more than PageTable::kMaxPfn frames (16 TiB of 4 KiB pages),
 * the one check all three containers rely on.
 */
using StoredPfn = std::uint32_t;

class PageTable
{
  public:
    /** lookup()'s answer for an unmapped vpn. */
    static constexpr std::uint64_t kUnmapped = ~0ULL;

    /** The largest pfn a slot can hold (it stores pfn + 1). */
    static constexpr std::uint64_t kMaxPfn =
        std::numeric_limits<StoredPfn>::max() - 1ULL;

    /** The pfn backing @p vpn, or kUnmapped. */
    std::uint64_t
    lookup(std::uint64_t vpn) const
    {
        // An empty slot holds 0, and 0 - 1 wraps to kUnmapped.
        return vpn < slots_.size() ? std::uint64_t{slots_[vpn]} - 1
                                   : kUnmapped;
    }

    /** Size an empty table for vpns [0, min(@p vpns, @p vpnLimit)),
     *  so mapping them never regrows it. */
    void
    reserve(std::uint64_t vpns, std::uint64_t vpnLimit)
    {
        REFSCHED_ASSERT(slots_.empty(), "PageTable::reserve: the table "
                        "already has ", slots_.size(), " slots");
        resizeExactly(std::min(vpns, vpnLimit));
    }

    /** Map (or remap) @p vpn to @p pfn; @p vpn must be below
     *  @p vpnLimit, which caps the table's growth. */
    void
    map(std::uint64_t vpn, std::uint64_t pfn, std::uint64_t vpnLimit)
    {
        REFSCHED_ASSERT(vpn < vpnLimit, "PageTable::map: vpn ", vpn,
                        " at or past the limit ", vpnLimit);
        if (vpn >= slots_.size()) {
            const std::uint64_t grown = std::max<std::uint64_t>(
                {vpn + 1, 2 * slots_.size(), kMinSlots});
            resizeExactly(std::min(grown, vpnLimit));
        }
        mapped_ += slots_[vpn] == 0;
        slots_[vpn] = static_cast<StoredPfn>(pfn + 1);
    }

    /** Drop @p vpn's mapping; it must be mapped. */
    void
    unmap(std::uint64_t vpn)
    {
        REFSCHED_ASSERT(lookup(vpn) != kUnmapped, "PageTable::unmap: vpn ",
                        vpn, " is not mapped");
        slots_[vpn] = 0;
        --mapped_;
    }

    /** Mapped page count. */
    std::uint64_t size() const { return mapped_; }
    bool empty() const { return mapped_ == 0; }

    /** Slots allocated (mapped or not). */
    std::size_t capacity() const { return slots_.capacity(); }

    /** Call f(vpn, pfn) for every mapping at vpn >= @p firstVpn, in
     *  vpn order.  f may unmap the vpn it is given. */
    template <typename F>
    void
    forEach(F &&f, std::uint64_t firstVpn = 0) const
    {
        for (std::uint64_t vpn = firstVpn; vpn < slots_.size(); ++vpn) {
            if (slots_[vpn] != 0)
                f(vpn, std::uint64_t{slots_[vpn]} - 1);
        }
    }

    /** Drop every mapping and give the array's memory back. */
    void
    clear()
    {
        std::vector<StoredPfn>().swap(slots_);
        mapped_ = 0;
    }

  private:
    static constexpr std::uint64_t kMinSlots = 64;

    void
    resizeExactly(std::uint64_t size)
    {
        // reserve() first so the capacity is exactly the new size
        // (a bare resize() may double past the limit).
        slots_.reserve(size);
        slots_.resize(size);
    }

    std::vector<StoredPfn> slots_;
    static_assert(sizeof(decltype(slots_)::value_type) == 4,
                  "page-table slots are 4 bytes");
    std::uint64_t mapped_ = 0;
};

} // namespace refsched::os

#endif // REFSCHED_OS_PAGE_TABLE_HH
