/**
 * @file
 * Per-task virtual memory with demand paging.
 *
 * Virtual pages are materialised on first touch through the
 * bank-aware buddy allocator (Algorithm 2).  When a task's permitted
 * banks are exhausted, allocation falls back to any bank, as the
 * generalised scheme in paper section 5.4.1 prescribes; the task's
 * residentPagesPerBank counters then let the best-effort scheduler
 * reason about where its data really lives.
 */

#ifndef REFSCHED_OS_VIRTUAL_MEMORY_HH
#define REFSCHED_OS_VIRTUAL_MEMORY_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dram/address_mapping.hh"
#include "os/buddy_allocator.hh"
#include "os/task.hh"
#include "simcore/stats.hh"

namespace refsched::os
{

class VirtualMemory
{
  public:
    VirtualMemory(const dram::AddressMapping &mapping,
                  BuddyAllocator &buddy);

    /**
     * Translate @p vaddr for @p task, allocating the backing frame
     * on first touch.  @p faulted (optional) reports whether this
     * access took a page fault.  fatal() when physical memory is
     * fully exhausted.
     */
    Addr translate(Task &task, Addr vaddr, bool *faulted = nullptr);

    /** Release every frame owned by @p task. */
    void releaseTask(Task &task);

    /**
     * Virtual pages of @p task whose backing frame lives in a bank
     * its current possibleBanksVector forbids -- the stale set after
     * a consolidation re-binpack.  Sorted by vpn (deterministic
     * regardless of pageTable iteration order).
     */
    std::vector<std::uint64_t> collectStalePages(const Task &task) const;

    /**
     * Move @p vpn's backing frame into a bank permitted by the
     * task's current possibleBanksVector (Algorithm 2 placement).
     * The mapping, TLB and bank residency are rewritten immediately;
     * the caller models the copy traffic.  When @p freeOld is false
     * the source frame is left allocated (transiently double-counted
     * against the task) and the caller must freePage it once the copy
     * completes.  Returns {fromPfn, toPfn}, or std::nullopt when no
     * permitted bank has a free frame (the page then stays put).
     */
    std::optional<std::pair<std::uint64_t, std::uint64_t>>
    migratePage(Task &task, std::uint64_t vpn, bool freeOld = true);

    /**
     * Shrink @p task's address space to the first @p vpnBound virtual
     * pages (phase change to a smaller footprint): every mapping at
     * vpn >= vpnBound is unmapped and its frame returned to the buddy
     * allocator.  Returns the number of pages released.
     */
    std::uint64_t trimFootprint(Task &task, std::uint64_t vpnBound);

    std::uint64_t pageFaults() const { return pageFaults_; }
    std::uint64_t fallbackAllocations() const { return fallbacks_; }

    const dram::AddressMapping &mapping() const { return mapping_; }

  private:
    const dram::AddressMapping &mapping_;
    BuddyAllocator &buddy_;
    std::uint64_t pageFaults_ = 0;
    std::uint64_t fallbacks_ = 0;
};

} // namespace refsched::os

#endif // REFSCHED_OS_VIRTUAL_MEMORY_HH
