#include "os/virtual_memory.hh"

#include <ios>

#include "simcore/logging.hh"

namespace refsched::os
{

VirtualMemory::VirtualMemory(const dram::AddressMapping &mapping,
                             BuddyAllocator &buddy)
    : mapping_(mapping), buddy_(buddy)
{
}

Addr
VirtualMemory::translate(Task &task, Addr vaddr, bool *faulted)
{
    const unsigned shift = mapping_.pageShift();
    const std::uint64_t vpn = vaddr >> shift;
    const Addr offset = vaddr & ((1ULL << shift) - 1);

    const std::uint64_t mapped = task.pageTable.lookup(vpn);
    if (mapped != PageTable::kUnmapped) {
        if (faulted)
            *faulted = false;
        return (mapped << shift) | offset;
    }

    // A task's virtual space is at most the size of physical memory
    // (the capacity guard holds footprints well under it), so a vpn
    // past it is a forged or corrupt address, not a page to map.
    const std::uint64_t limit = mapping_.totalFrames();
    if (vpn >= limit)
        fatal("task ", task.name(), " (pid ", task.pid(),
              ") touched vaddr 0x", std::hex, vaddr, std::dec, " (vpn ", vpn,
              ") past its address-space limit of ", limit,
              " pages (the physical frame count)");

    // Demand paging: Algorithm 2 first, any-bank fallback second.
    // The allocator records the task's bank footprint (and the
    // fallbackAllocs count on a spill) at the allocation site.
    auto pfn = buddy_.allocPage(task);
    if (!pfn) {
        pfn = buddy_.allocPageAnyBank(&task);
        if (pfn)
            ++fallbacks_;
    }
    if (!pfn)
        fatal("out of physical memory: task ", task.name(), " (pid ",
              task.pid(), ") touched vpn ", vpn, " with ",
              buddy_.freeFrames(), " free frames");

    task.pageTable.map(vpn, *pfn, limit);
    ++task.pageFaults;
    ++pageFaults_;
    if (faulted)
        *faulted = true;
    return (*pfn << shift) | offset;
}

void
VirtualMemory::releaseTask(Task &task)
{
    // Free in vpn order: the frees are probe-visible.
    task.pageTable.forEach([&](std::uint64_t, std::uint64_t pfn) {
        buddy_.freePage(pfn, task.pid());
    });
    task.pageTable.clear();
    task.clearResidentPages();
}

std::vector<std::uint64_t>
VirtualMemory::collectStalePages(const Task &task) const
{
    std::vector<std::uint64_t> stale;
    task.pageTable.forEach([&](std::uint64_t vpn, std::uint64_t pfn) {
        if (!task.allowsBank(mapping_.bankOfFrame(pfn)))
            stale.push_back(vpn);
    });
    return stale;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
VirtualMemory::migratePage(Task &task, std::uint64_t vpn, bool freeOld)
{
    const std::uint64_t fromPfn = task.pageTable.lookup(vpn);
    REFSCHED_ASSERT(fromPfn != PageTable::kUnmapped,
                    "migratePage: vpn ", vpn, " not mapped for pid ",
                    task.pid());

    // Algorithm 2 placement into the new mask; allocPage records the
    // destination in the task's residency footprint.
    const auto toPfn = buddy_.allocPage(task);
    if (!toPfn)
        return std::nullopt;  // permitted banks exhausted: stay put

    task.pageTable.map(vpn, *toPfn, mapping_.totalFrames());
    if (freeOld) {
        task.removeResidentPage(mapping_.bankOfFrame(fromPfn));
        buddy_.freePage(fromPfn, task.pid());
    }
    return std::make_pair(fromPfn, *toPfn);
}

std::uint64_t
VirtualMemory::trimFootprint(Task &task, std::uint64_t vpnBound)
{
    std::uint64_t released = 0;
    task.pageTable.forEach(
        [&](std::uint64_t vpn, std::uint64_t pfn) {
            task.pageTable.unmap(vpn);
            task.removeResidentPage(mapping_.bankOfFrame(pfn));
            buddy_.freePage(pfn, task.pid());
            ++released;
        },
        vpnBound);
    return released;
}

} // namespace refsched::os
