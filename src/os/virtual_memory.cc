#include "os/virtual_memory.hh"

#include <algorithm>

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

    const std::size_t slot = vpn & (Task::kTlbEntries - 1);
    if (task.tlbTag[slot] == vpn + 1) {
        if (faulted)
            *faulted = false;
        return (task.tlbPfn[slot] << shift) | offset;
    }

    auto it = task.pageTable.find(vpn);
    if (it != task.pageTable.end()) {
        task.tlbTag[slot] = vpn + 1;
        task.tlbPfn[slot] = it->second;
        if (faulted)
            *faulted = false;
        return (it->second << shift) | offset;
    }

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

    task.pageTable.emplace(vpn, *pfn);
    task.tlbTag[slot] = vpn + 1;
    task.tlbPfn[slot] = *pfn;
    ++task.pageFaults;
    ++pageFaults_;
    if (faulted)
        *faulted = true;
    return (*pfn << shift) | offset;
}

void
VirtualMemory::releaseTask(Task &task)
{
    // Free in vpn order: pageTable iteration order is
    // implementation-defined and the frees are probe-visible, so an
    // unordered walk would leak hash-map layout into golden traces.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pages(
        task.pageTable.begin(), task.pageTable.end());
    std::sort(pages.begin(), pages.end());
    for (const auto &[vpn, pfn] : pages)
        buddy_.freePage(pfn, task.pid());
    task.pageTable.clear();
    task.tlbTag.fill(0);
    task.clearResidentPages();
}

std::vector<std::uint64_t>
VirtualMemory::collectStalePages(const Task &task) const
{
    std::vector<std::uint64_t> stale;
    for (const auto &[vpn, pfn] : task.pageTable) {
        if (!task.allowsBank(mapping_.bankOfFrame(pfn)))
            stale.push_back(vpn);
    }
    std::sort(stale.begin(), stale.end());
    return stale;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
VirtualMemory::migratePage(Task &task, std::uint64_t vpn, bool freeOld)
{
    auto it = task.pageTable.find(vpn);
    REFSCHED_ASSERT(it != task.pageTable.end(),
                    "migratePage: vpn ", vpn, " not mapped for pid ",
                    task.pid());
    const std::uint64_t fromPfn = it->second;

    // Algorithm 2 placement into the new mask; allocPage records the
    // destination in the task's residency footprint.
    const auto toPfn = buddy_.allocPage(task);
    if (!toPfn)
        return std::nullopt;  // permitted banks exhausted: stay put

    it->second = *toPfn;
    const std::size_t slot = vpn & (Task::kTlbEntries - 1);
    if (task.tlbTag[slot] == vpn + 1)
        task.tlbPfn[slot] = *toPfn;
    if (freeOld) {
        task.removeResidentPage(mapping_.bankOfFrame(fromPfn));
        buddy_.freePage(fromPfn, task.pid());
    }
    return std::make_pair(fromPfn, *toPfn);
}

std::uint64_t
VirtualMemory::trimFootprint(Task &task, std::uint64_t vpnBound)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> doomed;
    for (const auto &[vpn, pfn] : task.pageTable) {
        if (vpn >= vpnBound)
            doomed.emplace_back(vpn, pfn);
    }
    std::sort(doomed.begin(), doomed.end());
    for (const auto &[vpn, pfn] : doomed) {
        task.pageTable.erase(vpn);
        const std::size_t slot = vpn & (Task::kTlbEntries - 1);
        if (task.tlbTag[slot] == vpn + 1)
            task.tlbTag[slot] = 0;
        task.removeResidentPage(mapping_.bankOfFrame(pfn));
        buddy_.freePage(pfn, task.pid());
    }
    return doomed.size();
}

} // namespace refsched::os
