#include "workload/hotspot_source.hh"

#include <utility>

#include "os/task.hh"

namespace refsched::workload
{

AdversarialHotspotSource::AdversarialHotspotSource(
    const BenchmarkProfile &profile, std::uint64_t seed,
    std::uint64_t footprintBytes, const os::Task *task,
    const dram::AddressMapping *mapping, RefreshQuery refreshQuery,
    std::function<Tick()> clock, double hotspotFraction)
    : base_(profile, seed, footprintBytes),
      task_(task),
      mapping_(mapping),
      refreshQuery_(std::move(refreshQuery)),
      clock_(std::move(clock)),
      hotspotFraction_(hotspotFraction),
      rng_(seed ^ 0xADBEEF5ULL)
{
}

std::uint32_t
AdversarialHotspotSource::refill(cpu::TraceEntry *block)
{
    cpu::TraceEntry &e = block[0];
    e = base_.next();
    if (!rng_.bernoulli(hotspotFraction_))
        return 1;

    std::vector<int> banks = refreshQuery_(clock_());
    if (banks.empty())
        return 1;  // nothing forecastable (AllBank, NoRefresh, ...)

    if (banks != cachedBanks_) {
        // Rebuild the target-page list over the footprint's vpns,
        // in vpn order.  Pages are touched lazily, so unmapped vpns
        // simply skip.
        cachedBanks_ = banks;
        candidates_.clear();
        const std::uint64_t pageBytes = mapping_->pageBytes();
        const std::uint64_t vpns =
            (base_.footprintBytes() + pageBytes - 1) / pageBytes;
        for (std::uint64_t vpn = 0; vpn < vpns; ++vpn) {
            const std::uint64_t pfn = task_->pageTable.lookup(vpn);
            if (pfn == os::PageTable::kUnmapped)
                continue;
            const int bank = mapping_->bankOfFrame(pfn);
            for (const int b : banks) {
                if (b == bank) {
                    candidates_.push_back(vpn);
                    break;
                }
            }
        }
    }
    if (candidates_.empty())
        return 1;  // no pages in the victim banks yet

    const std::uint64_t pageBytes = mapping_->pageBytes();
    const std::uint64_t vpn = candidates_[rng_.below(candidates_.size())];
    const std::uint32_t access = base_.profile().accessBytes;
    e.vaddr = vpn * pageBytes + rng_.below(pageBytes / access) * access;
    e.sequential = false;
    e.dependent = false;
    return 1;
}

} // namespace refsched::workload
