/**
 * @file
 * Adversarial colocation generator (scenario engine): a wrapper
 * around SyntheticTraceGenerator that redirects most accesses at the
 * task's pages living in banks *about to be refreshed*.  This is the
 * worst case for the co-design: a tenant whose traffic chases the
 * refresh schedule defeats the clean/dirty classification for every
 * task sharing those banks, and -- after churn strands its placement
 * -- makes stale pages maximally expensive until they are migrated.
 */

#ifndef REFSCHED_WORKLOAD_HOTSPOT_SOURCE_HH
#define REFSCHED_WORKLOAD_HOTSPOT_SOURCE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/instruction_source.hh"
#include "dram/address_mapping.hh"
#include "simcore/types.hh"
#include "workload/trace_generator.hh"

namespace refsched::os
{
class Task;
} // namespace refsched::os

namespace refsched::workload
{

class AdversarialHotspotSource final : public cpu::InstructionSource
{
  public:
    /** Global banks under (or imminently entering) refresh at a
     *  tick; empty under policies with no forecastable schedule. */
    using RefreshQuery = std::function<std::vector<int>(Tick)>;

    /**
     * @param task     the task this source drives (its page table
     *                 tells us which vpns live in the target banks)
     * @param clock    current simulation tick (the source has no
     *                 event-queue access of its own)
     * @param hotspotFraction  probability a memory access is
     *                 redirected at a refreshing bank
     */
    AdversarialHotspotSource(const BenchmarkProfile &profile,
                             std::uint64_t seed,
                             std::uint64_t footprintBytes,
                             const os::Task *task,
                             const dram::AddressMapping *mapping,
                             RefreshQuery refreshQuery,
                             std::function<Tick()> clock,
                             double hotspotFraction = 0.8);

    double baseCpi() const override { return base_.baseCpi(); }

    /** Underlying generator (phase state, effective footprint). */
    const SyntheticTraceGenerator &generator() const { return base_; }

  private:
    /** One entry per refill: the redirect reads the clock and the
     *  refresh forecast at the moment its entry is handed out. */
    std::uint32_t refill(cpu::TraceEntry *block) override;

    SyntheticTraceGenerator base_;
    const os::Task *task_;
    const dram::AddressMapping *mapping_;
    RefreshQuery refreshQuery_;
    std::function<Tick()> clock_;
    double hotspotFraction_;
    Rng rng_;

    /** Banks the candidate list was built for. */
    std::vector<int> cachedBanks_;
    /** vpns of the task's pages resident in cachedBanks_. */
    std::vector<std::uint64_t> candidates_;
};

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_HOTSPOT_SOURCE_HH
