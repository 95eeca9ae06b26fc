/**
 * @file
 * Two-level cache hierarchy: per-core L1D caches in front of a
 * shared, physically-indexed L2 (Table 1: 32 KB 4-way L1, 2 cycles;
 * 2 MB 16-way shared L2, 20 cycles).
 *
 * An access either hits in some level (returning the accumulated hit
 * latency) or misses to DRAM.  Dirty victims percolate down: an L1
 * victim is written into L2; an L2 victim becomes a DRAM write-back.
 * Tasks share the physical hierarchy, so consolidated workloads
 * naturally thrash each other's lines across context switches.
 */

#ifndef REFSCHED_CACHE_CACHE_HIERARCHY_HH
#define REFSCHED_CACHE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace refsched::cache
{

struct HierarchyParams
{
    CacheParams l1{32 * kKiB, 4, 64, 2};
    CacheParams l2{2 * kMiB, 16, 64, 20};
};

/** Outcome of one load/store walking the hierarchy. */
struct HierarchyResult
{
    /** Accumulated lookup latency in CPU cycles (excludes DRAM). */
    Cycles latency = 0;

    /** The access missed everywhere: a DRAM read is required to
     *  complete a load (stores allocate without fetching). */
    bool dramMiss = false;

    /** Dirty L2 victims that must be written to DRAM (0..2). */
    int writebackCount = 0;
    Addr writebacks[2] = {0, 0};
};

class CacheHierarchy
{
  public:
    /** @p physBytes bounds the physical addresses (see Cache). */
    CacheHierarchy(int numCores, const HierarchyParams &params,
                   Addr physBytes = Cache::kDefaultPhysBytes);

    /**
     * Perform a load/store by core @p coreId for task @p pid at
     * physical address @p paddr.
     */
    HierarchyResult access(int coreId, Pid pid, Addr paddr,
                           bool isWrite);

    /**
     * Count @p n loads/stores that hit through l1(core).accessHit()
     * instead of access(): the L1 hit path of a caller that batches
     * its access count (the L1's own counters are already updated).
     */
    void
    countL1Hits(std::uint64_t n)
    {
        totalAccesses_ += static_cast<double>(n);
    }

    /** Demand L2 misses for @p pid (numerator of MPKI). */
    std::uint64_t l2MissesOf(Pid pid) const;

    /** Clear all cached state (tags + per-task counters). */
    void reset();

    /** Drop per-task miss counters only (end of warm-up). */
    void resetStats();

    Cache &l1(int coreId)
    {
        return l1s_[static_cast<std::size_t>(coreId)];
    }
    Cache &l2() { return l2_; }

    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    HierarchyParams params_;
    std::vector<Cache> l1s_;
    Cache l2_;
    std::map<Pid, std::uint64_t> l2MissesPerPid_;

    Scalar totalAccesses_;
    Scalar l1Misses_;
    Scalar l2Misses_;
    Scalar dramWritebacks_;
};

} // namespace refsched::cache

#endif // REFSCHED_CACHE_CACHE_HIERARCHY_HH
