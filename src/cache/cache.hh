/**
 * @file
 * Set-associative write-back cache with true-LRU replacement.
 *
 * The cache is a tag store only: it tracks presence and dirtiness of
 * physical lines, reporting hits, misses and evicted victims.  Data
 * values are never simulated.  Misses allocate immediately
 * (write-validate for stores); the caller charges latency and issues
 * DRAM traffic.
 */

#ifndef REFSCHED_CACHE_CACHE_HH
#define REFSCHED_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace refsched::cache
{

struct CacheParams
{
    std::uint64_t sizeBytes = 32 * kKiB;
    int associativity = 4;
    std::uint64_t lineBytes = 64;
    Cycles hitLatency = 2;  ///< in CPU cycles

    std::uint64_t
    numSets() const
    {
        return sizeBytes
            / (static_cast<std::uint64_t>(associativity) * lineBytes);
    }
};

/** Outcome of a single cache access. */
struct CacheAccessOutcome
{
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool victimValid = false;
    /** The evicted line was dirty (needs write-back). */
    bool victimDirty = false;
    /** Line-aligned address of the evicted line. */
    Addr victimAddr = 0;
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p paddr; on miss, allocate the line (evicting LRU).
     * @p isWrite marks the line dirty.
     */
    CacheAccessOutcome access(Addr paddr, bool isWrite);

    /** Probe without allocating or updating LRU. */
    bool contains(Addr paddr) const;

    /**
     * Insert a line without a demand access (e.g., a write-back
     * arriving from an upper level).  Returns the victim outcome.
     */
    CacheAccessOutcome insert(Addr paddr, bool dirty);

    /** Drop a line if present; returns true if it was dirty. */
    bool invalidate(Addr paddr);

    /** Drop everything (e.g., between experiments). */
    void reset();

    const CacheParams &params() const { return params_; }

    // --- Statistics ---
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_)
                / static_cast<double>(accesses_)
                         : 0.0;
    }
    void
    resetStats()
    {
        accesses_ = misses_ = writebacks_ = 0;
    }

  private:
    std::uint64_t setIndex(Addr paddr) const;
    Addr tagOf(Addr paddr) const;
    Addr lineAddr(Addr tag, std::uint64_t set) const;

    /** First slot of @p paddr's set in the parallel arrays. */
    std::size_t setBase(Addr paddr) const;

    /** Slot holding key @p key (never 0) in the set starting at
     *  @p base, or kNoSlot. */
    std::size_t findIn(std::size_t base, Addr key) const;

    /** Allocate @p key into the set starting at @p base: the first
     *  invalid way, else the least recently used one (ties to the
     *  lowest way).  Reports the evicted victim. */
    CacheAccessOutcome fill(std::size_t base, Addr key, bool dirty);

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    CacheParams params_;
    std::uint64_t numSets_;
    unsigned lineShift_;
    unsigned setBits_;
    std::size_t assoc_;

    // Set-major structure-of-arrays tag store (numSets * assoc
    // slots): the way scan reads only the dense keys_ row.
    std::vector<Addr> keys_;  ///< tag + 1; 0 marks an invalid way
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useCounter_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace refsched::cache

#endif // REFSCHED_CACHE_CACHE_HH
