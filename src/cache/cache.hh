/**
 * @file
 * Set-associative write-back cache with true-LRU replacement.
 *
 * The cache is a tag store only: it tracks presence and dirtiness of
 * physical lines, reporting hits, misses and evicted victims.  Data
 * values are never simulated.  Misses allocate immediately
 * (write-validate for stores); the caller charges latency and issues
 * DRAM traffic.
 *
 * A line takes 6 bytes of state: a 32-bit key (tag + 1, 0 for an
 * invalid way), a one-byte recency rank and a dirty byte.  The ranks
 * of a set are a permutation of [0, associativity): a touch moves the
 * way to rank 0 and ages every way that was more recent by one, so
 * the highest rank is the least recently used way.
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
    /** Physical span a cache covers when the caller names none
     *  (256 GiB); System passes its DRAM capacity instead. */
    static constexpr Addr kDefaultPhysBytes = Addr{1} << 38;

    /**
     * @param physBytes physical addresses the cache will see lie in
     *        [0, physBytes); fatal() when a tag of that range does not
     *        fit the 32-bit key.
     */
    explicit Cache(const CacheParams &params,
                   Addr physBytes = kDefaultPhysBytes);

    /**
     * Look up @p paddr; on miss, allocate the line (evicting LRU).
     * @p isWrite marks the line dirty.
     */
    CacheAccessOutcome access(Addr paddr, bool isWrite);

    /**
     * access() for a line that is already cached: on a hit, does
     * exactly what access() does and returns true; on a miss,
     * returns false and changes nothing (no counter, no LRU state).
     */
    bool
    accessHit(Addr paddr, bool isWrite)
    {
        const std::size_t base = setBase(paddr);
        const std::size_t slot = findIn(base, keyOf(paddr));
        if (slot == kNoSlot)
            return false;
        ++accesses_;
        touch(base, slot);
        dirty_[slot] |= isWrite;
        return true;
    }

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
    /** Key of @p paddr's line: tag + 1 (0 marks an invalid way). */
    std::uint32_t
    keyOf(Addr paddr) const
    {
        return static_cast<std::uint32_t>(
            (paddr >> (lineShift_ + setBits_)) + 1);
    }

    /** First slot of @p paddr's set in the parallel arrays. */
    std::size_t
    setBase(Addr paddr) const
    {
        return static_cast<std::size_t>((paddr >> lineShift_)
                                         & (numSets_ - 1))
            * assoc_;
    }

    /** Slot holding key @p key (never 0) in the set starting at
     *  @p base, or kNoSlot. */
    std::size_t
    findIn(std::size_t base, std::uint32_t key) const
    {
        // Keys are unique within a set and the invalid key 0 is never
        // looked up, so at most one way matches: scan them all and
        // keep it with a select rather than exiting at a random way.
        const std::uint32_t *k = keys_.data() + base;
        std::size_t slot = kNoSlot;
        for (std::size_t w = 0; w < assoc_; ++w)
            slot = k[w] == key ? base + w : slot;
        return slot;
    }

    /** Make @p slot the most recently used way of its set. */
    void
    touch(std::size_t base, std::size_t slot)
    {
        const std::uint8_t old = rank_[slot];
        if (old == 0)
            return;  // already the most recent way
        std::uint8_t *r = rank_.data() + base;
        for (std::size_t w = 0; w < assoc_; ++w)
            r[w] = static_cast<std::uint8_t>(r[w] + (r[w] < old));
        rank_[slot] = 0;
    }

    /** Line-aligned address of @p key's line in set @p set. */
    Addr lineAddr(std::uint32_t key, std::uint64_t set) const;

    /** Allocate @p key into the set starting at @p base: the first
     *  invalid way, else the least recently used one.  Reports the
     *  evicted victim. */
    CacheAccessOutcome fill(std::size_t base, std::uint32_t key,
                            bool dirty);

    /** Every set's ranks to 0, 1, ..., assoc - 1 by way. */
    void resetRanks();

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    CacheParams params_;
    std::uint64_t numSets_;
    unsigned lineShift_;
    unsigned setBits_;
    std::size_t assoc_;

    // Set-major structure-of-arrays tag store (numSets * assoc
    // slots): the way scan reads only the dense keys_ row.
    std::vector<std::uint32_t> keys_;  ///< tag + 1; 0 = invalid way
    std::vector<std::uint8_t> rank_;   ///< 0 = most recently used
    std::vector<std::uint8_t> dirty_;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace refsched::cache

#endif // REFSCHED_CACHE_CACHE_HH
