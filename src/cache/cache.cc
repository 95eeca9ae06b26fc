#include "cache/cache.hh"

#include <algorithm>
#include <limits>

#include "simcore/logging.hh"

namespace refsched::cache
{

Cache::Cache(const CacheParams &params, Addr physBytes)
    : params_(params)
{
    if (!isPowerOfTwo(params_.lineBytes))
        fatal("cache line size must be a power of two");
    if (params_.associativity < 1 || params_.associativity > 255)
        fatal("cache associativity must be in [1, 255] (one-byte LRU "
              "ranks); got ", params_.associativity);
    numSets_ = params_.numSets();
    if (numSets_ == 0 || !isPowerOfTwo(numSets_))
        fatal("cache set count must be a non-zero power of two; size=",
              params_.sizeBytes, " assoc=", params_.associativity,
              " line=", params_.lineBytes);
    lineShift_ = log2Exact(params_.lineBytes);
    setBits_ = log2Exact(numSets_);
    // The largest key of the physical range must fit 32 bits
    // (keys are tag + 1, so the largest tag must stay below 2^32 - 1).
    const Addr maxTag = (std::max<Addr>(physBytes, 1) - 1)
        >> (lineShift_ + setBits_);
    if (maxTag >= std::numeric_limits<std::uint32_t>::max())
        fatal("cache tags of a ", physBytes,
              "-byte physical space do not fit 32 bits; size=",
              params_.sizeBytes, " assoc=", params_.associativity,
              " line=", params_.lineBytes);
    assoc_ = static_cast<std::size_t>(params_.associativity);
    const std::size_t slots = numSets_ * assoc_;
    keys_.assign(slots, 0);
    rank_.resize(slots);
    resetRanks();
    dirty_.assign(slots, 0);
}

void
Cache::resetRanks()
{
    std::uint8_t *r = rank_.data();
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        for (std::size_t w = 0; w < assoc_; ++w)
            *r++ = static_cast<std::uint8_t>(w);
    }
}

Addr
Cache::lineAddr(std::uint32_t key, std::uint64_t set) const
{
    return ((static_cast<Addr>(key - 1) << setBits_) | set)
        << lineShift_;
}

bool
Cache::contains(Addr paddr) const
{
    return findIn(setBase(paddr), keyOf(paddr)) != kNoSlot;
}

CacheAccessOutcome
Cache::access(Addr paddr, bool isWrite)
{
    if (accessHit(paddr, isWrite))
        return CacheAccessOutcome{true, false, false, 0};
    ++accesses_;
    ++misses_;
    return fill(setBase(paddr), keyOf(paddr), isWrite);
}

CacheAccessOutcome
Cache::insert(Addr paddr, bool dirty)
{
    const std::size_t base = setBase(paddr);
    const std::uint32_t key = keyOf(paddr);
    const std::size_t slot = findIn(base, key);
    if (slot != kNoSlot) {
        // Already present (write-back landing on a cached line).
        dirty_[slot] |= dirty;
        touch(base, slot);
        return CacheAccessOutcome{};
    }
    return fill(base, key, dirty);
}

CacheAccessOutcome
Cache::fill(std::size_t base, std::uint32_t key, bool dirty)
{
    // Ranks are a permutation, so exactly one way holds the oldest
    // rank, assoc - 1: the way the smallest lastUse stamp would pick.
    const std::uint8_t oldest = static_cast<std::uint8_t>(assoc_ - 1);
    std::size_t victim = base;
    for (std::size_t s = base; s < base + assoc_; ++s) {
        if (keys_[s] == 0) {
            victim = s;
            break;
        }
        if (rank_[s] == oldest)
            victim = s;
    }

    CacheAccessOutcome out;
    if (keys_[victim] != 0) {
        out.victimValid = true;
        out.victimDirty = dirty_[victim] != 0;
        out.victimAddr = lineAddr(keys_[victim], victim / assoc_);
        if (out.victimDirty)
            ++writebacks_;
    }

    keys_[victim] = key;
    dirty_[victim] = dirty;
    touch(base, victim);
    return out;
}

bool
Cache::invalidate(Addr paddr)
{
    const std::size_t slot = findIn(setBase(paddr), keyOf(paddr));
    if (slot == kNoSlot)
        return false;
    const bool wasDirty = dirty_[slot] != 0;
    keys_[slot] = 0;
    dirty_[slot] = 0;
    return wasDirty;
}

void
Cache::reset()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    resetRanks();
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

} // namespace refsched::cache
