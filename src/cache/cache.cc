#include "cache/cache.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::cache
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (!isPowerOfTwo(params_.lineBytes))
        fatal("cache line size must be a power of two");
    if (params_.associativity < 1)
        fatal("cache associativity must be >= 1");
    numSets_ = params_.numSets();
    if (numSets_ == 0 || !isPowerOfTwo(numSets_))
        fatal("cache set count must be a non-zero power of two; size=",
              params_.sizeBytes, " assoc=", params_.associativity,
              " line=", params_.lineBytes);
    lineShift_ = log2Exact(params_.lineBytes);
    setBits_ = log2Exact(numSets_);
    assoc_ = static_cast<std::size_t>(params_.associativity);
    const std::size_t slots = numSets_ * assoc_;
    keys_.assign(slots, 0);
    lastUse_.assign(slots, 0);
    dirty_.assign(slots, 0);
}

std::uint64_t
Cache::setIndex(Addr paddr) const
{
    return (paddr >> lineShift_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr paddr) const
{
    return paddr >> (lineShift_ + setBits_);
}

Addr
Cache::lineAddr(Addr tag, std::uint64_t set) const
{
    return ((tag << setBits_) | set) << lineShift_;
}

std::size_t
Cache::setBase(Addr paddr) const
{
    return setIndex(paddr) * assoc_;
}

std::size_t
Cache::findIn(std::size_t base, Addr key) const
{
    // Keys are unique within a set and the invalid key 0 is never
    // looked up, so at most one way matches: scan them all and keep
    // it with a select rather than exiting at a random way.
    const Addr *k = keys_.data() + base;
    std::size_t slot = kNoSlot;
    for (std::size_t w = 0; w < assoc_; ++w)
        slot = k[w] == key ? base + w : slot;
    return slot;
}

bool
Cache::contains(Addr paddr) const
{
    return findIn(setBase(paddr), tagOf(paddr) + 1) != kNoSlot;
}

CacheAccessOutcome
Cache::access(Addr paddr, bool isWrite)
{
    ++accesses_;
    const std::size_t base = setBase(paddr);
    const Addr key = tagOf(paddr) + 1;
    const std::size_t slot = findIn(base, key);
    if (slot != kNoSlot) {
        lastUse_[slot] = ++useCounter_;
        dirty_[slot] |= isWrite;
        return CacheAccessOutcome{true, false, false, 0};
    }
    ++misses_;
    return fill(base, key, isWrite);
}

CacheAccessOutcome
Cache::insert(Addr paddr, bool dirty)
{
    const std::size_t base = setBase(paddr);
    const Addr key = tagOf(paddr) + 1;
    const std::size_t slot = findIn(base, key);
    if (slot != kNoSlot) {
        // Already present (write-back landing on a cached line).
        dirty_[slot] |= dirty;
        lastUse_[slot] = ++useCounter_;
        return CacheAccessOutcome{};
    }
    return fill(base, key, dirty);
}

CacheAccessOutcome
Cache::fill(std::size_t base, Addr key, bool dirty)
{
    std::size_t victim = base;
    for (std::size_t s = base; s < base + assoc_; ++s) {
        if (keys_[s] == 0) {
            victim = s;
            break;
        }
        if (lastUse_[s] < lastUse_[victim])
            victim = s;
    }

    CacheAccessOutcome out;
    if (keys_[victim] != 0) {
        out.victimValid = true;
        out.victimDirty = dirty_[victim] != 0;
        out.victimAddr = lineAddr(keys_[victim] - 1, victim / assoc_);
        if (out.victimDirty)
            ++writebacks_;
    }

    keys_[victim] = key;
    dirty_[victim] = dirty;
    lastUse_[victim] = ++useCounter_;
    return out;
}

bool
Cache::invalidate(Addr paddr)
{
    const std::size_t slot = findIn(setBase(paddr), tagOf(paddr) + 1);
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
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    useCounter_ = 0;
}

} // namespace refsched::cache
