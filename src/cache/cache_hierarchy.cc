#include "cache/cache_hierarchy.hh"

#include "simcore/logging.hh"

namespace refsched::cache
{

CacheHierarchy::CacheHierarchy(int numCores,
                               const HierarchyParams &params)
    : params_(params), l2_(params.l2)
{
    if (numCores < 1)
        fatal("need at least one core");
    if (params_.l1.lineBytes != params_.l2.lineBytes)
        fatal("L1/L2 line sizes must match");
    l1s_.reserve(static_cast<std::size_t>(numCores));
    for (int i = 0; i < numCores; ++i)
        l1s_.emplace_back(params_.l1);
}

HierarchyResult
CacheHierarchy::access(int coreId, Pid pid, Addr paddr, bool isWrite)
{
    HierarchyResult res;
    ++totalAccesses_;

    Cache &l1 = l1s_[static_cast<std::size_t>(coreId)];
    res.latency += l1.params().hitLatency;

    const auto l1Out = l1.access(paddr, isWrite);
    if (l1Out.hit)
        return res;

    ++l1Misses_;
    res.latency += l2_.params().hitLatency;

    // A dirty L1 victim is written down into L2.  If L2 must evict a
    // dirty line to take it, that victim goes to DRAM.
    if (l1Out.victimValid && l1Out.victimDirty) {
        const auto wbOut = l2_.insert(l1Out.victimAddr, true);
        if (wbOut.victimValid && wbOut.victimDirty) {
            REFSCHED_ASSERT(res.writebackCount < 2, "writeback overflow");
            res.writebacks[res.writebackCount++] = wbOut.victimAddr;
            ++dramWritebacks_;
        }
    }

    // The L1 fill itself starts clean: dirtiness lives in L1 until
    // that line is evicted (isWrite already marked the L1 line).
    const auto l2Out = l2_.access(paddr, false);
    if (l2Out.hit)
        return res;

    ++l2Misses_;
    ++l2MissesPerPid_[pid];
    if (l2Out.victimValid && l2Out.victimDirty) {
        REFSCHED_ASSERT(res.writebackCount < 2, "writeback overflow");
        res.writebacks[res.writebackCount++] = l2Out.victimAddr;
        ++dramWritebacks_;
    }

    // Loads must fetch the line from DRAM; stores write-validate the
    // freshly allocated line without a fetch.
    res.dramMiss = !isWrite;
    return res;
}

std::uint64_t
CacheHierarchy::l2MissesOf(Pid pid) const
{
    auto it = l2MissesPerPid_.find(pid);
    return it == l2MissesPerPid_.end() ? 0 : it->second;
}

void
CacheHierarchy::reset()
{
    for (auto &l1 : l1s_) {
        l1.reset();
        l1.resetStats();
    }
    l2_.reset();
    l2_.resetStats();
    l2MissesPerPid_.clear();
}

void
CacheHierarchy::resetStats()
{
    for (auto &l1 : l1s_)
        l1.resetStats();
    l2_.resetStats();
    l2MissesPerPid_.clear();
    totalAccesses_.reset();
    l1Misses_.reset();
    l2Misses_.reset();
    dramWritebacks_.reset();
}

void
CacheHierarchy::registerStats(StatRegistry &reg,
                              const std::string &prefix)
{
    reg.add(prefix + ".accesses", &totalAccesses_);
    reg.add(prefix + ".l1Misses", &l1Misses_);
    reg.add(prefix + ".l2Misses", &l2Misses_);
    reg.add(prefix + ".dramWritebacks", &dramWritebacks_);
}

} // namespace refsched::cache
