/**
 * @file
 * Randomized churn property test over the OS memory layer.
 *
 * Many rounds of tenant arrival/departure, mask re-randomization,
 * stale-page migration and phase-style footprint trimming, checking
 * after every round that:
 *  - the virtual memory map is a bijection: across all live tasks no
 *    physical frame backs two virtual pages, and translate() of every
 *    mapped vpn returns its frame without faulting;
 *  - after a full migration sweep that never exhausted a mask, every
 *    resident page of every task lives in a bank its current
 *    possible_banks_vector permits;
 *  - the buddy allocator's free-frame count matches a naive recount
 *    (total frames minus pages mapped by live tasks), its per-bank
 *    residency counters match the page table, and its structural
 *    invariants hold.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "os/virtual_memory.hh"
#include "simcore/rng.hh"

namespace refsched::os
{
namespace
{

struct Fixture
{
    Fixture()
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 1024)),
          mapping(dev.org),
          buddy(mapping),
          vm(mapping, buddy)
    {
    }

    dram::DramDeviceConfig dev;
    dram::AddressMapping mapping;
    BuddyAllocator buddy;
    VirtualMemory vm;
};

/** Random mask with at least two permitted banks. */
void
randomizeMask(Rng &rng, Task &t, int totalBanks)
{
    std::fill(t.possibleBanksVector.begin(),
              t.possibleBanksVector.end(), false);
    const int allowed =
        static_cast<int>(rng.inRange(2, static_cast<std::uint64_t>(
                                            totalBanks)));
    // Contiguous run from a random start: mirrors the partition
    // groups assignBankMasks builds, and guarantees `allowed` banks.
    const int start = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(totalBanks)));
    for (int k = 0; k < allowed; ++k)
        t.allowBank((start + k) % totalBanks);
}

struct Model
{
    std::vector<std::unique_ptr<Task>> live;
    Pid nextPid = 1;
};

void
checkRound(Fixture &f, const Model &m, bool masksGuaranteed,
           const char *when)
{
    SCOPED_TRACE(when);

    // Bijection + translate agreement + per-bank residency recount.
    std::unordered_set<std::uint64_t> usedPfns;
    std::uint64_t mappedPages = 0;
    for (const auto &t : m.live) {
        std::vector<std::uint32_t> perBank(
            static_cast<std::size_t>(f.mapping.totalBanks()), 0);
        t->pageTable.forEach([&](std::uint64_t vpn, std::uint64_t pfn) {
            EXPECT_TRUE(usedPfns.insert(pfn).second)
                << "pfn " << pfn << " backs two virtual pages";
            ++mappedPages;
            const int bank = f.mapping.bankOfFrame(pfn);
            ++perBank[static_cast<std::size_t>(bank)];
            if (masksGuaranteed) {
                EXPECT_TRUE(t->allowsBank(bank))
                    << "pid " << t->pid() << " vpn " << vpn
                    << " resident in forbidden bank " << bank;
            }
            const auto shift = f.mapping.pageShift();
            bool faulted = true;
            EXPECT_EQ(f.vm.translate(*t, vpn << shift, &faulted) >> shift,
                      pfn)
                << "translate disagrees with the page table at vpn "
                << vpn;
            EXPECT_FALSE(faulted) << "mapped vpn " << vpn << " faulted";
        });
        for (int b = 0; b < f.mapping.totalBanks(); ++b) {
            EXPECT_EQ(t->residentPagesPerBank[static_cast<std::size_t>(
                          b)],
                      perBank[static_cast<std::size_t>(b)])
                << "pid " << t->pid() << " residency drifted in bank "
                << b;
        }
        EXPECT_EQ(t->residentPages(), t->pageTable.size());
    }

    // Naive allocator recount.
    EXPECT_EQ(f.buddy.freeFrames() + mappedPages,
              f.buddy.totalFrames())
        << "buddy free-frame count disagrees with the naive recount";
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
}

TEST(PageMigrationPropertyTest, RandomChurnKeepsMapSound)
{
    Fixture f;
    const int totalBanks = f.mapping.totalBanks();
    const auto pageBytes = f.mapping.pageBytes();
    // Bound the population so masks never run out of frames: with
    // <= 6 tenants of <= 96 pages each, even a 2-bank mask (>= 2 *
    // totalFrames/totalBanks frames) always has room to migrate into.
    constexpr std::size_t kMaxLive = 6;
    constexpr std::uint64_t kMaxPages = 96;

    Rng rng(20260809);
    Model m;
    bool masksGuaranteed = true;  // no fallback alloc has happened

    for (int round = 0; round < 120; ++round) {
        // Arrival (always when empty, else 40%).
        if (m.live.size() < kMaxLive
            && (m.live.empty() || rng.bernoulli(0.4))) {
            auto t = std::make_unique<Task>(
                m.nextPid++, "tenant", totalBanks);
            randomizeMask(rng, *t, totalBanks);
            m.live.push_back(std::move(t));
        }
        // Departure (30%).
        if (m.live.size() > 1 && rng.bernoulli(0.3)) {
            const std::size_t victim = rng.below(m.live.size());
            f.vm.releaseTask(*m.live[victim]);
            m.live.erase(m.live.begin()
                         + static_cast<std::ptrdiff_t>(victim));
        }

        // Demand paging: every tenant touches a random page span.
        for (auto &t : m.live) {
            const std::uint64_t pages = rng.inRange(1, kMaxPages);
            for (std::uint64_t p = 0; p < pages; ++p)
                f.vm.translate(*t, p * pageBytes);
        }

        // Phase change: one tenant shrinks its footprint (20%).
        if (!m.live.empty() && rng.bernoulli(0.2)) {
            Task &t = *m.live[rng.below(m.live.size())];
            const std::uint64_t bound = rng.inRange(1, kMaxPages / 2);
            f.vm.trimFootprint(t, bound);
            t.pageTable.forEach([&](std::uint64_t vpn, std::uint64_t) {
                EXPECT_LT(vpn, bound);
            });
        }

        // Consolidation: re-randomize masks, then migrate every
        // stale page (mixing immediate and deferred source frees).
        for (auto &t : m.live) {
            if (rng.bernoulli(0.5))
                randomizeMask(rng, *t, totalBanks);
        }
        for (auto &t : m.live) {
            for (const std::uint64_t vpn :
                 f.vm.collectStalePages(*t)) {
                const bool freeOld = rng.bernoulli(0.5);
                const auto moved =
                    f.vm.migratePage(*t, vpn, freeOld);
                if (!moved) {
                    masksGuaranteed = false;
                    break;
                }
                EXPECT_TRUE(t->allowsBank(
                    f.mapping.bankOfFrame(moved->second)));
                if (!freeOld) {
                    // Caller contract: drop the transient double
                    // residency once the (modelled) copy is done.
                    t->removeResidentPage(
                        f.mapping.bankOfFrame(moved->first));
                    f.buddy.freePage(moved->first, t->pid());
                }
            }
            EXPECT_TRUE(f.vm.collectStalePages(*t).empty()
                        || !masksGuaranteed);
        }

        checkRound(f, m, masksGuaranteed, "after round");
    }
    // The population bound keeps every mask satisfiable: if this
    // fires the test lost its own guarantee, not the allocator.
    EXPECT_TRUE(masksGuaranteed);

    // Teardown: every departure returns everything.
    for (auto &t : m.live)
        f.vm.releaseTask(*t);
    m.live.clear();
    checkRound(f, m, true, "after teardown");
    EXPECT_EQ(f.buddy.freeFrames(), f.buddy.totalFrames());
}

} // namespace
} // namespace refsched::os
