/**
 * @file
 * A schedulable OS task (process) and its memory bookkeeping.
 *
 * Beyond the usual pid/vruntime/state, a Task carries the co-design
 * state from the paper:
 *  - possibleBanksVector: the bank bitmask set via cgroups/debugfs
 *    (Algorithm 2, line 12) limiting where its pages may land;
 *  - lastAllocedBank: round-robin cursor so consecutive allocations
 *    spread over the permitted banks (Algorithm 2, lines 10-11);
 *  - residentPagesPerBank: how many of its pages live in each global
 *    bank, consumed by the refresh-aware scheduler (Algorithm 3) and
 *    the best-effort variant (section 5.4.1).
 */

#ifndef REFSCHED_OS_TASK_HH
#define REFSCHED_OS_TASK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "os/page_table.hh"
#include "simcore/types.hh"

namespace refsched::cpu
{
class InstructionSource;
} // namespace refsched::cpu

namespace refsched::os
{

enum class TaskState
{
    Runnable,
    Running,
    Sleeping,
    Finished,
};

class Task
{
  public:
    Task(Pid pid, std::string name, int numGlobalBanks);

    Pid pid() const { return pid_; }
    const std::string &name() const { return name_; }

    TaskState state = TaskState::Runnable;

    /** CFS virtual runtime, in ticks. */
    Tick vruntime = 0;

    /**
     * CFS load weight (Linux nice-0 = 1024).  vruntime advances at
     * rate quantum * 1024 / weight, so heavier tasks are scheduled
     * proportionally more often -- the "high priority task enters
     * the system" scenario of paper section 5.4.
     */
    std::uint32_t weight = kDefaultWeight;

    static constexpr std::uint32_t kDefaultWeight = 1024;

    /** vruntime charge for running @p wall ticks at this weight. */
    Tick
    vruntimeDelta(Tick wall) const
    {
        return wall * kDefaultWeight / weight;
    }

    /** Instruction stream driving this task (owned by the System). */
    cpu::InstructionSource *source = nullptr;

    // --- Bank partitioning (Algorithm 2 state) ---

    /** True entries mark global banks this task may allocate in. */
    std::vector<bool> possibleBanksVector;

    /** Round-robin cursor over permitted banks. */
    int lastAllocedBank = -1;

    bool
    allowsBank(int globalBank) const
    {
        return possibleBanksVector[static_cast<std::size_t>(globalBank)];
    }

    void
    allowBank(int globalBank, bool allowed = true)
    {
        possibleBanksVector[static_cast<std::size_t>(globalBank)] =
            allowed;
    }

    void allowAllBanks();

    int allowedBankCount() const;

    // --- Virtual memory ---

    /** vpn -> pfn demand-paged mappings. */
    PageTable pageTable;

    /** Resident page count per global bank. */
    std::vector<std::uint32_t> residentPagesPerBank;

    /**
     * Bit b of word b/64 set iff residentPagesPerBank[b] != 0.
     * Algorithm 3's clean test intersects this with the refreshing-
     * bank mask, one word op instead of a per-bank count loop.
     * Mutations go through addResidentPage/clearResidentPages so the
     * two views cannot drift.
     */
    std::vector<std::uint64_t> residentBanksMask;

    /** Account one more resident page in @p globalBank. */
    void
    addResidentPage(int globalBank)
    {
        ++residentPagesPerBank[static_cast<std::size_t>(globalBank)];
        residentBanksMask[static_cast<std::size_t>(globalBank) / 64] |=
            1ULL << (globalBank % 64);
    }

    /** Drop one resident page from @p globalBank (page free or
     *  migration source), clearing the mask bit when the count hits
     *  zero so Algorithm 3's clean test stays exact. */
    void
    removeResidentPage(int globalBank)
    {
        auto &count =
            residentPagesPerBank[static_cast<std::size_t>(globalBank)];
        if (count > 0 && --count == 0) {
            residentBanksMask[static_cast<std::size_t>(globalBank)
                              / 64] &= ~(1ULL << (globalBank % 64));
        }
    }

    /** Drop the whole footprint (address-space teardown). */
    void
    clearResidentPages()
    {
        std::fill(residentPagesPerBank.begin(),
                  residentPagesPerBank.end(), 0);
        std::fill(residentBanksMask.begin(), residentBanksMask.end(),
                  0);
    }

    std::uint64_t
    residentPages() const
    {
        std::uint64_t total = 0;
        for (auto c : residentPagesPerBank)
            total += c;
        return total;
    }

    /** Fraction of this task's pages living in @p globalBank. */
    double residentFractionIn(int globalBank) const;

    // --- Accounting ---
    std::uint64_t instrsRetired = 0;
    std::uint64_t memOps = 0;
    Tick scheduledTicks = 0;
    std::uint64_t quantaRun = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t fallbackAllocs = 0;
    std::uint64_t dramReads = 0;

    /** Committed IPC over the measured interval. */
    double ipc(Tick cpuPeriod) const;

    /** Zero the measurement counters (end of warm-up). */
    void resetAccounting();

  private:
    Pid pid_;
    std::string name_;
};

} // namespace refsched::os

#endif // REFSCHED_OS_TASK_HH
