/**
 * @file
 * Refresh scheduling policies.
 *
 * The memory controller asks its RefreshScheduler when the next
 * refresh command is due on a channel and which rank/bank it targets.
 * Concrete policies:
 *
 *  - AllBankRefresh:      JEDEC DDRx rank-level REF, ranks staggered
 *                         by tREFI/numRanks (paper section 2.2.1).
 *  - PerBankRoundRobin:   LPDDR3-style per-bank REF rotating over all
 *                         banks of all ranks, tREFI_pb = tREFI_ab /
 *                         banksTotal (paper section 2.2.2).
 *  - SequentialPerBank:   the paper's proposed schedule (Algorithm 1):
 *                         keep refreshing the SAME bank in successive
 *                         intervals until all its rows are done, then
 *                         advance; each bank is under refresh for one
 *                         contiguous tREFW/banksTotal slot per window.
 *  - OooPerBank:          out-of-order per-bank refresh (Chang et al.
 *                         HPCA'14 baseline): each interval, refresh
 *                         the not-yet-exhausted bank with the fewest
 *                         queued requests.
 *  - AdaptiveRefresh:     Mukundan et al. ISCA'13: all-bank refresh
 *                         that switches between DDR4 1x and 4x modes
 *                         based on observed channel utilization.
 *  - NoRefresh:           ideal upper bound; never issues refresh.
 *
 * All policies guarantee full row coverage: every bank receives
 * rowsPerBank row-refreshes per tREFW window (verified by tests and
 * by the controller's window-boundary check).
 */

#ifndef REFSCHED_DRAM_REFRESH_SCHEDULER_HH
#define REFSCHED_DRAM_REFRESH_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/timings.hh"
#include "simcore/types.hh"

namespace refsched::dram
{

/** Identifies which policy to instantiate. */
enum class RefreshPolicy
{
    NoRefresh,
    AllBank,
    PerBankRoundRobin,
    SequentialPerBank,
    OooPerBank,
    Adaptive,
};

std::string toString(RefreshPolicy p);

/** Target of one refresh command (channel implied by the call). */
struct RefreshCommand
{
    int rank = 0;
    int bank = kAllBanksInRank;  ///< bank in rank, or all banks
    std::uint64_t rows = 0;      ///< rows refreshed in each bank
    Tick tRFC = 0;               ///< occupancy of the command

    static constexpr int kAllBanksInRank = -1;

    bool isAllBank() const { return bank == kAllBanksInRank; }
};

/**
 * The controller state a refresh policy may observe when choosing a
 * target (needed by OooPerBank and AdaptiveRefresh).
 */
class McRefreshView
{
  public:
    virtual ~McRefreshView() = default;

    /** Read+write queue entries destined for (rank, bank). */
    virtual int queuedToBank(int channel, int rank, int bank) const = 0;

    /** Fraction of recent ticks the channel data bus was busy. */
    virtual double channelUtilization(int channel) const = 0;
};

/**
 * Base class.  Policies keep independent per-channel cursors; a
 * multi-channel system refreshes its channels independently, exactly
 * like independent DIMMs.
 */
class RefreshScheduler
{
  public:
    explicit RefreshScheduler(const DramDeviceConfig &cfg);
    virtual ~RefreshScheduler() = default;

    RefreshScheduler(const RefreshScheduler &) = delete;
    RefreshScheduler &operator=(const RefreshScheduler &) = delete;

    virtual RefreshPolicy policy() const = 0;
    std::string name() const { return toString(policy()); }

    /** Tick at which the next command on @p channel is due. */
    virtual Tick nextDue(int channel) const = 0;

    /**
     * Consume the due command on @p channel, advancing the internal
     * schedule.  Only call when nextDue(channel) has been reached.
     */
    virtual RefreshCommand pop(int channel, const McRefreshView &view)
        = 0;

    /**
     * Co-design hook (paper section 5.3): the global bank indices
     * scheduled to be under refresh during the quantum beginning at
     * @p from on @p channel (empty when the policy has no analytic
     * schedule).  Only SequentialPerBank implements this -- it is
     * the property that makes refresh-aware scheduling work.  The
     * result has one entry in the paper's global schedule and one
     * per rank in the rank-parallel fallback (see SequentialPerBank).
     */
    virtual std::vector<int>
    banksUnderRefreshAt(int channel, Tick from) const
    {
        (void)channel;
        (void)from;
        return {};
    }

    const DramDeviceConfig &config() const { return cfg_; }

  protected:
    DramDeviceConfig cfg_;
    int banksPerRank_;
    int ranks_;
    int banksPerChannel_;
};

/** Factory. */
std::unique_ptr<RefreshScheduler>
makeRefreshScheduler(RefreshPolicy policy, const DramDeviceConfig &cfg);

// ---------------------------------------------------------------------
// Concrete policies
// ---------------------------------------------------------------------

/** Never refreshes (ideal bound for Fig. 3 / Fig. 4). */
class NoRefresh final : public RefreshScheduler
{
  public:
    using RefreshScheduler::RefreshScheduler;

    RefreshPolicy policy() const override
    {
        return RefreshPolicy::NoRefresh;
    }

    Tick nextDue(int) const override { return kMaxTick; }

    RefreshCommand pop(int, const McRefreshView &) override;
};

/** JEDEC rank-level refresh, ranks staggered. */
class AllBankRefresh final : public RefreshScheduler
{
  public:
    explicit AllBankRefresh(const DramDeviceConfig &cfg);

    RefreshPolicy policy() const override
    {
        return RefreshPolicy::AllBank;
    }

    Tick nextDue(int channel) const override;
    RefreshCommand pop(int channel, const McRefreshView &view) override;

  private:
    Tick stagger_;  ///< tREFI_ab / numRanks
    std::vector<std::uint64_t> cmdIndex_;  ///< per channel
};

/** LPDDR3 per-bank refresh, banks rotated round-robin. */
class PerBankRoundRobin final : public RefreshScheduler
{
  public:
    explicit PerBankRoundRobin(const DramDeviceConfig &cfg);

    RefreshPolicy policy() const override
    {
        return RefreshPolicy::PerBankRoundRobin;
    }

    Tick nextDue(int channel) const override;
    RefreshCommand pop(int channel, const McRefreshView &view) override;

  private:
    Tick tREFIpb_;
    std::vector<std::uint64_t> cmdIndex_;
};

/**
 * The paper's Algorithm 1: keep refreshing the same bank until all
 * its rows are done, then advance (banks within a rank first, then
 * the next rank).  Each bank is contiguously under refresh for one
 * tREFW/banksTotal slot per window.
 *
 * Rank-parallel fallback: when tREFI_pb <= tRFC_pb (e.g. 32 ms
 * retention with 32 Gb chips), back-to-back refreshes to a single
 * bank cannot keep up, so the sequential schedule runs per rank
 * instead: every rank walks its banks concurrently and a slot lasts
 * tREFW/banksPerRank, with one bank per rank under refresh.  Quanta
 * still divide slots, so the refresh-aware scheduler works the same
 * way (it just avoids one bank-id across all ranks).
 */
class SequentialPerBank final : public RefreshScheduler
{
  public:
    explicit SequentialPerBank(const DramDeviceConfig &cfg);

    RefreshPolicy policy() const override
    {
        return RefreshPolicy::SequentialPerBank;
    }

    Tick nextDue(int channel) const override;
    RefreshCommand pop(int channel, const McRefreshView &view) override;
    std::vector<int> banksUnderRefreshAt(int channel,
                                         Tick from) const override;

    /** Length of one bank's contiguous refresh slot. */
    Tick slotLength() const;

    /** True when the rank-parallel fallback is active. */
    bool rankParallel() const { return rankParallel_; }

  private:
    struct ChannelCursor
    {
        /** Algorithm 1 state, one cursor per rank when running
         *  rank-parallel (only index 0 used in global mode). */
        std::vector<int> nextRefreshBank;
        std::vector<int> nextRefreshRank;
        std::vector<std::uint64_t> numRowsRefreshed;
        std::uint64_t cmdIndex = 0;
    };

    Tick tREFIpb_;
    bool rankParallel_;
    std::uint64_t cmdsPerBank_;
    std::vector<ChannelCursor> cursors_;
};

/** Out-of-order per-bank refresh (Chang et al. baseline). */
class OooPerBank final : public RefreshScheduler
{
  public:
    explicit OooPerBank(const DramDeviceConfig &cfg);

    RefreshPolicy policy() const override
    {
        return RefreshPolicy::OooPerBank;
    }

    Tick nextDue(int channel) const override;
    RefreshCommand pop(int channel, const McRefreshView &view) override;

  private:
    struct ChannelCursor
    {
        /** Remaining REF commands each bank needs this window. */
        std::vector<std::uint64_t> debt;
        std::uint64_t cmdIndex = 0;
        int rrHint = 0;  ///< tie-break rotation
    };

    Tick tREFIpb_;
    std::uint64_t cmdsPerBankPerWindow_;
    std::vector<ChannelCursor> cursors_;
};

/** Adaptive Refresh (Mukundan et al.): 1x/4x mode switching. */
class AdaptiveRefresh final : public RefreshScheduler
{
  public:
    explicit AdaptiveRefresh(const DramDeviceConfig &cfg);

    RefreshPolicy policy() const override
    {
        return RefreshPolicy::Adaptive;
    }

    Tick nextDue(int channel) const override;
    RefreshCommand pop(int channel, const McRefreshView &view) override;

    FgrMode currentMode(int channel) const
    {
        return cursors_[static_cast<std::size_t>(channel)].mode;
    }

  private:
    struct ChannelCursor
    {
        FgrMode mode = FgrMode::x1;
        Tick nextDue = 0;
        int nextRank = 0;
        /** Rows still owed to each rank's banks this window. */
        std::vector<std::uint64_t> rowsDebt;
        std::uint64_t windowIndex = 0;
    };

    void rollWindow(ChannelCursor &cur, Tick now) const;

    /**
     * Switch to 4x mode only when channel utilization is below this
     * value.  4x pays the sub-linear tRFC-scaling tax (1.63x) four
     * times per tREFI, so it only wins in near-idle epochs where its
     * short blocks dodge the rare request; any substantial traffic
     * wants 1x (Mukundan et al.'s high-density observation).
     */
    static constexpr double kUtilThreshold = 0.02;

    Tick tRfc4x_;
    std::uint64_t rowsPerCmd1x_;
    std::vector<ChannelCursor> cursors_;
};

} // namespace refsched::dram

#endif // REFSCHED_DRAM_REFRESH_SCHEDULER_HH
