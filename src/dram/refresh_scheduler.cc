#include "dram/refresh_scheduler.hh"

#include <algorithm>
#include <limits>

#include "simcore/logging.hh"

namespace refsched::dram
{

namespace
{

/**
 * Due tick of the @p idx-th command of a cadence that issues
 * @p perPeriod evenly spaced commands every @p period ticks, with
 * @p step = period / perPeriod rounded down to integer picoseconds.
 *
 * Rational accumulation: the truncation error of @p step must be
 * re-anchored at every period boundary.  The naive `idx * step`
 * cadence loses (period - perPeriod * step) ticks per period, which
 * compounds across refresh windows and eventually shifts commands a
 * whole interval early relative to the wall-clock window they are
 * meant to cover (per-bank refresh counts per tREFW window stop
 * being exact).
 */
Tick
cadenceDue(std::uint64_t idx, Tick period, std::uint64_t perPeriod,
           Tick step)
{
    return static_cast<Tick>(idx / perPeriod) * period
        + static_cast<Tick>(idx % perPeriod) * step;
}

/**
 * Inverse of cadenceDue: the largest command index whose due tick is
 * <= @p at.  Clamps the intra-period position to perPeriod - 1 so
 * the truncation slack at the end of a period (ticks past the last
 * command but before the period boundary) maps to the last command.
 */
std::uint64_t
cadenceIndexAt(Tick at, Tick period, std::uint64_t perPeriod,
               Tick step)
{
    const std::uint64_t full = static_cast<std::uint64_t>(at / period);
    const Tick rem = at % period;
    const std::uint64_t in = std::min<std::uint64_t>(
        perPeriod - 1, static_cast<std::uint64_t>(rem / step));
    return full * perPeriod + in;
}

} // namespace

std::string
toString(RefreshPolicy p)
{
    switch (p) {
      case RefreshPolicy::NoRefresh:
        return "no-refresh";
      case RefreshPolicy::AllBank:
        return "all-bank";
      case RefreshPolicy::PerBankRoundRobin:
        return "per-bank";
      case RefreshPolicy::SequentialPerBank:
        return "sequential-per-bank";
      case RefreshPolicy::OooPerBank:
        return "ooo-per-bank";
      case RefreshPolicy::Adaptive:
        return "adaptive-refresh";
    }
    return "unknown";
}

RefreshScheduler::RefreshScheduler(const DramDeviceConfig &cfg)
    : cfg_(cfg),
      banksPerRank_(cfg.org.banksPerRank),
      ranks_(cfg.org.ranksPerChannel),
      banksPerChannel_(cfg.org.banksTotal())
{
}

std::unique_ptr<RefreshScheduler>
makeRefreshScheduler(RefreshPolicy policy, const DramDeviceConfig &cfg)
{
    switch (policy) {
      case RefreshPolicy::NoRefresh:
        return std::make_unique<NoRefresh>(cfg);
      case RefreshPolicy::AllBank:
        return std::make_unique<AllBankRefresh>(cfg);
      case RefreshPolicy::PerBankRoundRobin:
        return std::make_unique<PerBankRoundRobin>(cfg);
      case RefreshPolicy::SequentialPerBank:
        return std::make_unique<SequentialPerBank>(cfg);
      case RefreshPolicy::OooPerBank:
        return std::make_unique<OooPerBank>(cfg);
      case RefreshPolicy::Adaptive:
        return std::make_unique<AdaptiveRefresh>(cfg);
    }
    fatal("unknown refresh policy");
}

// ---------------------------------------------------------------------
// NoRefresh
// ---------------------------------------------------------------------

RefreshCommand
NoRefresh::pop(int, const McRefreshView &)
{
    panic("NoRefresh::pop called; nextDue is never reached");
}

// ---------------------------------------------------------------------
// AllBankRefresh
// ---------------------------------------------------------------------

AllBankRefresh::AllBankRefresh(const DramDeviceConfig &cfg)
    : RefreshScheduler(cfg),
      stagger_(cfg.timings.tREFIab / static_cast<Tick>(ranks_)),
      cmdIndex_(static_cast<std::size_t>(cfg.org.channels), 0)
{
}

Tick
AllBankRefresh::nextDue(int channel) const
{
    return cadenceDue(cmdIndex_[static_cast<std::size_t>(channel)],
                      cfg_.timings.tREFIab,
                      static_cast<std::uint64_t>(ranks_), stagger_);
}

RefreshCommand
AllBankRefresh::pop(int channel, const McRefreshView &)
{
    auto &idx = cmdIndex_[static_cast<std::size_t>(channel)];
    RefreshCommand cmd;
    cmd.rank = static_cast<int>(idx % static_cast<std::uint64_t>(ranks_));
    cmd.bank = RefreshCommand::kAllBanksInRank;
    cmd.rows = cfg_.timings.rowsPerRefresh;
    cmd.tRFC = cfg_.timings.tRFCab;
    ++idx;
    return cmd;
}

// ---------------------------------------------------------------------
// PerBankRoundRobin
// ---------------------------------------------------------------------

PerBankRoundRobin::PerBankRoundRobin(const DramDeviceConfig &cfg)
    : RefreshScheduler(cfg),
      tREFIpb_(cfg.timings.tREFIpb(banksPerChannel_)),
      cmdIndex_(static_cast<std::size_t>(cfg.org.channels), 0)
{
}

Tick
PerBankRoundRobin::nextDue(int channel) const
{
    return cadenceDue(cmdIndex_[static_cast<std::size_t>(channel)],
                      cfg_.timings.tREFIab,
                      static_cast<std::uint64_t>(banksPerChannel_),
                      tREFIpb_);
}

RefreshCommand
PerBankRoundRobin::pop(int channel, const McRefreshView &)
{
    auto &idx = cmdIndex_[static_cast<std::size_t>(channel)];
    const auto inChannel =
        static_cast<int>(idx % static_cast<std::uint64_t>(banksPerChannel_));
    RefreshCommand cmd;
    cmd.rank = inChannel / banksPerRank_;
    cmd.bank = inChannel % banksPerRank_;
    cmd.rows = cfg_.timings.rowsPerRefresh;
    cmd.tRFC = cfg_.timings.tRFCpb;
    ++idx;
    return cmd;
}

// ---------------------------------------------------------------------
// SequentialPerBank (Algorithm 1)
// ---------------------------------------------------------------------

SequentialPerBank::SequentialPerBank(const DramDeviceConfig &cfg)
    : RefreshScheduler(cfg),
      tREFIpb_(cfg.timings.tREFIpb(banksPerChannel_)),
      rankParallel_(tREFIpb_ <= cfg.timings.tRFCpb),
      cmdsPerBank_(cfg.org.rowsPerBank / cfg.timings.rowsPerRefresh),
      cursors_(static_cast<std::size_t>(cfg.org.channels))
{
    const std::size_t engines =
        rankParallel_ ? static_cast<std::size_t>(ranks_) : 1;
    for (auto &cur : cursors_) {
        cur.nextRefreshBank.assign(engines, 0);
        cur.nextRefreshRank.assign(engines, 0);
        if (rankParallel_) {
            for (std::size_t r = 0; r < engines; ++r)
                cur.nextRefreshRank[r] = static_cast<int>(r);
        }
        cur.numRowsRefreshed.assign(
            static_cast<std::size_t>(banksPerChannel_), 0);
    }
}

Tick
SequentialPerBank::nextDue(int channel) const
{
    return cadenceDue(cursors_[static_cast<std::size_t>(channel)].cmdIndex,
                      cfg_.timings.tREFIab,
                      static_cast<std::uint64_t>(banksPerChannel_),
                      tREFIpb_);
}

Tick
SequentialPerBank::slotLength() const
{
    return cfg_.timings.tREFW
        / static_cast<Tick>(rankParallel_ ? banksPerRank_
                                          : banksPerChannel_);
}

RefreshCommand
SequentialPerBank::pop(int channel, const McRefreshView &)
{
    auto &cur = cursors_[static_cast<std::size_t>(channel)];

    // In rank-parallel mode, consecutive pops alternate ranks so a
    // single bank never sees back-to-back commands faster than the
    // per-rank interval.
    const std::size_t engine =
        rankParallel_ ? static_cast<std::size_t>(
            cur.cmdIndex % static_cast<std::uint64_t>(ranks_))
                      : 0;
    int &nextRefreshBank = cur.nextRefreshBank[engine];
    int &nextRefreshRank = cur.nextRefreshRank[engine];

    // Algorithm 1, line 2.
    const auto refreshBankIdx = static_cast<std::size_t>(
        nextRefreshRank * banksPerRank_ + nextRefreshBank);

    RefreshCommand cmd;
    cmd.rank = nextRefreshRank;
    cmd.bank = nextRefreshBank;
    cmd.rows = cfg_.timings.rowsPerRefresh;
    cmd.tRFC = cfg_.timings.tRFCpb;

    // Algorithm 1, lines 4-15.
    cur.numRowsRefreshed[refreshBankIdx] += cfg_.timings.rowsPerRefresh;
    if (cur.numRowsRefreshed[refreshBankIdx] < cfg_.org.rowsPerBank) {
        // Keep refreshing the same bank next interval.
    } else {
        // Done refreshing the entire bank; advance to the next bank.
        cur.numRowsRefreshed[refreshBankIdx] = 0;
        nextRefreshBank += 1;
        if (nextRefreshBank >= banksPerRank_) {
            nextRefreshBank = 0;
            if (!rankParallel_)
                nextRefreshRank = (nextRefreshRank + 1) % ranks_;
        }
    }

    ++cur.cmdIndex;
    return cmd;
}

std::vector<int>
SequentialPerBank::banksUnderRefreshAt(int channel, Tick from) const
{
    // Derive the slot from the command cadence, not from wall-clock
    // window division: tREFI_pb is rounded to integer picoseconds and
    // the cadence re-anchors at every tREFI_ab boundary, so inverting
    // the exact cadenceDue mapping keeps the analytic schedule
    // consistent with pop() at any horizon.
    const std::uint64_t cmdIdx = cadenceIndexAt(
        from, cfg_.timings.tREFIab,
        static_cast<std::uint64_t>(banksPerChannel_), tREFIpb_);
    const int base = channel * banksPerChannel_;

    if (!rankParallel_) {
        const std::uint64_t windowCmds = cmdsPerBank_
            * static_cast<std::uint64_t>(banksPerChannel_);
        const auto bank = (cmdIdx % windowCmds) / cmdsPerBank_;
        return {base + static_cast<int>(bank)};
    }

    // Rank-parallel: each rank consumes every ranks_-th command.
    const auto perRank = cmdIdx / static_cast<std::uint64_t>(ranks_);
    const std::uint64_t rankWindowCmds = cmdsPerBank_
        * static_cast<std::uint64_t>(banksPerRank_);
    const auto bankId = (perRank % rankWindowCmds) / cmdsPerBank_;
    std::vector<int> banks;
    for (int r = 0; r < ranks_; ++r)
        banks.push_back(base + r * banksPerRank_
                        + static_cast<int>(bankId));
    return banks;
}

// ---------------------------------------------------------------------
// OooPerBank
// ---------------------------------------------------------------------

OooPerBank::OooPerBank(const DramDeviceConfig &cfg)
    : RefreshScheduler(cfg),
      tREFIpb_(cfg.timings.tREFIpb(banksPerChannel_)),
      cmdsPerBankPerWindow_(cfg.timings.refreshCommandsPerWindow),
      cursors_(static_cast<std::size_t>(cfg.org.channels))
{
    for (auto &cur : cursors_)
        cur.debt.assign(static_cast<std::size_t>(banksPerChannel_),
                        cmdsPerBankPerWindow_);
}

Tick
OooPerBank::nextDue(int channel) const
{
    return cadenceDue(cursors_[static_cast<std::size_t>(channel)].cmdIndex,
                      cfg_.timings.tREFIab,
                      static_cast<std::uint64_t>(banksPerChannel_),
                      tREFIpb_);
}

RefreshCommand
OooPerBank::pop(int channel, const McRefreshView &view)
{
    auto &cur = cursors_[static_cast<std::size_t>(channel)];
    const std::uint64_t totalPerWindow = cmdsPerBankPerWindow_
        * static_cast<std::uint64_t>(banksPerChannel_);

    const std::uint64_t posInWindow = cur.cmdIndex % totalPerWindow;
    if (posInWindow == 0) {
        std::fill(cur.debt.begin(), cur.debt.end(),
                  cmdsPerBankPerWindow_);
    }
    const std::uint64_t remainingSlots = totalPerWindow - posInWindow;

    // A bank whose remaining debt equals the remaining command slots
    // must be refreshed NOW and in every remaining slot, or the
    // window's coverage guarantee breaks.
    int chosen = -1;
    std::uint64_t maxDebt = 0;
    for (int b = 0; b < banksPerChannel_; ++b) {
        const auto d = cur.debt[static_cast<std::size_t>(b)];
        maxDebt = std::max(maxDebt, d);
        if (d >= remainingSlots) {
            chosen = b;
            break;
        }
    }

    if (chosen < 0) {
        // Out-of-order choice: among banks that still owe refreshes,
        // pick the one with the fewest queued requests (Chang et al.).
        int best = std::numeric_limits<int>::max();
        for (int i = 0; i < banksPerChannel_; ++i) {
            const int b = (cur.rrHint + i) % banksPerChannel_;
            if (cur.debt[static_cast<std::size_t>(b)] == 0)
                continue;
            const int q = view.queuedToBank(
                channel, b / banksPerRank_, b % banksPerRank_);
            if (q < best) {
                best = q;
                chosen = b;
            }
        }
        REFSCHED_ASSERT(chosen >= 0, "no bank owes refreshes mid-window");
        cur.rrHint = (chosen + 1) % banksPerChannel_;
    }

    --cur.debt[static_cast<std::size_t>(chosen)];
    ++cur.cmdIndex;

    RefreshCommand cmd;
    cmd.rank = chosen / banksPerRank_;
    cmd.bank = chosen % banksPerRank_;
    cmd.rows = cfg_.timings.rowsPerRefresh;
    cmd.tRFC = cfg_.timings.tRFCpb;
    return cmd;
}

// ---------------------------------------------------------------------
// AdaptiveRefresh
// ---------------------------------------------------------------------

AdaptiveRefresh::AdaptiveRefresh(const DramDeviceConfig &cfg)
    : RefreshScheduler(cfg),
      tRfc4x_(static_cast<Tick>(
          static_cast<double>(cfg.timings.tRFCab) / 1.63)),
      rowsPerCmd1x_(cfg.timings.rowsPerRefresh),
      cursors_(static_cast<std::size_t>(cfg.org.channels))
{
    for (auto &cur : cursors_)
        cur.rowsDebt.assign(static_cast<std::size_t>(ranks_),
                            cfg.org.rowsPerBank);
}

Tick
AdaptiveRefresh::nextDue(int channel) const
{
    return cursors_[static_cast<std::size_t>(channel)].nextDue;
}

void
AdaptiveRefresh::rollWindow(ChannelCursor &cur, Tick now) const
{
    const std::uint64_t window = now / cfg_.timings.tREFW;
    if (window > cur.windowIndex) {
        cur.windowIndex = window;
        std::fill(cur.rowsDebt.begin(), cur.rowsDebt.end(),
                  cfg_.org.rowsPerBank);
    }
}

RefreshCommand
AdaptiveRefresh::pop(int channel, const McRefreshView &view)
{
    auto &cur = cursors_[static_cast<std::size_t>(channel)];
    const Tick now = cur.nextDue;
    rollWindow(cur, now);

    // Mode decision (Mukundan et al.): when the channel has idle
    // bandwidth, 4x mode's short tRFC blocks hide inside idle gaps;
    // when the channel is saturated, 1x minimises total refresh time
    // (4x pays the 1.63x tRFC-scaling tax four times per tREFI).
    const double util = view.channelUtilization(channel);
    cur.mode = (util < kUtilThreshold) ? FgrMode::x4 : FgrMode::x1;

    const bool fine = (cur.mode == FgrMode::x4);
    const std::uint64_t rows =
        fine ? std::max<std::uint64_t>(1, rowsPerCmd1x_ / 4)
             : rowsPerCmd1x_;
    const Tick interval =
        fine ? cfg_.timings.tREFIab / 4 : cfg_.timings.tREFIab;

    RefreshCommand cmd;
    cmd.rank = cur.nextRank;
    cmd.bank = RefreshCommand::kAllBanksInRank;
    cmd.tRFC = fine ? tRfc4x_ : cfg_.timings.tRFCab;

    auto &debt = cur.rowsDebt[static_cast<std::size_t>(cur.nextRank)];
    cmd.rows = std::min<std::uint64_t>(rows, debt);
    debt -= cmd.rows;
    if (cmd.rows == 0) {
        // Rank already fully refreshed this window (mode switches can
        // retire the debt early); make the command a no-op.
        cmd.tRFC = 0;
    }

    cur.nextRank = (cur.nextRank + 1) % ranks_;
    cur.nextDue = now + interval / static_cast<Tick>(ranks_);
    return cmd;
}

} // namespace refsched::dram
