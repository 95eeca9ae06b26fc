#include "memctrl/memory_controller.hh"

#include <algorithm>
#include <bit>

#include "simcore/logging.hh"

namespace refsched::memctrl
{

using dram::Bank;
using dram::RefreshCommand;

namespace
{

/** Fold a gate-crossing tick into a no-issue pass's wake.  Only
 *  future ticks count: a gate already open is not what kept the
 *  pass from issuing. */
void
foldWake(Tick &wake, Tick now, Tick when)
{
    if (when > now)
        wake = std::min(wake, when);
}

} // namespace

MemoryController::Channel::Channel(const dram::DramDeviceConfig &cfg,
                                   const ControllerParams &params)
    : readQ(params.readQueueCapacity, cfg.org.banksTotal()),
      writeQ(params.writeQueueCapacity, cfg.org.banksTotal())
{
    ranks.assign(static_cast<std::size_t>(cfg.org.ranksPerChannel),
                 dram::Rank(cfg.org));
    const std::size_t banksTotal =
        static_cast<std::size_t>(cfg.org.banksTotal());
    bank.reserve(banksTotal);
    for (auto &r : ranks)
        for (auto &b : r.banks)
            bank.push_back(&b);
    readHitCnt.assign(banksTotal, 0);
    writeHitCnt.assign(banksTotal, 0);
    stats.readLatencyDist.init(
        0.0, 4.0e6 /* ps: 4 us */, 64);
}

MemoryController::MemoryController(
    EventQueue &eq, const dram::DramDeviceConfig &cfg,
    std::unique_ptr<dram::RefreshScheduler> refresh,
    const ControllerParams &params)
    : eq_(eq),
      cfg_(cfg),
      mapping_(cfg.org),
      refresh_(std::move(refresh)),
      params_(params),
      clock_(cfg.timings.tCK),
      epochLength_(cfg.timings.tREFIab)
{
    REFSCHED_ASSERT(refresh_ != nullptr, "null refresh scheduler");
    if (cfg_.org.banksTotal() > 64)
        fatal("controller bank bitmaps support at most 64 banks per "
              "channel, got ", cfg_.org.banksTotal());
    if (params_.writeLowWatermark >= params_.writeHighWatermark)
        fatal("write drain watermarks inverted");
    if (params_.writeHighWatermark > params_.writeQueueCapacity)
        fatal("write high watermark exceeds queue capacity");

    channels_.reserve(static_cast<std::size_t>(cfg_.org.channels));
    for (int ch = 0; ch < cfg_.org.channels; ++ch) {
        channels_.emplace_back(cfg_, params_);
        channels_.back().eq = &eq_;
    }

    // Arm each channel for its first refresh command.
    for (int ch = 0; ch < cfg_.org.channels; ++ch) {
        const Tick due = refresh_->nextDue(ch);
        if (due != kMaxTick)
            scheduleTick(ch, due);
    }
}

bool
MemoryController::enqueue(Request req)
{
    req.coord = mapping_.decompose(req.paddr);
    const int ch = req.coord.channel;
    auto &c = channels_[static_cast<std::size_t>(ch)];
    const Tick now = c.eq->now();

    const int bankIdx = bankIndex(req.coord.rank, req.coord.bank);
    const bool isRead = req.isRead();
    if (isRead) {
        // Forward from a queued write to the same line, if any.
        // Same line implies same bank, so only that bank's write
        // list needs scanning.
        const Addr line = req.paddr & ~(cfg_.org.lineBytes - 1);
        for (auto s = c.writeQ.bankFront(bankIdx);
             s != BankedRequestQueue::kNone;
             s = c.writeQ.nextInBank(s)) {
            const auto &w = c.writeQ.request(s);
            if ((w.paddr & ~(cfg_.org.lineBytes - 1)) == line) {
                // Served without touching the banks: a clean read
                // that completes on the next cycle.
                ++c.stats.forwardedReads;
                ++c.stats.reads;
                req.enqueuedAt = now;
                completeRead(c, req, now + cfg_.timings.tCK);
                return true;
            }
        }
    }

    auto &q = isRead ? c.readQ : c.writeQ;
    if (q.full())
        return false;
    req.enqueuedAt = now;
    req.seq = c.nextSeq++;
    const std::uint64_t row = req.coord.row;
    accrueOccupancy(c, now);
    q.push(std::move(req), bankIdx);
    auto &peak = isRead ? c.stats.readQPeakDepth : c.stats.writeQPeakDepth;
    if (static_cast<double>(q.size()) > peak.value())
        peak.set(static_cast<double>(q.size()));
    noteQueuedRequest(c, bankIdx, row, isRead, +1);

    scheduleTick(ch, clock_.nextEdgeAtOrAfter(now));
    return true;
}

void
MemoryController::setChannelLane(int channel, EventQueue *lane)
{
    REFSCHED_ASSERT(lane != nullptr, "null channel lane");
    auto &c = channels_[static_cast<std::size_t>(channel)];
    REFSCHED_ASSERT(lane->now() == c.eq->now(),
                    "channel lane migration requires queues in sync");
    // Re-arm a pending tick on the new lane (the constructor arms
    // the first refresh before lanes exist).
    const Tick at = c.tickScheduledAt;
    c.tickEvent.cancel();
    c.eq = lane;
    c.tickScheduledAt = kMaxTick;
    if (at != kMaxTick)
        scheduleTick(channel, at);
}

void
MemoryController::requestRetryNotification(Callee &callee,
                                           std::uint64_t arg0,
                                           std::uint64_t arg1)
{
    retryWaiters_.push_back(RetryWaiter{&callee, arg0, arg1});
}

int
MemoryController::queuedToBank(int channel, int rank, int bank) const
{
    const auto &c = channels_[static_cast<std::size_t>(channel)];
    return c.readQ.bankCount(bankIndex(rank, bank));
}

double
MemoryController::channelUtilization(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)].lastUtil;
}

std::size_t
MemoryController::readQueueSize(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)].readQ.size();
}

std::size_t
MemoryController::writeQueueSize(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)].writeQ.size();
}

int
MemoryController::blockedReadsNow(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)]
        .blockedReadsNow;
}

std::size_t
MemoryController::refreshBacklog(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)]
        .pendingRefreshes.size();
}

bool
MemoryController::refreshEngagedNow(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)]
        .refreshEngaged;
}

void
MemoryController::accrueOccupancy(Channel &c, Tick now)
{
    if (now <= c.occMark)
        return;
    const double dt = static_cast<double>(now - c.occMark);
    c.stats.readQOccIntegral +=
        dt * static_cast<double>(c.readQ.size());
    c.stats.writeQOccIntegral +=
        dt * static_cast<double>(c.writeQ.size());
    c.occMark = now;
}

double
MemoryController::readQueueOccupancyIntegral(int channel) const
{
    const auto &c = channels_[static_cast<std::size_t>(channel)];
    double v = c.stats.readQOccIntegral.value();
    const Tick now = c.eq->now();
    if (now > c.occMark)
        v += static_cast<double>(now - c.occMark)
            * static_cast<double>(c.readQ.size());
    return v;
}

double
MemoryController::writeQueueOccupancyIntegral(int channel) const
{
    const auto &c = channels_[static_cast<std::size_t>(channel)];
    double v = c.stats.writeQOccIntegral.value();
    const Tick now = c.eq->now();
    if (now > c.occMark)
        v += static_cast<double>(now - c.occMark)
            * static_cast<double>(c.writeQ.size());
    return v;
}

std::size_t
MemoryController::readQueuePeakDepth(int channel) const
{
    return static_cast<std::size_t>(
        channelStats(channel).readQPeakDepth.value());
}

void
MemoryController::resetOccupancyMarks()
{
    for (auto &c : channels_) {
        c.occMark = c.eq->now();
        c.stats.readQPeakDepth.set(
            static_cast<double>(c.readQ.size()));
        c.stats.writeQPeakDepth.set(
            static_cast<double>(c.writeQ.size()));
    }
}

const dram::Bank &
MemoryController::bank(int channel, int rank, int bankIdx) const
{
    const auto &c = channels_[static_cast<std::size_t>(channel)];
    return c.ranks[static_cast<std::size_t>(rank)]
        .banks[static_cast<std::size_t>(bankIdx)];
}

void
MemoryController::scheduleTick(int ch, Tick when)
{
    auto &c = channels_[static_cast<std::size_t>(ch)];
    when = clock_.nextEdgeAtOrAfter(std::max(when, c.eq->now()));
    if (c.tickEvent.pending() && c.tickScheduledAt <= when)
        return;
    c.tickEvent.cancel();
    c.tickScheduledAt = when;
    c.tickEvent = c.eq->schedule(
        when, *this, static_cast<std::uint64_t>(ch), 0,
        EventPriority::ClockEdge);
}

void
MemoryController::rollUtilizationEpoch(Channel &c)
{
    const Tick now = c.eq->now();
    while (now >= c.epochStart + epochLength_) {
        c.lastUtil = std::min(
            1.0, static_cast<double>(c.busyTicks)
                     / static_cast<double>(epochLength_));
        c.busyTicks = 0;
        c.epochStart += epochLength_;
    }
}

void
MemoryController::harvestDueRefreshes(Channel &c, int ch)
{
    const Tick now = c.eq->now();
    while (refresh_->nextDue(ch) <= now) {
        RefreshCommand cmd = refresh_->pop(ch, *this);
        if (cmd.tRFC == 0 || cmd.rows == 0) {
            ++c.stats.refreshNoops;
            continue;
        }
        c.pendingRefreshes.push_back(cmd);
    }
}

void
MemoryController::noteQueuedRequest(Channel &c, int bankIdx,
                                    std::uint64_t row, bool isRead,
                                    int delta)
{
    const dram::Bank &b = *c.bank[static_cast<std::size_t>(bankIdx)];
    if (!b.isOpen() || b.openRow != static_cast<std::int64_t>(row))
        return;
    auto &cnt = isRead ? c.readHitCnt : c.writeHitCnt;
    auto &mask = isRead ? c.readHitMask : c.writeHitMask;
    auto &n = cnt[static_cast<std::size_t>(bankIdx)];
    n = static_cast<std::uint16_t>(static_cast<int>(n) + delta);
    if (n == 0)
        mask &= ~(1ULL << bankIdx);
    else
        mask |= 1ULL << bankIdx;
}

void
MemoryController::mcActivate(Channel &c, [[maybe_unused]] int ch,
                             int bankIdx, std::uint64_t row)
{
    const Tick now = c.eq->now();
    const auto &t = cfg_.timings;
    const int rankIdx = bankIdx / cfg_.org.banksPerRank;
    REFSCHED_PROBE(probe_,
                   onDramCommand({now, validate::DramOp::Act, ch,
                                  rankIdx,
                                  bankIdx % cfg_.org.banksPerRank, row,
                                  0}));
    c.bank[static_cast<std::size_t>(bankIdx)]->activate(
        now, static_cast<std::int64_t>(row), t);
    c.ranks[static_cast<std::size_t>(rankIdx)].noteActivate(now, t);
    c.stats.energyActivatePj += params_.energy.actPrePj;
    c.openMask |= 1ULL << bankIdx;

    // Recompute this bank's hit counts: the requests matching the
    // newly opened row are exactly the hit candidates now.
    const auto recount = [&](const BankedRequestQueue &q) {
        std::uint16_t n = 0;
        for (auto s = q.bankFront(bankIdx);
             s != BankedRequestQueue::kNone; s = q.nextInBank(s)) {
            if (q.request(s).coord.row == row)
                ++n;
        }
        return n;
    };
    const std::uint64_t bit = 1ULL << bankIdx;
    const std::uint16_t r = recount(c.readQ);
    const std::uint16_t w = recount(c.writeQ);
    c.readHitCnt[static_cast<std::size_t>(bankIdx)] = r;
    c.writeHitCnt[static_cast<std::size_t>(bankIdx)] = w;
    c.readHitMask = r ? (c.readHitMask | bit) : (c.readHitMask & ~bit);
    c.writeHitMask =
        w ? (c.writeHitMask | bit) : (c.writeHitMask & ~bit);
}

void
MemoryController::mcPrecharge(Channel &c, [[maybe_unused]] int ch,
                              int bankIdx)
{
    const Tick now = c.eq->now();
    dram::Bank &b = *c.bank[static_cast<std::size_t>(bankIdx)];
    REFSCHED_PROBE(probe_,
                   onDramCommand({now, validate::DramOp::Pre, ch,
                                  bankIdx / cfg_.org.banksPerRank,
                                  bankIdx % cfg_.org.banksPerRank,
                                  static_cast<std::uint64_t>(b.openRow),
                                  0}));
    b.precharge(now, cfg_.timings);
    const std::uint64_t bit = 1ULL << bankIdx;
    c.openMask &= ~bit;
    c.readHitCnt[static_cast<std::size_t>(bankIdx)] = 0;
    c.writeHitCnt[static_cast<std::size_t>(bankIdx)] = 0;
    c.readHitMask &= ~bit;
    c.writeHitMask &= ~bit;
}

bool
MemoryController::checkHitBitmapInvariant(int channel,
                                          std::string *why) const
{
    const auto &c = channels_[static_cast<std::size_t>(channel)];
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    std::uint64_t openMask = 0;
    for (int bi = 0; bi < cfg_.org.banksTotal(); ++bi) {
        const dram::Bank &b = *c.bank[static_cast<std::size_t>(bi)];
        if (b.isOpen())
            openMask |= 1ULL << bi;
        const auto naive = [&](const BankedRequestQueue &q) {
            std::uint16_t n = 0;
            for (auto s = q.bankFront(bi);
                 s != BankedRequestQueue::kNone;
                 s = q.nextInBank(s)) {
                if (b.isOpen()
                    && static_cast<std::int64_t>(
                           q.request(s).coord.row)
                        == b.openRow) {
                    ++n;
                }
            }
            return n;
        };
        const std::uint16_t r = naive(c.readQ);
        const std::uint16_t w = naive(c.writeQ);
        if (r != c.readHitCnt[static_cast<std::size_t>(bi)])
            return fail("read hit count mismatch on bank "
                        + std::to_string(bi));
        if (w != c.writeHitCnt[static_cast<std::size_t>(bi)])
            return fail("write hit count mismatch on bank "
                        + std::to_string(bi));
        const std::uint64_t bit = 1ULL << bi;
        if (static_cast<bool>(c.readHitMask & bit) != (r != 0))
            return fail("read hit mask mismatch on bank "
                        + std::to_string(bi));
        if (static_cast<bool>(c.writeHitMask & bit) != (w != 0))
            return fail("write hit mask mismatch on bank "
                        + std::to_string(bi));
    }
    if (openMask != c.openMask)
        return fail("open-bank mask mismatch");
    return true;
}

bool
MemoryController::refreshEngineStep(Channel &c, int ch, Tick &wake)
{
    if (c.pendingRefreshes.empty())
        return false;

    const Tick now = c.eq->now();
    RefreshCommand &cmd = c.pendingRefreshes.front();
    auto &rank = c.ranks[static_cast<std::size_t>(cmd.rank)];

    // Target banks [first, last) within the rank, and as a
    // global-bank-id mask.
    const bool allBank = cmd.isAllBank();
    const int first = allBank ? 0 : cmd.bank;
    const int last = allBank ? cfg_.org.banksPerRank : cmd.bank + 1;
    const std::uint64_t targets = ((1ULL << (last - first)) - 1)
        << bankIndex(cmd.rank, first);

    // Elastic postponement: hold the refresh while demand reads are
    // queued for its banks, unless the backlog forces issue.  A
    // force-issued refresh is also exempt from pausing -- otherwise
    // saturating traffic could starve refresh indefinitely.
    if (!c.refreshEngaged) {
        const bool forced =
            c.pendingRefreshes.size() >= params_.maxPostponedRefreshes;
        if (!forced && (c.readQ.occupiedWord() & targets) != 0)
            return false;
        c.refreshEngaged = true;
        c.refreshForced = forced;
        c.frozenMask = targets;
    }

    // Precharge the target banks one per slot; REF issues once all
    // of them are closed and idle.
    bool ready = true;
    for (int bi = first; bi < last; ++bi) {
        const Bank &b = rank.banks[static_cast<std::size_t>(bi)];
        if (b.underRefresh(now)) {
            foldWake(wake, now, b.refreshingUntil);
            ready = false;
        } else if (b.isOpen()) {
            if (now >= b.preAllowedAt) {
                mcPrecharge(c, ch, bankIndex(cmd.rank, bi));
                return true;  // one PRE issued this cycle
            }
            foldWake(wake, now, b.preAllowedAt);
            ready = false;
        }
    }
    if (allBank && rank.underRefresh(now)) {
        foldWake(wake, now, rank.refreshingUntil);
        return false;
    }
    if (!ready)
        return false;

    REFSCHED_PROBE(probe_,
                   onDramCommand({now,
                                  allBank ? validate::DramOp::RefAllBank
                                          : validate::DramOp::RefPerBank,
                                  ch, cmd.rank, cmd.bank, cmd.rows,
                                  now + cmd.tRFC}));
    if (allBank) {
        rank.startAllBankRefresh(now, cmd.tRFC);
    } else {
        rank.banks[static_cast<std::size_t>(cmd.bank)].startRefresh(
            now, cmd.tRFC, cmd.rows,
            params_.refreshPausing && !c.refreshForced);
    }
    for (int bi = first; bi < last; ++bi)
        rank.banks[static_cast<std::size_t>(bi)].rowsRefreshedInWindow +=
            cmd.rows;
    const auto rows = static_cast<double>(
        cmd.rows * static_cast<std::uint64_t>(last - first));
    c.stats.rowsRefreshed += rows;
    c.stats.energyRefreshPj += params_.energy.refreshRowPj * rows;

    ++c.stats.refreshCommands;
    c.pendingRefreshes.pop_front();
    c.refreshEngaged = false;
    c.frozenMask = 0;
    return true;
}

void
MemoryController::completeRead(Channel &c, Request &req, Tick dataAt)
{
    const auto latency = static_cast<double>(dataAt - req.enqueuedAt);
    c.stats.readLatency.sample(latency);
    c.stats.readLatencyDist.sample(latency);
    if (req.blockedByRefresh) {
        ++c.stats.readsBlockedByRefresh;
        c.stats.readLatencyBlocked.sample(latency);
        --c.blockedReadsNow;
    } else {
        c.stats.readLatencyClean.sample(latency);
    }
    if (req.blockedOut)
        *req.blockedOut = req.blockedByRefresh ? 1 : 0;

    // Intrusive completion: the (callee, cookies) triple goes into
    // the event slot as plain data, so the hottest path in the
    // simulator schedules without allocating.  The sharded kernel
    // routes it through the completion sink instead.
    if (!req.completion)
        return;
    if (completionSink_) {
        completionSink_->complete(req.coord.channel, req.coreId, dataAt,
                                  *req.completion, req.cookie0,
                                  req.cookie1);
    } else {
        eq_.schedule(dataAt, *req.completion, req.cookie0, req.cookie1);
    }
}

bool
MemoryController::serveQueue(Channel &c, int ch, bool isWriteQueue,
                             Tick &wake)
{
    BankedRequestQueue &q = isWriteQueue ? c.writeQ : c.readQ;
    if (q.empty())
        return false;

    constexpr auto kNone = BankedRequestQueue::kNone;
    const Tick now = c.eq->now();
    const auto &t = cfg_.timings;
    const int banksPerRank = cfg_.org.banksPerRank;

    auto bankState = [&](int bankIdx) -> Bank & {
        return *c.bank[static_cast<std::size_t>(bankIdx)];
    };

    // Gate checks shared by the starvation cap and passes 1-3:
    // bankBlocked is true for a bank under (or frozen for) refresh,
    // casReady/actReady/preReady are true when the command's timing
    // gates are open.  Every time-gated rejection folds the earliest
    // tick the answer can flip into the wake.
    auto bankBlocked = [&](int bankIdx) {
        const Bank &b = bankState(bankIdx);
        if (b.underRefresh(now)) {
            foldWake(wake, now, b.refreshingUntil);
            return true;
        }
        // Frozen banks unblock through refresh-engine progress; the
        // engine folds its own earliest-progress tick into the wake.
        return ((c.frozenMask >> bankIdx) & 1) != 0;
    };

    auto casReady = [&](int bankIdx) {
        const Bank &b = bankState(bankIdx);
        const Tick casAllowed =
            isWriteQueue ? b.wrAllowedAt : b.rdAllowedAt;
        // Bus constraints: burst spacing plus rank-to-rank switch
        // and read<->write turnaround penalties.
        const int rank = bankIdx / banksPerRank;
        Tick busReady = c.nextCasAt;
        if (c.lastCasRank >= 0 && c.lastCasRank != rank)
            busReady += t.tRTRS;
        if (c.lastCasRank >= 0 && c.lastCasWasWrite != isWriteQueue)
            busReady += t.tBusTurn;
        if (now >= casAllowed && now >= busReady)
            return true;
        foldWake(wake, now, std::max(casAllowed, busReady));
        return false;
    };

    auto actReady = [&](int bankIdx) {
        const Bank &b = bankState(bankIdx);
        const auto &rank =
            c.ranks[static_cast<std::size_t>(bankIdx / banksPerRank)];
        if (rank.underRefresh(now)) {
            foldWake(wake, now, rank.refreshingUntil);
            return false;
        }
        if (now >= b.actAllowedAt && now >= rank.actAllowedAt
            && !rank.fawBlocked(now, t))
            return true;
        foldWake(wake, now,
                 std::max({b.actAllowedAt, rank.actAllowedAt,
                           rank.fawClearAt(t)}));
        return false;
    };

    auto preReady = [&](int bankIdx) {
        const Tick preAllowed = bankState(bankIdx).preAllowedAt;
        if (now >= preAllowed)
            return true;
        foldWake(wake, now, preAllowed);
        return false;
    };

    // Track refresh interference on the oldest request.  Blocked
    // time accrues as an interval at the *next* tick (now - mark):
    // between two controller ticks the blocked state cannot change,
    // so the interval equals what per-edge polling would have
    // counted.
    {
        Request &front = q.request(q.front());
        const int frontBank =
            bankIndex(front.coord.rank, front.coord.bank);
        if (bankBlocked(frontBank)) {
            if (!isWriteQueue && !front.blockedByRefresh)
                ++c.blockedReadsNow;
            front.blockedByRefresh = true;
            c.blockedMark = now;

            // Refresh Pausing: free the bank at the next row boundary
            // and re-queue the unfinished rows.
            if (params_.refreshPausing && !isWriteQueue) {
                const auto &coord = front.coord;
                Bank &fb = bankState(frontBank);
                const auto remaining = fb.pauseRefresh(now);
                if (remaining > 0) {
                    REFSCHED_PROBE(
                        probe_,
                        onDramCommand({now, validate::DramOp::RefPause,
                                       ch, coord.rank, coord.bank,
                                       static_cast<std::uint64_t>(
                                           remaining),
                                       fb.refreshingUntil}));
                    fb.rowsRefreshedInWindow -= remaining;
                    c.stats.rowsRefreshed -=
                        static_cast<double>(remaining);
                    c.stats.energyRefreshPj -=
                        params_.energy.refreshRowPj
                        * static_cast<double>(remaining);
                    ++c.stats.refreshPauses;
                    c.pendingRefreshes.push_back(
                        {coord.rank, coord.bank, remaining,
                         static_cast<Tick>(remaining)
                             * (t.tRFCpb / t.rowsPerRefresh)});
                }
            }
        }
    }

    auto issueCas = [&](std::uint32_t slot) {
        Request &r = q.request(slot);
        const int bankIdx = bankIndex(r.coord.rank, r.coord.bank);
        Bank &b = bankState(bankIdx);
        if (!r.neededAct)
            ++c.stats.rowHits;
        else
            ++c.stats.rowMisses;
        REFSCHED_PROBE(
            probe_,
            onDramCommand({now,
                           isWriteQueue ? validate::DramOp::Write
                                        : validate::DramOp::Read,
                           ch, r.coord.rank, r.coord.bank,
                           r.coord.row, 0}));
        if (isWriteQueue) {
            b.write(now, t);
            ++c.stats.writes;
            c.stats.energyReadWritePj += params_.energy.writePj;
        } else {
            const Tick dataAt = b.read(now, t);
            ++c.stats.reads;
            c.stats.energyReadWritePj += params_.energy.readPj;
            const auto wait = static_cast<double>(now - r.enqueuedAt);
            c.stats.readQueueWait.sample(wait);
            c.stats.readQueueWaitHist.sample(wait);
            completeRead(c, r, dataAt);
        }
        c.nextCasAt = now + t.tBURST;
        c.lastCasRank = r.coord.rank;
        c.lastCasWasWrite = isWriteQueue;
        c.busyTicks += t.tBURST;
        // A served CAS always targets the open row: retire its hit.
        noteQueuedRequest(c, bankIdx, r.coord.row, !isWriteQueue, -1);
        accrueOccupancy(c, now);
        q.erase(slot);
        fireRetryWaiters(retryWaiters_, now);
        return true;
    };

    auto issueAct = [&](std::uint32_t slot) {
        Request &r = q.request(slot);
        mcActivate(c, ch, bankIndex(r.coord.rank, r.coord.bank),
                   r.coord.row);
        r.neededAct = true;
        return true;
    };

    auto issuePre = [&](int bankIdx) {
        mcPrecharge(c, ch, bankIdx);
        return true;
    };

    // FR-FCFS starvation cap (reads only): once the oldest read has
    // waited past the threshold, its next command issues ahead of
    // any younger row hit -- including a precharge of a row younger
    // requests still want, which the open-row pass 3 below would
    // veto forever under a sustained hit streak.  When the front
    // request cannot issue anything this tick, younger requests
    // proceed as usual (the cap is a priority, not a barrier).  The
    // gate checks are the passes' own, so a rejected promotion folds
    // exactly the wake the matching pass would.
    if (!isWriteQueue) {
        const std::uint32_t fs = q.front();
        const Request &fr = q.request(fs);
        const int fIdx = bankIndex(fr.coord.rank, fr.coord.bank);
        if (now - fr.enqueuedAt < kReadStarvationThreshold) {
            // Not starved yet: wake at the promotion tick so the
            // threshold crossing is never slept through (an early
            // wake that changes nothing simply re-sleeps).
            foldWake(wake, now,
                     fr.enqueuedAt + kReadStarvationThreshold);
        } else if (!bankBlocked(fIdx)) {
            const Bank &fb = bankState(fIdx);
            if (!fb.isOpen()) {
                if (actReady(fIdx)) {
                    ++c.stats.promotedReads;
                    return issueAct(fs);
                }
            } else if (fb.openRow
                       == static_cast<std::int64_t>(fr.coord.row)) {
                if (casReady(fIdx)) {
                    ++c.stats.promotedReads;
                    return issueCas(fs);
                }
            } else if (preReady(fIdx)) {
                ++c.stats.promotedReads;
                return issuePre(fIdx);
            }
        }
    }

    // Each pass is a single-word scan: the occupied-bank mask is
    // intersected with the open-bank mask and the incrementally
    // maintained row-hit mask, so only banks that can possibly yield
    // the pass's command are visited at all.  FR-FCFS age order is
    // preserved by taking the minimum request sequence number over
    // per-bank candidates.
    const std::uint64_t occupied = q.occupiedWord();
    const std::uint64_t hitMask =
        isWriteQueue ? c.writeHitMask : c.readHitMask;
    std::uint32_t best = kNone;
    std::uint64_t bestSeq = ~std::uint64_t{0};

    // Pass 1 (FR): oldest ready row hit, over banks with a queued
    // open-row hit.  Banks without a hit candidate contribute
    // neither an issue nor a wake: the hit set only changes through
    // enqueues and activates, which wake the channel themselves.
    std::uint64_t word = occupied & c.openMask & hitMask;
    while (word != 0) {
        const int bankIdx = std::countr_zero(word);
        word &= word - 1;
        if (bankBlocked(bankIdx) || !casReady(bankIdx))
            continue;
        const Bank &b = bankState(bankIdx);
        for (auto s = q.bankFront(bankIdx); s != kNone;
             s = q.nextInBank(s)) {
            const Request &r = q.request(s);
            if (b.openRow == static_cast<std::int64_t>(r.coord.row)) {
                if (r.seq < bestSeq) {
                    bestSeq = r.seq;
                    best = s;
                }
                break;
            }
        }
    }
    if (best != kNone)
        return issueCas(best);

    // Pass 2 (FCFS): oldest request needing an ACT on a closed bank.
    // The gating conditions are request-independent, so the per-bank
    // candidate is the bank's oldest request.
    best = kNone;
    bestSeq = ~std::uint64_t{0};
    word = occupied & ~c.openMask;
    while (word != 0) {
        const int bankIdx = std::countr_zero(word);
        word &= word - 1;
        if (bankBlocked(bankIdx) || !actReady(bankIdx))
            continue;
        const Request &r = q.request(q.bankFront(bankIdx));
        if (r.seq < bestSeq) {
            bestSeq = r.seq;
            best = q.bankFront(bankIdx);
        }
    }
    if (best != kNone)
        return issueAct(best);

    // Pass 3: precharge a conflicting row for the oldest conflicting
    // request, but only when no queued request still wants that row
    // (open-row policy).  "Still wanted" is exactly the hit mask, so
    // eligible banks are (occupied & open & ~hit) -- and on such a
    // bank every queued request conflicts, making the bank's oldest
    // request the candidate with no list walk.
    best = kNone;
    bestSeq = ~std::uint64_t{0};
    int bestBank = -1;
    word = occupied & c.openMask & ~hitMask;
    while (word != 0) {
        const int bankIdx = std::countr_zero(word);
        word &= word - 1;
        if (bankBlocked(bankIdx) || !preReady(bankIdx))
            continue;
        const std::uint32_t oldest = q.bankFront(bankIdx);
        if (q.request(oldest).seq < bestSeq) {
            bestSeq = q.request(oldest).seq;
            best = oldest;
            bestBank = bankIdx;
        }
    }
    if (best != kNone)
        return issuePre(bestBank);

    return false;
}

bool
MemoryController::closeIdleRow(Channel &c, int ch, Tick &wake)
{
    const Tick now = c.eq->now();
    const bool closedPage = params_.pagePolicy == PagePolicy::Closed;

    // Only open, unfrozen banks whose row no queued request still
    // wants are candidates -- exactly
    // open & ~frozen & ~(readHit | writeHit), a single word op.
    // Banks with a queued hit are pass 1's business (serving resets
    // the idle clock; no precharge can issue there until the hit is
    // served, and serving happens inside a tick that re-arms the
    // wake itself); frozen banks belong to the refresh engine.
    std::uint64_t word = c.openMask & ~c.frozenMask
        & ~(c.readHitMask | c.writeHitMask);
    while (word != 0) {
        const int bankIdx = std::countr_zero(word);
        word &= word - 1;
        const Bank &b = *c.bank[static_cast<std::size_t>(bankIdx)];
        if (b.underRefresh(now)) {
            foldWake(wake, now, b.refreshingUntil);
            continue;
        }
        // The open policy closes a row only once it has idled past
        // the timeout; the closed policy closes it at once.
        const Tick expiry = closedPage
            ? now
            : b.lastAccessAt + params_.openRowIdleTimeout;
        if (now < expiry) {
            foldWake(wake, now, expiry);
            continue;
        }
        if (now < b.preAllowedAt) {
            foldWake(wake, now, b.preAllowedAt);
            continue;
        }
        mcPrecharge(c, ch, bankIdx);
        if (!closedPage)
            ++c.stats.idleRowCloses;
        return true;
    }
    return false;
}

void
MemoryController::tick(int ch)
{
    auto &c = channels_[static_cast<std::size_t>(ch)];
    c.tickScheduledAt = kMaxTick;
    const Tick now = c.eq->now();

    // Close the open refresh-blocked interval.  Between the tick
    // that opened it and this one, no command issued and no engine
    // state changed, so the front request was blocked for the whole
    // stretch -- exactly the per-edge sum the polling controller
    // accumulated tCK at a time.
    if (c.blockedMark != kMaxTick) {
        c.stats.refreshBlockedTicks +=
            static_cast<double>(now - c.blockedMark);
        c.blockedMark = kMaxTick;
    }

    rollUtilizationEpoch(c);
    harvestDueRefreshes(c, ch);

    // Write-drain hysteresis (Table 1: watermarks 32/54).  Writes
    // are only drained in batches: trickling single writes between
    // read bursts would precharge open rows and wreck read locality,
    // so an opportunistic drain (read queue idle) also requires a
    // worthwhile batch above the low watermark.
    const bool opportunistic = c.readQ.empty()
        && c.writeQ.size() >= params_.writeLowWatermark + 4;
    if (!c.draining
        && (c.writeQ.size() >= params_.writeHighWatermark
            || opportunistic)) {
        c.draining = true;
        ++c.stats.writeDrainBatches;
    } else if (c.draining
               && c.writeQ.size() <= params_.writeLowWatermark) {
        c.draining = false;
    }

    // Wake-precise issue attempt: the passes below fold every time
    // gate they bounce off into `wake`, so when nothing issues we
    // know the exact earliest tick the outcome can differ.
    Tick wake = kMaxTick;
    bool issued = refreshEngineStep(c, ch, wake);

    if (!issued)
        issued = serveQueue(c, ch, c.draining, wake);
    if (!issued
        && (params_.pagePolicy == PagePolicy::Closed
            || params_.openRowIdleTimeout > 0))
        issued = closeIdleRow(c, ch, wake);

    // Re-arm.  A command issue changes gate state, so the very next
    // edge may issue again; a no-op tick sleeps to the earliest gate
    // crossing (all gate inputs are constant between controller
    // ticks, so nothing can become issuable before it).  Work that
    // waits on externally driven state -- a below-watermark write
    // backlog, a postponed refresh behind queued demand -- needs no
    // candidate: the enqueue or serve that changes it wakes the
    // channel itself.
    if (issued)
        wake = now + cfg_.timings.tCK;
    wake = std::min(wake, refresh_->nextDue(ch));
    REFSCHED_ASSERT(
        wake != kMaxTick || c.readQ.empty(),
        "controller would sleep forever with reads queued");
    if (wake != kMaxTick)
        scheduleTick(ch, wake);
}

void
MemoryController::registerStats(StatRegistry &reg,
                                const std::string &prefix)
{
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        auto &s = channels_[ch].stats;
        const std::string p = prefix + ".ch" + std::to_string(ch) + ".";
        reg.add(p + "reads", &s.reads);
        reg.add(p + "writes", &s.writes);
        reg.add(p + "rowHits", &s.rowHits);
        reg.add(p + "rowMisses", &s.rowMisses);
        reg.add(p + "refreshCommands", &s.refreshCommands);
        reg.add(p + "refreshNoops", &s.refreshNoops);
        reg.add(p + "refreshPauses", &s.refreshPauses);
        reg.add(p + "rowsRefreshed", &s.rowsRefreshed);
        reg.add(p + "readsBlockedByRefresh", &s.readsBlockedByRefresh);
        reg.add(p + "refreshBlockedTicks", &s.refreshBlockedTicks);
        reg.add(p + "promotedReads", &s.promotedReads);
        reg.add(p + "idleRowCloses", &s.idleRowCloses);
        reg.add(p + "writeDrainBatches", &s.writeDrainBatches);
        reg.add(p + "forwardedReads", &s.forwardedReads);
        reg.add(p + "readLatency", &s.readLatency);
        reg.add(p + "readQueueWait", &s.readQueueWait);
        reg.add(p + "readLatencyDist", &s.readLatencyDist);
        reg.add(p + "readLatencyClean", &s.readLatencyClean);
        reg.add(p + "readLatencyBlocked", &s.readLatencyBlocked);
        reg.add(p + "readQueueWaitHist", &s.readQueueWaitHist);
        reg.add(p + "energyActivatePj", &s.energyActivatePj);
        reg.add(p + "energyReadWritePj", &s.energyReadWritePj);
        reg.add(p + "energyRefreshPj", &s.energyRefreshPj);
        reg.add(p + "readQOccIntegral", &s.readQOccIntegral);
        reg.add(p + "writeQOccIntegral", &s.writeQOccIntegral);
        reg.add(p + "readQPeakDepth", &s.readQPeakDepth);
        reg.add(p + "writeQPeakDepth", &s.writeQPeakDepth);
    }
}

dram::EnergyBreakdown
MemoryController::energyBreakdown(int channel, Tick elapsed) const
{
    const auto &s = channelStats(channel);
    dram::EnergyBreakdown out;
    out.activatePj = s.energyActivatePj.value();
    out.readWritePj = s.energyReadWritePj.value();
    out.refreshPj = s.energyRefreshPj.value();
    out.backgroundPj = dram::backgroundPj(
        params_.energy, cfg_.org.ranksPerChannel, elapsed);
    return out;
}

} // namespace refsched::memctrl
