/**
 * @file
 * The DRAM memory controller (Table 1 configuration).
 *
 * Per channel: FR-FCFS command scheduling with an open-row policy,
 * 64-entry read and write queues, batch write draining between
 * low/high watermarks (32/54), and a pluggable refresh scheduler.
 *
 * Refresh arbitration: when a refresh command falls due, its target
 * bank(s) are frozen (no new ACT/CAS); open target rows are
 * precharged with priority, then the REF is issued, occupying the
 * bank(s) for tRFC.  Non-target banks keep serving requests -- the
 * property that makes per-bank refresh (and the co-design) win.
 *
 * The controller is a clocked component on the shared EventQueue: it
 * issues at most one command per memory-clock edge per channel.  It
 * is wake-precise: a tick that issues a command re-arms for the next
 * edge, but a tick that issues nothing computes the earliest tick at
 * which anything can change -- bank/rank timing-gate expiries and
 * refresh completions for banks with queued work, shared-bus
 * readiness (tBURST spacing plus rank-switch/turnaround penalties),
 * refresh-engine progress, and the refresh scheduler's next due time
 * -- and sleeps until then.  The wake aggregate is collected as a
 * byproduct of the very same per-occupied-bank passes that tried
 * (and failed) to issue, so no extra scan is paid; enqueues and
 * retries still wake the channel immediately.  Between two
 * controller ticks every gate value is constant (they change only
 * when commands issue, which only happens inside ticks), so sleeping
 * to the earliest gate crossing provably never delays an issuable
 * command: the resulting command trace is byte-identical to the
 * every-edge-polling schedule (tools/golden_diff proves it).
 *
 * Each command kind has one issue site, which is also where it is
 * reported to the probe: ACT in mcActivate, PRE in mcPrecharge
 * (refresh engine, request passes, starvation cap and idle-row close
 * all go through it), RD/WR in serveQueue's CAS step, and REF in the
 * refresh engine.  Queue depths and blocked-read counts are not
 * probe events: telemetry samples them (obs/telemetry.hh) through
 * the gauge accessors below.
 */

#ifndef REFSCHED_MEMCTRL_MEMORY_CONTROLLER_HH
#define REFSCHED_MEMCTRL_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dram/address_mapping.hh"
#include "dram/bank.hh"
#include "dram/energy.hh"
#include "dram/refresh_scheduler.hh"
#include "dram/timings.hh"
#include "memctrl/banked_request_queue.hh"
#include "memctrl/memory_port.hh"
#include "memctrl/request.hh"
#include "simcore/event_queue.hh"
#include "simcore/probe.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace refsched::memctrl
{

/** Row-buffer management policy. */
enum class PagePolicy
{
    Open,    ///< keep rows open until a conflict (Table 1 default)
    Closed,  ///< precharge as soon as no queued request wants the row
};

/** Queue sizing / drain policy (Table 1). */
struct ControllerParams
{
    PagePolicy pagePolicy = PagePolicy::Open;

    std::size_t readQueueCapacity = 64;
    std::size_t writeQueueCapacity = 64;
    std::size_t writeLowWatermark = 32;
    std::size_t writeHighWatermark = 54;

    /**
     * Elastic refresh postponement (JEDEC allows up to 8 postponed
     * REF commands): a due refresh is deferred while demand reads
     * are queued for its target bank(s), until the backlog reaches
     * this limit and issue is forced.  Set to 1 for rigid,
     * schedule-exact refresh.
     */
    std::size_t maxPostponedRefreshes = 8;

    /** DRAM energy accounting constants. */
    dram::EnergyParams energy;

    /**
     * Refresh Pausing (Nair et al., HPCA'13): abort an in-progress
     * per-bank refresh at the next row boundary when a demand read
     * is waiting on that bank; the remaining rows are re-queued as a
     * fresh refresh command.
     */
    bool refreshPausing = false;

    /**
     * FR-FCFS starvation cap for reads (ticks; 0 disables).  The CPU
     * retires in order, so a read bypassed indefinitely by younger
     * row hits blocks its core no matter how much bandwidth the
     * channel sustains.  Once the oldest queued read has waited this
     * long, its next command (CAS, ACT, or even a precharge of a row
     * younger requests still want) issues ahead of any younger hit.
     * 256 DDR3-1600 clocks, ~8x the mean loaded read latency:
     * healthy FR-FCFS reordering never reaches it, a pathological
     * hit streak is bounded by it.
     */
    Tick readStarvationThreshold = 320000;

    /**
     * Idle-row auto-close timeout for the Open page policy (ticks;
     * 0 keeps rows open forever).  A strictly-open policy taxes
     * irregular access streams: every revisit of a bank whose stale
     * row nobody wants pays PRE+ACT on the critical path.  Real
     * controllers close rows left idle this long (adaptive page
     * management), off the critical path, in otherwise-idle command
     * slots.  The differential fuzzer's dominance oracle exposed the
     * strict policy: per-bank refresh BEAT the no-refresh ideal on
     * mcf-heavy samples because each REF closed stale rows as a side
     * effect -- refresh was acting as the missing idle-row closer.
     * 200 DDR3-1600 clocks: past any realistic row-reuse burst, well
     * under typical same-bank revisit distances of irregular
     * workloads.
     */
    Tick openRowIdleTimeout = 250000;
};

class MemoryController : public MemoryPort,
                         public dram::McRefreshView,
                         public Callee
{
  public:
    /**
     * Receiver for read-completion events in sharded mode: instead
     * of scheduling req.completion on its own event queue, the
     * controller hands the (when, callee, cookies) quadruple to the
     * sink, which stages it for cross-shard delivery to the lane the
     * requesting core lives on.  Null (the default) schedules
     * directly -- the legacy single-queue path.
     */
    class CompletionSink
    {
      public:
        /** @p coreId is the requester (Request::coreId; -1 for
         *  non-core traffic such as migration reads), letting the
         *  sink route the delivery to that core's lane. */
        virtual void complete(int channel, int coreId, Tick when,
                              Callee &callee, std::uint64_t cookie0,
                              std::uint64_t cookie1) = 0;

      protected:
        ~CompletionSink() = default;
    };

    MemoryController(EventQueue &eq, const dram::DramDeviceConfig &cfg,
                     std::unique_ptr<dram::RefreshScheduler> refresh,
                     const ControllerParams &params = {});

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /**
     * Try to enqueue @p req.  Returns false when the target queue is
     * full; the caller should wait for a retry notification.  Writes
     * are posted (no completion); reads fire req.completion at
     * data-burst-done time.  Reads that hit a queued write are
     * forwarded and complete on the next cycle.
     */
    bool enqueue(Request req) override;

    /** One-shot callback fired when queue space frees up. */
    void requestRetryNotification(std::function<void()> cb) override;

    /**
     * Move @p channel onto its own event-queue lane (sharded
     * kernel).  All of the channel's controller state -- its clock
     * ticks, its notion of now() -- migrates to @p lane; a pending
     * tick event is re-armed there.  Call only while all queues
     * agree on the current tick (i.e. before running).
     */
    void setChannelLane(int channel, EventQueue *lane);

    /** Redirect read completions through @p sink (null = direct). */
    void setCompletionSink(CompletionSink *sink)
    {
        completionSink_ = sink;
    }

    /** Register this controller's stats under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Attach an instrumentation probe; every issued DRAM command is
     *  reported through it (see simcore/probe.hh).  Null detaches. */
    void setProbe(validate::Probe *probe) { probe_ = probe; }

    const dram::AddressMapping &mapping() const { return mapping_; }
    const dram::DramDeviceConfig &config() const { return cfg_; }
    dram::RefreshScheduler &refreshScheduler() { return *refresh_; }
    const dram::RefreshScheduler &refreshScheduler() const
    {
        return *refresh_;
    }

    // --- McRefreshView ---
    int queuedToBank(int channel, int rank, int bank) const override;
    double channelUtilization(int channel) const override;

    // --- Introspection for tests ---
    std::size_t readQueueSize(int channel) const;
    std::size_t writeQueueSize(int channel) const;
    const dram::Bank &bank(int channel, int rank, int bank) const;

    /** Callee: per-channel tick events carry the channel index, so
     *  arming the controller clock never heap-allocates. */
    void
    fire(Tick, std::uint64_t ch, std::uint64_t) override
    {
        tick(static_cast<int>(ch));
    }

    /**
     * Verify the incrementally-maintained row-hit bitmaps and
     * open-bank mask of @p channel against a naive recompute from
     * queue and bank state.  For the property tests; O(banks +
     * queued requests).
     */
    bool checkHitBitmapInvariant(int channel,
                                 std::string *why = nullptr) const;

    /** Aggregate statistics (exposed for metrics collection). */
    struct ChannelStats
    {
        Scalar reads;
        Scalar writes;
        Scalar rowHits;
        Scalar rowMisses;
        Scalar refreshCommands;
        Scalar refreshNoops;
        Scalar refreshPauses;
        Scalar rowsRefreshed;
        Scalar readsBlockedByRefresh;
        Scalar refreshBlockedTicks;
        Scalar promotedReads;
        Scalar idleRowCloses;
        Scalar writeDrainBatches;
        Scalar forwardedReads;
        Average readLatency;   ///< enqueue -> data (ticks)
        Average readQueueWait; ///< enqueue -> CAS issue (ticks)
        Distribution readLatencyDist;
        /** Read latency split by refresh interference: a read that
         *  ever waited on a refreshing/frozen bank lands in the
         *  blocked histogram, every other read in the clean one. */
        Histogram readLatencyClean;
        Histogram readLatencyBlocked;
        Histogram readQueueWaitHist;

        // DRAM energy (picojoules; background added at collection).
        Scalar energyActivatePj;
        Scalar energyReadWritePj;
        Scalar energyRefreshPj;

        /**
         * Queue-occupancy integrals (sum of depth x dt, entry-ticks)
         * and peak depths, maintained inline at the depth-change
         * points.  Exact mean depth over an interval is
         * integral / elapsed; feeds the telemetry series and the
         * serving_sweep queue-depth columns.  Depths and tick deltas
         * are integers, so these Scalars stay integer-exact.
         */
        Scalar readQOccIntegral;
        Scalar writeQOccIntegral;
        Scalar readQPeakDepth;
        Scalar writeQPeakDepth;
    };

    const ChannelStats &channelStats(int channel) const
    {
        return channels_[static_cast<std::size_t>(channel)].stats;
    }

    // --- Telemetry gauges (direct reads; see obs/telemetry.hh) ---

    /** Queued reads whose blockedByRefresh flag is currently set
     *  (the chN.blockedReads series; on a timeline only with
     *  telemetry enabled). */
    int blockedReadsNow(int channel) const;

    /** Refresh commands harvested but not yet completed. */
    std::size_t refreshBacklog(int channel) const;

    /** The front pending refresh is committed (banks frozen). */
    bool refreshEngagedNow(int channel) const;

    /** Read/write queue-occupancy integral accrued up to the
     *  channel's current tick (non-mutating). */
    double readQueueOccupancyIntegral(int channel) const;
    double writeQueueOccupancyIntegral(int channel) const;

    /** Peak read-queue depth since the last stat reset. */
    std::size_t readQueuePeakDepth(int channel) const;

    /**
     * Re-seed the occupancy accrual marks and peak depths from the
     * current queue state.  Call right after a stat reset (the
     * integrals reset to zero; accrual must restart at the reset
     * tick, not at the last pre-reset depth change).
     */
    void resetOccupancyMarks();

    /**
     * Energy consumed on @p channel, with background power
     * integrated over @p elapsed ticks (the measurement interval).
     */
    dram::EnergyBreakdown energyBreakdown(int channel,
                                          Tick elapsed) const;

  private:
    struct Channel
    {
        Channel(const dram::DramDeviceConfig &cfg,
                const ControllerParams &params);

        std::vector<dram::Rank> ranks;
        BankedRequestQueue readQ;
        BankedRequestQueue writeQ;

        /**
         * The event queue this channel's controller clock lives on.
         * The legacy kernel points every channel at the system
         * queue; the sharded kernel gives each channel its own lane,
         * run once per epoch window.
         * All channel-scoped code derives now() from here.
         */
        EventQueue *eq = nullptr;

        /** Request age stamp.  Per channel (not global) so lanes
         *  never share a counter: FR-FCFS only ever compares ages
         *  within one channel's queues, where a per-channel counter
         *  yields the same relative order as a global one. */
        std::uint64_t nextSeq = 0;
        std::deque<dram::RefreshCommand> pendingRefreshes;

        /** The front pending refresh is committed to issue: its
         *  target banks are frozen and being precharged. */
        bool refreshEngaged = false;

        /** The engaged refresh was force-issued (backlog full); it
         *  must not be paused. */
        bool refreshForced = false;

        /** Earliest tick the shared data bus accepts another CAS. */
        Tick nextCasAt = 0;

        /** Last CAS target, for rank-switch / turnaround penalties. */
        int lastCasRank = -1;
        bool lastCasWasWrite = false;

        bool draining = false;

        // Utilization epoch accounting (feeds AdaptiveRefresh).
        Tick epochStart = 0;
        Tick busyTicks = 0;
        double lastUtil = 0.0;

        // Sleep/wake management.
        EventHandle tickEvent;
        Tick tickScheduledAt = kMaxTick;

        /** Start of the open refresh-blocked interval on the served
         *  queue's front request (kMaxTick = none open):
         *  refreshBlockedTicks accrues `now - blockedMark` at the
         *  next tick instead of tCK per polled edge. */
        Tick blockedMark = kMaxTick;

        /** Queued reads whose blockedByRefresh flag is set (feeds
         *  the telemetry chN.blockedReads gauge). */
        int blockedReadsNow = 0;

        /** Last tick the occupancy integrals were accrued to. */
        Tick occMark = 0;

        // --- Flattened per-bank hot state (global bank id order) ---

        /** Flat pointer array over ranks[r].banks[b]: bank[idx]
         *  replaces a divide/modulo pair per bank access on every
         *  scheduler pass.  Pointers stay valid across Channel moves
         *  (the ranks vector keeps its heap buffer). */
        std::vector<dram::Bank *> bank;

        /** Bit b set iff bank b has an open row. */
        std::uint64_t openMask = 0;

        /**
         * Row-hit tracking, maintained incrementally at enqueue,
         * serve, activate and precharge: hit counts are the number
         * of queued requests targeting the bank's open row, and the
         * masks mirror count != 0.  The FR pass and both precharge
         * scans become single-word scans over them.
         */
        std::vector<std::uint16_t> readHitCnt;
        std::vector<std::uint16_t> writeHitCnt;
        std::uint64_t readHitMask = 0;
        std::uint64_t writeHitMask = 0;

        /** Target bank(s) of the engaged front refresh as a
         *  global-bank-id bitmask (0 = nothing frozen), so the scan
         *  passes test or exclude frozen banks in one word op.
         *  Deferred refreshes freeze nothing: that is the point of
         *  elastic postponement. */
        std::uint64_t frozenMask = 0;

        ChannelStats stats;
    };

    /** One scheduling step for @p ch at the current clock edge. */
    void tick(int ch);

    /** Arrange for tick(ch) to run at clock edge >= @p when. */
    void scheduleTick(int ch, Tick when);

    /** Pop refresh commands that have come due into the pending Q. */
    void harvestDueRefreshes(Channel &c, int ch);

    /**
     * Try to advance the refresh engine; true if a command slot was
     * consumed (PRE toward refresh, or REF itself).  When the engine
     * is engaged but waiting, the earliest tick it can make progress
     * is folded into @p wake.
     */
    bool refreshEngineStep(Channel &c, int ch, Tick &wake);

    /**
     * Try to issue one request command from the write queue (while
     * draining, @p isWriteQueue) or the read queue; true on issue.
     * Every pass that rejects a bank on a *time* gate (now < X)
     * folds X into @p wake, so a no-issue tick knows the earliest
     * tick the decision can flip.
     */
    bool serveQueue(Channel &c, int ch, bool isWriteQueue, Tick &wake);

    /**
     * Precharge one open row that no queued request still wants: at
     * once under the closed page policy, after openRowIdleTimeout of
     * idleness under the open one (counted in idleRowCloses).  True
     * on issue; time-gated skips fold into @p wake.
     */
    bool closeIdleRow(Channel &c, int ch, Tick &wake);

    /** Issue an ACT of @p row on the bank: the one ACT site.  Reports
     *  the command to the probe, updates bank/rank timing and energy,
     *  and recomputes the bank's open mask and row-hit counts. */
    void mcActivate(Channel &c, int ch, int bankIdx, std::uint64_t row);

    /** Issue a PRE on the bank: the one PRE site.  Reports the
     *  command to the probe and clears the bank's mask/hit state. */
    void mcPrecharge(Channel &c, int ch, int bankIdx);

    /** Adjust hit tracking when a request enters or leaves a
     *  queue. @p isRead selects the read- or write-queue counters. */
    void noteQueuedRequest(Channel &c, int bankIdx,
                           std::uint64_t row, bool isRead, int delta);

    /** Accrue the queue-occupancy integrals up to @p now.  Called
     *  before every queue depth change. */
    static void accrueOccupancy(Channel &c, Tick now);

    /** Record a read's latency stats (CAS-issued or forwarded) and
     *  deliver its completion at @p dataAt. */
    void completeRead(Channel &c, Request &req, Tick dataAt);
    void rollUtilizationEpoch(Channel &c);
    void notifyRetry();

    int bankIndex(int rank, int bank) const
    {
        return rank * cfg_.org.banksPerRank + bank;
    }

    EventQueue &eq_;
    dram::DramDeviceConfig cfg_;
    dram::AddressMapping mapping_;
    std::unique_ptr<dram::RefreshScheduler> refresh_;
    ControllerParams params_;
    ClockDomain clock_;
    std::vector<Channel> channels_;
    std::vector<std::function<void()>> retryWaiters_;
    Tick epochLength_;
    validate::Probe *probe_ = nullptr;
    CompletionSink *completionSink_ = nullptr;
};

} // namespace refsched::memctrl

#endif // REFSCHED_MEMCTRL_MEMORY_CONTROLLER_HH
