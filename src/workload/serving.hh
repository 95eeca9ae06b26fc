/**
 * @file
 * Open-loop request-serving workload (memcached/search-leaf shaped).
 *
 * A ServingInjector models a fleet of clients that do NOT wait for
 * the system: request timestamps come from a deterministic
 * ArrivalProcess (Poisson or bursty MMPP) at a configured offered
 * load, independent of completions.  Requests are served by a fixed
 * pool of service slots; when every slot is busy, arrivals queue in
 * a bounded backlog, and when the backlog is full they are dropped
 * -- the queueing/drop accounting that makes "offered load vs p99"
 * an honest hockey-stick curve rather than a self-throttling one.
 *
 * Each request reads `linesPerRequest` cache lines drawn uniformly
 * from a live task's footprint (through demand-paged translation, so
 * placement policy applies) and completes when the last line's data
 * returns.  The end-to-end latency -- queueing delay included -- is
 * sampled into clean/refresh-blocked split histograms: a request
 * counts as refresh-blocked iff any of its lines observed its bank
 * busy refreshing, which is exactly the tail amplification the
 * co-design policy is supposed to remove.
 *
 * Determinism: all randomness comes from CounterRng streams
 * (rngstream::kServingTask / kServingAddr) and the ArrivalProcess's
 * own streams, so the injected traffic is a pure function of the
 * seed and the completion timeline -- bit-identical across
 * {jobs} x {shards} within a timing mode (legacy, or sharded with
 * any shards >= 1).  The
 * injector lives on the main lane; in sharded mode its coreId = -1
 * requests stage through the ShardRouter onto the owning channel
 * lane at the next epoch boundary, the same path the scenario
 * engine's migration traffic already takes.
 */

#ifndef REFSCHED_WORKLOAD_SERVING_HH
#define REFSCHED_WORKLOAD_SERVING_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "memctrl/memory_port.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"
#include "workload/arrival.hh"

namespace refsched::os
{
class Task;
} // namespace refsched::os

namespace refsched::workload
{

/** Configuration of the open-loop serving workload. */
struct ServingConfig
{
    bool enabled = false;

    ArrivalShape shape;

    /** Offered load in requests per microsecond (ticks are ps). */
    double loadReqPerUs = 0.5;

    /** Service slots (concurrent in-flight requests). */
    int poolSize = 8;

    /** Backlog capacity; arrivals beyond it are dropped. */
    int queueCapacity = 64;

    /** Cache lines read per request. */
    int linesPerRequest = 4;

    /** Mean interarrival time in ticks at the offered load. */
    double
    meanGapTicks() const
    {
        return 1e6 / loadReqPerUs;
    }

    void check() const;

    /**
     * Parse the CLI/fuzzer spec form: comma-separated key=value of
     * arrival=poisson|mmpp, load=<req/us>, pool=<n>, queue=<n>,
     * lines=<n>, burst-ratio=<x>, burst-frac=<x>, burst-dwell=<x>.
     * Unknown keys are fatal; the result has enabled = true.
     */
    static ServingConfig parse(const std::string &spec);

    /** Inverse of parse() (canonical key order). */
    std::string serialize() const;
};

/**
 * The open-loop injector: one Callee on the main-lane event queue
 * that turns arrival timestamps into DRAM read traffic and collects
 * per-request latency split clean vs refresh-blocked.
 */
class ServingInjector final : public Callee
{
  public:
    struct Hooks
    {
        /** Currently live tasks, in deterministic order. */
        std::function<const std::vector<os::Task *> &()> liveTasks;

        /** Current footprint of @p task in bytes. */
        std::function<std::uint64_t(const os::Task &)> footprintBytes;

        /** Demand-paged virtual -> physical translation. */
        std::function<Addr(os::Task &, Addr)> translate;
    };

    ServingInjector(const ServingConfig &cfg, EventQueue &eq,
                    memctrl::MemoryPort &mem, Hooks hooks,
                    std::uint64_t seed);

    /** Register serving.* stats under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Arrival events (cookie0 = kArrivalCookie) and per-line read
     *  completions (cookie0 = slot, cookie1 = line index). */
    void fire(Tick now, std::uint64_t a0, std::uint64_t a1) override;

    // --- Accounting access (benches, tests) ---
    const Histogram &latency() const { return latAll_; }
    const Histogram &latencyClean() const { return latClean_; }
    const Histogram &latencyBlocked() const { return latBlocked_; }
    const Histogram &queueDelay() const { return queueDelay_; }
    std::uint64_t arrivals() const
    {
        return static_cast<std::uint64_t>(arrivals_.value());
    }
    std::uint64_t dropped() const
    {
        return static_cast<std::uint64_t>(drops_.value());
    }
    std::uint64_t completed() const
    {
        return static_cast<std::uint64_t>(completed_.value());
    }

    /** Current backlog depth (telemetry gauge). */
    std::size_t backlogDepth() const { return backlog_.size(); }

  private:
    /** cookie0 marker distinguishing arrivals from completions. */
    static constexpr std::uint64_t kArrivalCookie = ~std::uint64_t{0};

    struct Slot
    {
        bool busy = false;
        Tick arrivalTick = 0;
        Tick startTick = 0;
        int linesDone = 0;
        int nextIssue = 0;
        Pid pid = -1;
        std::vector<Addr> paddrs;
    };

    void scheduleNextArrival();
    void onArrival(Tick now);
    void onLineDone(Tick now, std::size_t slot, std::size_t line);
    /** Admit the request that arrived at @p arrivalTick into @p slot
     *  (picks a task, translates addresses, issues the reads). */
    void startService(std::size_t slot, Tick arrivalTick, Tick now);
    void issueLines(std::size_t slot);
    void armRetry();
    int findFreeSlot() const;

    ServingConfig cfg_;
    EventQueue &eq_;
    memctrl::MemoryPort &mem_;
    Hooks hooks_;

    ArrivalProcess arrivalGen_;
    CounterRng taskPick_;
    CounterRng addrPick_;

    std::vector<Slot> slots_;
    /** Per (slot, line) refresh-blocked flags written by the
     *  controller through Request::blockedOut, one byte each. */
    std::vector<std::uint8_t> lineBlocked_;
    std::deque<Tick> backlog_;
    bool retryArmed_ = false;

    // --- Stats ---
    Scalar arrivals_;
    Scalar drops_;
    Scalar completed_;
    Scalar backlogPeak_;
    Scalar retryWaits_;
    Histogram queueDelay_;
    Histogram latAll_;
    Histogram latClean_;
    Histogram latBlocked_;
};

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_SERVING_HH
