/**
 * @file
 * Epoch-sampled telemetry: a deterministic time-series layer beside
 * the per-event timeline.
 *
 * A TelemetryRecorder holds an ordered set of registered series --
 * integer-valued gauges (sampled as-is) and deltas (difference since
 * the previous sample) -- and takes one sample pass per crossed
 * multiple of cfg.telemetry.periodTicks.  Two drivers exist:
 *
 *   sharded kernel  System registers onBoundary() as the LAST phase-C
 *                   boundary hook.  Every lane is quiescent there and
 *                   all mailboxes have been drained, so direct reads
 *                   of component counters observe the sealed window
 *                   state -- which is a pure function of simulated
 *                   time.  Samples therefore never route through
 *                   the probe hub.
 *   legacy kernel   armPeriodic() schedules an intrusive event at
 *                   each period multiple at EventPriority::StatDump,
 *                   i.e. after all same-tick simulation work.
 *
 * Sample stamps are the period multiples themselves in both modes; in
 * sharded mode the values reflect the first window boundary at or
 * after the stamp (the boundary grid is a fixed function of the
 * kernel mode, so output stays byte-identical across every
 * {jobs} x {shards >= 1} combination within one timing
 * mode -- the same identity groups the stats JSON already obeys; see
 * DESIGN.md section 14).
 *
 * All series values are integers, rendered by exact integer
 * formatting, so the JSONL/CSV exports are byte-stable across hosts.
 * The sampling hot path performs no heap allocation once the sample
 * buffer is reserved (TelemetryAllocTest), and a disabled telemetry
 * config costs nothing: no recorder is constructed, no hook is
 * registered, no event is scheduled.
 */

#ifndef REFSCHED_OBS_TELEMETRY_HH
#define REFSCHED_OBS_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/types.hh"

namespace refsched::obs
{

class TimelineRecorder;

/** Configuration of the sampled-telemetry subsystem. */
struct TelemetryConfig
{
    bool enabled = false;

    /** Sim-time sampling cadence (ticks are ps; default 1 us). */
    Tick periodTicks = 1'000'000;

    /** Validate; fatal() on inconsistencies. */
    void check() const;
};

class TelemetryRecorder final : public Callee
{
  public:
    enum class Kind
    {
        Gauge,  ///< emit the sampled value as-is
        Delta,  ///< emit the difference since the previous sample
    };

    /** Direct counter read; must be cheap and side-effect free. */
    using Sampler = std::function<std::int64_t()>;

    explicit TelemetryRecorder(const TelemetryConfig &cfg);

    /**
     * Register a series.  @p laneId is the merge-order label (0 =
     * main/system, 1+ch for channel ch, 1+channels+i for core i);
     * registration must be in non-decreasing laneId order so the
     * per-pass emission order is (tick, laneId, seriesId).  Returns
     * the seriesId.  Call before the first sample.
     */
    int addSeries(std::string name, int laneId, Kind kind, Sampler s);
    int
    addGauge(std::string name, int laneId, Sampler s)
    {
        return addSeries(std::move(name), laneId, Kind::Gauge,
                         std::move(s));
    }
    int
    addDelta(std::string name, int laneId, Sampler s)
    {
        return addSeries(std::move(name), laneId, Kind::Delta,
                         std::move(s));
    }

    /** Pre-size the buffers for @p passes sample passes. */
    void reserveSamples(std::size_t passes);

    /**
     * Sharded driver: phase-C boundary hook.  Takes one pass per
     * period multiple crossed by the window ending at @p boundary
     * (multiples m with m < boundary are fully executed there).
     */
    void onBoundary(Tick boundary);

    /**
     * Legacy driver: schedule an intrusive sampling event on @p eq
     * at each period multiple, at StatDump priority (after all
     * same-tick simulation work).
     */
    void armPeriodic(EventQueue &eq);

    /** Callee: the legacy periodic sampling event. */
    void fire(Tick now, std::uint64_t, std::uint64_t) override;

    /** Take one sample pass stamped @p stamp (values read now). */
    void samplePass(Tick stamp);

    /**
     * Measurement restart: drop buffered samples and re-prime every
     * delta series from its current counter value.  Call with all
     * lanes quiescent (System::resetMeasurement does).
     */
    void restart();

    // --- Introspection (tests) ---
    Tick periodTicks() const { return cfg_.periodTicks; }
    Tick nextSampleTick() const { return nextSample_; }
    std::size_t seriesCount() const { return series_.size(); }
    std::size_t passCount() const { return passTicks_.size(); }
    Tick
    passTick(std::size_t pass) const
    {
        return passTicks_[pass];
    }
    std::int64_t
    value(std::size_t pass, std::size_t series) const
    {
        return values_[pass * series_.size() + series];
    }
    const std::string &
    seriesName(std::size_t series) const
    {
        return series_[series].name;
    }
    int
    seriesLane(std::size_t series) const
    {
        return series_[series].laneId;
    }

    /**
     * JSONL export: one schema line (series ids, lanes, kinds,
     * names, period), then one line per sample pass with the values
     * in (laneId, seriesId) order.  Byte-deterministic.
     */
    void writeJsonl(std::ostream &os) const;

    /** CSV export: a header row, then one row per sample pass. */
    void writeCsv(std::ostream &os) const;

    /** Write to @p path: CSV when it ends in ".csv", else JSONL;
     *  fatal() on I/O error. */
    void writeFile(const std::string &path) const;

    /** Merge every sample as a Perfetto counter-track event into
     *  @p tl (one track per series, pid 3).  Call after the run. */
    void exportCounters(TimelineRecorder &tl) const;

  private:
    struct Series
    {
        std::string name;
        int laneId = 0;
        Kind kind = Kind::Gauge;
        Sampler sampler;
        std::int64_t last = 0;  ///< previous raw value (Delta)
    };

    TelemetryConfig cfg_;
    std::vector<Series> series_;
    std::vector<Tick> passTicks_;
    /** passCount x seriesCount values, row-major. */
    std::vector<std::int64_t> values_;
    Tick nextSample_ = 0;
    EventQueue *periodicEq_ = nullptr;
    bool sealed_ = false;
};

/**
 * True iff @p name is a series name this subsystem emits:
 * "ch<N>.<metric>", "core<N>.<metric>", "sched.<metric>" or
 * "serving.<metric>" with a known metric suffix.  The source of
 * truth for tools/timeline_check's counter-track validation.
 */
bool isKnownTelemetrySeries(const std::string &name);

} // namespace refsched::obs

#endif // REFSCHED_OBS_TELEMETRY_HH
