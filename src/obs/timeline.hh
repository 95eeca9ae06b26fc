/**
 * @file
 * Timeline recorder: a probe consumer that turns the instrumentation
 * event stream into a Chrome trace-event JSON file loadable in
 * Perfetto / chrome://tracing.
 *
 * Track layout:
 *   pid 1 "DRAM"  - one thread per global bank.  Complete ("X")
 *                   slices for refresh-slot occupancy and open-row
 *                   intervals; instant ("i") events for RD/WR CAS
 *                   and precharges (including idle-close expiries).
 *   pid 2 "OS"    - one thread per core.  One slice per scheduling
 *                   quantum, named by the picked pid and the
 *                   Algorithm 3 pick kind (clean / best-effort /
 *                   fallback / baseline / idle), with the banks
 *                   under refresh and the chosen task's resident
 *                   fraction in those banks as args.
 *   pid 3 "telemetry" - one counter track per sampled telemetry
 *                   series (obs/telemetry.hh), merged in through
 *                   addCounter() after the run.  These are the
 *                   timeline's only counter ("C") events: queue
 *                   depths and refresh-blocked reads appear only
 *                   when telemetry is enabled.
 *
 * All timestamps are simulated time rendered by exact integer
 * arithmetic (obs/json.hh), so for a fixed seed the exported file is
 * byte-identical across hosts and across --jobs parallelism.
 *
 * The recorder buffers events in memory and writes on writeJson();
 * a [windowStart, windowEnd) trace window bounds memory for long
 * runs by dropping events that start outside the window (slices
 * still open at windowEnd are clipped to it).
 */

#ifndef REFSCHED_OBS_TIMELINE_HH
#define REFSCHED_OBS_TIMELINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dram/timings.hh"
#include "simcore/probe.hh"
#include "simcore/types.hh"

namespace refsched::obs
{

/** Trace-window bounds for a TimelineRecorder. */
struct TimelineOptions
{
    Tick windowStart = 0;
    Tick windowEnd = kMaxTick;
};

class TimelineRecorder final : public validate::Probe
{
  public:
    TimelineRecorder(const dram::DramOrganization &org, int numCpus,
                     const TimelineOptions &opt = {});

    // --- Probe interface ---
    void onDramCommand(const validate::DramCmdEvent &ev) override;
    void onSchedPick(const validate::SchedPickEvent &ev) override;
    void finalize(Tick endTick) override;

    /**
     * Write the buffered timeline as a Chrome trace-event JSON
     * document (one event per line, keys in fixed order).  Call
     * after the run; finalize() must have closed open slices first
     * (System::run does this through the probe hub).
     */
    void writeJson(std::ostream &os) const;

    /** Convenience: writeJson to @p path; fatal() on I/O error. */
    void writeFile(const std::string &path) const;

    /**
     * Add one sampled-telemetry counter value as a "C" event on the
     * pid-3 track named @p track.  Called by
     * TelemetryRecorder::exportCounters after the run; the trace
     * window applies as for probe events.
     */
    void addCounter(Tick ts, const std::string &track,
                    std::int64_t value);

    // --- Introspection (fan-out identity tests) ---
    std::uint64_t dramCommandsSeen() const { return dramSeen_; }
    std::uint64_t schedPicksSeen() const { return picksSeen_; }
    std::size_t eventCount() const { return entries_.size(); }

  private:
    /** One emitted trace event (slice, instant, or counter). */
    struct Entry
    {
        Tick ts = 0;
        /** Slice duration; ignored for 'i'/'C' phases. */
        Tick dur = 0;
        char phase = 'X';
        int pid = 1;
        int tid = 0;
        std::string name;
        /** Pre-rendered JSON object ("{...}"), or empty. */
        std::string args;
        /** Arrival order tiebreak for the stable sort. */
        std::uint64_t seq = 0;
    };

    /** Open-interval state for one global bank track. */
    struct BankState
    {
        bool rowOpen = false;
        std::uint64_t row = 0;
        Tick rowSince = 0;
        bool refreshing = false;
        Tick refreshSince = 0;
        Tick refreshUntil = 0;
    };

    /** Open quantum slice for one core track. */
    struct CpuState
    {
        bool open = false;
        Tick since = 0;
        Tick until = 0;
        std::string name;
        std::string args;
    };

    int globalBank(int ch, int rank, int bank) const;
    bool inWindow(Tick tick) const;
    void record(Entry e);
    void closeRow(BankState &b, int gb, Tick end, const char *how);
    void closeRefresh(BankState &b, int gb, Tick end);
    void closeQuantum(CpuState &s, int cpu, Tick end);

    dram::DramOrganization org_;
    int numCpus_;
    TimelineOptions opt_;

    std::vector<BankState> banks_;
    std::vector<CpuState> cpus_;
    std::vector<Entry> entries_;
    std::uint64_t nextSeq_ = 0;

    std::uint64_t dramSeen_ = 0;
    std::uint64_t picksSeen_ = 0;
};

} // namespace refsched::obs

#endif // REFSCHED_OBS_TIMELINE_HH
