/**
 * @file
 * Golden-trace differential harness: a compact binary encoding of
 * the probe event stream, a recorder, a decoder, and an event-wise
 * differ with first-divergence reporting.
 *
 * Format: an 8-byte magic ("refsched"), a LEB128 version, a LEB128
 * event count, then one record per event:
 *
 *   u8 kind | varint tick-delta | varint field[0..n)
 *
 * where n is fixed per kind (see traceFieldCount) and the tick delta
 * is relative to the previous record, so a steady-state stream costs
 * a few bytes per event.  Signed quantities that can be -1 (bank,
 * pid) are stored biased by +1.
 *
 * Two runs of the same configuration must produce byte-identical
 * traces; diffTraces pinpoints the first event where they do not.
 */

#ifndef REFSCHED_VALIDATE_GOLDEN_TRACE_HH
#define REFSCHED_VALIDATE_GOLDEN_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "simcore/probe.hh"
#include "simcore/types.hh"

namespace refsched::validate
{

/** Record kinds; values are stable on-disk format. */
enum class TraceKind : std::uint8_t {
    DramAct = 1,
    DramRead = 2,
    DramWrite = 3,
    DramPre = 4,
    DramRefPb = 5,
    DramRefAb = 6,
    DramRefPause = 7,
    SchedPick = 8,
    PageAlloc = 9,
    PageFree = 10,
    PageMigrate = 11,
    TaskLife = 12,
};

/** Payload fields per kind (beyond kind + tick). */
std::size_t traceFieldCount(TraceKind kind);

/** One decoded trace record. */
struct TraceEvent
{
    TraceKind kind = TraceKind::DramAct;
    Tick tick = 0;
    /** Payload, semantics per kind:
     *  Dram*:       ch, rank, bank+1, row/rows [, busyUntil-tick]
     *  SchedPick:   cpu, pick kind, chosen pid+1
     *  PageAlloc:   pid+1, pfn, fallback
     *  PageFree:    pfn
     *  PageMigrate: pid+1, vpn, fromPfn, toPfn
     *  TaskLife:    pid+1, spawn */
    std::array<std::uint64_t, 5> f{};

    bool operator==(const TraceEvent &o) const;
    bool operator!=(const TraceEvent &o) const { return !(*this == o); }
};

/** Human-readable one-liner for divergence reports. */
std::string describe(const TraceEvent &ev);

/**
 * A probe that records every event for an in-memory encoded trace.
 * Scheduler runqueue churn is deliberately not recorded: picks,
 * allocations, and DRAM commands already pin down the observable
 * behaviour, and rq events would triple the trace size.
 *
 * Events are buffered raw and encoded on first data() access, after
 * a stable sort by tick.  The legacy kernel already emits events in
 * tick order, so the sort is the identity there and the encoding is
 * unchanged; the sharded kernel emits each epoch window's main-lane
 * events before the channel-lane events that precede them in
 * simulated time, and the sort restores the canonical global order
 * (within a tick, arrival order -- which is phase-deterministic).
 */
class TraceRecorder final : public Probe
{
  public:
    void onDramCommand(const DramCmdEvent &ev) override;
    void onSchedPick(const SchedPickEvent &ev) override;
    void onPageAlloc(const PageAllocEvent &ev) override;
    void onPageFree(const PageFreeEvent &ev) override;
    void onPageMigrate(const PageMigrateEvent &ev) override;
    void onTaskSpawn(const TaskLifeEvent &ev) override;
    void onTaskExit(const TaskLifeEvent &ev) override;

    /** Encoded records only (no file header). */
    const std::vector<std::uint8_t> &data() const;
    std::uint64_t eventCount() const { return pending_.size(); }

  private:
    struct Raw
    {
        TraceKind kind;
        Tick tick;
        std::array<std::uint64_t, 5> f;
    };

    void put(TraceKind kind, Tick tick,
             std::initializer_list<std::uint64_t> fields);

    /** Raw event stream in arrival order; sorted at encode time. */
    mutable std::vector<Raw> pending_;
    mutable std::vector<std::uint8_t> buf_;
    mutable bool encoded_ = false;
};

/** Decode an encoded record stream; fatal() on malformed input. */
std::vector<TraceEvent> decodeTrace(
    const std::vector<std::uint8_t> &data);

/** Write/read a trace with header; fatal() on I/O or format error. */
void writeTraceFile(const std::string &path,
                    const TraceRecorder &recorder);
std::vector<TraceEvent> readTraceFile(const std::string &path);

/** Result of comparing two decoded traces. */
struct TraceDiff
{
    bool identical = true;
    /** Index of the first divergent event. */
    std::size_t index = 0;
    bool lhsEnded = false;
    bool rhsEnded = false;
    TraceEvent lhs{};
    TraceEvent rhs{};

    std::string describe() const;
};

TraceDiff diffTraces(const std::vector<TraceEvent> &a,
                     const std::vector<TraceEvent> &b);

} // namespace refsched::validate

#endif // REFSCHED_VALIDATE_GOLDEN_TRACE_HH
