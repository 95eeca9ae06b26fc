#include "obs/timeline.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "simcore/logging.hh"

namespace refsched::obs
{

using validate::DramOp;

TimelineRecorder::TimelineRecorder(const dram::DramOrganization &org,
                                   int numCpus,
                                   const TimelineOptions &opt)
    : org_(org), numCpus_(numCpus), opt_(opt)
{
    REFSCHED_ASSERT(opt_.windowStart < opt_.windowEnd,
                    "empty trace window");
    banks_.resize(static_cast<std::size_t>(org_.channels)
                  * static_cast<std::size_t>(org_.banksTotal()));
    cpus_.resize(static_cast<std::size_t>(numCpus_));
}

int
TimelineRecorder::globalBank(int ch, int rank, int bank) const
{
    return (ch * org_.ranksPerChannel + rank) * org_.banksPerRank
        + bank;
}

bool
TimelineRecorder::inWindow(Tick tick) const
{
    return tick >= opt_.windowStart && tick < opt_.windowEnd;
}

void
TimelineRecorder::record(Entry e)
{
    if (!inWindow(e.ts))
        return;
    if (e.phase == 'X' && e.ts + e.dur > opt_.windowEnd)
        e.dur = opt_.windowEnd - e.ts;
    e.seq = nextSeq_++;
    entries_.push_back(std::move(e));
}

void
TimelineRecorder::closeRow(BankState &b, int gb, Tick end,
                           const char *how)
{
    if (!b.rowOpen)
        return;
    b.rowOpen = false;
    if (end < b.rowSince)
        end = b.rowSince;
    std::ostringstream args;
    args << "{\"row\": " << b.row << ", \"closedBy\": \"" << how
         << "\"}";
    record({b.rowSince, end - b.rowSince, 'X', 1, gb,
            "row " + std::to_string(b.row), args.str(), 0});
}

void
TimelineRecorder::closeRefresh(BankState &b, int gb, Tick end)
{
    if (!b.refreshing)
        return;
    b.refreshing = false;
    if (end < b.refreshSince)
        end = b.refreshSince;
    record({b.refreshSince, end - b.refreshSince, 'X', 1, gb,
            "refresh", "", 0});
}

void
TimelineRecorder::closeQuantum(CpuState &s, int cpu, Tick end)
{
    if (!s.open)
        return;
    s.open = false;
    if (end > s.until)
        end = s.until;
    if (end < s.since)
        end = s.since;
    record({s.since, end - s.since, 'X', 2, cpu, s.name, s.args, 0});
}

void
TimelineRecorder::onDramCommand(const validate::DramCmdEvent &ev)
{
    ++dramSeen_;

    // All-bank refresh occupies every bank of the rank; expand it
    // into per-bank refresh slices so each track stays self-complete.
    const bool allBank = ev.op == DramOp::RefAllBank || ev.bank < 0;
    const int bankLo = allBank ? 0 : ev.bank;
    const int bankHi = allBank ? org_.banksPerRank - 1 : ev.bank;

    for (int bk = bankLo; bk <= bankHi; ++bk) {
        const int gb = globalBank(ev.channel, ev.rank, bk);
        BankState &b = banks_[static_cast<std::size_t>(gb)];

        // A refresh slice is held open until pause/expiry so that
        // Refresh Pausing can truncate it; settle an expired one
        // before recording anything newer on this track.
        if (b.refreshing && ev.tick >= b.refreshUntil)
            closeRefresh(b, gb, b.refreshUntil);

        switch (ev.op) {
        case DramOp::Act:
            closeRow(b, gb, ev.tick, "conflict");
            b.rowOpen = true;
            b.row = ev.row;
            b.rowSince = ev.tick;
            break;
        case DramOp::Read:
        case DramOp::Write:
            record({ev.tick, 0, 'i', 1, gb,
                    ev.op == DramOp::Read ? "RD" : "WR",
                    "{\"row\": " + std::to_string(ev.row) + "}", 0});
            break;
        case DramOp::Pre:
            // Covers demand precharges, refresh-priority precharges,
            // and idle-close expiries alike: the row slice ends here.
            closeRow(b, gb, ev.tick, "pre");
            break;
        case DramOp::RefPerBank:
        case DramOp::RefAllBank:
            closeRefresh(b, gb, ev.tick);
            closeRow(b, gb, ev.tick, "refresh");
            b.refreshing = true;
            b.refreshSince = ev.tick;
            b.refreshUntil = ev.busyUntil;
            break;
        case DramOp::RefPause:
            closeRefresh(b, gb, ev.tick);
            record({ev.tick, 0, 'i', 1, gb, "REF pause",
                    "{\"rowsRolledBack\": " + std::to_string(ev.row)
                        + "}",
                    0});
            break;
        }
    }
}

void
TimelineRecorder::onSchedPick(const validate::SchedPickEvent &ev)
{
    ++picksSeen_;
    if (ev.cpu < 0 || ev.cpu >= numCpus_)
        return;
    CpuState &s = cpus_[static_cast<std::size_t>(ev.cpu)];
    closeQuantum(s, ev.cpu, ev.tick);

    const char *kind = "baseline";
    switch (ev.kind) {
    case validate::PickKind::Baseline:
        kind = "baseline";
        break;
    case validate::PickKind::Clean:
        kind = "clean";
        break;
    case validate::PickKind::BestEffort:
        kind = "best-effort";
        break;
    case validate::PickKind::Fallback:
        kind = "fallback";
        break;
    case validate::PickKind::Idle:
        kind = "idle";
        break;
    }

    std::ostringstream args;
    args << "{\"kind\": \"" << kind << "\", \"pid\": " << ev.chosen;
    if (ev.refreshBanks) {
        args << ", \"refreshBanks\": [";
        for (std::size_t i = 0; i < ev.refreshBanks->size(); ++i)
            args << (i ? ", " : "") << (*ev.refreshBanks)[i];
        args << "]";
    }
    if (ev.candidates) {
        for (const auto &c : *ev.candidates) {
            if (c.pid != ev.chosen)
                continue;
            args << ", \"clean\": " << (c.clean ? "true" : "false")
                 << ", \"residentInRefreshBanks\": " << c.resident;
            break;
        }
    }
    args << "}";

    s.open = true;
    s.since = ev.tick;
    s.until = ev.quantum ? ev.tick + ev.quantum : kMaxTick;
    s.name = ev.kind == validate::PickKind::Idle
        ? std::string("idle")
        : "pid " + std::to_string(ev.chosen) + " [" + kind + "]";
    s.args = args.str();
}

void
TimelineRecorder::addCounter(Tick ts, const std::string &track,
                             std::int64_t value)
{
    record({ts, 0, 'C', 3, 0, track,
            "{\"value\": " + std::to_string(value) + "}", 0});
}

void
TimelineRecorder::finalize(Tick endTick)
{
    for (std::size_t gb = 0; gb < banks_.size(); ++gb) {
        BankState &b = banks_[gb];
        closeRefresh(b, static_cast<int>(gb),
                     std::min(b.refreshUntil, endTick));
        closeRow(b, static_cast<int>(gb), endTick, "end");
    }
    for (int cpu = 0; cpu < numCpus_; ++cpu)
        closeQuantum(cpus_[static_cast<std::size_t>(cpu)], cpu,
                     endTick);
}

void
TimelineRecorder::writeJson(std::ostream &os) const
{
    std::vector<const Entry *> sorted;
    sorted.reserve(entries_.size());
    for (const auto &e : entries_)
        sorted.push_back(&e);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Entry *a, const Entry *b) {
                         if (a->ts != b->ts)
                             return a->ts < b->ts;
                         return a->seq < b->seq;
                     });

    os << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";

    auto meta = [&](int pid, int tid, const char *what,
                    const std::string &name, bool first) {
        os << (first ? "" : ",\n") << "{\"ph\": \"M\", \"pid\": "
           << pid;
        if (tid >= 0)
            os << ", \"tid\": " << tid;
        os << ", \"name\": \"" << what << "\", \"args\": {\"name\": \""
           << jsonEscape(name) << "\"}}";
    };

    meta(1, -1, "process_name", "DRAM", true);
    meta(2, -1, "process_name", "OS", false);
    // The telemetry process only exists when counters were merged
    // in, so timelines without telemetry stay byte-identical to
    // earlier releases.
    if (std::any_of(entries_.begin(), entries_.end(),
                    [](const Entry &e) { return e.pid == 3; }))
        meta(3, -1, "process_name", "telemetry", false);
    for (int ch = 0; ch < org_.channels; ++ch)
        for (int rk = 0; rk < org_.ranksPerChannel; ++rk)
            for (int bk = 0; bk < org_.banksPerRank; ++bk) {
                const int gb = globalBank(ch, rk, bk);
                meta(1, gb, "thread_name",
                     "bank " + std::to_string(gb) + " (ch"
                         + std::to_string(ch) + "/rk"
                         + std::to_string(rk) + "/bk"
                         + std::to_string(bk) + ")",
                     false);
            }
    for (int cpu = 0; cpu < numCpus_; ++cpu)
        meta(2, cpu, "thread_name", "cpu" + std::to_string(cpu),
             false);

    for (const Entry *e : sorted) {
        os << ",\n{\"ph\": \"" << e->phase << "\", \"pid\": " << e->pid
           << ", \"tid\": " << e->tid << ", \"ts\": "
           << ticksToUsecString(e->ts);
        if (e->phase == 'X')
            os << ", \"dur\": " << ticksToUsecString(e->dur);
        os << ", \"name\": \"" << jsonEscape(e->name) << "\"";
        if (e->phase == 'i')
            os << ", \"s\": \"t\"";
        if (!e->args.empty())
            os << ", \"args\": " << e->args;
        os << "}";
    }

    os << "\n]\n}\n";
}

void
TimelineRecorder::writeFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot open timeline file for writing: ", path);
    writeJson(f);
    f.flush();
    if (!f)
        fatal("error writing timeline file: ", path);
}

} // namespace refsched::obs
