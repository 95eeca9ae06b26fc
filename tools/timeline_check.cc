/**
 * @file
 * Schema validator for timeline artifacts (obs::TimelineRecorder).
 *
 *   timeline_check TRACE.json [--require-clean-picks]
 *
 * Checks, in order:
 *   1. the file parses as JSON and has the Chrome trace-event shape
 *      ({"traceEvents": [...]}, each event an object with ph/pid/
 *      name, a finite ts on every non-metadata event, a finite
 *      non-negative dur on complete events);
 *   2. per track (pid, tid): timestamps are monotonically
 *      non-decreasing in file order and complete ("X") slices do not
 *      overlap;
 *   3. counter ("C") events carry a non-empty args object whose
 *      members are all finite non-negative numbers, and sit on the
 *      pid-3 telemetry process under a name in the series catalogue
 *      System samples from (core::isKnownTelemetrySeries).
 *      Timelines carry counters only when the run also sampled
 *      telemetry (refsched_cli --telemetry);
 *   4. with --require-clean-picks (co-design runs): no scheduling
 *      quantum ran a task with pages resident in a bank under
 *      refresh -- every quantum slice's residentInRefreshBanks is 0
 *      and no pick fell back to a dirty task.
 *
 * Exit 0 when all checks pass, 1 on a failed check or malformed
 * input, 2 on usage errors.
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "obs/json.hh"
#include "simcore/logging.hh"

using namespace refsched;

namespace
{

struct TrackState
{
    double lastTs = -1.0;
    double lastSliceEnd = -1.0;
    std::size_t events = 0;
};

int
fail(std::size_t index, const std::string &what)
{
    std::cerr << "timeline_check: event " << index << ": " << what
              << "\n";
    return 1;
}

int
check(const obs::JsonValue &doc, bool requireCleanPicks)
{
    if (!doc.isObject())
        return fail(0, "document is not a JSON object");
    const auto *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return fail(0, "missing traceEvents array");

    std::map<std::pair<double, double>, TrackState> tracks;
    std::size_t sliceCount = 0, dirtyQuanta = 0, counterCount = 0;

    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const auto &ev = events->array[i];
        if (!ev.isObject())
            return fail(i, "event is not an object");

        const auto *ph = ev.find("ph");
        const auto *pid = ev.find("pid");
        const auto *name = ev.find("name");
        if (!ph || !ph->isString() || ph->string.size() != 1)
            return fail(i, "missing/invalid ph");
        if (!pid || !pid->isNumber())
            return fail(i, "missing/invalid pid");
        if (!name || !name->isString())
            return fail(i, "missing/invalid name");
        const char phase = ph->string[0];
        if (phase != 'M' && phase != 'X' && phase != 'i'
            && phase != 'C')
            return fail(i, std::string("unexpected phase '") + phase
                               + "'");
        if (const auto *args = ev.find("args");
            args && !args->isObject())
            return fail(i, "args is not an object");
        if (phase == 'M')
            continue;

        const auto *ts = ev.find("ts");
        if (!ts || !ts->isNumber() || !std::isfinite(ts->number))
            return fail(i, "missing/invalid ts");
        const auto *tid = ev.find("tid");
        if (!tid || !tid->isNumber())
            return fail(i, "missing/invalid tid");

        auto &track = tracks[{pid->number, tid->number}];
        ++track.events;
        if (ts->number < track.lastTs)
            return fail(i, "track timestamps not monotonic");
        track.lastTs = ts->number;

        if (phase == 'C') {
            const auto *args = ev.find("args");
            if (!args || args->object.empty())
                return fail(i,
                            "counter event needs a non-empty args "
                            "object");
            for (const auto &[key, val] : args->object) {
                if (!val.isNumber() || !std::isfinite(val.number))
                    return fail(i, "counter value '" + key
                                       + "' is not a finite number");
                if (val.number < 0.0)
                    return fail(i, "counter value '" + key
                                       + "' is negative");
            }
            if (pid->number != 3.0
                || !core::isKnownTelemetrySeries(name->string))
                return fail(i, "unknown counter track '"
                                   + name->string + "'");
            ++counterCount;
        }

        if (phase == 'X') {
            const auto *dur = ev.find("dur");
            if (!dur || !dur->isNumber() || !std::isfinite(dur->number)
                || dur->number < 0.0)
                return fail(i, "complete event missing/invalid dur");
            // 1e-6 us = 1 ps: below the simulator's tick resolution,
            // absorbing decimal rounding of the exact ps timestamps.
            if (ts->number + 1e-6 < track.lastSliceEnd)
                return fail(i, "overlapping slices on one track");
            track.lastSliceEnd = ts->number + dur->number;
            ++sliceCount;

            if (requireCleanPicks && pid->number == 2.0) {
                const auto *args = ev.find("args");
                const auto *kind =
                    args ? args->find("kind") : nullptr;
                const auto *res = args
                    ? args->find("residentInRefreshBanks")
                    : nullptr;
                const bool dirtyKind = kind && kind->isString()
                    && (kind->string == "fallback"
                        || kind->string == "best-effort");
                const bool dirtyFootprint =
                    res && res->isNumber() && res->number > 0.0;
                if (dirtyKind || dirtyFootprint) {
                    ++dirtyQuanta;
                    std::cerr << "timeline_check: event " << i
                              << ": quantum overlaps refreshing bank"
                              << " (kind="
                              << (kind && kind->isString()
                                      ? kind->string
                                      : "?")
                              << ", resident="
                              << (res && res->isNumber() ? res->number
                                                         : 0.0)
                              << ")\n";
                }
            }
        }
    }

    if (dirtyQuanta > 0) {
        std::cerr << "timeline_check: " << dirtyQuanta
                  << " quanta overlap the bank under refresh\n";
        return 1;
    }

    std::cout << "timeline_check: OK (" << events->array.size()
              << " events, " << tracks.size() << " tracks, "
              << sliceCount << " slices, " << counterCount
              << " counter samples)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool requireCleanPicks = false, badArg = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--require-clean-picks") == 0)
            requireCleanPicks = true;
        else if (path.empty() && argv[i][0] != '-')
            path = argv[i];
        else
            badArg = true;
    }
    if (badArg || path.empty()) {
        std::cerr << "usage: " << argv[0]
                  << " TRACE.json [--require-clean-picks]\n";
        return 2;
    }

    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::cerr << "timeline_check: cannot open " << path << "\n";
        return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();

    try {
        return check(obs::parseJson(buf.str()), requireCleanPicks);
    } catch (const FatalError &e) {
        std::cerr << "timeline_check: " << e.what() << "\n";
        return 1;
    }
}
