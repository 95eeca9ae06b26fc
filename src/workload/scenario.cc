#include "workload/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "simcore/logging.hh"

namespace refsched::workload
{

namespace
{

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (true) {
        const std::size_t end = s.find(sep, pos);
        if (end == std::string::npos) {
            parts.push_back(s.substr(pos));
            return parts;
        }
        parts.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
}

bool
parseBool01(const std::string &v, const char *what)
{
    if (v == "0")
        return false;
    if (v == "1")
        return true;
    fatal("scenario: ", what, " must be 0 or 1, got '", v, "'");
}

ScenarioEvent
parseEvent(const std::string &body)
{
    const auto parts = splitOn(body, ':');
    if (parts.size() < 2)
        fatal("scenario: bad event '", body,
              "' (want <q>:spawn:... or <q>:kill:<pid>)");

    ScenarioEvent ev;
    ev.quantum = parseUnsignedToken(parts[0], "scenario: event quantum");

    if (parts[1] == "kill") {
        if (parts.size() != 3)
            fatal("scenario: bad kill event '", body,
                  "' (want <q>:kill:<pid>)");
        ev.kind = ScenarioEventKind::Kill;
        ev.pid = static_cast<Pid>(parseSignedToken(
            parts[2], "scenario: kill pid",
            std::numeric_limits<Pid>::min(),
            std::numeric_limits<Pid>::max()));
        return ev;
    }
    if (parts[1] != "spawn")
        fatal("scenario: unknown event kind '", parts[1], "' in '",
              body, "'");
    if (parts.size() < 3)
        fatal("scenario: spawn event '", body, "' names no benchmark");

    ev.kind = ScenarioEventKind::Spawn;
    ev.benchmark = parts[2];
    for (std::size_t i = 3; i < parts.size(); ++i) {
        const std::string &opt = parts[i];
        const std::size_t eq = opt.find('=');
        if (eq == std::string::npos)
            fatal("scenario: bad spawn option '", opt, "' in '", body,
                  "'");
        const std::string key = opt.substr(0, eq);
        const std::string val = opt.substr(eq + 1);
        if (key == "fp") {
            ev.footprintScale =
                parseFiniteToken(val, "scenario: spawn fp");
        } else if (key == "cpu") {
            // -1 keeps the least-loaded default.
            ev.cpu = static_cast<int>(
                parseSignedToken(val, "scenario: spawn cpu", -1,
                                 std::numeric_limits<int>::max()));
        } else if (key == "adv") {
            ev.adversarial = parseBool01(val, "adv");
        } else if (key == "phases") {
            ev.phases = PhaseSchedule::parse(val);
        } else {
            fatal("scenario: unknown spawn option '", key, "' in '",
                  body, "'");
        }
    }
    return ev;
}

} // namespace

bool
ScenarioScript::hasAdversarial() const
{
    for (const auto &ev : events)
        if (ev.kind == ScenarioEventKind::Spawn && ev.adversarial)
            return true;
    return false;
}

std::string
ScenarioScript::serialize() const
{
    std::string out;
    out += detail::format("migrate=", migrate ? 1 : 0, '\n');
    out += detail::format("reassign=", reassignOnChurn ? 1 : 0, '\n');
    for (const auto &[idx, sched] : initialPhases)
        out += detail::format("phase=", idx, ':', sched.serialize(),
                              '\n');
    for (const auto &ev : events) {
        if (ev.kind == ScenarioEventKind::Kill) {
            out += detail::format("ev=", ev.quantum, ":kill:", ev.pid,
                                  '\n');
            continue;
        }
        out += detail::format("ev=", ev.quantum,
                              ":spawn:", ev.benchmark);
        if (ev.footprintScale != 1.0) {
            char scale[32];
            std::snprintf(scale, sizeof(scale), "%.6g",
                          ev.footprintScale);
            out += detail::format(":fp=", scale);
        }
        if (ev.cpu >= 0)
            out += detail::format(":cpu=", ev.cpu);
        if (ev.adversarial)
            out += ":adv=1";
        if (!ev.phases.empty())
            out += detail::format(":phases=", ev.phases.serialize());
        out += '\n';
    }
    return out;
}

ScenarioScript
ScenarioScript::parse(const std::string &text)
{
    ScenarioScript script;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        // Trim trailing CR (files from other platforms) and skip
        // blanks/comments.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        line = line.substr(first);

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("scenario: bad directive '", line, "'");
        const std::string key = line.substr(0, eq);
        const std::string val = line.substr(eq + 1);
        if (key == "migrate") {
            script.migrate = parseBool01(val, "migrate");
        } else if (key == "reassign") {
            script.reassignOnChurn = parseBool01(val, "reassign");
        } else if (key == "phase") {
            const std::size_t colon = val.find(':');
            if (colon == std::string::npos)
                fatal("scenario: bad phase directive '", line,
                      "' (want phase=<taskIdx>:<schedule>)");
            const int idx = static_cast<int>(parseSignedToken(
                val.substr(0, colon), "scenario: phase task index",
                std::numeric_limits<int>::min(),
                std::numeric_limits<int>::max()));
            script.initialPhases.emplace_back(
                idx, PhaseSchedule::parse(val.substr(colon + 1)));
        } else if (key == "ev") {
            script.events.push_back(parseEvent(val));
        } else {
            fatal("scenario: unknown directive '", key, "'");
        }
    }
    std::stable_sort(script.events.begin(), script.events.end(),
                     [](const ScenarioEvent &a, const ScenarioEvent &b)
                     { return a.quantum < b.quantum; });
    script.check();
    return script;
}

ScenarioScript
ScenarioScript::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("scenario: cannot open '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

void
ScenarioScript::check() const
{
    for (const auto &[idx, sched] : initialPhases) {
        if (idx < 0)
            fatal("scenario: phase directive for negative task index ",
                  idx);
        if (sched.empty())
            fatal("scenario: empty phase schedule for task ", idx);
        sched.check();
    }
    for (const auto &ev : events) {
        if (ev.quantum < 1)
            fatal("scenario: events must use quantum >= 1 (the ",
                  "initial placement happens at quantum 0)");
        if (ev.kind == ScenarioEventKind::Kill) {
            if (ev.pid < 1)
                fatal("scenario: kill of invalid pid ", ev.pid);
            continue;
        }
        profileByName(ev.benchmark);  // fatal on unknown name
        // Written so that NaN fails too.
        if (!(ev.footprintScale > 0.0 && ev.footprintScale <= 16.0))
            fatal("scenario: spawn footprintScale ", ev.footprintScale,
                  " out of (0,16]");
        ev.phases.check();
    }
}

ScenarioScript
randomScenario(Rng &rng, int initialTasks, std::uint64_t horizonQuanta)
{
    // Small benchmarks keep random scenarios fast and make
    // fragmentation/realloc effects visible at fuzzing scale.
    static const char *kBenches[] = {"mcf", "stream", "povray",
                                     "h264ref"};

    ScenarioScript script;
    script.migrate = rng.bernoulli(0.5);
    script.reassignOnChurn = rng.bernoulli(0.75);

    if (initialTasks > 0 && rng.bernoulli(0.5)) {
        PhaseSchedule sched;
        const int nPhases = 2 + static_cast<int>(rng.below(2));
        for (int p = 0; p < nPhases; ++p) {
            PhaseSpec spec;
            spec.profile = kBenches[rng.below(4)];
            spec.instrs = 20000 + rng.below(5) * 20000;
            spec.footprintScale = 0.25 + 0.25 * rng.below(4);
            sched.phases.push_back(std::move(spec));
        }
        script.initialPhases.emplace_back(
            static_cast<int>(rng.below(
                static_cast<std::uint64_t>(initialTasks))),
            std::move(sched));
    }

    if (horizonQuanta < 2)
        return script;

    const int nEvents = 1 + static_cast<int>(rng.below(4));
    std::vector<std::uint64_t> times;
    for (int i = 0; i < nEvents; ++i)
        times.push_back(rng.inRange(1, horizonQuanta - 1));
    std::sort(times.begin(), times.end());

    // Walk event times in order tracking who is alive, so kills
    // always target a live pid and at least one task survives.
    std::vector<Pid> alive;
    for (int i = 0; i < initialTasks; ++i)
        alive.push_back(static_cast<Pid>(i + 1));
    Pid nextPid = static_cast<Pid>(initialTasks + 1);

    for (const std::uint64_t q : times) {
        ScenarioEvent ev;
        ev.quantum = q;
        const bool spawn = alive.size() <= 1 || rng.bernoulli(0.65);
        if (spawn) {
            ev.kind = ScenarioEventKind::Spawn;
            ev.benchmark = kBenches[rng.below(4)];
            static const double kScales[] = {0.25, 0.5, 1.0};
            ev.footprintScale = kScales[rng.below(3)];
            ev.adversarial = rng.bernoulli(0.25);
            if (rng.bernoulli(0.3)) {
                PhaseSpec a{kBenches[rng.below(4)],
                            20000 + rng.below(5) * 20000,
                            0.25 + 0.25 * rng.below(4)};
                PhaseSpec b{kBenches[rng.below(4)],
                            20000 + rng.below(5) * 20000,
                            0.25 + 0.25 * rng.below(4)};
                ev.phases.phases = {std::move(a), std::move(b)};
            }
            alive.push_back(nextPid);
            ev.pid = -1;
            ++nextPid;
        } else {
            ev.kind = ScenarioEventKind::Kill;
            const std::size_t victim = rng.below(alive.size());
            ev.pid = alive[victim];
            alive.erase(alive.begin()
                        + static_cast<std::ptrdiff_t>(victim));
        }
        script.events.push_back(std::move(ev));
    }
    script.check();
    return script;
}

} // namespace refsched::workload
