/**
 * @file
 * Golden-trace differential harness driver.
 *
 *   golden_diff record --out FILE [--workload WL-8] [--policy P]
 *                      [--density G] [--scale N] [--warmup Q]
 *                      [--measure Q]
 *       run one experiment with a trace recorder attached and write
 *       the event stream to FILE
 *
 *   golden_diff diff FILE1 FILE2
 *       compare two recorded traces; exit 0 when identical, 1 with a
 *       first-divergence report otherwise
 *
 *   golden_diff jobs-check [--jobs N] [--workload WL-8] [--scale N]
 *                          [--warmup Q] [--measure Q]
 *       run a small policy grid sequentially (--jobs 1) and again
 *       with N workers, and verify every cell's event stream is
 *       byte-identical -- the determinism contract of the parallel
 *       runner, checked at event granularity
 */

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "simcore/logging.hh"
#include "validate/golden_trace.hh"
#include "workload/profile.hh"

using namespace refsched;

namespace
{

struct Options
{
    std::string out;
    std::string workload = "WL-8";
    core::Policy policy = core::Policy::CoDesign;
    int densityGb = 32;
    unsigned timeScale = 1024;
    int warmupQuanta = 2;
    int measureQuanta = 8;
    int jobs = 8;
};

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: " << argv0 << " record --out FILE [options]\n"
        << "       " << argv0 << " diff FILE1 FILE2\n"
        << "       " << argv0 << " jobs-check [--jobs N] [options]\n\n"
        << "options:\n"
        << "  --workload NAME   Table 2 workload (default WL-8)\n"
        << "  --policy P        all-bank | per-bank | co-design | ..."
           " (record only)\n"
        << "  --density G       8 | 16 | 24 | 32 (default 32)\n"
        << "  --scale N         timeScale (default 1024)\n"
        << "  --warmup Q        warm-up quanta (default 2)\n"
        << "  --measure Q       measured quanta (default 8)\n"
        << "  --jobs N          parallel worker count to check"
           " against sequential (default 8)\n";
    std::exit(2);
}

core::Policy
parsePolicy(const std::string &s, const char *argv0)
{
    for (auto p : {core::Policy::AllBank, core::Policy::PerBank,
                   core::Policy::PerBankOoo, core::Policy::Ddr4x2,
                   core::Policy::Ddr4x4, core::Policy::Adaptive,
                   core::Policy::CoDesign, core::Policy::NoRefresh}) {
        if (core::toString(p) == s)
            return p;
    }
    usage(argv0, "unknown policy: " + s);
}

Options
parse(int argc, char **argv, int first)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0], std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    // Numeric flags take one whole, in-range integer; anything else
    // is a usage error.
    const auto intFlag = [&](int &i, int lo, int hi) -> int {
        const char *flag = argv[i];
        const std::string v = need(i);
        try {
            return static_cast<int>(
                workload::parseSignedToken(v, flag, lo, hi));
        } catch (const FatalError &e) {
            usage(argv[0], e.what());
        }
    };
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            o.out = need(i);
        else if (a == "--workload")
            o.workload = need(i);
        else if (a == "--policy")
            o.policy = parsePolicy(need(i), argv[0]);
        else if (a == "--density") {
            o.densityGb = intFlag(i, 8, 32);
            if (o.densityGb % 8 != 0)
                usage(argv[0], "--density must be 8, 16, 24 or 32");
        } else if (a == "--scale")
            o.timeScale = static_cast<unsigned>(intFlag(i, 1, 1 << 16));
        else if (a == "--warmup")
            o.warmupQuanta = intFlag(i, 0, 1 << 20);
        else if (a == "--measure")
            o.measureQuanta = intFlag(i, 1, 1 << 20);
        else if (a == "--jobs")
            o.jobs = intFlag(i, 0, 1 << 10);
        else
            usage(argv[0], "unknown option: " + a);
    }
    return o;
}

core::SystemConfig
cellConfig(const Options &o, core::Policy policy)
{
    return core::makeConfig(
        o.workload, policy, static_cast<dram::DensityGb>(o.densityGb),
        milliseconds(64.0), 2, 4, o.timeScale);
}

int
cmdRecord(const Options &o, const char *argv0)
{
    if (o.out.empty())
        usage(argv0, "record needs --out FILE");
    validate::TraceRecorder rec;
    core::System sys(cellConfig(o, o.policy));
    sys.attachProbe(&rec);
    sys.run(o.warmupQuanta, o.measureQuanta);
    validate::writeTraceFile(o.out, rec);
    std::cout << o.out << ": " << rec.eventCount() << " events, "
              << rec.data().size() << " payload bytes\n";
    return 0;
}

int
cmdDiff(const std::string &a, const std::string &b)
{
    const auto ta = validate::readTraceFile(a);
    const auto tb = validate::readTraceFile(b);
    const auto d = validate::diffTraces(ta, tb);
    if (d.identical) {
        std::cout << "identical (" << ta.size() << " events)\n";
        return 0;
    }
    std::cout << d.describe() << "\n";
    return 1;
}

int
cmdJobsCheck(const Options &o)
{
    const std::vector<core::Policy> policies{core::Policy::AllBank,
                                             core::Policy::PerBank,
                                             core::Policy::CoDesign};

    // One recorder per (run, cell).  Cells are self-contained
    // thunks: each builds its own System and feeds its own recorder,
    // so the parallel run touches no shared mutable state.
    auto runGrid = [&](int jobs,
                       std::vector<validate::TraceRecorder> &recs) {
        recs = std::vector<validate::TraceRecorder>(policies.size());
        std::vector<core::CellSpec> cells;
        for (std::size_t i = 0; i < policies.size(); ++i) {
            core::CellSpec cell;
            auto *rec = &recs[i];
            const auto cfg = cellConfig(o, policies[i]);
            cell.custom = [cfg, rec, &o] {
                core::System sys(cfg);
                sys.attachProbe(rec);
                return sys.run(o.warmupQuanta, o.measureQuanta);
            };
            cells.push_back(std::move(cell));
        }
        core::ParallelRunner(jobs).runCells(cells);
    };

    std::vector<validate::TraceRecorder> seq, par;
    runGrid(1, seq);
    runGrid(o.jobs, par);

    bool ok = true;
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const std::string label =
            o.workload + "/" + core::toString(policies[i]);
        if (seq[i].data() == par[i].data()) {
            std::cout << label << ": identical ("
                      << seq[i].eventCount() << " events)\n";
            continue;
        }
        ok = false;
        const auto d = validate::diffTraces(
            validate::decodeTrace(seq[i].data()),
            validate::decodeTrace(par[i].data()));
        std::cout << label << ": DIVERGED (--jobs 1 vs --jobs "
                  << o.jobs << ")\n  " << d.describe() << "\n";
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    const std::string cmd = argv[1];

    try {
        if (cmd == "record")
            return cmdRecord(parse(argc, argv, 2), argv[0]);
        if (cmd == "diff") {
            if (argc != 4)
                usage(argv[0], "diff needs exactly two files");
            return cmdDiff(argv[2], argv[3]);
        }
        if (cmd == "jobs-check")
            return cmdJobsCheck(parse(argc, argv, 2));
        usage(argv[0], "unknown command: " + cmd);
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
