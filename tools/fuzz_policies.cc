/**
 * @file
 * Cross-policy differential fuzzer driver.
 *
 *   fuzz_policies --samples 200 --seed 1
 *   fuzz_policies --replay tests/fuzz/corpus/cadence-....txt
 *   fuzz_policies --replay-dir tests/fuzz/corpus
 *
 * Draws seeded random system configurations and workloads, runs
 * every refresh policy on each with all invariant checkers armed,
 * and cross-checks the differential oracles (exact per-window
 * refresh cadence, no-refresh IPC dominance, co-design stall-free
 * pick guarantee, jobs=1 vs jobs=N trace identity).  Failing
 * samples are greedily minimized and written as self-contained
 * key=value repro files.
 *
 * Exit code 0 when every sample and replay is clean, 1 on any
 * oracle violation, 2 on usage errors.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "simcore/logging.hh"
#include "validate/fuzz/fuzz_runner.hh"
#include "workload/profile.hh"

using namespace refsched;
using namespace refsched::validate::fuzz;

namespace
{

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --samples N         random samples to draw (default 100)\n"
        << "  --seed S            sampler seed (default 1)\n"
        << "  --jobs J            worker threads per sweep (default auto)\n"
        << "  --mode KIND         cadence | system | both (default both)\n"
        << "  --shrink-budget S   seconds to minimize each failure\n"
        << "                      (default 20, 0 disables)\n"
        << "  --corpus-dir DIR    write failing samples to DIR\n"
        << "  --replay FILE       re-check one corpus file\n"
        << "  --replay-dir DIR    re-check every *.txt in DIR\n";
    std::exit(error.empty() ? 0 : 2);
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts;
    std::vector<std::string> replays;
    std::string replayDir;
    bool samplesSet = false;

    const auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0], std::string(argv[i]) + " needs a value");
        return argv[++i];
    };

    // Numeric values are one whole, in-range token (no trailing
    // suffix, no sign on the seed, a finite budget).
    const auto integer = [&](int &i, int lo, int hi) {
        const char *flag = argv[i];
        return static_cast<int>(
            workload::parseSignedToken(value(i), flag, lo, hi));
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        try {
            if (!std::strcmp(arg, "--samples")) {
                opts.samples = integer(i, 0, 1 << 30);
                samplesSet = true;
            }
            else if (!std::strcmp(arg, "--seed"))
                opts.seed = workload::parseUnsignedToken(value(i), arg);
            else if (!std::strcmp(arg, "--jobs"))
                opts.jobs = integer(i, 0, 1 << 10);
            else if (!std::strcmp(arg, "--mode"))
                opts.onlyKind = value(i);
            else if (!std::strcmp(arg, "--shrink-budget")) {
                opts.shrinkBudgetSec =
                    workload::parseFiniteToken(value(i), arg);
                if (opts.shrinkBudgetSec < 0.0)
                    usage(argv[0], "--shrink-budget must be >= 0");
            }
            else if (!std::strcmp(arg, "--corpus-dir"))
                opts.corpusDir = value(i);
            else if (!std::strcmp(arg, "--replay"))
                replays.push_back(value(i));
            else if (!std::strcmp(arg, "--replay-dir"))
                replayDir = value(i);
            else if (!std::strcmp(arg, "--help")
                     || !std::strcmp(arg, "-h"))
                usage(argv[0]);
            else
                usage(argv[0], std::string("unknown option ") + arg);
        } catch (const FatalError &e) {
            usage(argv[0], e.what());
        }
    }
    if (!opts.onlyKind.empty() && opts.onlyKind != "cadence"
        && opts.onlyKind != "system" && opts.onlyKind != "both") {
        usage(argv[0], "bad --mode " + opts.onlyKind);
    }
    if (opts.onlyKind == "both")
        opts.onlyKind.clear();

    // Thousands of short simulations make the library's per-run
    // warnings (footprint scaling, zero-IPC tasks in short
    // intervals) pure noise; the oracles report what matters.
    setLogLevel(LogLevel::Quiet);

    try {
        if (!replayDir.empty()) {
            std::vector<std::string> files;
            for (const auto &entry :
                 std::filesystem::directory_iterator(replayDir)) {
                if (entry.path().extension() == ".txt")
                    files.push_back(entry.path().string());
            }
            std::sort(files.begin(), files.end());
            if (files.empty())
                usage(argv[0], "no *.txt corpus files in " + replayDir);
            replays.insert(replays.end(), files.begin(), files.end());
        }

        int failed = 0;
        for (const auto &path : replays) {
            if (!replayFile(path, opts.jobs, std::cout).empty())
                ++failed;
        }

        // Replay-only invocations skip the random sweep unless the
        // caller explicitly asked for samples as well.
        if ((replays.empty() || samplesSet) && opts.samples > 0) {
            const auto report = runFuzz(opts, std::cout);
            failed += report.failedSamples;
        }
        return failed ? 1 : 0;
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 2;
    }
}
