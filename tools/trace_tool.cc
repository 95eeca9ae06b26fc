/**
 * @file
 * Trace utility: record synthetic benchmark traces to a file,
 * inspect trace files, and sanity-check their statistics.
 *
 *   trace_tool record mcf 100000 mcf.trace [footprintMiB] [seed]
 *   trace_tool info mcf.trace
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "core/report.hh"
#include "simcore/logging.hh"
#include "workload/profile.hh"
#include "workload/trace_file.hh"
#include "workload/trace_generator.hh"

using namespace refsched;
using namespace refsched::workload;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr
        << "usage:\n"
        << "  trace_tool record BENCH N OUT [footprintMiB] [seed]\n"
        << "      record N entries of benchmark BENCH to OUT\n"
        << "  trace_tool info FILE\n"
        << "      print summary statistics of a trace file\n";
    std::exit(2);
}

/** One whole unsigned integer argument; anything else is a usage
 *  error. */
std::uint64_t
unsignedArg(const char *tok, const char *what)
{
    try {
        return parseUnsignedToken(tok, what);
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n\n";
        usage();
    }
}

int
record(int argc, char **argv)
{
    if (argc < 5)
        usage();
    const std::string bench = argv[2];
    const auto n = unsignedArg(argv[3], "N");
    const std::string out = argv[4];
    const auto &prof = profileByName(bench);
    std::uint64_t footprint = prof.footprintBytes;
    if (argc > 5) {
        const std::uint64_t mib = unsignedArg(argv[5], "footprintMiB");
        if (mib > UINT64_MAX / kMiB) {
            std::cerr << "error: footprintMiB " << mib
                      << " overflows\n\n";
            usage();
        }
        footprint = mib * kMiB;
    }
    const std::uint64_t seed = argc > 6 ? unsignedArg(argv[6], "seed") : 1;

    SyntheticTraceGenerator gen(prof, seed, footprint);
    const auto entries = recordTrace(gen, n);
    writeTraceFile(out, entries, prof.baseCpi);
    std::cout << "recorded " << entries.size() << " entries of "
              << bench << " (footprint "
              << footprint / kMiB << " MiB, seed " << seed << ") to "
              << out << "\n";
    return 0;
}

int
info(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const auto trace = readTraceFile(argv[2]);

    std::uint64_t instrs = 0, writes = 0, seq = 0, dep = 0;
    Addr maxAddr = 0;
    std::map<std::uint64_t, std::uint64_t> pagesTouched;
    for (const auto &e : trace.entries) {
        instrs += e.gap + 1;
        writes += e.isWrite;
        seq += e.sequential;
        dep += e.dependent;
        maxAddr = std::max(maxAddr, e.vaddr);
        ++pagesTouched[e.vaddr >> 12];
    }

    const auto n = trace.entries.size();
    core::Table t({"metric", "value"});
    t.addRow({"entries", std::to_string(n)});
    t.addRow({"instructions", std::to_string(instrs)});
    t.addRow({"base CPI", core::fmt(trace.baseCpi, 2)});
    t.addRow({"mem-op fraction",
              core::fmt(static_cast<double>(n)
                            / static_cast<double>(instrs),
                        3)});
    t.addRow({"write fraction",
              core::fmt(static_cast<double>(writes)
                            / static_cast<double>(n),
                        3)});
    t.addRow({"sequential fraction",
              core::fmt(static_cast<double>(seq)
                            / static_cast<double>(n),
                        3)});
    t.addRow({"dependent fraction",
              core::fmt(static_cast<double>(dep)
                            / static_cast<double>(n),
                        3)});
    t.addRow({"max vaddr",
              core::fmt(static_cast<double>(maxAddr)
                            / static_cast<double>(kMiB),
                        1)
                  + " MiB"});
    t.addRow({"4K pages touched",
              std::to_string(pagesTouched.size())});
    t.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    try {
        if (std::strcmp(argv[1], "record") == 0)
            return record(argc, argv);
        if (std::strcmp(argv[1], "info") == 0)
            return info(argc, argv);
    } catch (const refsched::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
    usage();
}
