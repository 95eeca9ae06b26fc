/**
 * @file
 * Figure 5: fraction of each benchmark's footprint that fits in a
 * single DRAM bank, per chip density.
 *
 * Methodology mirrors the paper: the buddy allocator is asked to put
 * as much of the task's memory as possible on bank 0 (its
 * possible_banks_vector permits only bank 0); once bank 0 is
 * exhausted, the fall-back allocates elsewhere.  The reported value
 * is pages-on-bank-0 / footprint-pages.
 *
 * This experiment is untimed, so it always runs at timeScale 1: real
 * footprints against real bank capacities (2 GB/bank at 32 Gb).
 * Each (benchmark, density) cell is independent, so the grid fans
 * out across --jobs workers like the timed benches.
 */

#include "bench_util.hh"
#include "dram/address_mapping.hh"
#include "os/buddy_allocator.hh"
#include "os/virtual_memory.hh"
#include "workload/profile.hh"

using namespace refsched;
using namespace refsched::bench;

namespace
{

double
fractionOnOneBank(dram::DensityGb density,
                  const workload::BenchmarkProfile &profile)
{
    const auto dev = dram::makeDdr3_1600(density, milliseconds(64.0), 1);
    dram::AddressMapping mapping(dev.org);
    os::BuddyAllocator buddy(mapping);
    os::VirtualMemory vm(mapping, buddy);

    os::Task task(1, profile.name, mapping.totalBanks());
    std::fill(task.possibleBanksVector.begin(),
              task.possibleBanksVector.end(), false);
    task.allowBank(0);

    const auto pageBytes = mapping.pageBytes();
    const auto pages = divCeil(profile.footprintBytes, pageBytes);
    for (std::uint64_t p = 0; p < pages; ++p)
        vm.translate(task, p * pageBytes);

    return static_cast<double>(task.residentPagesPerBank[0])
        / static_cast<double>(pages);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = parseArgs(argc, argv);
    const std::vector<dram::DensityGb> densities{
        dram::DensityGb::d8, dram::DensityGb::d16,
        dram::DensityGb::d24, dram::DensityGb::d32};
    const auto names = workload::builtinProfileNames();

    std::cout << "Figure 5: fraction of footprint placeable on a "
                 "single bank (timeScale 1,\nreal capacities)\n\n";

    // Fan the (benchmark x density) grid out over the worker pool.
    std::vector<double> fracs(names.size() * densities.size());
    core::parallelFor(fracs.size(), opts.jobs, [&](std::size_t i) {
        const auto &prof =
            workload::profileByName(names[i / densities.size()]);
        fracs[i] =
            fractionOnOneBank(densities[i % densities.size()], prof);
    });

    core::Table table({"benchmark", "footprint", "8Gb", "16Gb", "24Gb",
                       "32Gb"});

    std::vector<double> avg(densities.size(), 0.0);
    for (std::size_t n = 0; n < names.size(); ++n) {
        const auto &prof = workload::profileByName(names[n]);
        std::vector<std::string> row{
            names[n],
            core::fmt(static_cast<double>(prof.footprintBytes)
                          / static_cast<double>(kMiB),
                      0)
                + " MiB"};
        for (std::size_t d = 0; d < densities.size(); ++d) {
            const double frac = fracs[n * densities.size() + d];
            avg[d] += frac;
            row.push_back(core::fmt(frac * 100.0, 1) + "%");
        }
        table.addRow(row);
    }

    std::vector<std::string> avgRow{"average", ""};
    for (double a : avg) {
        avgRow.push_back(
            core::fmt(a / static_cast<double>(names.size()) * 100.0, 1)
            + "%");
    }
    table.addRow(avgRow);

    emit(opts, table, "fig05");
    std::cout << "\nPaper reference: ~68% average at 8Gb, growing "
                 "with density (Fig. 5).\n";
    return 0;
}
