/**
 * @file
 * DRAM energy accounting, in the style of the Micron DDR3 power
 * model: per-event energies for row activations (ACT+PRE pair),
 * read/write bursts and refresh (charged per row refreshed, since a
 * REF internally activates and precharges every affected row), plus
 * rank background power integrated over time. The memory
 * controller charges the per-event energies into its channel stats;
 * this header holds the constants, the background integral and the
 * breakdown it reports.
 *
 * Absolute joules are approximate (datasheet-class constants for a
 * DDR3-1600 x8 rank); the model's purpose is comparing refresh
 * policies: refresh energy itself is invariant across policies (the
 * same rows are refreshed either way), so the interesting outputs
 * are the background share and energy-per-instruction, which improve
 * when a policy finishes more work in the same wall-clock time.
 */

#ifndef REFSCHED_DRAM_ENERGY_HH
#define REFSCHED_DRAM_ENERGY_HH

#include <string>

#include "simcore/types.hh"

namespace refsched::dram
{

/** Per-event energies (picojoules) and background power. */
struct EnergyParams
{
    double actPrePj = 2300.0;   ///< one ACT + its eventual PRE
    double readPj = 1400.0;     ///< one 64 B read burst incl. I/O
    double writePj = 1500.0;    ///< one 64 B write burst incl. I/O
    double refreshRowPj = 110.0;///< per row internally refreshed
    double backgroundMwPerRank = 75.0;  ///< standby power per rank
};

/**
 * Background energy of @p ranks ranks in standby for @p elapsed
 * simulated ticks.
 */
inline double
backgroundPj(const EnergyParams &params, int ranks, Tick elapsed)
{
    // mW * ps = 1e-3 J/s * 1e-12 s = 1e-15 J = 1e-3 pJ.
    return params.backgroundMwPerRank * static_cast<double>(ranks)
        * static_cast<double>(elapsed) * 1e-3;
}

/** Channel-energy breakdown reported through Metrics. */
struct EnergyBreakdown
{
    double activatePj = 0.0;
    double readWritePj = 0.0;
    double refreshPj = 0.0;
    double backgroundPj = 0.0;

    double
    totalPj() const
    {
        return activatePj + readWritePj + refreshPj + backgroundPj;
    }

    double
    refreshShare() const
    {
        const double t = totalPj();
        return t > 0.0 ? refreshPj / t : 0.0;
    }

    std::string summary() const;
};

} // namespace refsched::dram

#endif // REFSCHED_DRAM_ENERGY_HH
