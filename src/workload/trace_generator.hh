/**
 * @file
 * Deterministic synthetic trace generation from a BenchmarkProfile.
 *
 * Virtual address space layout (per task, starting at 0):
 *   [0, hotsetBytes)        the cache-resident hot region
 *   [0, footprint)          sequential streams and random accesses
 *                           range over the whole footprint
 *
 * Sequential accesses advance a small set of stream cursors spread
 * across the footprint (wrapping), like the multiple array operands
 * of STREAM/bwaves; random accesses are uniform over the footprint
 * (pointer chasing); everything else hits the hot set.
 *
 * Entries are drawn a block at a time into InstructionSource's
 * block; next() hands them out in order.  A block ends at every
 * micro- or macro-phase switch, so the phase state (phaseEpoch(),
 * footprintBytes(), inMemPhase(), profile()) always describes the
 * entry next() returned last, and the draws, their order and the
 * entries are exactly those of drawing one entry per next() call.
 */

#ifndef REFSCHED_WORKLOAD_TRACE_GENERATOR_HH
#define REFSCHED_WORKLOAD_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "cpu/instruction_source.hh"
#include "simcore/rng.hh"
#include "workload/profile.hh"

namespace refsched::workload
{

class SyntheticTraceGenerator final : public cpu::InstructionSource
{
  public:
    /**
     * @param profile        the benchmark model
     * @param seed           RNG seed (per task, for distinct streams)
     * @param footprintBytes effective footprint (callers scale the
     *                       profile footprint by the system
     *                       timeScale); clamped to >= hot set
     */
    SyntheticTraceGenerator(const BenchmarkProfile &profile,
                            std::uint64_t seed,
                            std::uint64_t footprintBytes);

    double baseCpi() const override { return profile_.baseCpi; }

    /** The effective profile of the current macro-phase. */
    const BenchmarkProfile &profile() const { return profile_; }

    /** Effective footprint of the current macro-phase. */
    std::uint64_t footprintBytes() const { return footprint_; }

    /** True while the generator is in a memory-intensive phase
     *  (always true for unphased profiles). */
    bool inMemPhase() const { return inMemPhase_; }

    /** Number of macro-phase switches taken so far (0 when the base
     *  profile has no PhaseSchedule). */
    std::uint64_t phaseEpoch() const { return phaseEpoch_; }

  private:
    static constexpr int kNumStreams = 4;

    /** Enter macro-phase @p idx of the base profile's schedule. */
    void applyPhase(std::size_t idx);

    /** Take the phase switches now due, then draw the next block:
     *  up to kBlockEntries entries, ending early after the entry
     *  that uses up a micro- or macro-phase budget. */
    std::uint32_t refill(cpu::TraceEntry *block) override;

    /** Base profile (with the PhaseSchedule) and unscaled effective
     *  footprint, the reference phase scales apply to. */
    BenchmarkProfile base_;
    std::uint64_t baseFootprint_;

    BenchmarkProfile profile_;
    std::uint64_t footprint_;
    Rng rng_;
    std::uint64_t streamCursor_[kNumStreams];
    int nextStream_ = 0;

    // Micro-phase tracking (instruction budget of the current phase).
    bool inMemPhase_ = true;
    std::uint64_t phaseInstrsLeft_ = 0;

    // Macro-phase tracking (PhaseSchedule position).
    std::size_t phaseIdx_ = 0;
    std::uint64_t macroInstrsLeft_ = 0;
    std::uint64_t phaseEpoch_ = 0;
};

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_TRACE_GENERATOR_HH
