#include "workload/trace_generator.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::workload
{

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const BenchmarkProfile &profile, std::uint64_t seed,
    std::uint64_t footprintBytes)
    : base_(profile),
      baseFootprint_(std::max(footprintBytes, profile.hotsetBytes)),
      profile_(profile),
      footprint_(baseFootprint_),
      rng_(seed)
{
    profile_.check();
    base_.phases.check();
    // Spread the stream cursors across the footprint, like the
    // separate operand arrays of a streaming kernel.  Each cursor is
    // additionally staggered by one page: quarter-footprint offsets
    // are typically congruent modulo the bank-interleave period, and
    // without the stagger all streams would walk the same bank with
    // different rows, destroying row-buffer locality artificially.
    for (int s = 0; s < kNumStreams; ++s) {
        streamCursor_[s] = ((footprint_ / kNumStreams + 4 * kKiB)
                            * static_cast<std::uint64_t>(s))
            % footprint_;
    }
    if (profile_.phased())
        phaseInstrsLeft_ = profile_.memPhaseInstrs;
    if (!base_.phases.empty())
        applyPhase(0);
}

void
SyntheticTraceGenerator::applyPhase(std::size_t idx)
{
    const PhaseSpec &spec = base_.phases.phases[idx];
    phaseIdx_ = idx;
    macroInstrsLeft_ = spec.instrs;

    // The phase contributes its pattern mixture and intensity; the
    // task keeps its identity (hot set, access granularity).
    BenchmarkProfile eff = profileByName(spec.profile);
    eff.name = base_.name + ":" + spec.profile;
    eff.hotsetBytes = base_.hotsetBytes;
    eff.accessBytes = base_.accessBytes;
    eff.phases = {};

    footprint_ = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(
            static_cast<double>(baseFootprint_) * spec.footprintScale),
        eff.hotsetBytes);
    eff.footprintBytes = footprint_;
    eff.check();
    profile_ = eff;

    // A shrink can leave cursors past the new footprint.
    for (auto &cur : streamCursor_)
        cur %= footprint_;

    inMemPhase_ = true;
    phaseInstrsLeft_ = profile_.phased() ? profile_.memPhaseInstrs : 0;
}

std::uint32_t
SyntheticTraceGenerator::refill(cpu::TraceEntry *block)
{
    const bool macro = !base_.phases.empty();
    if (macro && macroInstrsLeft_ == 0) {
        ++phaseEpoch_;
        applyPhase((phaseIdx_ + 1) % base_.phases.phases.size());
    }
    const bool phased = profile_.phased();
    if (phased && phaseInstrsLeft_ == 0) {
        inMemPhase_ = !inMemPhase_;
        phaseInstrsLeft_ = inMemPhase_ ? profile_.memPhaseInstrs
                                       : profile_.computePhaseInstrs;
    }

    // Everything below is fixed for the block: no switch happens
    // inside it.  Bernoulli and mixture draws compare the raw 53-bit
    // draw against exact cuts (Rng::bernoulliCut) instead of forming
    // a double; slot counts replace a division per entry.
    const double p = profile_.memOpFraction;
    const GeometricGapTable *gaps =
        p > 0.0 && p < 1.0 ? &rng_.geometricTable(p) : nullptr;
    const std::uint64_t writeCut =
        Rng::bernoulliCut(profile_.writeFraction);
    const std::uint64_t seqCut = Rng::bernoulliCut(profile_.seqFraction);
    const std::uint64_t randomCut = Rng::bernoulliCut(
        profile_.seqFraction + profile_.randomFraction);
    const std::uint64_t dependentCut =
        Rng::bernoulliCut(profile_.dependentFraction);
    const std::uint64_t access = profile_.accessBytes;
    const std::uint64_t hotSlots = profile_.hotsetBytes / access;
    const std::uint64_t footprintSlots = footprint_ / access;
    const bool computePhase = phased && !inMemPhase_;

    std::uint32_t filled = 0;
    while (filled < kBlockEntries) {
        cpu::TraceEntry e;
        // Gap between memory ops: geometric with mean (1-f)/f.
        e.gap = static_cast<std::uint32_t>(
            gaps ? gaps->gap(rng_.real(), 4096) : rng_.geometric(p, 4096));
        e.isWrite = rng_.bits53() < writeCut;

        const std::uint64_t consumed = e.gap + 1ULL;
        if (macro)
            macroInstrsLeft_ -= std::min(macroInstrsLeft_, consumed);
        if (phased)
            phaseInstrsLeft_ -= std::min(phaseInstrsLeft_, consumed);

        if (computePhase) {
            // Compute phase: everything hits the hot set.
            e.vaddr = rng_.below(hotSlots) * access;
        } else {
            const std::uint64_t which = rng_.bits53();
            if (which < seqCut) {
                auto &cur = streamCursor_[nextStream_];
                nextStream_ = (nextStream_ + 1) % kNumStreams;
                cur += access;
                if (cur >= footprint_)
                    cur = 0;
                e.vaddr = cur;
                e.sequential = true;
            } else if (which < randomCut) {
                e.vaddr = rng_.below(footprintSlots) * access;
                e.dependent = rng_.bits53() < dependentCut;
            } else {
                e.vaddr = rng_.below(hotSlots) * access;
            }
        }
        block[filled++] = e;

        // A switch is due before the next entry: end the block so
        // the next refill takes it when that entry is handed out.
        if ((macro && macroInstrsLeft_ == 0)
            || (phased && phaseInstrsLeft_ == 0))
            break;
    }
    return filled;
}

} // namespace refsched::workload
