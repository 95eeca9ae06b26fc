/**
 * @file
 * The instruction stream a core consumes for a task.
 *
 * Trace entries are run-length encoded: each entry carries a count
 * of non-memory instructions (gap) followed by one memory operation.
 * Sources are infinite; the experiment runner bounds simulations by
 * time, like the paper bounds them by instruction count.
 */

#ifndef REFSCHED_CPU_INSTRUCTION_SOURCE_HH
#define REFSCHED_CPU_INSTRUCTION_SOURCE_HH

#include <cstdint>

#include "simcore/logging.hh"
#include "simcore/types.hh"

namespace refsched::cpu
{

/** gap non-memory instructions, then one memory access. */
struct TraceEntry
{
    std::uint32_t gap = 0;
    bool isWrite = false;

    /**
     * The access is part of a sequential stream.  Such accesses are
     * trivially covered by a stride prefetcher / deep MLP, so the
     * core issues their DRAM misses without blocking retirement on
     * them (bandwidth-bound behaviour); random accesses block the
     * ROB head (latency-bound behaviour).
     */
    bool sequential = false;

    /**
     * The access depends on the previous miss (pointer chasing): the
     * core cannot issue it to DRAM until earlier blocking misses
     * have returned, serialising the chain (MLP = 1).
     */
    bool dependent = false;

    Addr vaddr = 0;
};

/**
 * A trace source.  Entries are handed out of a fixed block held here:
 * next() is an inline read of the block, and the one virtual call,
 * refill(), runs only when the block is used up.  A source that must
 * act at the moment each entry is handed out (it reads the clock, say)
 * returns one entry per refill().
 */
class InstructionSource
{
  public:
    /** Capacity of the block: 1 KB of TraceEntry. */
    static constexpr std::uint32_t kBlockEntries = 64;

    virtual ~InstructionSource() = default;

    /** Produce the next trace entry. */
    TraceEntry
    next()
    {
        if (head_ == filled_) {
            filled_ = refill(block_);
            REFSCHED_ASSERT(filled_ >= 1 && filled_ <= kBlockEntries,
                            "refill() returned ", filled_, " entries");
            head_ = 0;
        }
        return block_[head_++];
    }

    /**
     * Cycles-per-instruction of the non-memory work, modelling ILP
     * limits the issue width alone does not capture.
     */
    virtual double baseCpi() const { return 0.5; }

  protected:
    /** Write the next 1..kBlockEntries entries to @p block and return
     *  how many.  Called only once every earlier entry was handed
     *  out. */
    virtual std::uint32_t refill(TraceEntry *block) = 0;

  private:
    /** Entries [head_, filled_) are still to be handed out. */
    TraceEntry block_[kBlockEntries];
    std::uint32_t head_ = 0;
    std::uint32_t filled_ = 0;
};

} // namespace refsched::cpu

#endif // REFSCHED_CPU_INSTRUCTION_SOURCE_HH
