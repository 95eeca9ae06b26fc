/**
 * @file
 * Memory requests exchanged between the cache hierarchy / cores and
 * the memory controller.
 */

#ifndef REFSCHED_MEMCTRL_REQUEST_HH
#define REFSCHED_MEMCTRL_REQUEST_HH

#include <cstdint>
#include <string>

#include "dram/address_mapping.hh"
#include "simcore/types.hh"

namespace refsched
{
class Callee;
}

namespace refsched::memctrl
{

/** A single cache-line-sized DRAM transaction. */
struct Request
{
    enum class Type { Read, Write };

    Addr paddr = 0;
    Type type = Type::Read;
    int coreId = -1;
    Pid pid = -1;

    /** Tick the request entered the controller queue. */
    Tick enqueuedAt = 0;

    /** Pre-decoded DRAM coordinates (filled by the controller). */
    dram::DramCoord coord;

    /** Monotonic id for deterministic tie-breaking and debugging. */
    std::uint64_t seq = 0;

    /**
     * Intrusive completion record for reads: at the tick the data
     * burst finishes on the bus, the controller schedules
     * `completion->fire(dataAt, cookie0, cookie1)` directly on the
     * event queue -- no closure, no heap allocation on the hot path.
     * The receiver owns the meaning of the two cookies (cpu::Core
     * packs its epoch and instruction index).  Null for writes
     * (posted) and for fire-and-forget traffic.
     */
    Callee *completion = nullptr;
    std::uint64_t cookie0 = 0;
    std::uint64_t cookie1 = 0;

    /** Set once the request observed its bank busy refreshing. */
    bool blockedByRefresh = false;

    /**
     * Out-parameter mirror of blockedByRefresh for issuers whose
     * completion cookies are already spoken for (the open-loop
     * serving injector packs slot/line indices).  When non-null the
     * controller stores the final blocked state here at read
     * completion; the storage must stay valid until then, and each
     * in-flight request needs its own element -- under the sharded
     * kernel the owning channel lane writes it, so sharing one flag
     * across channels would race.  Forwarded reads (served from a
     * queued write) bypass the DRAM banks entirely and store 0.
     */
    std::uint8_t *blockedOut = nullptr;

    /** Set when the controller issued an ACT on this request's
     *  behalf (row-buffer miss accounting). */
    bool neededAct = false;

    bool isRead() const { return type == Type::Read; }
    bool isWrite() const { return type == Type::Write; }

    std::string describe() const;
};

} // namespace refsched::memctrl

#endif // REFSCHED_MEMCTRL_REQUEST_HH
