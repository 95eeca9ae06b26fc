/**
 * @file
 * Synthetic benchmark profiles standing in for the paper's SPEC
 * CPU2006 / STREAM / NAS workloads.
 *
 * We do not have SPEC reference traces, so each benchmark is modelled
 * as a parameterised address-stream generator calibrated to the
 * properties the paper's evaluation actually depends on:
 *
 *   - memory footprint (section 5.4.1 gives mcf 1.7 GB, bwaves
 *     920 MB, stream 800 MB, GemsFDTD 850 MB);
 *   - MPKI class (Table 2: H > 10, M in 1..10, L < 1), realised as a
 *     mixture of cache-resident "hot set" accesses, sequential
 *     streaming, and uniform-random (pointer-chasing) accesses over
 *     the full footprint;
 *   - write intensity and non-memory ILP (baseCpi).
 *
 * The expected MPKI of a profile is analytically
 *   1000 * memOpFraction * (randomFraction + seqFraction/accessesPerLine)
 * since random accesses to a multi-MB footprint always miss a 2 MB
 * L2 and sequential streams miss once per line; tab02_workloads
 * verifies the measured values land in the intended class.
 */

#ifndef REFSCHED_WORKLOAD_PROFILE_HH
#define REFSCHED_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/types.hh"

namespace refsched::workload
{

/** MPKI intensity classes from Table 2. */
enum class MpkiClass { Low, Medium, High };

std::string toString(MpkiClass c);

/**
 * One macro-phase of a phased benchmark: run with the access pattern
 * of built-in profile @p profile for @p instrs instructions, with the
 * task's footprint scaled by @p footprintScale relative to its base
 * footprint.  A shrink releases pages through the buddy allocator; a
 * grow demand-pages back in.
 */
struct PhaseSpec
{
    std::string profile;
    std::uint64_t instrs = 0;
    double footprintScale = 1.0;
};

/**
 * Whole-token number parsing for scenario and phase text, which is
 * untrusted input.  Each throws FatalError, naming @p what, unless
 * the entire token is one number of the field's kind: no surrounding
 * space or trailing characters, no sign on an unsigned field, no
 * overflow, a value in [@p lo, @p hi] for a signed field and a
 * finite value for a real one.  Other range checks stay with the
 * caller.
 */
std::uint64_t parseUnsignedToken(const std::string &tok,
                                 const char *what);
std::int64_t parseSignedToken(const std::string &tok, const char *what,
                              std::int64_t lo, std::int64_t hi);
double parseFiniteToken(const std::string &tok, const char *what);

/**
 * A cyclic schedule of macro-phases (empty = the task keeps its base
 * profile forever).  Unlike the micro mem/compute alternation built
 * into BenchmarkProfile, a macro-phase switch changes the MPKI class
 * and footprint mid-run -- the "placement goes stale" regime the
 * scenario engine tests.
 *
 * Text form: "profile@instrs@scale|profile@instrs@scale|..."
 */
struct PhaseSchedule
{
    std::vector<PhaseSpec> phases;

    bool empty() const { return phases.empty(); }

    /** Largest footprintScale across phases (capacity planning). */
    double maxFootprintScale() const;

    std::string serialize() const;

    /** Parse the text form; fatal() on malformed input or unknown
     *  profile names. */
    static PhaseSchedule parse(const std::string &text);

    /** Range-check every phase; fatal() on nonsense. */
    void check() const;
};

struct BenchmarkProfile
{
    std::string name;

    /** Full (unscaled) footprint in bytes. */
    std::uint64_t footprintBytes = 64 * kMiB;

    /** Fraction of instructions that are loads/stores. */
    double memOpFraction = 0.3;

    /** Fraction of memory ops that are writes. */
    double writeFraction = 0.25;

    /** Non-memory CPI (ILP beyond issue width). */
    double baseCpi = 0.5;

    // Access-pattern mixture; fractions sum to <= 1, the remainder
    // going to the hot set.
    double seqFraction = 0.0;     ///< streaming walks of the footprint
    double randomFraction = 0.0;  ///< uniform over the footprint

    /** Fraction of random accesses that are pointer-chase dependent
     *  (serialised behind the previous miss, MLP = 1). */
    double dependentFraction = 0.0;

    /** Bytes of the cache-resident hot region. */
    std::uint64_t hotsetBytes = 256 * kKiB;

    /** Byte granularity of individual accesses. */
    std::uint32_t accessBytes = 8;

    /**
     * Phase behaviour: when both are non-zero the benchmark
     * alternates between a memory-intensive phase of memPhaseInstrs
     * instructions (full pattern mixture) and a compute phase of
     * computePhaseInstrs instructions (hot-set-only accesses).  Real
     * applications are phased, and refresh schedulers with slack
     * (elastic deferral, Adaptive Refresh) exploit the idle phases.
     */
    std::uint64_t memPhaseInstrs = 0;
    std::uint64_t computePhaseInstrs = 0;

    bool
    phased() const
    {
        return memPhaseInstrs > 0 && computePhaseInstrs > 0;
    }

    /** Paper's classification (what Table 2 says). */
    MpkiClass paperClass = MpkiClass::Low;

    /** Macro-phase schedule (empty for the built-in profiles; set by
     *  the scenario engine).  The generator swaps in each phase's
     *  pattern mixture while keeping this profile's hot set and
     *  access granularity. */
    PhaseSchedule phases;

    /** Analytic MPKI estimate (see file header). */
    double expectedMpki(std::uint64_t lineBytes = 64) const;

    /** Classify an MPKI value per Table 2's thresholds. */
    static MpkiClass classify(double mpki);

    /** Sanity-check parameter ranges; fatal() on nonsense. */
    void check() const;
};

/** Look up a built-in profile by benchmark name ("mcf", ...). */
const BenchmarkProfile &profileByName(const std::string &name);

/** Names of all built-in profiles. */
std::vector<std::string> builtinProfileNames();

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_PROFILE_HH
