/**
 * @file
 * Deterministic pseudo-random number generation for workload traces.
 *
 * We implement xoshiro256** (Blackman & Vigna) rather than using
 * std::mt19937 so that trace streams are bit-identical across
 * standard-library implementations; every experiment in the paper
 * reproduction is seeded and therefore exactly repeatable.
 */

#ifndef REFSCHED_SIMCORE_RNG_HH
#define REFSCHED_SIMCORE_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace refsched
{

/**
 * Named stream-domain keys for CounterRng.
 *
 * Every counter-based generator in the simulator draws from
 * mix(seed, streamKey, counter); two generators sharing a key (and
 * seed) would silently consume the *same* sequence, which breaks the
 * jobs=1-vs-N and shards/lanes bit-identity the moment their draw
 * orders diverge.  Keys live here, in one place, so collisions are
 * a code-review diff rather than a debugging session.
 *
 * The stateful Rng consumers predating this scheme key themselves
 * by seed derivation instead and stay disjoint by construction:
 * initial task traces use seed*1000003 + coreIdx and scenario
 * spawns use seed*1000003 + 7919*pid with spawn pids strictly above
 * every initial task index, while the randomScenario sampler runs
 * before the simulation on its own Rng instance.  The serving layer
 * must not piggyback on any of those streams.
 */
namespace rngstream
{
/** Interarrival draws of the open-loop arrival process. */
inline constexpr std::uint64_t kArrival = 0x41525249564C5331ULL;
/** MMPP modulating-state dwell-time draws. */
inline constexpr std::uint64_t kArrivalPhase = 0x41525249564C5332ULL;
/** Serving-request target-task selection. */
inline constexpr std::uint64_t kServingTask = 0x53455256544B5331ULL;
/** Serving-request line-address selection within a footprint. */
inline constexpr std::uint64_t kServingAddr = 0x5345525641445231ULL;
} // namespace rngstream

/**
 * Counter-based (stateless) PRNG: output i is a pure function
 * mix(seed, stream, i) built from splitmix64 finalizer rounds.
 *
 * Unlike the stateful Rng, interleaving draws from two CounterRngs
 * cannot entangle their sequences -- each owns an independent
 * counter -- which is exactly the property the open-loop serving
 * layer needs to stay bit-identical across {jobs}x{shards}x{lanes}
 * partitionings regardless of who draws first.
 */
class CounterRng
{
  public:
    CounterRng(std::uint64_t seed, std::uint64_t streamKey)
        : seed_(seed), stream_(streamKey)
    {
    }

    /** Pure mixing function; the whole generator in one place. */
    static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t counter);

    /** Next raw 64-bit value (advances the counter). */
    std::uint64_t next() { return mix(seed_, stream_, counter_++); }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    std::uint64_t counter() const { return counter_; }
    std::uint64_t streamKey() const { return stream_; }

  private:
    std::uint64_t seed_;
    std::uint64_t stream_;
    std::uint64_t counter_ = 0;
};

/**
 * Exact table-driven inverse CDF of the geometric distribution.
 *
 * The reference mapping from a uniform draw u to a gap is
 * floor(log1p(-u) / log1p(-p)), clamped to maxGap.  In m = 1 - u
 * space -- exact for every u = k * 2^-53, which is all Rng::real()
 * produces -- that gap is the first j with m > M_j, where
 * M_j = q^(j+1) and q = 1 - p.  build() tabulates the thresholds
 * when at most kMaxEntries of them lie above 2^-53 (p >~ 0.134), and
 * gap() then looks the answer up instead of calling libm.
 *
 * Lookup: the top 16 bits of m's IEEE encoding (exponent plus four
 * mantissa bits) name one of kBuckets buckets covering [2^-53, 1],
 * each spanning a ratio of at most 17/16.  Consecutive thresholds
 * differ by the ratio 1/q > 17/16, so a bucket holds at most one
 * upper guard.  lead_[b] counts the guards at or above bucket b's
 * upper bound; the gap is that count plus one when m also lies at or
 * below the next guard -- no data-dependent branch.
 *
 * Exactness: libm's quotient is within a few ulps of the true one,
 * and the thresholds within ~1e-14 relative, so the two mappings can
 * only disagree when m lies within a relative ~1e-13 of M_j.  gap()
 * takes the libm expression whenever m lies within the much wider
 * relative kGuard of the deciding threshold, so it returns the
 * reference value for every draw.  Other values of p get no table
 * and always take the libm expression.
 */
class GeometricGapTable
{
  public:
    /** Longest table built; longer ones keep the libm path. */
    static constexpr std::size_t kMaxEntries = 256;
    /** Relative guard band around each threshold. */
    static constexpr double kGuard = 1e-9;
    /** Top 16 bits of the doubles 2^-53 and 1: the bucket range. */
    static constexpr std::uint64_t kLowestKey = 0x3CA0;
    static constexpr std::uint64_t kHighestKey = 0x3FF0;
    static constexpr std::size_t kBuckets = kHighestKey - kLowestKey + 1;

    /** (Re)build for success probability @p p in (0, 1). */
    void build(double p);

    /** The p of the last build() (negative before the first). */
    double p() const { return p_; }

    /** Number of thresholds; 0 when p takes the libm path only. */
    std::size_t
    entries() const
    {
        return guards_.empty() ? 0 : guards_.size() - 1;
    }

    /**
     * Gap for the draw @p u = k * 2^-53, clamped to @p maxGap;
     * equals reference(u, log1p(-p), maxGap) for every such u.
     */
    std::uint64_t
    gap(double u, std::uint64_t maxGap) const
    {
        if (guards_.empty())
            return reference(u, logQ_, maxGap);
        const double m = 1.0 - u;
        const std::size_t g = guardsAbove(m);
        // m inside M_{g-1}'s band (never for g = 0: the sentinel).
        const bool guarded = m >= guards_[g].belowPrev;
        if (g < maxGap)
            return guarded ? reference(u, logQ_, maxGap) : g;
        // At or past the clamp: only M_{maxGap-1}'s band can pull
        // the gap below it.
        return g == maxGap && guarded ? reference(u, logQ_, maxGap)
                                      : maxGap;
    }

    /**
     * Number of upper guards M_j * (1 + kGuard) at or above @p m in
     * [2^-53, 1], for a tabled p: the gap of m unless m lies in the
     * guard band of M_{g-1}.
     */
    std::size_t
    guardsAbove(double m) const
    {
        // The bucket's lead, plus its own guard if m is at or below it.
        const std::size_t lead = lead_[bucketOf(m)];
        return lead + (m <= guards_[lead].above);
    }

    /** The libm mapping floor(log1p(-u) / logQ), clamped. */
    static std::uint64_t reference(double u, double logQ,
                                   std::uint64_t maxGap);

  private:
    static_assert(kMaxEntries <= 256, "lead_ holds counts in a byte");

    /** Slot j of guards_: M_j's upper guard M_j * (1 + kGuard) and
     *  M_{j-1}'s lower guard M_{j-1} * (1 - kGuard).  Slot 0's lower
     *  guard is a sentinel above every m; the last slot, one past the
     *  thresholds, has only its lower guard. */
    struct Guard
    {
        double above;
        double belowPrev;
    };

    /** Bucket of m in [2^-53, 1]; out-of-contract m clamps into range
     *  so a bad draw cannot index past lead_. */
    static std::size_t
    bucketOf(double m)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &m, sizeof bits);
        const std::uint64_t b = (bits >> 48) - kLowestKey;
        return b < kBuckets ? b : kBuckets - 1;
    }

    double p_ = -1.0;
    double logQ_ = 0.0;
    /** Threshold count at or above each bucket's upper bound. */
    std::uint8_t lead_[kBuckets] = {};
    /** entries() + 1 slots; empty when p takes the libm path only. */
    std::vector<Guard> guards_;
};

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        reseed(seed);
    }

    /** Re-initialise the full state from a single 64-bit seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation; the tiny
        // modulo bias of the simple 128-bit multiply-shift is
        // irrelevant for workload synthesis, so we keep it simple.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform integer in [0, 2^53): the draw behind real(). */
    std::uint64_t bits53() { return next() >> 11; }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(bits53()) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p) { return real() < p; }

    /**
     * The cut t with bernoulli(p) == (bits53() < t) for every draw:
     * real() < p is k * 2^-53 < p for the integer k = bits53(), and
     * p * 2^53 is exact, so that is k < ceil(p * 2^53).  Clamped to
     * [0, 2^53]; a NaN p (never true) gives 0.
     */
    static std::uint64_t
    bernoulliCut(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /**
     * Geometric "gap" sample: number of failures before the first
     * success with success probability @p p, clamped to @p maxGap.
     * Used for instruction gaps between memory operations.  Draws
     * exactly one real() per call; the threshold table is rebuilt
     * only when @p p changes (a trace's macro-phase switch).
     */
    std::uint64_t geometric(double p, std::uint64_t maxGap = 100000);

    /**
     * The table geometric(p, maxGap) draws through, for @p p in
     * (0, 1): geometric(p, maxGap) == geometricTable(p).gap(real(),
     * maxGap).  Rebuilt only when @p p changes.
     */
    const GeometricGapTable &
    geometricTable(double p)
    {
        if (p != geom_.p())
            geom_.build(p);
        return geom_;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];

    GeometricGapTable geom_;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_RNG_HH
