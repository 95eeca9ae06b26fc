#include "simcore/rng.hh"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

namespace refsched
{

namespace
{

/** splitmix64: expands one 64-bit seed into a stream of state words. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** The splitmix64 output finalizer (full-avalanche bijection). */
std::uint64_t
finalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
CounterRng::mix(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t counter)
{
    // Weyl-style increments keep (seed, stream, counter) in distinct
    // linear subspaces before each avalanche round, so adjacent
    // counters, adjacent seeds and adjacent stream keys all map to
    // unrelated outputs.
    std::uint64_t z = seed;
    z = finalize(z + 0x9E3779B97F4A7C15ULL * stream);
    z = finalize(z + 0xD1B54A32D192ED03ULL * counter);
    return finalize(z + 0x8CB92BA72F3D8DD7ULL);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
    // Guard against the (astronomically unlikely) all-zero state,
    // which is the one fixed point of xoshiro256**.
    if ((s[0] | s[1] | s[2] | s[3]) == 0)
        s[0] = 1;
}

void
GeometricGapTable::build(double p)
{
    p_ = p;
    logQ_ = std::log1p(-p);
    std::array<Guard, kMaxEntries + 1> buf{};
    buf[0].belowPrev = std::numeric_limits<double>::infinity();
    std::size_t n = 0;
    for (std::size_t j = 0; j < kMaxEntries && n == 0; ++j) {
        const double mj =
            std::exp(static_cast<double>(j + 1) * logQ_);
        buf[j].above = mj * (1.0 + kGuard);
        buf[j + 1] = Guard{0.0, mj * (1.0 - kGuard)};
        // Every m = 1 - u is at least 2^-53, so no draw looks past
        // a threshold whose guard band lies below that.
        if (buf[j].above < 0x1.0p-53)
            n = j + 1;
    }
    if (n == 0) {
        guards_.clear();
        return;
    }
    guards_.assign(buf.begin(), buf.begin() + n + 1);

    // One pass from the top bucket down: its upper bound falls, so
    // the count of guards at or above it only grows.  The last guard
    // lies below 2^-53, under every bucket, so no count reaches n
    // and guards_[lead].above is always a real threshold's.
    std::size_t lead = 0;
    for (std::size_t b = kBuckets; b-- > 0;) {
        const std::uint64_t hiBits = (kLowestKey + b + 1) << 48;
        double hi;
        std::memcpy(&hi, &hiBits, sizeof hi);
        while (guards_[lead].above >= hi)
            ++lead;
        lead_[b] = static_cast<std::uint8_t>(lead);
    }
}

std::uint64_t
GeometricGapTable::reference(double u, double logQ,
                             std::uint64_t maxGap)
{
    // Inverse-CDF sampling: floor(log(U) / log(1-p)).
    const double g = std::floor(std::log1p(-u) / logQ);
    if (g >= static_cast<double>(maxGap))
        return maxGap;
    return static_cast<std::uint64_t>(g);
}

std::uint64_t
Rng::geometric(double p, std::uint64_t maxGap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return maxGap;
    return geometricTable(p).gap(real(), maxGap);
}

} // namespace refsched
