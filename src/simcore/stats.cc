#include "simcore/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "simcore/logging.hh"

namespace refsched
{

namespace
{

/** Shortest round-trip double rendering (matches operator<<). */
std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os << v;
    const std::string s = os.str();
    // JSON has no inf/nan literals; they only arise from broken
    // inputs, but emit null rather than corrupt the document.
    if (s.find("inf") != std::string::npos
        || s.find("nan") != std::string::npos)
        return "null";
    return s;
}

} // namespace

std::string
Scalar::render() const
{
    std::ostringstream os;
    os << val;
    return os.str();
}

std::string
Scalar::renderJson() const
{
    return jsonNumber(val);
}

std::string
Average::render() const
{
    std::ostringstream os;
    os << mean() << " (" << count << " samples)";
    return os.str();
}

std::string
Average::renderJson() const
{
    std::ostringstream os;
    os << "{\"mean\": " << jsonNumber(mean()) << ", \"count\": "
       << count << ", \"sum\": " << jsonNumber(sum) << "}";
    return os.str();
}

Distribution::Distribution(double lo_, double hi_, std::size_t n)
{
    init(lo_, hi_, n);
}

void
Distribution::init(double lo_, double hi_, std::size_t n)
{
    REFSCHED_ASSERT(hi_ > lo_ && n > 0, "bad distribution bounds");
    lo = lo_;
    hi = hi_;
    width = (hi - lo) / static_cast<double>(n);
    buckets.assign(n, 0);
    reset();
}

void
Distribution::sample(double v)
{
    if (count == 0) {
        minV = maxV = v;
    } else {
        minV = std::min(minV, v);
        maxV = std::max(maxV, v);
    }
    sum += v;
    ++count;

    if (v < lo) {
        ++underflow;
    } else if (v >= hi) {
        ++overflow;
    } else {
        auto idx = static_cast<std::size_t>((v - lo) / width);
        if (idx >= buckets.size())
            idx = buckets.size() - 1;
        ++buckets[idx];
    }
}

double
Distribution::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count));
    std::uint64_t seen = underflow;
    if (seen >= target)
        return lo;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= target)
            return lo + (static_cast<double>(i) + 0.5) * width;
    }
    return hi;
}

void
Distribution::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    underflow = overflow = 0;
    count = 0;
    sum = 0.0;
    minV = maxV = 0.0;
}

std::string
Distribution::render() const
{
    std::ostringstream os;
    os << "mean=" << mean() << " min=" << minValue()
       << " max=" << maxValue() << " n=" << count;
    return os.str();
}

std::string
Distribution::renderJson() const
{
    std::ostringstream os;
    os << "{\"mean\": " << jsonNumber(mean())
       << ", \"min\": " << jsonNumber(minValue())
       << ", \"max\": " << jsonNumber(maxValue())
       << ", \"count\": " << count
       << ", \"lo\": " << jsonNumber(lo)
       << ", \"hi\": " << jsonNumber(hi)
       << ", \"underflow\": " << underflow
       << ", \"overflow\": " << overflow << ", \"buckets\": [";
    for (std::size_t i = 0; i < buckets.size(); ++i)
        os << (i ? ", " : "") << buckets[i];
    os << "]}";
    return os.str();
}

void
Histogram::sample(double v)
{
    if (count == 0) {
        minV = maxV = v;
    } else {
        minV = std::min(minV, v);
        maxV = std::max(maxV, v);
    }
    sum += v;
    ++count;

    std::size_t b = 0;
    if (v >= 1.0) {
        const auto iv = v >= 1.8446744073709552e19
            ? ~std::uint64_t{0}
            : static_cast<std::uint64_t>(v);
        while (b < kNumBuckets - 1 && (std::uint64_t{1} << b) <= iv)
            ++b;
    }
    ++buckets[b];
}

double
Histogram::bucketLo(std::size_t b)
{
    if (b == 0)
        return 0.0;
    return std::ldexp(1.0, static_cast<int>(b) - 1);
}

double
Histogram::bucketHi(std::size_t b)
{
    if (b == 0)
        return 1.0;
    return std::ldexp(1.0, static_cast<int>(b));
}

double
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // 1-based rank of the sample the quantile falls on.  ceil() so
    // q=1 selects the last sample exactly and a tail quantile of a
    // tiny population (q=0.999, count=1) still selects a sample
    // instead of truncating to rank 0.
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        if (seen + buckets[b] >= target) {
            const double frac = static_cast<double>(target - seen)
                / static_cast<double>(buckets[b]);
            // Interpolate inside the covering bucket, but never
            // outside the observed extrema: the log2 edges can sit a
            // factor of two away from any real sample, and the top
            // (overflow) bucket has no meaningful upper edge at all
            // -- without the clamp a p999 landing there would report
            // a latency above the maximum sample ever recorded.
            const bool overflowBucket = b == kNumBuckets - 1;
            const double lo = std::max(bucketLo(b), minV);
            const double hi = overflowBucket
                ? maxV
                : std::min(bucketHi(b), maxV);
            const double v = lo + frac * (hi - lo);
            return std::clamp(v, minV, maxV);
        }
        seen += buckets[b];
    }
    return maxV;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    count = 0;
    sum = 0.0;
    minV = maxV = 0.0;
}

std::string
Histogram::render() const
{
    std::ostringstream os;
    os << "mean=" << mean() << " p50=" << quantile(0.5)
       << " p99=" << quantile(0.99) << " min=" << minValue()
       << " max=" << maxValue() << " n=" << count;
    return os.str();
}

std::string
Histogram::renderJson() const
{
    std::ostringstream os;
    os << "{\"mean\": " << jsonNumber(mean())
       << ", \"min\": " << jsonNumber(minValue())
       << ", \"max\": " << jsonNumber(maxValue())
       << ", \"count\": " << count
       << ", \"p50\": " << jsonNumber(quantile(0.5))
       << ", \"p95\": " << jsonNumber(quantile(0.95))
       << ", \"p99\": " << jsonNumber(quantile(0.99))
       << ", \"p999\": " << jsonNumber(quantile(0.999))
       << ", \"log2Buckets\": [";
    // Sparse rendering: [bucketIndex, count] pairs for occupied
    // buckets only (65 mostly-zero counters would dominate a dump).
    bool first = true;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        os << (first ? "" : ", ") << "[" << b << ", " << buckets[b]
           << "]";
        first = false;
    }
    os << "]}";
    return os.str();
}

void
StatRegistry::add(const std::string &name, StatBase *stat)
{
    REFSCHED_ASSERT(stat != nullptr, "null stat: ", name);
    auto [it, inserted] = stats.emplace(name, stat);
    (void)it;
    if (!inserted)
        fatal("duplicate stat name: ", name);
}

StatBase *
StatRegistry::find(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? nullptr : it->second;
}

void
StatRegistry::resetAll()
{
    for (auto &[name, stat] : stats)
        stat->reset();
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : stats)
        os << name << " " << stat->render() << "\n";
}

void
StatRegistry::dumpJson(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << "{";
    bool first = true;
    for (const auto &[name, stat] : stats) {
        os << (first ? "" : ",") << "\n" << pad << "  \"" << name
           << "\": " << stat->renderJson();
        first = false;
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
}

} // namespace refsched
