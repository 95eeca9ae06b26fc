/**
 * @file
 * Measurement plumbing of refsched_bench: host clocks, spans
 * taken at layer boundaries, the simulated-output fingerprint,
 * registry lookups, and the table of per-pass metric samples.
 *
 * Everything here observes the simulator from outside, through its
 * public API; nothing feeds back into simulated behaviour.
 */

#ifndef REFSCHED_BENCHMARK_MEASURE_HH
#define REFSCHED_BENCHMARK_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/stats.hh"

namespace refsched::rsbench
{

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to);

/** One timed interval at a layer boundary (a Chrome "X" event). */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int tid = 0;
    int id = 0;
    int parent = 0;  ///< 0 = root
    std::string detail;  ///< e.g. the cell's configuration
};

/** Small dense id of the calling thread (the trace-event tid). */
int threadIndex();

/** Process-unique span id (never 0). */
int nextSpanId();

/** Write @p spans as Chrome trace-event JSON, timestamps relative to
 *  @p epoch.  fatal() when the file cannot be written. */
void writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      Clock::time_point epoch);

/**
 * Self time per span name, summed: each span's duration minus the
 * part of it that the union of its children covers (children of a
 * grid pass run concurrently, so they can overlap each other).
 */
std::map<std::string, double> selfTimeMs(const std::vector<Span> &spans);

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);

/** Value of a registered Scalar (0 when absent). */
double scalarStat(const StatRegistry &reg, const std::string &name);

/** A registered Average / Histogram, or null. */
const Average *averageStat(const StatRegistry &reg,
                           const std::string &name);
const Histogram *histogramStat(const StatRegistry &reg,
                               const std::string &name);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/**
 * Per-pass samples of every metric, in first-recorded order.  The
 * summary statistics (median, quartiles) are left to the reporting
 * script so that one implementation computes them for every tool;
 * each series only names which statistic is its reported value.
 */
class MetricTable
{
  public:
    /** Append one sample of @p name; the first call fixes its unit,
     *  kind ("e2e", "fidelity" or "layer") and reported statistic
     *  ("median", or "min"/"max" for the best pass). */
    void add(const std::string &name, const std::string &unit,
             const std::string &kind, double value,
             const std::string &summary = "median");

    /** Render {"name": {"unit", "kind", "summary", "samples": [...]},
     *  ...}. */
    void writeJson(std::ostream &os) const;

  private:
    struct Series
    {
        std::string unit;
        std::string kind;
        std::string summary;
        std::vector<double> samples;
    };
    std::vector<std::string> order_;
    std::map<std::string, Series> series_;
};

} // namespace refsched::rsbench

#endif // REFSCHED_BENCHMARK_MEASURE_HH
