#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>

#include "obs/json.hh"
#include "simcore/logging.hh"

namespace refsched::rsbench
{

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int mine = next++;
    return mine;
}

int
nextSpanId()
{
    static std::atomic<int> next{1};
    return next++;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 Clock::time_point epoch)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write ", path);
    const auto us = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch)
            .count();
    };
    os << std::fixed << std::setprecision(3)
       << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \""
           << obs::jsonEscape(s.name) << "\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << s.tid << ", \"ts\": " << us(s.start)
           << ", \"dur\": " << us(s.end) - us(s.start)
           << ", \"args\": {\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"detail\": \""
           << obs::jsonEscape(s.detail) << "\"}}";
    }
    os << "\n]}\n";
}

std::map<std::string, double>
selfTimeMs(const std::vector<Span> &spans)
{
    std::map<int, std::vector<const Span *>> children;
    for (const Span &s : spans)
        children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : spans) {
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const Span *c : children[s.id])
            iv.emplace_back(std::max(c->start, s.start),
                            std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const auto from = std::max(a, reach);
            if (b > from) {
                covered += msBetween(from, b);
                reach = b;
            }
        }
        self[s.name] += msBetween(s.start, s.end) - covered;
    }
    return self;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
scalarStat(const StatRegistry &reg, const std::string &name)
{
    const auto *s = dynamic_cast<const Scalar *>(reg.find(name));
    return s ? s->value() : 0.0;
}

const Average *
averageStat(const StatRegistry &reg, const std::string &name)
{
    return dynamic_cast<const Average *>(reg.find(name));
}

const Histogram *
histogramStat(const StatRegistry &reg, const std::string &name)
{
    return dynamic_cast<const Histogram *>(reg.find(name));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
MetricTable::add(const std::string &name, const std::string &unit,
                 const std::string &kind, double value,
                 const std::string &summary)
{
    auto [it, fresh] = series_.try_emplace(name);
    if (fresh) {
        order_.push_back(name);
        it->second.unit = unit;
        it->second.kind = kind;
        it->second.summary = summary;
    }
    it->second.samples.push_back(value);
}

void
MetricTable::writeJson(std::ostream &os) const
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{";
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const Series &s = series_.at(order_[i]);
        os << (i ? ",\n" : "\n") << "    \"" << order_[i]
           << "\": {\"unit\": \"" << s.unit << "\", \"kind\": \""
           << s.kind << "\", \"summary\": \"" << s.summary
           << "\", \"samples\": [";
        // JSON has no inf/nan; null makes the reporter reject the run.
        for (std::size_t k = 0; k < s.samples.size(); ++k) {
            os << (k ? ", " : "");
            if (std::isfinite(s.samples[k]))
                os << s.samples[k];
            else
                os << "null";
        }
        os << "]}";
    }
    os << "\n  }";
}

} // namespace refsched::rsbench
