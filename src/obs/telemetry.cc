#include "obs/telemetry.hh"

#include <fstream>

#include "obs/timeline.hh"
#include "simcore/logging.hh"

namespace refsched::obs
{

void
TelemetryConfig::check() const
{
    if (!enabled)
        return;
    if (periodTicks <= 0)
        fatal("telemetry.periodTicks must be positive, got ",
              periodTicks);
}

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
    REFSCHED_ASSERT(cfg_.enabled,
                    "TelemetryRecorder built from a disabled config");
    nextSample_ = cfg_.periodTicks;
}

int
TelemetryRecorder::addSeries(std::string name, int laneId, Kind kind,
                             Sampler s)
{
    REFSCHED_ASSERT(!sealed_,
                    "addSeries after the first sample pass");
    REFSCHED_ASSERT(s != nullptr, "null telemetry sampler");
    REFSCHED_ASSERT(series_.empty()
                        || laneId >= series_.back().laneId,
                    "telemetry series must register in laneId order");
    Series ser;
    ser.name = std::move(name);
    ser.laneId = laneId;
    ser.kind = kind;
    ser.sampler = std::move(s);
    if (kind == Kind::Delta)
        ser.last = ser.sampler();
    series_.push_back(std::move(ser));
    return static_cast<int>(series_.size()) - 1;
}

void
TelemetryRecorder::reserveSamples(std::size_t passes)
{
    if (passes > kMaxSampleValues / (series_.empty() ? 1 : series_.size()))
        fatal("telemetry period ", cfg_.periodTicks, " ps needs ",
              passes, " sample passes x ", series_.size(),
              " series, over the budget of ", kMaxSampleValues,
              " sample values; use a longer period");
    passTicks_.reserve(passTicks_.size() + passes);
    values_.reserve(values_.size() + passes * series_.size());
}

void
TelemetryRecorder::samplePass(Tick stamp)
{
    sealed_ = true;
    passTicks_.push_back(stamp);
    for (auto &ser : series_) {
        const std::int64_t raw = ser.sampler();
        if (ser.kind == Kind::Delta) {
            values_.push_back(raw - ser.last);
            ser.last = raw;
        } else {
            values_.push_back(raw);
        }
    }
}

void
TelemetryRecorder::onBoundary(Tick boundary)
{
    // A window ending at `boundary` has executed every event at
    // ticks < boundary, so each period multiple m < boundary is
    // fully covered; stamp the pass with m (the period grid), the
    // values reflect the sealed window state.
    while (nextSample_ < boundary) {
        samplePass(nextSample_);
        nextSample_ += cfg_.periodTicks;
    }
}

void
TelemetryRecorder::armPeriodic(EventQueue &eq)
{
    REFSCHED_ASSERT(periodicEq_ == nullptr,
                    "armPeriodic called twice");
    periodicEq_ = &eq;
    eq.schedule(nextSample_, *this, 0, 0, EventPriority::StatDump);
}

void
TelemetryRecorder::fire(Tick now, std::uint64_t, std::uint64_t)
{
    samplePass(now);
    nextSample_ = now + cfg_.periodTicks;
    periodicEq_->schedule(nextSample_, *this, 0, 0,
                          EventPriority::StatDump);
}

void
TelemetryRecorder::restart()
{
    passTicks_.clear();
    values_.clear();
    for (auto &ser : series_)
        if (ser.kind == Kind::Delta)
            ser.last = ser.sampler();
}

void
TelemetryRecorder::writeJsonl(std::ostream &os) const
{
    os << "{\"type\": \"schema\", \"periodTicks\": "
       << cfg_.periodTicks << ", \"series\": [";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        const auto &ser = series_[i];
        os << (i ? ", " : "") << "{\"id\": " << i << ", \"lane\": "
           << ser.laneId << ", \"kind\": \""
           << (ser.kind == Kind::Delta ? "delta" : "gauge")
           << "\", \"name\": \"" << ser.name << "\"}";
    }
    os << "]}\n";
    for (std::size_t p = 0; p < passTicks_.size(); ++p) {
        os << "{\"t\": " << passTicks_[p] << ", \"v\": [";
        for (std::size_t s = 0; s < series_.size(); ++s)
            os << (s ? ", " : "") << value(p, s);
        os << "]}\n";
    }
}

void
TelemetryRecorder::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (const auto &ser : series_)
        os << "," << ser.name;
    os << "\n";
    for (std::size_t p = 0; p < passTicks_.size(); ++p) {
        os << passTicks_[p];
        for (std::size_t s = 0; s < series_.size(); ++s)
            os << "," << value(p, s);
        os << "\n";
    }
}

void
TelemetryRecorder::writeFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot open telemetry file for writing: ", path);
    const bool csv = path.size() >= 4
        && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeCsv(f);
    else
        writeJsonl(f);
    f.flush();
    if (!f)
        fatal("error writing telemetry file: ", path);
}

void
TelemetryRecorder::exportCounters(TimelineRecorder &tl) const
{
    for (std::size_t p = 0; p < passTicks_.size(); ++p)
        for (std::size_t s = 0; s < series_.size(); ++s)
            tl.addCounter(passTicks_[p], series_[s].name,
                          value(p, s));
}

} // namespace refsched::obs
