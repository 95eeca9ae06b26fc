#include "workload/serving.hh"

#include <algorithm>
#include <sstream>

#include "os/task.hh"
#include "simcore/logging.hh"

namespace refsched::workload
{

void
ServingConfig::check() const
{
    if (!enabled)
        return;
    if (loadReqPerUs <= 0.0)
        fatal("serving load must be > 0 req/us, got ", loadReqPerUs);
    if (meanGapTicks() < 1.0)
        fatal("serving load ", loadReqPerUs,
              " req/us exceeds one request per tick");
    if (poolSize < 1)
        fatal("serving pool must be >= 1, got ", poolSize);
    if (queueCapacity < 0)
        fatal("serving queue must be >= 0, got ", queueCapacity);
    if (linesPerRequest < 1)
        fatal("serving lines must be >= 1, got ", linesPerRequest);
    shape.check();
}

ServingConfig
ServingConfig::parse(const std::string &spec)
{
    ServingConfig cfg;
    cfg.enabled = true;
    std::istringstream is(spec);
    std::string kv;
    while (std::getline(is, kv, ',')) {
        if (kv.empty())
            continue;
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("serving spec entry has no '=': ", kv);
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "arrival")
            cfg.shape.kind = arrivalKindFromString(val);
        else if (key == "load")
            cfg.loadReqPerUs = std::stod(val);
        else if (key == "pool")
            cfg.poolSize = std::stoi(val);
        else if (key == "queue")
            cfg.queueCapacity = std::stoi(val);
        else if (key == "lines")
            cfg.linesPerRequest = std::stoi(val);
        else if (key == "burst-ratio")
            cfg.shape.burstRatio = std::stod(val);
        else if (key == "burst-frac")
            cfg.shape.burstFraction = std::stod(val);
        else if (key == "burst-dwell")
            cfg.shape.burstDwellArrivals = std::stod(val);
        else
            fatal("unknown serving spec key: ", key);
    }
    cfg.check();
    return cfg;
}

std::string
ServingConfig::serialize() const
{
    std::ostringstream os;
    os << "arrival=" << toString(shape.kind) << ",load=" << loadReqPerUs
       << ",pool=" << poolSize << ",queue=" << queueCapacity
       << ",lines=" << linesPerRequest;
    if (shape.kind == ArrivalKind::Mmpp) {
        os << ",burst-ratio=" << shape.burstRatio
           << ",burst-frac=" << shape.burstFraction
           << ",burst-dwell=" << shape.burstDwellArrivals;
    }
    return os.str();
}

ServingInjector::ServingInjector(const ServingConfig &cfg,
                                 EventQueue &eq,
                                 memctrl::MemoryPort &mem, Hooks hooks,
                                 std::uint64_t seed)
    : cfg_(cfg), eq_(eq), mem_(mem), hooks_(std::move(hooks)),
      arrivalGen_(cfg.shape, cfg.meanGapTicks(), seed, eq.now()),
      taskPick_(seed, rngstream::kServingTask),
      addrPick_(seed, rngstream::kServingAddr)
{
    cfg_.check();
    REFSCHED_ASSERT(cfg_.enabled, "injector built from disabled config");
    REFSCHED_ASSERT(hooks_.liveTasks && hooks_.footprintBytes
                        && hooks_.translate,
                    "serving injector hooks incomplete");
    slots_.resize(static_cast<std::size_t>(cfg_.poolSize));
    for (auto &s : slots_)
        s.paddrs.resize(static_cast<std::size_t>(cfg_.linesPerRequest));
    lineBlocked_.assign(static_cast<std::size_t>(cfg_.poolSize)
                            * static_cast<std::size_t>(
                                cfg_.linesPerRequest),
                        0);
    scheduleNextArrival();
}

void
ServingInjector::registerStats(StatRegistry &reg,
                               const std::string &prefix)
{
    reg.add(prefix + ".arrivals", &arrivals_);
    reg.add(prefix + ".drops", &drops_);
    reg.add(prefix + ".completed", &completed_);
    reg.add(prefix + ".backlogPeak", &backlogPeak_);
    reg.add(prefix + ".retryWaits", &retryWaits_);
    reg.add(prefix + ".queueDelay", &queueDelay_);
    reg.add(prefix + ".reqLatency", &latAll_);
    reg.add(prefix + ".reqLatencyClean", &latClean_);
    reg.add(prefix + ".reqLatencyBlocked", &latBlocked_);
}

void
ServingInjector::scheduleNextArrival()
{
    // The arrival process is strictly increasing and next() is
    // called while handling the previous arrival (or at t=0 from the
    // constructor), so the timestamp is always in the future.
    eq_.schedule(arrivalGen_.next(), *this, kArrivalCookie, 0);
}

void
ServingInjector::fire(Tick now, std::uint64_t a0, std::uint64_t a1)
{
    if (a0 == kArrivalCookie) {
        onArrival(now);
        return;
    }
    onLineDone(now, static_cast<std::size_t>(a0),
               static_cast<std::size_t>(a1));
}

int
ServingInjector::findFreeSlot() const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].busy)
            return static_cast<int>(i);
    }
    return -1;
}

void
ServingInjector::onArrival(Tick now)
{
    ++arrivals_;
    const int slot = findFreeSlot();
    if (slot >= 0) {
        startService(static_cast<std::size_t>(slot), now, now);
    } else if (backlog_.size()
               < static_cast<std::size_t>(cfg_.queueCapacity)) {
        backlog_.push_back(now);
        backlogPeak_.set(std::max(backlogPeak_.value(),
                                  static_cast<double>(backlog_.size())));
    } else {
        // Open loop: the client gave up; the system never sees this
        // request.  Load beyond saturation shows up here, not as an
        // unbounded latency integral.
        ++drops_;
    }
    scheduleNextArrival();
}

void
ServingInjector::startService(std::size_t slot, Tick arrivalTick,
                              Tick now)
{
    const auto &live = hooks_.liveTasks();
    if (live.empty()) {
        // Nothing to serve against (all tenants churned away);
        // account the request as shed rather than wedge the slot.
        ++drops_;
        return;
    }
    Slot &s = slots_[slot];
    s.busy = true;
    s.arrivalTick = arrivalTick;
    s.startTick = now;
    s.linesDone = 0;
    s.nextIssue = 0;
    queueDelay_.sample(static_cast<double>(now - arrivalTick));

    // Pick the target task at service start (it is live right now,
    // so demand-paged translation below never allocates for a dead
    // task) and pre-translate every line: no translation happens
    // after this event, however late the reads issue or complete.
    os::Task &task = *live[taskPick_.below(live.size())];
    s.pid = task.pid();
    const std::uint64_t lines = std::max<std::uint64_t>(
        hooks_.footprintBytes(task) / 64, 1);
    for (int i = 0; i < cfg_.linesPerRequest; ++i) {
        const Addr vaddr = addrPick_.below(lines) * 64;
        s.paddrs[static_cast<std::size_t>(i)] =
            hooks_.translate(task, vaddr);
        lineBlocked_[slot * static_cast<std::size_t>(
                         cfg_.linesPerRequest)
                     + static_cast<std::size_t>(i)] = 0;
    }
    issueLines(slot);
}

void
ServingInjector::issueLines(std::size_t slot)
{
    Slot &s = slots_[slot];
    while (s.nextIssue < cfg_.linesPerRequest) {
        const auto line = static_cast<std::size_t>(s.nextIssue);
        memctrl::Request req;
        req.paddr = s.paddrs[line];
        req.type = memctrl::Request::Type::Read;
        req.coreId = -1;
        req.pid = s.pid;
        req.completion = this;
        req.cookie0 = slot;
        req.cookie1 = line;
        req.blockedOut =
            &lineBlocked_[slot
                              * static_cast<std::size_t>(
                                  cfg_.linesPerRequest)
                          + line];
        if (!mem_.enqueue(req)) {
            armRetry();
            return;
        }
        ++s.nextIssue;
    }
}

void
ServingInjector::armRetry()
{
    if (retryArmed_)
        return;
    retryArmed_ = true;
    ++retryWaits_;
    mem_.requestRetryNotification([this] {
        retryArmed_ = false;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].busy
                && slots_[i].nextIssue < cfg_.linesPerRequest)
                issueLines(i);
        }
    });
}

void
ServingInjector::onLineDone(Tick now, std::size_t slot,
                            std::size_t line)
{
    (void)line;
    Slot &s = slots_[slot];
    REFSCHED_ASSERT(s.busy, "serving completion for idle slot ", slot);
    if (++s.linesDone < cfg_.linesPerRequest)
        return;

    bool blocked = false;
    for (int i = 0; i < cfg_.linesPerRequest; ++i) {
        blocked |= lineBlocked_[slot
                                    * static_cast<std::size_t>(
                                        cfg_.linesPerRequest)
                                + static_cast<std::size_t>(i)]
            != 0;
    }
    const auto latency = static_cast<double>(now - s.arrivalTick);
    latAll_.sample(latency);
    (blocked ? latBlocked_ : latClean_).sample(latency);
    ++completed_;
    s.busy = false;

    // Pull queued arrivals into the freed slot (FIFO).  startService
    // can shed a request when no task is live, so keep pulling until
    // the slot is occupied or the backlog drains.
    while (!backlog_.empty() && !s.busy) {
        const Tick arrivedAt = backlog_.front();
        backlog_.pop_front();
        startService(slot, arrivedAt, now);
    }
}

} // namespace refsched::workload
