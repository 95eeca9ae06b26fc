/**
 * @file
 * Extending the library: a user-defined refresh scheduler plugged
 * into the memory controller through the public RefreshScheduler
 * interface.
 *
 * The toy policy below ("SkewedPerBank") is a per-bank scheduler
 * that refreshes even banks first and odd banks second within each
 * window -- a stand-in for whatever a researcher might want to try.
 * The example wires it into a MemoryController directly (the level
 * below core::System), drives open-loop traffic, and compares it
 * against the stock per-bank round-robin policy.
 */

#include <iostream>

#include "core/report.hh"
#include "dram/refresh_scheduler.hh"
#include "memctrl/memory_controller.hh"
#include "simcore/rng.hh"

using namespace refsched;

namespace
{

/** Per-bank refresh over even banks first, then odd banks. */
class SkewedPerBank final : public dram::RefreshScheduler
{
  public:
    explicit SkewedPerBank(const dram::DramDeviceConfig &cfg)
        : dram::RefreshScheduler(cfg),
          tREFIpb_(cfg.timings.tREFIpb(banksPerChannel_)),
          cmdIndex_(static_cast<std::size_t>(cfg.org.channels), 0)
    {
    }

    dram::RefreshPolicy
    policy() const override
    {
        // Custom policies piggyback on an existing tag for stats;
        // a production extension would add its own enumerator.
        return dram::RefreshPolicy::PerBankRoundRobin;
    }

    Tick
    nextDue(int channel) const override
    {
        return cmdIndex_[static_cast<std::size_t>(channel)] * tREFIpb_;
    }

    dram::RefreshCommand
    pop(int channel, const dram::McRefreshView &) override
    {
        auto &idx = cmdIndex_[static_cast<std::size_t>(channel)];
        const auto n =
            static_cast<std::uint64_t>(banksPerChannel_);
        const auto slot = idx % n;
        // Evens first (0,2,4,...), then odds (1,3,5,...).
        const auto bank = slot < n / 2 ? 2 * slot
                                       : 2 * (slot - n / 2) + 1;
        dram::RefreshCommand cmd;
        cmd.rank = static_cast<int>(bank) / banksPerRank_;
        cmd.bank = static_cast<int>(bank) % banksPerRank_;
        cmd.rows = cfg_.timings.rowsPerRefresh;
        cmd.tRFC = cfg_.timings.tRFCpb;
        ++idx;
        return cmd;
    }

  private:
    Tick tREFIpb_;
    std::vector<std::uint64_t> cmdIndex_;
};

/** Completion receiver: cookie0 carries the send tick. */
struct LatencyAccumulator : Callee
{
    double latSum = 0.0;
    std::uint64_t completed = 0;

    void
    fire(Tick now, std::uint64_t sent, std::uint64_t) override
    {
        latSum += static_cast<double>(now - static_cast<Tick>(sent));
        ++completed;
    }
};

/** Open-loop injector: one random read every period, rescheduling
 *  itself as the next event. */
struct Injector : Callee
{
    memctrl::MemoryController &mc;
    EventQueue &eq;
    const dram::DramDeviceConfig &dev;
    LatencyAccumulator &acc;
    Rng rng{42};
    Tick period = nanoseconds(25.0);

    Injector(memctrl::MemoryController &m, EventQueue &q,
             const dram::DramDeviceConfig &d, LatencyAccumulator &a)
        : mc(m), eq(q), dev(d), acc(a)
    {
    }

    void
    fire(Tick now, std::uint64_t, std::uint64_t) override
    {
        memctrl::Request r;
        r.paddr = rng.below(dev.org.totalBytes() / 64) * 64;
        r.type = memctrl::Request::Type::Read;
        r.completion = &acc;
        r.cookie0 = static_cast<std::uint64_t>(now);
        mc.enqueue(std::move(r));
        eq.schedule(now + period, *this, 0, 0);
    }
};

/** Open-loop random read traffic; returns average latency in ns. */
double
drive(memctrl::MemoryController &mc, EventQueue &eq,
      const dram::DramDeviceConfig &dev)
{
    LatencyAccumulator acc;
    Injector inject(mc, eq, dev, acc);
    eq.schedule(0, inject, 0, 0);
    eq.runUntil(dev.timings.tREFW);

    return acc.completed
        ? acc.latSum / static_cast<double>(acc.completed) / 1000.0
        : 0.0;
}

} // namespace

int
main()
{
    std::cout << "Custom refresh policy demo: SkewedPerBank vs stock "
                 "per-bank round-robin\n\n";

    core::Table table({"policy", "avg read latency (ns)"});

    {
        const auto dev = dram::makeDdr3_1600(
            dram::DensityGb::d32, milliseconds(64.0), 64);
        EventQueue eq;
        memctrl::MemoryController mc(
            eq, dev,
            dram::makeRefreshScheduler(
                dram::RefreshPolicy::PerBankRoundRobin, dev));
        table.addRow({"per-bank round-robin",
                      core::fmt(drive(mc, eq, dev), 1)});
    }
    {
        const auto dev = dram::makeDdr3_1600(
            dram::DensityGb::d32, milliseconds(64.0), 64);
        EventQueue eq;
        memctrl::MemoryController mc(
            eq, dev, std::make_unique<SkewedPerBank>(dev));
        table.addRow(
            {"skewed per-bank", core::fmt(drive(mc, eq, dev), 1)});
    }

    table.print(std::cout);
    std::cout << "\nBoth schedules refresh every bank fully per "
                 "window; only the *order* differs,\nso latencies "
                 "should be close -- the point is how little code a "
                 "new policy needs.\n";
    return 0;
}
