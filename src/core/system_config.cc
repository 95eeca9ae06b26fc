#include "core/system_config.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::core
{

std::string
toString(Policy p)
{
    switch (p) {
      case Policy::AllBank:
        return "all-bank";
      case Policy::PerBank:
        return "per-bank";
      case Policy::PerBankOoo:
        return "per-bank-ooo";
      case Policy::Ddr4x2:
        return "ddr4-2x";
      case Policy::Ddr4x4:
        return "ddr4-4x";
      case Policy::Adaptive:
        return "adaptive";
      case Policy::CoDesign:
        return "co-design";
      case Policy::NoRefresh:
        return "no-refresh";
    }
    return "unknown";
}

void
SystemConfig::applyPolicy(Policy p)
{
    policy = p;
    if (p == Policy::CoDesign) {
        partitioning = Partitioning::Soft;
        refreshAwareScheduling = true;
    } else {
        partitioning = Partitioning::None;
        refreshAwareScheduling = false;
    }
}

dram::RefreshPolicy
SystemConfig::refreshPolicy() const
{
    switch (policy) {
      case Policy::AllBank:
      case Policy::Ddr4x2:
      case Policy::Ddr4x4:
        return dram::RefreshPolicy::AllBank;
      case Policy::PerBank:
        return dram::RefreshPolicy::PerBankRoundRobin;
      case Policy::PerBankOoo:
        return dram::RefreshPolicy::OooPerBank;
      case Policy::Adaptive:
        return dram::RefreshPolicy::Adaptive;
      case Policy::CoDesign:
        return dram::RefreshPolicy::SequentialPerBank;
      case Policy::NoRefresh:
        return dram::RefreshPolicy::NoRefresh;
    }
    fatal("unknown policy");
}

dram::FgrMode
SystemConfig::fgrMode() const
{
    switch (policy) {
      case Policy::Ddr4x2:
        return dram::FgrMode::x2;
      case Policy::Ddr4x4:
        return dram::FgrMode::x4;
      default:
        return dram::FgrMode::x1;
    }
}

dram::DramDeviceConfig
SystemConfig::deviceConfig() const
{
    auto cfg = dram::makeDdr3_1600(density, tREFW, timeScale, fgrMode());
    cfg.org.channels = channels;
    cfg.org.ranksPerChannel = ranksPerChannel;
    cfg.org.banksPerRank = banksPerRank;
    cfg.org.xorBankHash = xorBankHash;
    cfg.org.check();
    return cfg;
}

Tick
SystemConfig::effectiveQuantum() const
{
    if (quantum != 0)
        return quantum;
    // The paper's alignment: one quantum per per-bank refresh slot
    // (64 ms / 16 banks = 4 ms; 32 ms / 16 banks = 2 ms).  Channels
    // refresh in lock-step, so only banks-per-channel matters.
    const Tick scaledWindow = tREFW / timeScale;
    return scaledWindow
        / static_cast<Tick>(ranksPerChannel * banksPerRank);
}

int
SystemConfig::effectiveBanksPerTask() const
{
    if (banksPerTaskPerRank > 0)
        return banksPerTaskPerRank;
    // Paper rule (sections 6.2/6.6): leave each task out of exactly
    // the share of banks its siblings can cover, i.e. 6 of 8 at 1:4
    // and 4 of 8 at 1:2.
    const int excluded = banksPerRank / tasksPerCore;
    return std::max(1, banksPerRank - std::max(1, excluded));
}

void
SystemConfig::check() const
{
    if (numCores < 1 || tasksPerCore < 1)
        fatal("need at least one core and one task per core");
    if (!benchmarks.empty()
        && static_cast<int>(benchmarks.size()) != totalTasks()) {
        fatal("benchmark list size ", benchmarks.size(),
              " does not match task count ", totalTasks());
    }
    if (partitioning != Partitioning::None
        && effectiveBanksPerTask() > banksPerRank) {
        fatal("banksPerTaskPerRank exceeds banks per rank");
    }
    if (refreshAwareScheduling
        && policy != Policy::CoDesign) {
        fatal("refresh-aware scheduling requires the co-design "
              "refresh schedule");
    }
    if (etaThresh < 1)
        fatal("etaThresh must be >= 1");
    if (shards < 0)
        fatal("shards must be >= 0 (0 = legacy kernel)");
    serving.check();
    telemetry.check();
}

} // namespace refsched::core
