/**
 * @file
 * Open-loop serving latency sweep: offered load vs request tail
 * latency (p50/p95/p99/p999), split clean vs refresh-blocked, for
 * the refresh policies on 1/4/8-channel configurations.
 *
 * This is the paper's story told through a serving lens: closed-loop
 * IPC hides refresh stalls in throughput averages, but an open-loop
 * arrival process exposes them as tail amplification -- the latency
 * hockey stick bends earlier and the blocked-tail gap widens as
 * offered load approaches the refresh-diminished service capacity.
 * Co-design keeps scheduled tasks off refreshing banks, so its
 * blocked tail stays near the clean one at mid load.
 *
 * Row per (channels, policy, load); latencies in nanoseconds.
 */

#include "bench_util.hh"

#include "workload/serving.hh"

using namespace refsched;
using namespace refsched::bench;
using core::Policy;

namespace
{

struct CellOut
{
    std::uint64_t arrivals = 0;
    std::uint64_t drops = 0;
    std::uint64_t completed = 0;
    std::uint64_t blocked = 0;
    // Quantiles in ticks (ps).
    double all50 = 0, all95 = 0, all99 = 0, all999 = 0;
    double clean50 = 0, clean99 = 0, clean999 = 0;
    double blk50 = 0, blk99 = 0, blk999 = 0;
    // Per-channel read-queue depth over the measured interval:
    // time-weighted mean (occupancy integral / measured ticks) and
    // peak.  Queue pressure is where the hockey stick actually
    // forms, so the tables carry it next to the tails.
    std::vector<double> qMean;
    std::vector<std::uint64_t> qPeak;
};

std::string
ns(double ticks)
{
    return core::fmt(ticks / 1000.0, 1);
}

/** Per-channel values joined "a/b/..." (one channel: just "a"). */
std::string
joinPerChannel(const std::vector<std::string> &vals)
{
    std::string out;
    for (std::size_t i = 0; i < vals.size(); ++i)
        out += (i ? "/" : "") + vals[i];
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = parseArgs(argc, argv);
    const auto density = dram::DensityGb::d32;

    // Offered loads in requests/us, spanning the knee.  The exact
    // knee position depends on --scale; this range covers it for the
    // default bench scale on WL-5.
    const std::vector<double> loads = {0.05, 0.1, 0.2, 0.4,
                                       0.8,  1.6, 3.2};
    const std::vector<Policy> policies = {
        Policy::CoDesign, Policy::AllBank, Policy::PerBank};
    std::vector<int> channelCfgs = {1, 4};
    if (opts.full)
        channelCfgs.push_back(8);

    std::cout << "Serving sweep: open-loop offered load vs request "
                 "latency quantiles (ns),\nclean vs refresh-blocked, "
                 "WL-5 @ 32Gb\n\n";

    GridRunner grid(opts);
    struct CellRef
    {
        int channels;
        Policy policy;
        double load;
        std::size_t idx;
    };
    std::vector<CellRef> refs;
    // Results are filled in by the cell thunks; sized up front so
    // worker threads write disjoint slots.
    auto outs = std::make_shared<std::vector<CellOut>>(
        channelCfgs.size() * policies.size() * loads.size());

    std::size_t slot = 0;
    for (int channels : channelCfgs) {
        for (Policy policy : policies) {
            for (double load : loads) {
                core::SystemConfig cfg = core::makeConfig(
                    "WL-5", policy, density, milliseconds(64.0),
                    /*numCores=*/2, /*tasksPerCore=*/4,
                    opts.timeScale);
                cfg.channels = channels;
                cfg.serving = workload::ServingConfig::parse(
                    "arrival=mmpp,load=" + std::to_string(load)
                    + ",pool=8,queue=64,lines=4");
                CellOut *out = &(*outs)[slot];
                const std::size_t idx =
                    grid.add([cfg, &opts, out, outs] {
                        core::System sys(cfg);
                        const auto m = sys.run(opts.warmupQuanta,
                                               opts.measureQuanta);
                        const auto *inj = sys.servingInjector();
                        const auto &all = inj->latency();
                        const auto &cl = inj->latencyClean();
                        const auto &bl = inj->latencyBlocked();
                        out->arrivals = inj->arrivals();
                        out->drops = inj->dropped();
                        out->completed = inj->completed();
                        out->blocked = bl.samples();
                        out->all50 = all.quantile(0.50);
                        out->all95 = all.quantile(0.95);
                        out->all99 = all.quantile(0.99);
                        out->all999 = all.quantile(0.999);
                        out->clean50 = cl.quantile(0.50);
                        out->clean99 = cl.quantile(0.99);
                        out->clean999 = cl.quantile(0.999);
                        out->blk50 = bl.quantile(0.50);
                        out->blk99 = bl.quantile(0.99);
                        out->blk999 = bl.quantile(0.999);
                        auto &mc = sys.controller();
                        for (int ch = 0; ch < cfg.channels; ++ch) {
                            out->qMean.push_back(
                                mc.readQueueOccupancyIntegral(ch)
                                / static_cast<double>(
                                    m.measuredTicks));
                            out->qPeak.push_back(
                                mc.readQueuePeakDepth(ch));
                        }
                        return m;
                    });
                refs.push_back({channels, policy, load, idx});
                ++slot;
            }
        }
    }
    grid.run();

    for (int channels : channelCfgs) {
        core::Table table(
            {"policy", "load r/us", "arrivals", "drop%", "blocked%",
             "p50", "p95", "p99", "p999", "clean p99", "clean p999",
             "blocked p99", "blocked p999", "rdQ mean", "rdQ peak"});
        for (std::size_t i = 0; i < refs.size(); ++i) {
            if (refs[i].channels != channels)
                continue;
            const CellOut &o = (*outs)[i];
            const double dropPct = o.arrivals
                ? 100.0 * static_cast<double>(o.drops)
                    / static_cast<double>(o.arrivals)
                : 0.0;
            const double blkPct = o.completed
                ? 100.0 * static_cast<double>(o.blocked)
                    / static_cast<double>(o.completed)
                : 0.0;
            std::vector<std::string> qMeans, qPeaks;
            for (std::size_t ch = 0; ch < o.qMean.size(); ++ch) {
                qMeans.push_back(core::fmt(o.qMean[ch], 2));
                qPeaks.push_back(std::to_string(o.qPeak[ch]));
            }
            table.addRow({core::toString(refs[i].policy),
                          core::fmt(refs[i].load, 2),
                          std::to_string(o.arrivals),
                          core::fmt(dropPct, 1),
                          core::fmt(blkPct, 1), ns(o.all50),
                          ns(o.all95), ns(o.all99), ns(o.all999),
                          ns(o.clean99), ns(o.clean999),
                          ns(o.blk99), ns(o.blk999),
                          joinPerChannel(qMeans),
                          joinPerChannel(qPeaks)});
        }
        std::cout << "channels=" << channels << "\n";
        emit(opts, table,
             "serving_ch" + std::to_string(channels));
        std::cout << "\n";
    }

    std::cout << "Expected shape: latency flat at low load, hockey-"
                 "stick once offered load\napproaches refresh-"
                 "diminished capacity; co-design's blocked tail "
                 "stays closest\nto its clean tail at mid load.\n";
    return 0;
}
