/**
 * @file
 * The benchmark's four workloads and the code that runs one pass of
 * a workload's cells through the simulator's public API.
 *
 *   paper-grid     closed loop, legacy kernel: the Fig. 10 grid, all
 *                  ten Table 2 workloads x {all-bank, per-bank,
 *                  co-design} x {16, 24, 32} Gb, on GridRunner with
 *                  4 jobs
 *   sharded-8c4ch  closed loop, sharded kernel: WL-10 on 8 cores x 4
 *                  tasks over 4 channels, 2 phase-B workers
 *   serving-mmpp   open loop: MMPP serving over WL-5 background
 *                  tasks, {co-design, all-bank} x {0.8, 3.2} req/us
 *   churn-migrate  closed loop with tenant churn generated from the
 *                  seed, page migration and telemetry artifacts
 *
 * README.md records why each was chosen and what it must move.
 */

#ifndef REFSCHED_BENCHMARK_WORKLOADS_HH
#define REFSCHED_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/system_config.hh"
#include "measure.hh"
#include "simcore/shard_kernel.hh"

namespace refsched::rsbench
{

/** One simulation of a pass: a configuration plus what to measure
 *  around it. */
struct CellSpec
{
    std::string label;
    core::SystemConfig cfg;
    int warmupQuanta = 8;
    int measureQuanta = 16;
    /** Arm ShardKernel::enableProfile before the run. */
    bool profileKernel = false;
    /** After the run, time Scheduler::pickNextTask and
     *  BuddyAllocator::allocPage/freePage on the live system. */
    bool postRunCalls = false;
    /** Non-empty: write the stats JSON (and the telemetry JSONL when
     *  telemetry is on) to files starting with this prefix. */
    std::string artifactPrefix;
};

/** What one cell measured.  `stat` holds registry counters summed
 *  over channels and cores (peaks and quantiles are per cell). */
struct CellOut
{
    core::Policy policy = core::Policy::AllBank;
    dram::DensityGb density = dram::DensityGb::d32;
    std::string workload;
    double servingLoad = 0.0;  ///< req/us, 0 without serving
    int servingSlots = 0;      ///< pool + queue
    int numCores = 0;
    int channels = 0;

    int tid = 0;
    Clock::time_point start, built, ran, end;
    double warmupMs = 0.0;
    double measureMs = 0.0;
    double telemetryMs = 0.0;
    double telemetryBytes = 0.0;
    double statsJsonMs = 0.0;
    double statsJsonBytes = 0.0;
    double pickNs = 0.0;
    double allocFreeNs = 0.0;
    std::optional<ShardKernel::KernelProfile> kernel;
    std::vector<Span> spans;

    core::Metrics m;
    std::uint64_t hash = 0;
    double events = 0.0;
    double quanta = 0.0;
    double simTicks = 0.0;
    std::map<std::string, double> stat;

    double setupMs() const { return msBetween(start, built); }
    double runMs() const { return msBetween(built, ran); }
    double totalMs() const { return msBetween(start, end); }
    double get(const std::string &k) const
    {
        const auto it = stat.find(k);
        return it == stat.end() ? 0.0 : it->second;
    }
};

struct PassOut
{
    Clock::time_point start, end;
    int spanId = 0;
    std::vector<CellOut> cells;

    double wallMs() const { return msBetween(start, end); }
};

/** Run @p specs as one pass on @p jobs GridRunner workers; with
 *  @p setupOnly each cell only constructs its System.  Cells record
 *  their spans either way; a traced run writes them out. */
PassOut runPass(const std::vector<CellSpec> &specs, int jobs,
                bool setupOnly = false);

struct Workload
{
    std::string name;
    std::string loop;  ///< "closed" or "open"
    unsigned scale = 0;
    int jobs = 1;
    /** Host threads the workload runs on, main thread included. */
    int threads = 1;
    std::vector<CellSpec> cells;
    /** The untimed first pass.  For sharded-8c4ch it is the
     *  sequential (shards=1) twin, whose outputs must match. */
    std::vector<CellSpec> warmupCells;
};

struct WorkloadParams
{
    std::uint64_t seed = 1;
    bool smoke = false;
    bool trace = false;
    std::string artifactDir;
};

const std::vector<std::string> &workloadNames();

/** Build @p name's cells; fatal() on an unknown name. */
Workload makeWorkload(const std::string &name, const WorkloadParams &p);

/** The seed-generated churn script of churn-migrate (text form). */
std::string churnScript(std::uint64_t seed,
                        const std::vector<std::string> &initial,
                        int totalQuanta);

} // namespace refsched::rsbench

#endif // REFSCHED_BENCHMARK_WORKLOADS_HH
