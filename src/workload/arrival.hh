/**
 * @file
 * Deterministic arrival processes for open-loop serving workloads.
 *
 * An ArrivalProcess turns (seed, offered load) into a reproducible
 * sequence of request timestamps.  Two processes are provided:
 *
 *  - Poisson: i.i.d. exponential interarrivals at the offered rate;
 *    the memoryless baseline (interarrival CV = 1).
 *  - Mmpp: a 2-state Markov-modulated Poisson process -- a burst
 *    state running at burstRatio x the base rate and a quiet state
 *    running below it, with exponentially distributed dwell times
 *    chosen so the long-run average still meets the offered rate.
 *    Burstiness shows up as interarrival CV > 1 and is what makes
 *    p999 interesting at moderate utilization.
 *
 * All randomness comes from CounterRng streams (rngstream::kArrival
 * for interarrivals, rngstream::kArrivalPhase for MMPP dwells), so
 * the generated timestamp sequence is a pure function of the seed --
 * independent of jobs/shards partitioning and of any other
 * generator's draw order.
 */

#ifndef REFSCHED_WORKLOAD_ARRIVAL_HH
#define REFSCHED_WORKLOAD_ARRIVAL_HH

#include <cstdint>
#include <string>

#include "simcore/rng.hh"
#include "simcore/types.hh"

namespace refsched::workload
{

enum class ArrivalKind
{
    Poisson,
    Mmpp,
};

std::string toString(ArrivalKind k);

/** Parse "poisson" / "mmpp"; fatal() on anything else. */
ArrivalKind arrivalKindFromString(const std::string &s);

/**
 * Shape parameters of an arrival process.  The offered load itself
 * (mean interarrival in ticks) is passed to the generator separately
 * so one shape can be swept across load levels.
 */
struct ArrivalShape
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** MMPP only: burst-state rate as a multiple of the base rate
     *  (> 1). */
    double burstRatio = 4.0;

    /** MMPP only: long-run fraction of time spent in the burst
     *  state (in (0, 1)). */
    double burstFraction = 0.1;

    /** MMPP only: mean dwell in the burst state, expressed in mean
     *  interarrivals of the *offered* rate (so bursts hold several
     *  requests regardless of load level). */
    double burstDwellArrivals = 64.0;

    void check() const;
};

/**
 * Generator of one deterministic arrival-timestamp sequence.
 *
 * next() returns strictly increasing ticks; each call advances the
 * process by one exponential interarrival (and, for MMPP, through
 * any state switches that fall inside it).
 */
class ArrivalProcess
{
  public:
    /**
     * @param shape     process shape (validated with check())
     * @param meanGapTicks  mean interarrival time in ticks at the
     *                  offered rate; must be >= 1
     * @param seed      workload seed; together with the fixed stream
     *                  keys this fully determines the sequence
     * @param startTick timestamp the sequence starts from
     */
    ArrivalProcess(const ArrivalShape &shape, double meanGapTicks,
                   std::uint64_t seed, Tick startTick);

    /** Timestamp of the next arrival (strictly increasing). */
    Tick next();

    /** Arrivals generated so far. */
    std::uint64_t generated() const { return generated_; }

  private:
    double expDraw(CounterRng &rng, double mean);

    /** Advance MMPP state machine to cover @p now; returns the
     *  current state's rate multiplier. */
    double currentRateMul(double now);

    ArrivalShape shape_;
    double meanGap_;
    CounterRng gaps_;
    CounterRng dwells_;
    double now_;
    Tick lastTick_ = 0;
    std::uint64_t generated_ = 0;

    // MMPP modulation: piecewise-constant rate; state switches are
    // drawn lazily as arrivals cross the next switch boundary.
    bool inBurst_ = false;
    double stateUntil_ = 0.0;
    double burstMul_ = 1.0;
    double quietMul_ = 1.0;
    double burstDwell_ = 0.0;
    double quietDwell_ = 0.0;
};

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_ARRIVAL_HH
