/**
 * @file
 * Fan-out of independent experiment cells over worker threads.
 *
 * Every figure/ablation bench evaluates a grid of fully independent,
 * deterministic simulation cells (workload x policy x density x ...).
 * parallelFor runs such a grid across worker threads; each cell is
 * an isolated System (own EventQueue, own RNG seeded from its
 * config), workers share nothing but the index cursor, and callers
 * write each result into the slot of its index.  The output is
 * therefore byte-identical for any thread count; one worker executes
 * inline on the calling thread, reproducing the historical
 * sequential behaviour exactly.
 */

#ifndef REFSCHED_CORE_PARALLEL_RUNNER_HH
#define REFSCHED_CORE_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>

namespace refsched::core
{

/**
 * Invoke @p fn once for every index in [0, n) on min(@p jobs, n)
 * workers; @p jobs <= 0 selects hardware_concurrency (at least 1).
 * With one worker every call runs inline on the calling thread and
 * no thread is started; otherwise workers claim indices in order
 * from one shared atomic cursor.  @p fn must be safe to invoke
 * concurrently for distinct indices.  If calls throw, every other
 * index still runs and the first exception is rethrown once all
 * workers have joined.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace refsched::core

#endif // REFSCHED_CORE_PARALLEL_RUNNER_HH
