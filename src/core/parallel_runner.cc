#include "core/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace refsched::core
{

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(std::max(jobs, 1)),
                              n);
    std::atomic<std::size_t> next{0};
    std::mutex errMutex;
    std::exception_ptr firstError;

    auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    // The calling thread is worker 0, so one worker starts no thread.
    std::vector<std::thread> threads;
    for (std::size_t w = 1; w < workers; ++w)
        threads.emplace_back(work);
    work();
    for (auto &th : threads)
        th.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace refsched::core
