/**
 * @file
 * Parallel scenario sweeps: run N independent simulation tasks over
 * a pool of worker threads and collect their results in index order.
 *
 * The simulator itself is thread-compatible — a System, an AppRunner
 * call with an explicit apps::RunConfig, and everything under them
 * touch only their own state — so scenario sweeps (fault campaigns,
 * ablation grids) parallelise trivially. Observability is per run
 * too: a task's RunConfig may carry a shared obs::Tracer (internally
 * locked, so each event lands whole and one run's events keep their
 * order) and a profile interval (each run samples into its own
 * obs::Sampler), so tracing never forces a sweep serial.
 *
 * Determinism: results land in `results[i]` no matter which worker
 * executed task i, and tasks share no mutable state, so the merged
 * output is byte-identical for every jobs value. tests/test_sched.cc
 * asserts this for a real fault sweep.
 */

#ifndef STITCH_SIM_SWEEP_HH
#define STITCH_SIM_SWEEP_HH

#include <atomic>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace stitch::sim
{

/** Fan-out runner for independent simulation tasks. */
class SweepRunner
{
  public:
    /** @param jobs requested worker count; clamped to >= 1. */
    explicit SweepRunner(int jobs = 1) : jobs_(jobs < 1 ? 1 : jobs) {}

    /** The worker count in effect. */
    int jobs() const { return jobs_; }

    /**
     * Evaluate `fn(i)` for every i in [0, n) and return the results
     * in index order. Tasks are claimed dynamically (an atomic
     * cursor), so uneven scenario costs still load-balance. The
     * first exception thrown by any task (lowest index wins) is
     * rethrown here after all workers have drained.
     */
    template <typename Fn>
    auto
    map(int n, Fn &&fn) -> std::vector<decltype(fn(0))>
    {
        using Result = decltype(fn(0));
        std::vector<Result> results(static_cast<std::size_t>(n));
        if (n == 0)
            return results;

        const int workers = std::min(jobs_, n);
        if (workers <= 1) {
            for (int i = 0; i < n; ++i)
                results[static_cast<std::size_t>(i)] = fn(i);
            return results;
        }

        std::atomic<int> cursor{0};
        std::vector<std::exception_ptr> errors(
            static_cast<std::size_t>(n));
        auto worker = [&] {
            while (true) {
                int i = cursor.fetch_add(1,
                                         std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    results[static_cast<std::size_t>(i)] = fn(i);
                } catch (...) {
                    errors[static_cast<std::size_t>(i)] =
                        std::current_exception();
                }
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();

        for (const auto &err : errors)
            if (err)
                std::rethrow_exception(err);
        return results;
    }

  private:
    int jobs_;
};

} // namespace stitch::sim

#endif // STITCH_SIM_SWEEP_HH
