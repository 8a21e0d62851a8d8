#include "core/parallel.hpp"

#include <exception>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace flexnets::core {

int resolve_threads(int requested) {
  return flexnets::resolve_threads(requested);  // impl: common/thread_pool
}

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int threads) {
  if (n == 0) return;
  if (ThreadPool* outer = ThreadPool::current()) {
    // Nested grid: reuse the pool already running us rather than spawning
    // a second one. parallel_for_indexed's helping waiters make this safe
    // even when every worker is blocked inside a nested grid.
    parallel_for_indexed(*outer, n, fn);
    return;
  }
  const int resolved = resolve_threads(threads);
  if (resolved <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller computes too while it waits, so `resolved` threads need
  // resolved - 1 workers. Deliberately not capped at n: nested grids share
  // this pool, so a 2-cell outer grid over 10-point sweeps still wants all
  // the workers.
  ThreadPool pool(resolved - 1);
  parallel_for_indexed(pool, n, fn);
}

std::vector<Status> run_indexed_contained(
    std::size_t n, const std::function<Status(std::size_t)>& fn,
    int threads) {
  std::vector<Status> statuses(n);
  if (n == 0) return statuses;
  // Checks must throw (not abort) to be containable; see the header note
  // on this being process-wide for the duration.
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  run_indexed(
      n,
      [&](std::size_t i) {
        try {
          statuses[i] = fn(i);
        } catch (const StatusError& e) {
          statuses[i] = e.status();
        } catch (const CheckFailure& e) {
          statuses[i] =
              internal_error("point ", i, ": check failed: ", e.what());
        } catch (const std::exception& e) {
          statuses[i] = internal_error("point ", i, ": ", e.what());
        }
        // Anything not derived from std::exception stays fatal: at that
        // point the process state is unknowable and containment would lie.
      },
      threads);
  return statuses;
}

}  // namespace flexnets::core
