// Fixed-size worker pool for the embarrassingly parallel sweep layers.
//
// Design constraints (see docs/ARCHITECTURE.md, "Parallel execution
// model"):
//
//  - Determinism is the caller's contract, enforced by structure: work is
//    always submitted as *indexed* units whose inputs derive from
//    (seed, index) alone, and whose outputs land in index-owned slots.
//    The pool itself never makes a scheduling decision visible to results.
//  - `submit` returns a std::future; exceptions thrown by a task travel
//    through it to whoever waits, so worker failures cannot vanish.
//  - Blocking on a future from *inside* the pool is safe: `wait_ready`
//    runs queued tasks while it waits ("helping"), so nested submission
//    cannot deadlock even on a single-worker pool. Task dependencies form
//    a DAG (tasks only wait on tasks they submitted), so helping always
//    makes progress.
//  - Destruction drains: every task submitted before the destructor runs
//    to completion before the workers are joined.
//
// This is the only file in the tree allowed to touch std::thread directly
// (enforced by flexnets_analyze, rule `raw-thread`).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/check.hpp"

namespace flexnets {

// Worker count actually used for a request: an explicit requested > 0
// wins, then FLEXNETS_THREADS from the environment, then
// std::thread::hardware_concurrency(). Always >= 1. (core::resolve_threads
// forwards here; the implementation lives in common so the engine layers
// below core -- e.g. sim/pdes -- can resolve thread counts too.)
[[nodiscard]] int resolve_threads(int requested = 0);

class ThreadPool {
 public:
  // Spawns num_threads workers (clamped to >= 1). A 1-worker pool still
  // satisfies every contract above; callers wanting strictly serial
  // execution should not construct a pool at all (see core::run_indexed,
  // which short-circuits to a plain loop for threads <= 1).
  explicit ThreadPool(int num_threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  // Enqueues `f` and returns the future for its result. An exception
  // escaping `f` is captured and rethrown by future.get().
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& f) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  // Pops and runs one queued task on the calling thread. Returns false if
  // the queue was empty. Public so blocked waiters can help.
  bool run_one();

  // Blocks until `fut` is ready, running queued tasks while waiting.
  // Deadlock-free from worker threads (see header comment).
  template <typename T>
  void wait_ready(std::future<T>& fut) {
    constexpr auto kImmediate = std::chrono::seconds(0);
    constexpr auto kNap = std::chrono::microseconds(50);
    while (fut.wait_for(kImmediate) != std::future_status::ready) {
      if (!run_one()) fut.wait_for(kNap);
    }
  }

  // wait_ready + get in one call: returns the value or rethrows the
  // task's exception.
  template <typename T>
  T wait(std::future<T> fut) {
    wait_ready(fut);
    return fut.get();
  }

  // True while the calling thread is executing a pool task — on a worker,
  // or on a waiter that picked the task up while helping.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  // The pool whose task the calling thread is currently executing, or
  // nullptr. Lets nested indexed grids share the outer pool instead of
  // spawning a second one (core::run_indexed).
  [[nodiscard]] static ThreadPool* current() noexcept;

  // Default worker count: FLEXNETS_THREADS from the environment if set
  // and positive, else std::thread::hardware_concurrency(), never < 1.
  [[nodiscard]] static int default_threads();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ FLEXNETS_GUARDED_BY(mu_);
  bool stopping_ FLEXNETS_GUARDED_BY(mu_) = false;
  // Written only by the constructor, joined by the destructor; no lock
  // (workers never touch the vector itself).
  std::vector<std::thread> workers_;
};

// Runs fn(0), ..., fn(n - 1) on the pool plus the calling thread and
// blocks until all complete: a pool of k workers computes on k + 1
// threads, so even a 1-worker pool runs two points at once. fn(i) must
// only write state owned by index i; under that contract the results are
// independent of thread count and scheduling. If any invocations throw,
// the lowest-index exception is rethrown after every invocation has
// finished.
template <typename F>
void parallel_for_indexed(ThreadPool& pool, std::size_t n, F&& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first;
  for (auto& fut : futures) {
    pool.wait_ready(fut);
    try {
      fut.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace flexnets
