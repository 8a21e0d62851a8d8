// `threads = N` means N computing threads: core::run_indexed never runs
// more than N points at once, and it does run N at once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/parallel.hpp"

namespace flexnets::core {
namespace {

TEST(RunIndexedThreads, PeakConcurrencyIsAtMostN) {
  for (const int n : {2, 4}) {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    run_indexed(
        static_cast<std::size_t>(4 * n),
        [&](std::size_t) {
          const int now = ++running;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          // Long enough for every thread that can compute to pick a point.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          --running;
        },
        n);
    EXPECT_LE(peak.load(), n) << "threads = " << n;
  }
}

TEST(RunIndexedThreads, NPointsMeetAtAnNWayBarrier) {
  for (const int n : {2, 4}) {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::atomic<int> met{0};
    run_indexed(
        static_cast<std::size_t>(n),
        [&](std::size_t) {
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          // A bounded wait: with fewer than n threads the barrier never
          // fills, and the test fails instead of hanging.
          if (cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return arrived == n; })) {
            ++met;
          }
        },
        n);
    EXPECT_EQ(met.load(), n) << "threads = " << n;
  }
}

}  // namespace
}  // namespace flexnets::core
