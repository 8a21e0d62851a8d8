// The simulation clock and event loop. Event semantics live in a handler
// installed by the network (sim/network.hpp); this class only guarantees
// monotonic time and deterministic ordering.
//
// Sched is the scheduling seam between the network's event handlers and
// whatever drives them: the serial Simulator below, or one logical
// process of the conservative parallel engine (sim/pdes/). Handlers only
// ever see a Sched, so the same model code runs under both.
#pragma once

#include <functional>

#include "common/digest.hpp"
#include "sim/event_queue.hpp"

namespace flexnets::sim {

class Sched {
 public:
  virtual ~Sched() = default;

  [[nodiscard]] virtual TimeNs now() const = 0;

  // Schedules an event carrying its stable ordering key (see
  // sim/event_queue.hpp). The implementation assigns the depth: 0 for
  // at > now(), dispatching-event depth + 1 for at == now().
  virtual void schedule(TimeNs at, EventType type, std::int32_t a,
                        std::uint64_t b, EventKey key) = 0;
  virtual void schedule_packet(TimeNs at, std::int32_t node,
                               const Packet& pkt, EventKey key) = 0;
};

class Simulator final : public Sched {
 public:
  // The handler may modify the event (a switch advances an arrival's
  // route state in place): it is the loop's own copy, rewritten by the
  // next pop.
  using Handler = std::function<void(Event&)>;

  [[nodiscard]] TimeNs now() const override { return now_; }

  void schedule(TimeNs at, EventType type, std::int32_t a, std::uint64_t b,
                EventKey key) override;
  void schedule_packet(TimeNs at, std::int32_t node, const Packet& pkt,
                       EventKey key) override;

  // Keyless convenience overloads (tests, benchmarks): all events carry
  // the zero key and tie-break by insertion order, the historical FIFO.
  void schedule(TimeNs at, EventType type, std::int32_t a,
                std::uint64_t b = 0) {
    schedule(at, type, a, b, EventKey{});
  }
  void schedule_packet(TimeNs at, std::int32_t node, const Packet& pkt) {
    schedule_packet(at, node, pkt, EventKey{});
  }

  // Pre-sizes the event queue's far heap, where events 4,096 ns or more
  // past the last settle wait (see EventQueue::reserve). Additive:
  // callers reserve for what they are about to schedule.
  void reserve_events(std::size_t n) { queue_.reserve(queue_.size() + n); }

  void set_handler(Handler h) { handler_ = std::move(h); }

  // Runs until the queue drains or `until` is passed (events beyond `until`
  // stay queued). Returns the number of events processed.
  std::uint64_t run(TimeNs until = kMaxTime);

  // Cooperative event budget: run() also stops once the *lifetime* event
  // count reaches this many (0 = unlimited). Counting events instead of
  // wall time keeps truncation deterministic -- two same-seed runs stop
  // at exactly the same event.
  void set_event_budget(std::uint64_t max_events) { max_events_ = max_events; }
  // True when the last run() stopped because of the budget while work was
  // still pending (as opposed to draining the queue or passing `until`).
  [[nodiscard]] bool budget_exhausted() const { return budget_exhausted_; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  // Determinism digest over every dispatched event's (time, type, a, b),
  // accumulated only while audit_enabled() (common/check.hpp). Two runs of
  // the same seeded configuration must produce identical values, and the
  // parallel engine must reproduce this exact value for any thread count.
  [[nodiscard]] std::uint64_t event_digest() const { return digest_.value(); }

  static constexpr TimeNs kMaxTime = INT64_MAX;

 private:
  [[nodiscard]] std::int32_t depth_for(TimeNs at) const {
    return at == now_ ? cur_depth_ + 1 : 0;
  }

  EventQueue queue_;
  TimeNs now_ = 0;
  // Depth of the event currently being dispatched; -1 before the first
  // dispatch so pre-run schedules at t = 0 still get depth 0. Persists
  // after run() returns, so a late schedule at the final timestamp still
  // sorts after everything already dispatched there.
  std::int32_t cur_depth_ = -1;
  std::uint64_t processed_ = 0;
  std::uint64_t max_events_ = 0;  // 0 = unlimited
  bool budget_exhausted_ = false;
  Handler handler_;
  Digest digest_;
};

}  // namespace flexnets::sim
