#include "sim/simulator.hpp"

#include "common/check.hpp"

namespace flexnets::sim {

void Simulator::schedule(TimeNs at, EventType type, std::int32_t a,
                         std::uint64_t b, EventKey key) {
  FLEXNETS_DCHECK(at >= now_, "cannot schedule into the past: at=", at,
                  " now=", now_);
  queue_.emplace(at, depth_for(at), key, type, a, b, nullptr);
}

void Simulator::schedule_packet(TimeNs at, std::int32_t node,
                                const Packet& pkt, EventKey key) {
  FLEXNETS_DCHECK(at >= now_, "cannot schedule into the past: at=", at,
                  " now=", now_);
  queue_.emplace(at, depth_for(at), key, EventType::kPacketArrive, node, 0,
                 &pkt);
}

std::uint64_t Simulator::run(TimeNs until) {
  FLEXNETS_CHECK(handler_, "no event handler installed");
  const bool audit = audit_enabled();
  budget_exhausted_ = false;
  std::uint64_t n = 0;
  Event e;  // reused: pop_into rewrites the packet only for arrivals
  while (!queue_.empty() && queue_.top_time() <= until) {
    if (max_events_ != 0 && processed_ + n >= max_events_) {
      budget_exhausted_ = true;
      break;
    }
    queue_.pop_into(e);
    // Clock monotonicity: time never goes backward. Always-on -- a
    // violation poisons every downstream FCT measurement.
    FLEXNETS_CHECK(e.time >= now_, "clock went backward: event time=",
                   e.time, " now=", now_);
    now_ = e.time;
    cur_depth_ = e.depth;
    if (audit) {
      // Determinism digest: fold the full dispatch stream so two same-seed
      // runs can be compared with one integer (see common/digest.hpp).
      digest_.mix_time(e.time);
      digest_.mix(static_cast<std::uint64_t>(e.type));
      digest_.mix(static_cast<std::uint64_t>(e.a));
      digest_.mix(e.b);
    }
    handler_(e);
    ++n;
  }
  processed_ += n;
  return n;
}

}  // namespace flexnets::sim
