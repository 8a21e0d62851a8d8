#include "sim/link.hpp"

#include <cassert>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace flexnets::sim {

Link::Link(std::int32_t id, std::int32_t from_node, std::int32_t to_node,
           const LinkConfig& cfg)
    : id_(id), from_(from_node), to_(to_node), cfg_(cfg),
      effective_rate_(cfg.rate) {
  assert(cfg_.rate > 0);
}

void Link::enqueue(Sched& sched, const Packet& pkt) {
  if (!up_) {
    ++dead_drops_;
    return;
  }
  if (flap_period_ > 0 && flap_down_at(sched.now())) {
    count_gray_drop(sched);
    return;
  }
  if (!busy_) {
    start_transmission(sched, pkt);
    return;
  }
  if (queued_bytes_ + pkt.wire_size > cfg_.queue_capacity) {
    ++drops_;
    return;
  }
  const bool mark = queued_bytes_ >= cfg_.ecn_threshold;
  queued_bytes_ += pkt.wire_size;
  if (count_ == ring_.size()) grow_ring();
  Packet& queued = ring_[(head_ + count_) & (ring_.size() - 1)];
  queued = pkt;
  ++count_;
  if (mark) {
    queued.ecn_ce = true;
    ++ecn_marks_;
  }
}

void Link::grow_ring() {
  std::vector<Packet> bigger(ring_.empty() ? kInitialRing : 2 * ring_.size());
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void Link::start_transmission(Sched& sched, const Packet& pkt) {
  busy_ = true;
  ++packets_sent_;
  bytes_sent_ += pkt.wire_size;
  const TimeNs tx_done =
      sched.now() + serialization_time(pkt.wire_size, effective_rate_);
  // A lossy link corrupts the packet on the wire: it occupies the
  // transmitter for its full serialization time but never arrives. The
  // drop decision is a stateless hash of (salt, link id, per-link packet
  // sequence) mapped to [0, 1) — event-intrinsic values only, so serial
  // and PDES runs drop the exact same packets (the SourceRouter idiom).
  bool lost = false;
  if (drop_prob_ > 0.0) {
    const std::uint64_t h = hash_words(
        loss_salt_, static_cast<std::uint64_t>(static_cast<std::uint32_t>(id_)),
        loss_seq_++);
    lost = static_cast<double>(h >> 11) * 0x1.0p-53 < drop_prob_;
  }
  if (!lost) {
    // The packet leaves the wire at tx_done + propagation; the transmitter
    // is free again at tx_done. Arrival is scheduled now (it cannot be
    // affected by later events); the dequeue event frees the transmitter.
    sched.schedule_packet(tx_done + cfg_.propagation, to_, pkt,
                          {owner::link(id_), sched_seq_++});
  }
  sched.schedule(tx_done, EventType::kLinkDequeue, id_, 0,
                 {owner::link(id_), sched_seq_++});
  if (lost) count_gray_drop(sched);
}

void Link::take_down() {
  up_ = false;
  expelled_ += count_;
  head_ = 0;
  count_ = 0;
  queued_bytes_ = 0;
}

void Link::set_degraded(double fraction) {
  FLEXNETS_CHECK(fraction > 0.0 && fraction <= 1.0,
                 "Link::set_degraded: fraction ", fraction,
                 " outside (0, 1] (fraction 0 is take_down)");
  effective_rate_ = std::max<RateBps>(
      1, static_cast<RateBps>(
             std::llround(static_cast<double>(cfg_.rate) * fraction)));
}

void Link::set_lossy(double drop_prob, std::uint64_t salt) {
  FLEXNETS_CHECK(drop_prob >= 0.0 && drop_prob < 1.0,
                 "Link::set_lossy: drop_prob ", drop_prob, " outside [0, 1)");
  drop_prob_ = drop_prob;
  loss_salt_ = salt;
}

void Link::set_flap(TimeNs since, TimeNs period, double duty) {
  FLEXNETS_CHECK(period > 0 && duty > 0.0 && duty < 1.0,
                 "Link::set_flap: bad period ", period, " / duty ", duty);
  flap_since_ = since;
  flap_period_ = period;
  flap_up_ns_ = std::max<TimeNs>(
      1, static_cast<TimeNs>(std::llround(static_cast<double>(period) * duty)));
}

void Link::clear_gray() {
  effective_rate_ = cfg_.rate;
  drop_prob_ = 0.0;
  flap_since_ = 0;
  flap_period_ = 0;
  flap_up_ns_ = 0;
}

bool Link::flap_down_at(TimeNs now) const {
  // Phase is a pure function of the current time, so no state flips at
  // the toggle instants — nothing for PDES to order.
  const TimeNs phase = (now - flap_since_) % flap_period_;
  return phase >= flap_up_ns_;
}

void Link::count_gray_drop(Sched& sched) {
  ++gray_drops_;
  if (gray_observer_ != nullptr) {
    gray_observer_->on_gray_loss(sched, id_, gray_drops_);
  }
}

void Link::on_dequeue(Sched& sched) {
  assert(busy_);
  busy_ = false;
  if (count_ == 0) return;
  // Transmitting only schedules events, so nothing refills the slot
  // before start_transmission is done with it.
  const Packet& next = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  queued_bytes_ -= next.wire_size;
  start_transmission(sched, next);
}

}  // namespace flexnets::sim
