// A unidirectional link: an output queue plus a serializing transmitter and
// a fixed propagation delay. Queues are drop-tail and ECN-mark arriving
// packets when the instantaneous occupancy is at or above the marking
// threshold (DCTCP-style, paper section 6.4: K = 20 full-sized packets).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace flexnets::sim {

struct LinkConfig {
  RateBps rate = 10 * kGbps;
  TimeNs propagation = 100;            // ~20m of fiber
  Bytes queue_capacity = 150'000;      // 100 full-sized packets
  Bytes ecn_threshold = 30'000;        // 20 full-sized packets
};

// Data-plane hook for gray losses: the network observes every hash-drop /
// flap-drop a link produces and decides when the loss count crosses the
// detection threshold. Called from link handlers, i.e. possibly from
// inside a PDES logical process — implementations may only act through
// `sched` (schedule events), never touch shared state directly.
class GrayLossObserver {
 public:
  virtual ~GrayLossObserver() = default;
  virtual void on_gray_loss(Sched& sched, std::int32_t link_id,
                            std::uint64_t cumulative_losses) = 0;
};

class Link {
 public:
  Link(std::int32_t id, std::int32_t from_node, std::int32_t to_node,
       const LinkConfig& cfg);

  // Queues the packet (possibly marking/dropping); starts transmitting if
  // idle. Called when a node forwards a packet onto this link.
  void enqueue(Sched& sched, const Packet& pkt);

  // kLinkDequeue handler: head packet finished serializing.
  void on_dequeue(Sched& sched);

  // Fault injection. A downed link expels its queued packets (counted in
  // expelled()) and drops every subsequent enqueue (dead_drops()) until
  // brought back up. A packet mid-serialization when the link fails is
  // already committed to the wire and still arrives.
  void take_down();
  void bring_up() { up_ = true; }
  [[nodiscard]] bool is_up() const { return up_; }
  [[nodiscard]] std::uint64_t expelled() const { return expelled_; }
  [[nodiscard]] std::uint64_t dead_drops() const { return dead_drops_; }

  // Gray failures. A degraded link serializes at `fraction` of nominal
  // rate (fraction 0 is handled by the network as take_down, never here).
  // A lossy link drops each packet at the instant it would start
  // serializing, decided by a stateless hash of (salt, link id, per-link
  // packet sequence) — no shared RNG, so the serial and PDES engines
  // reproduce the exact same drop pattern. A flapping link admission-
  // drops every packet arriving in the down part of its duty cycle, a
  // pure function of the current time. Gray drops are counted separately
  // from congestion drops and reported to the observer, which implements
  // detection.
  void set_degraded(double fraction);
  void set_lossy(double drop_prob, std::uint64_t salt);
  void set_flap(TimeNs since, TimeNs period, double duty);
  void clear_gray();
  [[nodiscard]] std::uint64_t gray_drops() const { return gray_drops_; }
  void set_gray_observer(GrayLossObserver* obs) { gray_observer_ = obs; }

  [[nodiscard]] std::int32_t id() const { return id_; }
  [[nodiscard]] std::int32_t from_node() const { return from_; }
  [[nodiscard]] std::int32_t to_node() const { return to_; }
  [[nodiscard]] Bytes queued_bytes() const { return queued_bytes_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t ecn_marks() const { return ecn_marks_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] Bytes bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] const LinkConfig& config() const { return cfg_; }

 private:
  void start_transmission(Sched& sched, const Packet& pkt);
  // Doubles the ring (first allocation: kInitialRing slots), keeping the
  // waiting packets in FIFO order from slot 0.
  void grow_ring();
  void count_gray_drop(Sched& sched);
  [[nodiscard]] bool flap_down_at(TimeNs now) const;

  std::int32_t id_;
  std::int32_t from_;
  std::int32_t to_;
  LinkConfig cfg_;

  // Waiting packets as a FIFO ring: ring_[head_] is the oldest of count_.
  // Allocated when the first packet has to wait, so an idle link costs
  // no heap; the capacity stays a power of two.
  static constexpr std::size_t kInitialRing = 4;
  std::vector<Packet> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  Bytes queued_bytes_ = 0;
  bool busy_ = false;
  bool up_ = true;

  std::uint64_t drops_ = 0;
  std::uint64_t expelled_ = 0;
  std::uint64_t dead_drops_ = 0;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t packets_sent_ = 0;
  Bytes bytes_sent_ = 0;
  // Owner-private event counter: every event this link schedules gets the
  // next value as its oseq, making its stable keys unique (and identical
  // between the serial and parallel engines, which both reach enqueue /
  // on_dequeue in the same per-link order).
  std::uint64_t sched_seq_ = 0;

  // Gray state. effective_rate_ tracks cfg_.rate scaled by degradation;
  // loss_seq_ is the per-link packet sequence feeding the loss hash (the
  // same per-link-ordering argument that makes sched_seq_ deterministic
  // across engines applies to it verbatim).
  RateBps effective_rate_ = 0;  // set to cfg_.rate in the constructor
  double drop_prob_ = 0.0;
  std::uint64_t loss_salt_ = 0;
  std::uint64_t loss_seq_ = 0;
  TimeNs flap_since_ = 0;
  TimeNs flap_period_ = 0;  // 0: not flapping
  TimeNs flap_up_ns_ = 0;   // up for [0, flap_up_ns_) of each period
  std::uint64_t gray_drops_ = 0;
  GrayLossObserver* gray_observer_ = nullptr;
};

}  // namespace flexnets::sim
