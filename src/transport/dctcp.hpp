// DCTCP (Alizadeh et al., SIGCOMM 2010) over a NewReno-style reliable
// byte-stream sender, as used for all packet-level experiments in the paper
// (section 6.4).
//
// Sender: slow start, congestion avoidance, fast retransmit/recovery on 3
// dupacks, RTO with exponential backoff, and DCTCP's per-window ECN
// fraction estimate alpha with multiplicative cwnd scaling (1 - alpha/2).
// Receiver: cumulative ACK per data packet (no delayed ACKs), ECN echo of
// each data packet's CE mark, out-of-order segment buffering.
//
// The engine owns every flow's state and talks to the network through the
// TransportEnv interface, which keeps it unit-testable against a mock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "routing/strategy.hpp"
#include "sim/packet.hpp"

namespace flexnets::transport {

struct DctcpConfig {
  Bytes mss = 1440;           // payload bytes per full-sized segment
  Bytes header = 60;          // per-packet header overhead on the wire
  Bytes ack_size = 64;        // pure-ACK wire size
  double init_cwnd_packets = 10.0;
  Bytes max_cwnd = 10 * kMB;
  double g = 1.0 / 16.0;      // DCTCP alpha gain
  // 200us min RTO suits 10G datacenter RTTs (tens of microseconds); with a
  // 1ms floor, post-drop stalls dominate short-flow tail FCT and trigger
  // drop cascades under load.
  TimeNs min_rto = 200 * kMicrosecond;
  TimeNs initial_rto = 1 * kMillisecond;
  TimeNs max_rto = 100 * kMillisecond;
};

class TransportEnv {
 public:
  virtual ~TransportEnv() = default;
  [[nodiscard]] virtual TimeNs now() const = 0;
  // Injects a packet at the given host's uplink.
  virtual void inject(std::int32_t host, const sim::Packet& pkt) = 0;
  // Arms the flow's retransmission timer; only the latest generation is
  // live -- earlier generations must be ignored when they fire.
  virtual void set_timer(std::int32_t flow, TimeNs at, std::uint64_t gen) = 0;
  // The receiver obtained the last byte.
  virtual void flow_completed(std::int32_t flow, TimeNs when) = 0;
};

class DctcpEngine {
 public:
  struct Flow {
    // Endpoints (simulator node ids) and topology placement.
    std::int32_t src_host = -1;
    std::int32_t dst_host = -1;
    routing::FlowRouteState route;  // includes src/dst ToR

    Bytes size = 0;
    // When false, `size` is a lower bound that extend_flow() may raise; the
    // receiver does not report completion until the size is final. Used by
    // the MPTCP chunk scheduler (transport/mptcp.hpp).
    bool size_final = true;
    TimeNs start_time = -1;  // -1 until start() (or an early abort) runs
    TimeNs completion_time = -1;

    // Sender.
    Bytes snd_una = 0;
    Bytes snd_nxt = 0;
    double cwnd = 0.0;      // bytes
    double ssthresh = 0.0;  // bytes
    int dupacks = 0;
    bool in_recovery = false;
    Bytes recover = 0;
    bool sender_done = false;

    // RTT estimation / RTO.
    double srtt = 0.0;    // ns; 0 = no sample yet
    double rttvar = 0.0;  // ns
    TimeNs rto = 0;
    int backoff = 0;
    std::uint64_t timer_gen = 0;

    // DCTCP.
    double alpha = 0.0;
    Bytes window_end = 0;
    Bytes acked_in_window = 0;
    Bytes marked_in_window = 0;

    // Receiver.
    Bytes rcv_nxt = 0;
    std::map<Bytes, Bytes> ooo;  // out-of-order [start, end) segments
    bool completed = false;
    bool aborted = false;  // see abort_flow()

    // Counters.
    std::uint64_t data_packets_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t ecn_echoes = 0;
  };

  DctcpEngine(DctcpConfig cfg, TransportEnv& env,
              routing::SourceRouter& router);

  // Registers a flow; returns its id. Does not send anything yet. When
  // `size_final` is false the flow can later grow via extend_flow().
  std::int32_t open_flow(std::int32_t src_host, std::int32_t dst_host,
                         graph::NodeId src_tor, graph::NodeId dst_tor,
                         Bytes size, bool size_final = true);
  // Begins transmission (records start time = env.now()).
  void start(std::int32_t flow_id);

  // Grows a non-final flow by `extra` bytes; `final` closes it (no further
  // extensions). Resumes a sender that had drained its previous limit.
  void extend_flow(std::int32_t flow_id, Bytes extra, bool final);

  // Permanently abandons a flow whose endpoints became mutually unreachable
  // (live fault injection): stops sending and cancels the pending RTO so
  // the doomed flow does not retransmit into a blackhole forever. The flow
  // never completes (completion_time stays -1). A flow aborted before its
  // first transmission records start_time = now so FCT windows still
  // account for it.
  void abort_flow(std::int32_t flow_id);

  // Observers (used by MPTCP): `on_progress` fires on every new cumulative
  // ACK at the sender; `on_complete` when the receiver has all bytes of a
  // final-sized flow.
  void set_on_progress(std::function<void(std::int32_t)> cb) {
    on_progress_ = std::move(cb);
  }
  void set_on_complete(std::function<void(std::int32_t)> cb) {
    on_complete_ = std::move(cb);
  }

  // Mutable access for configuring per-flow routing (e.g. pinning an MPTCP
  // subflow to one KSP path) before start().
  routing::FlowRouteState& route_state(std::int32_t id) {
    return flows_[id].route;
  }

  // A packet arrived at one of this engine's hosts.
  void on_packet(const sim::Packet& pkt);
  // A kTransportTimer event fired.
  void on_timer(std::int32_t flow_id, std::uint64_t gen);

  [[nodiscard]] const Flow& flow(std::int32_t id) const { return flows_[id]; }
  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }
  [[nodiscard]] const DctcpConfig& config() const { return cfg_; }

 private:
  void try_send(std::int32_t id, Flow& f);
  void send_segment(std::int32_t id, Flow& f, Bytes seq, Bytes len);
  void arm_timer(std::int32_t id, Flow& f);
  void handle_ack(std::int32_t id, Flow& f, const sim::Packet& pkt);
  void handle_data(std::int32_t id, Flow& f, const sim::Packet& pkt);
  void enter_window_update(Flow& f);

  DctcpConfig cfg_;
  TransportEnv& env_;
  routing::SourceRouter& router_;
  std::vector<Flow> flows_;
  std::function<void(std::int32_t)> on_progress_;
  std::function<void(std::int32_t)> on_complete_;
};

}  // namespace flexnets::transport
