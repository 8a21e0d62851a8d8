#include "transport/dctcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace flexnets::transport {

namespace {
constexpr double kRttAlpha = 1.0 / 8.0;  // RFC 6298 SRTT gain
constexpr double kRttBeta = 1.0 / 4.0;   // RFC 6298 RTTVAR gain
}  // namespace

DctcpEngine::DctcpEngine(DctcpConfig cfg, TransportEnv& env,
                         routing::SourceRouter& router)
    : cfg_(cfg), env_(env), router_(router) {}

std::int32_t DctcpEngine::open_flow(std::int32_t src_host,
                                    std::int32_t dst_host,
                                    graph::NodeId src_tor,
                                    graph::NodeId dst_tor, Bytes size,
                                    bool size_final) {
  assert(size > 0);
  Flow f;
  f.size_final = size_final;
  f.src_host = src_host;
  f.dst_host = dst_host;
  f.route.src_tor = src_tor;
  f.route.dst_tor = dst_tor;
  f.size = size;
  f.cwnd = cfg_.init_cwnd_packets * static_cast<double>(cfg_.mss);
  f.ssthresh = static_cast<double>(cfg_.max_cwnd);
  f.rto = cfg_.initial_rto;
  const auto id = static_cast<std::int32_t>(flows_.size());
  flows_.push_back(std::move(f));
  return id;
}

void DctcpEngine::start(std::int32_t flow_id) {
  Flow& f = flows_[flow_id];
  f.start_time = env_.now();
  try_send(flow_id, f);
}

void DctcpEngine::on_packet(const sim::Packet& pkt) {
  assert(pkt.flow_id >= 0 &&
         pkt.flow_id < static_cast<std::int32_t>(flows_.size()));
  Flow& f = flows_[pkt.flow_id];
  if (pkt.is_ack) {
    handle_ack(pkt.flow_id, f, pkt);
  } else {
    handle_data(pkt.flow_id, f, pkt);
  }
}

void DctcpEngine::handle_data(std::int32_t id, Flow& f,
                              const sim::Packet& pkt) {
  assert(pkt.payload > 0);
  const Bytes seg_end = pkt.seq + pkt.payload;
  if (pkt.seq <= f.rcv_nxt) {
    f.rcv_nxt = std::max(f.rcv_nxt, seg_end);
    // Consume any buffered out-of-order segments now contiguous.
    auto it = f.ooo.begin();
    while (it != f.ooo.end() && it->first <= f.rcv_nxt) {
      f.rcv_nxt = std::max(f.rcv_nxt, it->second);
      it = f.ooo.erase(it);
    }
  } else {
    // Buffer [seq, seg_end); merge with an overlapping predecessor/successor
    // lazily (exact merging is unnecessary -- the consume loop above
    // tolerates overlaps).
    auto [it, inserted] = f.ooo.try_emplace(pkt.seq, seg_end);
    if (!inserted) it->second = std::max(it->second, seg_end);
  }

  // Immediate cumulative ACK echoing this packet's CE mark and timestamp.
  sim::Packet ack;
  ack.flow_id = pkt.flow_id;
  ack.is_ack = true;
  ack.ack_no = f.rcv_nxt;
  ack.ecn_echo = pkt.ecn_ce;
  ack.sent_at = pkt.sent_at;
  ack.wire_size = cfg_.ack_size;
  ack.flowlet = pkt.flowlet;
  ack.dst_tor = f.route.src_tor;
  ack.dst_host = f.src_host;
  env_.inject(f.dst_host, ack);

  if (!f.completed && !f.aborted && f.size_final && f.rcv_nxt >= f.size) {
    f.completed = true;
    f.completion_time = env_.now();
    env_.flow_completed(id, env_.now());
    if (on_complete_) on_complete_(id);
  }
}

void DctcpEngine::extend_flow(std::int32_t flow_id, Bytes extra, bool final) {
  Flow& f = flows_[flow_id];
  assert(!f.size_final && "cannot extend a final-sized flow");
  assert(extra >= 0);
  f.size += extra;
  f.size_final = final;
  if (f.sender_done && f.snd_una < f.size) {
    f.sender_done = false;
    arm_timer(flow_id, f);
  }
  // The receiver may already hold every byte of the (now final) size.
  if (final && !f.completed && f.rcv_nxt >= f.size) {
    f.completed = true;
    f.completion_time = env_.now();
    env_.flow_completed(flow_id, env_.now());
    if (on_complete_) on_complete_(flow_id);
    return;
  }
  try_send(flow_id, f);
}

void DctcpEngine::abort_flow(std::int32_t flow_id) {
  Flow& f = flows_[flow_id];
  if (f.completed || f.aborted) return;
  f.aborted = true;
  f.sender_done = true;
  ++f.timer_gen;  // cancels the outstanding RTO
  if (f.snd_nxt == 0) f.start_time = env_.now();
}

void DctcpEngine::enter_window_update(Flow& f) {
  const double fraction =
      f.acked_in_window > 0
          ? static_cast<double>(f.marked_in_window) /
                static_cast<double>(f.acked_in_window)
          : 0.0;
  f.alpha = (1.0 - cfg_.g) * f.alpha + cfg_.g * fraction;
  if (f.marked_in_window > 0) {
    // One multiplicative cut per window (DCTCP).
    f.cwnd = std::max(static_cast<double>(cfg_.mss),
                      f.cwnd * (1.0 - f.alpha / 2.0));
    f.ssthresh = std::max(f.cwnd, 2.0 * static_cast<double>(cfg_.mss));
  }
  f.window_end = f.snd_nxt;
  f.acked_in_window = 0;
  f.marked_in_window = 0;
}

void DctcpEngine::handle_ack(std::int32_t id, Flow& f,
                             const sim::Packet& pkt) {
  if (f.sender_done) return;

  // RTT sample from the echoed timestamp (valid even for retransmissions).
  const auto rtt = static_cast<double>(env_.now() - pkt.sent_at);
  if (rtt > 0) {
    if (f.srtt == 0.0) {
      f.srtt = rtt;
      f.rttvar = rtt / 2.0;
    } else {
      f.rttvar = (1.0 - kRttBeta) * f.rttvar + kRttBeta * std::abs(f.srtt - rtt);
      f.srtt = (1.0 - kRttAlpha) * f.srtt + kRttAlpha * rtt;
    }
    f.rto = std::clamp(static_cast<TimeNs>(f.srtt + 4.0 * f.rttvar),
                       cfg_.min_rto, cfg_.max_rto);
    f.backoff = 0;
  }
  if (pkt.ecn_echo) {
    ++f.ecn_echoes;
    f.route.ecn_echoes = f.ecn_echoes;  // feeds the HYB-ECN routing mode
  }

  const Bytes newly = pkt.ack_no - f.snd_una;
  if (newly > 0) {
    // DCTCP per-window ECN accounting.
    f.acked_in_window += newly;
    if (pkt.ecn_echo) f.marked_in_window += newly;
    if (pkt.ack_no >= f.window_end) enter_window_update(f);

    f.snd_una = pkt.ack_no;
    f.dupacks = 0;
    if (f.in_recovery && f.snd_una >= f.recover) {
      f.in_recovery = false;
      f.cwnd = f.ssthresh;
    }
    // RFC 3168-style CWR: no cwnd growth in a window that saw ECN marks.
    // Without this, additive increase outruns the per-window DCTCP cut
    // (cwnd * alpha/2) while alpha is still small, and persistent marking
    // never actually throttles the flow.
    const bool cwr = pkt.ecn_echo || f.marked_in_window > 0;
    if (!f.in_recovery && !cwr) {
      if (f.cwnd < f.ssthresh) {
        f.cwnd += static_cast<double>(newly);  // slow start
      } else {
        f.cwnd += static_cast<double>(cfg_.mss) * static_cast<double>(newly) /
                  f.cwnd;  // congestion avoidance
      }
      f.cwnd = std::min(f.cwnd, static_cast<double>(cfg_.max_cwnd));
    }
    if (f.snd_una >= f.size) {
      // Everything sent so far is acknowledged. A final-sized flow is done;
      // a growable one idles (no RTO pending) until extend_flow().
      f.sender_done = f.size_final;
      ++f.timer_gen;  // cancels the outstanding RTO
      if (on_progress_) on_progress_(id);
      return;
    }
    arm_timer(id, f);
    if (on_progress_) on_progress_(id);
  } else {
    ++f.dupacks;
    if (!f.in_recovery && f.dupacks == 3) {
      f.in_recovery = true;
      f.recover = f.snd_nxt;
      f.ssthresh = std::max(f.cwnd / 2.0, 2.0 * static_cast<double>(cfg_.mss));
      f.cwnd = f.ssthresh + 3.0 * static_cast<double>(cfg_.mss);
      ++f.retransmits;
      send_segment(id, f, f.snd_una,
                   std::min<Bytes>(cfg_.mss, f.size - f.snd_una));
      arm_timer(id, f);
    } else if (f.in_recovery) {
      f.cwnd += static_cast<double>(cfg_.mss);  // window inflation
      f.cwnd = std::min(f.cwnd, static_cast<double>(cfg_.max_cwnd));
    }
  }
  try_send(id, f);
}

void DctcpEngine::on_timer(std::int32_t flow_id, std::uint64_t gen) {
  Flow& f = flows_[flow_id];
  if (f.sender_done || gen != f.timer_gen) return;
  ++f.timeouts;
  f.ssthresh = std::max(f.cwnd / 2.0, 2.0 * static_cast<double>(cfg_.mss));
  f.cwnd = static_cast<double>(cfg_.mss);
  f.in_recovery = false;
  f.dupacks = 0;
  f.snd_nxt = f.snd_una;  // go-back-N
  f.backoff = std::min(f.backoff + 1, 6);
  f.rto = std::min<TimeNs>(cfg_.max_rto, f.rto * 2);
  arm_timer(flow_id, f);
  try_send(flow_id, f);
}

void DctcpEngine::arm_timer(std::int32_t id, Flow& f) {
  ++f.timer_gen;
  env_.set_timer(id, env_.now() + f.rto, f.timer_gen);
}

void DctcpEngine::try_send(std::int32_t id, Flow& f) {
  if (f.sender_done) return;
  bool sent = false;
  while (f.snd_nxt < f.size &&
         static_cast<double>(f.snd_nxt - f.snd_una) +
                 static_cast<double>(cfg_.mss) <=
             f.cwnd + 0.5) {
    const Bytes len = std::min<Bytes>(cfg_.mss, f.size - f.snd_nxt);
    send_segment(id, f, f.snd_nxt, len);
    f.snd_nxt += len;
    sent = true;
  }
  if (sent && f.timer_gen == 0) arm_timer(id, f);
}

void DctcpEngine::send_segment(std::int32_t id, Flow& f, Bytes seq,
                               Bytes len) {
  assert(len > 0 && seq + len <= f.size);
  sim::Packet pkt;
  pkt.flow_id = id;
  pkt.seq = seq;
  pkt.payload = len;
  pkt.wire_size = len + cfg_.header;
  pkt.sent_at = env_.now();
  pkt.dst_tor = f.route.dst_tor;
  pkt.dst_host = f.dst_host;
  router_.prepare(f.route, pkt, env_.now());
  ++f.data_packets_sent;
  env_.inject(f.src_host, pkt);
}

}  // namespace flexnets::transport
