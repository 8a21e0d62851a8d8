#include "sim/pdes/runner.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/digest.hpp"
#include "common/thread_pool.hpp"

namespace flexnets::sim::pdes {

namespace {

// Compact record of one dispatched event: everything the global digest
// and the cross-LP order audit need, without the ~100-byte Packet.
struct LogRec {
  TimeNs time = 0;
  std::int32_t depth = 0;
  EventKey key;
  EventType type = EventType::kFlowStart;
  std::int32_t a = 0;
  std::uint64_t b = 0;
};

[[nodiscard]] bool rec_before(const LogRec& x, const LogRec& y) {
  if (x.time != y.time) return x.time < y.time;
  if (x.depth != y.depth) return x.depth < y.depth;
  if (x.key.owner != y.key.owner) return x.key.owner < y.key.owner;
  return x.key.oseq < y.key.oseq;
}

[[nodiscard]] LogRec rec_of(const Event& e) {
  return {e.time, e.depth, e.key, e.type, e.a, e.b};
}

class Engine;

// One logical process: an event queue over the LP's nodes plus the Sched
// the network's handlers schedule through while this LP dispatches.
class LpRuntime final : public Sched {
 public:
  LpRuntime(Engine& eng, int id, int num_lps)
      : outbox_(static_cast<std::size_t>(num_lps)), eng_(eng), id_(id) {}

  [[nodiscard]] TimeNs now() const override { return now_; }
  void schedule(TimeNs at, EventType type, std::int32_t a, std::uint64_t b,
                EventKey key) override;
  void schedule_packet(TimeNs at, std::int32_t node, const Packet& pkt,
                       EventKey key) override;

  // Dispatches every queued event with time in [epoch_min, window) and
  // time <= until; same-timestamp cascades scheduled during dispatch are
  // consumed in the same call.
  void run_window(TimeNs epoch_min, TimeNs window, TimeNs until, bool log);

  EventQueue queue_;
  std::vector<std::vector<Event>> outbox_;  // cross-LP sends, per dest LP
  std::vector<Event> global_outbox_;        // kDetect sends to the global queue
  std::vector<LogRec> log_;                 // this epoch's dispatch stream
  std::uint64_t dispatched_ = 0;

 private:
  [[nodiscard]] std::int32_t depth_for(TimeNs at) const {
    return at == now_ ? cur_depth_ + 1 : 0;
  }

  Engine& eng_;
  int id_;
  TimeNs now_ = 0;
  std::int32_t cur_depth_ = -1;
  TimeNs window_ = 0;  // exclusive upper bound of the current epoch
};

// The Sched for single-threaded timestamps (fault/repair barriers): like
// an LP, but it may touch every queue directly -- safe because nothing
// else runs.
class GlobalSched final : public Sched {
 public:
  explicit GlobalSched(Engine& eng) : eng_(eng) {}

  [[nodiscard]] TimeNs now() const override { return now_; }
  void schedule(TimeNs at, EventType type, std::int32_t a, std::uint64_t b,
                EventKey key) override;
  void schedule_packet(TimeNs at, std::int32_t node, const Packet& pkt,
                       EventKey key) override;

  TimeNs now_ = 0;
  std::int32_t cur_depth_ = -1;

 private:
  [[nodiscard]] std::int32_t depth_for(TimeNs at) const {
    return at == now_ ? cur_depth_ + 1 : 0;
  }

  Engine& eng_;
};

class Engine {
 public:
  Engine(PacketNetwork& net, const Partition& part, TimeNs lookahead,
         int threads)
      : net_(net),
        part_(part),
        lookahead_(lookahead),
        threads_(threads),
        global_sched_(*this) {
    lps_.reserve(static_cast<std::size_t>(part.num_lps));
    for (int i = 0; i < part.num_lps; ++i) {
      lps_.push_back(std::make_unique<LpRuntime>(*this, i, part.num_lps));
    }
    if (threads_ > 1 && part.num_lps > 1) {
      // The dispatching thread runs LPs too while it waits.
      pool_ = std::make_unique<ThreadPool>(threads_ - 1);
    }
  }

  [[nodiscard]] int lp_of(std::int32_t node) const {
    return part_.lp_of(node);
  }
  [[nodiscard]] int lp_of_link_source(std::int32_t link_id) const {
    return part_.lp_of(net_.link(link_id).from_node());
  }
  [[nodiscard]] int lp_of_flow_sender(std::int32_t flow_id) const {
    return part_.lp_of(net_.engine().flow(flow_id).src_host);
  }
  [[nodiscard]] PacketNetwork& net() { return net_; }

  // The queue that executes an event of this type and `a`: the global
  // queue for fault/repair/detect events, else the owning LP's. Only
  // called from single-threaded contexts.
  EventQueue& queue_for(EventType type, std::int32_t a) {
    switch (type) {
      case EventType::kFault:
      case EventType::kRepair:
      case EventType::kDetect:
        return global_q_;
      case EventType::kLinkDequeue:
        return lp_queue(lp_of_link_source(a));
      case EventType::kPacketArrive:
        return lp_queue(lp_of(a));
      case EventType::kTransportTimer:
        return lp_queue(lp_of_flow_sender(a));
      case EventType::kFlowStart:
        return lp_queue(lp_of(flow_start_node(a)));
    }
    FLEXNETS_CHECK(false, "unroutable event type");
    return global_q_;
  }

  [[nodiscard]] std::int32_t flow_start_node(std::int32_t spec_index) const {
    const auto& spec = (*specs_)[static_cast<std::size_t>(spec_index)];
    return net_.host_node(spec.src_server);
  }

  EventQueue& lp_queue(int lp) {
    return lps_[static_cast<std::size_t>(lp)]->queue_;
  }

  RunStats run(const std::vector<workload::FlowSpec>& flows, TimeNs until);

 private:
  void seed(const std::vector<workload::FlowSpec>& flows);
  void run_serial_timestamp(TimeNs at, bool audit);
  void merge_epoch_logs();
  void fold_digest(const LogRec& r);

  PacketNetwork& net_;
  const Partition& part_;
  TimeNs lookahead_;
  int threads_;
  GlobalSched global_sched_;
  std::vector<std::unique_ptr<LpRuntime>> lps_;
  EventQueue global_q_;  // kFault / kRepair only
  std::unique_ptr<ThreadPool> pool_;
  const std::vector<workload::FlowSpec>* specs_ = nullptr;

  Digest digest_;
  LogRec last_rec_;
  bool any_rec_ = false;
  RunStats stats_;
};

void LpRuntime::schedule(TimeNs at, EventType type, std::int32_t a,
                         std::uint64_t b, EventKey key) {
  FLEXNETS_DCHECK(at >= now_, "cannot schedule into the past: at=", at,
                  " now=", now_);
  // Handlers running on an LP only ever schedule events this same LP
  // executes: a link's dequeue (links are owned by their source node) or
  // a flow's retransmission timer (owned by the flow's sender, whose
  // host this is). Packet arrivals -- the only cross-LP events -- go
  // through schedule_packet.
  switch (type) {
    case EventType::kLinkDequeue:
      FLEXNETS_DCHECK(eng_.lp_of_link_source(a) == id_,
                      "link dequeue scheduled from a foreign LP");
      break;
    case EventType::kTransportTimer:
      FLEXNETS_DCHECK(eng_.lp_of_flow_sender(a) == id_,
                      "transport timer scheduled from a foreign LP");
      break;
    case EventType::kDetect: {
      // Gray-loss detections execute at a serial timestamp (they mutate
      // the detector and trigger repair), so they go to the global queue
      // -- via this LP's private outbox, drained at the barrier. The
      // conservative guarantee mirrors cross-LP packets: the detection
      // must land at or beyond this epoch's window, which run_parallel
      // enforces up front as detect_latency >= lookahead.
      FLEXNETS_CHECK(at >= window_,
                     "detect latency below lookahead: kDetect at t=", at,
                     " inside epoch window ending ", window_);
      Event e;
      e.time = at;
      e.depth = depth_for(at);
      e.key = key;
      e.type = type;
      e.a = a;
      e.b = b;
      global_outbox_.push_back(std::move(e));
      return;
    }
    default:
      FLEXNETS_CHECK(false, "event type ", static_cast<int>(type),
                     " cannot be scheduled from an LP");
  }
  queue_.emplace(at, depth_for(at), key, type, a, b, nullptr);
}

void LpRuntime::schedule_packet(TimeNs at, std::int32_t node,
                                const Packet& pkt, EventKey key) {
  FLEXNETS_DCHECK(at >= now_, "cannot schedule into the past: at=", at,
                  " now=", now_);
  const int dst = eng_.lp_of(node);
  if (dst == id_) {
    queue_.emplace(at, depth_for(at), key, EventType::kPacketArrive, node, 0,
                   &pkt);
    return;
  }
  // The conservative guarantee: a cross-LP arrival is at least one
  // propagation delay in the future, i.e. at or beyond this epoch's
  // window. Anything earlier would mean the neighbor LP might already
  // have dispatched past it.
  FLEXNETS_CHECK(at >= window_,
                 "lookahead violated: cross-LP arrival at t=", at,
                 " inside epoch window ending ", window_);
  Event e;
  e.time = at;
  e.depth = depth_for(at);
  e.key = key;
  e.type = EventType::kPacketArrive;
  e.a = node;
  e.pkt = pkt;
  outbox_[static_cast<std::size_t>(dst)].push_back(e);
}

void LpRuntime::run_window(TimeNs epoch_min, TimeNs window, TimeNs until,
                           bool log) {
  window_ = window;
  Event e;  // reused: pop_into rewrites the packet only for arrivals
  while (!queue_.empty()) {
    const TimeNs t = queue_.top_time();
    if (t >= window || t > until) break;
    queue_.pop_into(e);
    // Epoch-horizon audit: an event inside this window can be neither
    // before the global minimum (some neighbor could still send into its
    // past) nor before this LP's own clock.
    FLEXNETS_CHECK(e.time >= epoch_min && e.time >= now_,
                   "LP executed an event before the epoch horizon: t=",
                   e.time, " epoch_min=", epoch_min, " lp_now=", now_);
    now_ = e.time;
    cur_depth_ = e.depth;
    if (log) log_.push_back(rec_of(e));
    eng_.net().pdes_dispatch(*this, e);
    ++dispatched_;
  }
}

void GlobalSched::schedule(TimeNs at, EventType type, std::int32_t a,
                           std::uint64_t b, EventKey key) {
  FLEXNETS_DCHECK(at >= now_, "cannot schedule into the past: at=", at,
                  " now=", now_);
  eng_.queue_for(type, a).emplace(at, depth_for(at), key, type, a, b,
                                  nullptr);
}

void GlobalSched::schedule_packet(TimeNs at, std::int32_t node,
                                  const Packet& pkt, EventKey key) {
  FLEXNETS_DCHECK(at >= now_, "cannot schedule into the past: at=", at,
                  " now=", now_);
  eng_.queue_for(EventType::kPacketArrive, node)
      .emplace(at, depth_for(at), key, EventType::kPacketArrive, node, 0,
               &pkt);
}

void Engine::fold_digest(const LogRec& r) {
  // Same fold as Simulator::run so the values are comparable integers.
  digest_.mix_time(r.time);
  digest_.mix(static_cast<std::uint64_t>(r.type));
  digest_.mix(static_cast<std::uint64_t>(r.a));
  digest_.mix(r.b);
  // Tie-break totality audit: the merged stream must be *strictly*
  // increasing in the stable key -- equal keys would mean two events are
  // unordered and the serial/parallel equivalence argument collapses.
  FLEXNETS_CHECK(!any_rec_ || rec_before(last_rec_, r),
                 "merged dispatch stream not strictly key-ordered at t=",
                 r.time, " owner=", r.key.owner, " oseq=", r.key.oseq);
  last_rec_ = r;
  any_rec_ = true;
}

void Engine::merge_epoch_logs() {
  // K-way merge of the per-LP dispatch logs by stable key. Each log is
  // already sorted (an LP dispatches in key order), so the merge yields
  // the exact serial dispatch order of this epoch's window.
  std::vector<std::size_t> pos(lps_.size(), 0);
  for (;;) {
    std::size_t best = lps_.size();
    for (std::size_t i = 0; i < lps_.size(); ++i) {
      const auto& log = lps_[i]->log_;
      if (pos[i] >= log.size()) continue;
      if (best == lps_.size() ||
          rec_before(log[pos[i]], lps_[best]->log_[pos[best]])) {
        best = i;
      }
    }
    if (best == lps_.size()) break;
    fold_digest(lps_[best]->log_[pos[best]]);
    ++pos[best];
  }
  for (auto& lp : lps_) lp->log_.clear();
}

void Engine::seed(const std::vector<workload::FlowSpec>& flows) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto spec = static_cast<std::int32_t>(i);
    queue_for(EventType::kFlowStart, spec)
        .emplace(flows[i].start, 0, {owner::kFlowStartRoot, i},
                 EventType::kFlowStart, spec, 0, nullptr);
  }
  const auto* faults = net_.config().faults;
  if (faults != nullptr) {
    const auto& ev = faults->events();
    for (std::size_t i = 0; i < ev.size(); ++i) {
      global_q_.emplace(ev[i].time, 0, {owner::kFaultRoot, i},
                        EventType::kFault, static_cast<std::int32_t>(i), 0,
                        nullptr);
    }
  }
}

void Engine::run_serial_timestamp(TimeNs at, bool audit) {
  // Drain every event at exactly this timestamp, across all queues, in
  // merged key order -- single-threaded, because fault/repair handlers
  // mutate state every LP reads (link liveness, routing tables,
  // connectivity). Cascades scheduled at the same timestamp are included.
  global_sched_.now_ = at;
  Event e;
  for (;;) {
    // Pick the smallest-key event at `at`: the global queue or any LP.
    EventQueue* src = nullptr;
    if (!global_q_.empty() && global_q_.top_time() == at) src = &global_q_;
    for (auto& lp : lps_) {
      if (lp->queue_.empty() || lp->queue_.top_time() != at) continue;
      if (src == nullptr || lp->queue_.top_before(*src)) src = &lp->queue_;
    }
    if (src == nullptr) break;
    src->pop_into(e);
    global_sched_.cur_depth_ = e.depth;
    if (audit) fold_digest(rec_of(e));
    net_.pdes_dispatch(global_sched_, e);
    ++stats_.events;
  }
}

RunStats Engine::run(const std::vector<workload::FlowSpec>& flows,
                     TimeNs until) {
  const bool audit = audit_enabled();
  net_.pdes_begin(flows);
  specs_ = &flows;
  seed(flows);

  const auto num_lps = lps_.size();
  for (;;) {
    // Global minimum pending event time.
    TimeNs m = Simulator::kMaxTime;
    bool any = false;
    if (!global_q_.empty()) {
      m = global_q_.top_time();
      any = true;
    }
    for (const auto& lp : lps_) {
      if (!lp->queue_.empty()) {
        m = std::min(m, lp->queue_.top_time());
        any = true;
      }
    }
    if (!any || m > until) break;

    const TimeNs next_global =
        global_q_.empty() ? Simulator::kMaxTime : global_q_.top_time();
    if (next_global == m) {
      // A fault/repair is due now: its whole timestamp runs serially.
      run_serial_timestamp(m, audit);
      ++stats_.serial_timestamps;
      continue;
    }

    // Epoch window [m, W): the lookahead bound, clipped so no LP runs
    // past the next shared-state mutation or the caller's horizon.
    TimeNs window = m > Simulator::kMaxTime - lookahead_
                        ? Simulator::kMaxTime
                        : m + lookahead_;
    window = std::min(window, next_global);
    if (until < Simulator::kMaxTime) window = std::min(window, until + 1);

    if (pool_ != nullptr) {
      parallel_for_indexed(*pool_, num_lps, [&](std::size_t i) {
        lps_[i]->run_window(m, window, until, audit);
      });
    } else {
      for (std::size_t i = 0; i < num_lps; ++i) {
        lps_[i]->run_window(m, window, until, audit);
      }
    }

    // Barrier: exchange the timestamped cross-LP batches, and drain the
    // per-LP detection outboxes into the global queue (insertion order is
    // irrelevant -- the queue orders by stable key).
    for (auto& src : lps_) {
      for (std::size_t dst = 0; dst < num_lps; ++dst) {
        for (const auto& e : src->outbox_[dst]) lps_[dst]->queue_.push(e);
        src->outbox_[dst].clear();
      }
      for (const auto& e : src->global_outbox_) global_q_.push(e);
      src->global_outbox_.clear();
    }
    if (audit) merge_epoch_logs();
    ++stats_.epochs;
  }

  for (const auto& lp : lps_) stats_.events += lp->dispatched_;
  stats_.event_digest = digest_.value();
  stats_.lps = static_cast<int>(num_lps);
  stats_.threads = threads_;
  specs_ = nullptr;
  net_.pdes_end();
  return stats_;
}

}  // namespace

RunStats run_parallel(PacketNetwork& net,
                      const std::vector<workload::FlowSpec>& flows,
                      const RunnerConfig& cfg, TimeNs until) {
  const int threads = resolve_threads(cfg.threads);
  const int num_lps = cfg.num_lps > 0 ? cfg.num_lps : threads;
  const TimeNs lookahead = net.config().network_link.propagation;
  // Zero lookahead would make every epoch a single timestamp and -- far
  // worse -- let a same-time cascade cross LPs, breaking the determinism
  // argument. The default LinkConfig gives 100ns.
  FLEXNETS_CHECK(lookahead > 0,
                 "pdes requires network_link.propagation > 0 for lookahead");
  // Gray plans produce kDetect events from inside LPs; the conservative
  // argument needs them to land at or beyond the epoch window, i.e. the
  // detection latency must cover the lookahead.
  if (net.config().faults != nullptr && net.config().faults->has_gray()) {
    FLEXNETS_CHECK(net.config().detector.detect_latency >= lookahead,
                   "pdes requires detect_latency >= lookahead (",
                   net.config().detector.detect_latency, " < ", lookahead,
                   ")");
  }
  const Partition part =
      partition_topology(net.topology(), num_lps, cfg.partition_seed);
  Engine eng(net, part, lookahead, threads);
  return eng.run(flows, until);
}

}  // namespace flexnets::sim::pdes
