// Packet workloads (paper section 6): the section 6.4 Xpander under pFabric
// web-search flows with Poisson arrivals that continue through a fixed
// simulated horizon, where the run stops.
//
//   packet_serial  HYB routing, A2A over all racks, serial engine.
//   packet_pdes    identical inputs on sim::pdes::run_parallel at kThreads;
//                  its outputs must equal the serial engine's.
//   packet_faults  KSP routing (k = 4), Skew(0.04, 0.77) pairs and a seeded
//                  fault plan of binary, lossy, degraded and flapping links,
//                  all healed before the horizon; serial engine (KSP on the
//                  PDES engine races in KspTable::paths).
//   packet         packet_serial then packet_faults on the same wiring, one
//                  round each: the timed packet workload.
//
// One simulation is a fresh network set up, then run from the first event
// to the horizon; one operation is one simulation of each variant the
// workload runs.
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/fct_tracker.hpp"
#include "routing/ksp_table.hpp"
#include "routing/routing_table.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/pdes/partition.hpp"
#include "sim/pdes/runner.hpp"
#include "topo/xpander.hpp"
#include "workload/arrivals.hpp"
#include "workload/flow_size.hpp"
#include "workload/pairs.hpp"

namespace perfbench {

namespace {

using namespace flexnets;

enum class Variant { kSerial, kPdes, kFaults };

struct Shape {
  int degree;
  int lift;
  int servers;
  TimeNs horizon;
};

// Paper: 12 meta-nodes x 18 = 216 switches, 5 servers each (1080 servers).
Shape shape(Size s) {
  return s == Size::kTiny ? Shape{4, 6, 3, 2 * kMillisecond}
                          : Shape{11, 18, 5, 3 * kMillisecond};
}

constexpr double kFlowsPerServerPerSec = 100.0;
// Arrival times, sizes and server pairs are drawn from this fixed seed;
// --seed draws the wiring, the routing salts, the hot racks and the fault
// plan. As in the paper, which fixes the flow set so every topology sees
// the same traffic, this keeps runs on different seeds comparable: a
// seed-drawn web-search list swings the event count by about 9%.
constexpr std::uint64_t kFlowSeed = 1;

// Everything built before the first event. The network holds references
// into the topology, flows and plan, so this is never moved once built.
struct Inputs {
  topo::Xpander x;
  std::vector<workload::FlowSpec> flows;
  fault::FaultPlan plan;
  std::unique_ptr<sim::PacketNetwork> net;
};

fault::RandomFaultOptions fault_options(Size size) {
  const TimeNs h = shape(size).horizon;
  fault::RandomFaultOptions f;
  const bool tiny = size == Size::kTiny;
  f.link_failures = tiny ? 1 : 4;
  f.lossy_links = tiny ? 1 : 6;
  f.loss_prob = 0.05;
  f.degraded_links = tiny ? 1 : 3;
  f.degrade_fraction = 0.5;
  f.flapping_links = tiny ? 1 : 2;
  f.flap_period = 200 * kMicrosecond;
  f.flap_duty = 0.5;
  // Onsets in [h/10, h/2], each healed h/4 later: all healed by 3h/4.
  f.window_begin = h / 10;
  f.window_end = h / 2;
  f.repair_after = h / 4;
  f.allow_tor_failures = true;  // every Xpander switch is a ToR
  return f;
}

std::unique_ptr<Inputs> set_up(const Options& o, Variant v, Tracer& tr) {
  auto in = std::make_unique<Inputs>();
  const Shape sh = shape(o.size);
  {
    auto s = tr.span("topo.build");
    in->x = topo::xpander(sh.degree, sh.lift, sh.servers, o.seed);
  }
  const auto& t = in->x.topo;
  {
    auto s = tr.span("workload.flows");
    const auto pairs = v == Variant::kFaults
                           ? workload::skew_pairs(t, 0.04, 0.77, o.seed)
                           : workload::all_to_all_pairs(t, t.tors());
    const auto sizes = workload::pfabric_web_search();
    const double rate = kFlowsPerServerPerSec * t.num_servers();
    const int n =
        static_cast<int>(std::llround(rate * to_seconds(sh.horizon)));
    in->flows = workload::generate_flows(*pairs, *sizes, rate, n, kFlowSeed);
  }
  sim::NetworkConfig cfg;
  cfg.seed = o.seed;
  cfg.routing.mode = routing::RoutingMode::kHyb;
  if (v == Variant::kFaults) {
    auto s = tr.span("fault.plan");
    cfg.routing.mode = routing::RoutingMode::kKsp;
    cfg.routing.ksp_k = 4;
    in->plan = fault::FaultPlan::random(t, fault_options(o.size), o.seed);
    cfg.faults = &in->plan;
  }
  {
    auto s = tr.span("sim.network_build");
    in->net = std::make_unique<sim::PacketNetwork>(t, cfg);
  }
  return in;
}

struct Outputs {
  Observed obs;  // the checked values, exact text
  std::uint64_t events = 0;
  std::uint64_t flows_completed = 0;
  double completed_share = 0.0;  // of the flows that arrived by the horizon
  sim::PacketNetwork::FaultStats faults;
  sim::pdes::RunStats pdes;
  double sim_s = 0.0;      // wall time
  double sim_cpu_s = 0.0;  // CPU time of the engine's threads
};

Outputs simulate(Inputs& in, Variant v, const Options& o, Tracer& tr) {
  const TimeNs horizon = shape(o.size).horizon;
  auto& net = *in.net;
  Outputs r;
  {
    auto s = tr.span("sim.run");
    if (v == Variant::kPdes) {
      sim::pdes::RunnerConfig pc;
      pc.threads = kThreads;
      r.pdes = sim::pdes::run_parallel(net, in.flows, pc, horizon);
      r.events = r.pdes.events;
    } else {
      net.run(in.flows, horizon);
      r.events = net.simulator().events_processed();
    }
    r.sim_s = s.close();
    // The serial engine runs on the calling thread, which may share the
    // process with another simulation; PDES runs on worker threads.
    r.sim_cpu_s = v == Variant::kPdes ? s.cpu_s() : s.thread_cpu_s();
  }

  // Flow records as core/packet_runner builds them: a flow that never
  // started keeps its scheduled arrival and counts as incomplete.
  std::vector<metrics::FlowRecord> records;
  records.reserve(in.flows.size());
  std::uint64_t arrived = 0;
  for (std::size_t i = 0; i < in.flows.size(); ++i) {
    const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
    if (f.start_time >= 0) {
      ++arrived;
      if (f.completion_time >= 0) ++r.flows_completed;
      records.push_back({f.start_time, f.completion_time, f.size});
    } else {
      records.push_back({in.flows[i].start, -1, in.flows[i].size});
    }
  }
  r.completed_share = arrived == 0 ? 0.0
                                   : static_cast<double>(r.flows_completed) /
                                         static_cast<double>(arrived);
  const auto fct = metrics::summarize(records, 0, horizon,
                                      workload::kShortFlowThreshold);
  auto& obs = r.obs;
  obs["events"] = std::to_string(r.events);
  obs["drops"] = std::to_string(net.total_drops());
  obs["ecn_marks"] = std::to_string(net.total_ecn_marks());
  obs["flows_completed"] = std::to_string(r.flows_completed);
  obs["fct.avg_ms"] = exact(fct.avg_fct_ms);
  obs["fct.p50_ms"] = exact(fct.p50_fct_ms);
  obs["fct.p99_ms"] = exact(fct.p99_fct_ms);
  obs["fct.p99_short_ms"] = exact(fct.p99_short_fct_ms);
  obs["fct.avg_long_tput_gbps"] = exact(fct.avg_long_tput_gbps);
  obs["fct.measured_flows"] = std::to_string(fct.measured_flows);
  obs["fct.incomplete_flows"] = std::to_string(fct.incomplete_flows);
  if (v == Variant::kFaults) {
    r.faults = net.fault_stats();
    const auto& fs = r.faults;
    obs["fault.post_repair_blackholes"] =
        std::to_string(fs.post_repair_blackholes);
    obs["fault.blackhole_drops"] = std::to_string(fs.blackhole_drops);
    obs["fault.expelled_packets"] = std::to_string(fs.expelled_packets);
    obs["fault.aborted_flows"] = std::to_string(fs.aborted_flows);
    obs["fault.repairs"] = std::to_string(fs.repairs);
    obs["fault.detections"] = std::to_string(fs.detections);
    obs["fault.gray_loss_drops"] = std::to_string(fs.gray_loss_drops);
  }
  return r;
}

// Checks one simulation against the reference outputs (pins, the serial
// engine, or the run's first simulation) and the pin-free invariants.
std::vector<std::string> check(const Outputs& r, Variant v,
                               const Observed& ref, const std::string& ref_name) {
  Check c;
  c.expect(r.events > 0, "no events dispatched");
  c.expect(r.flows_completed > 0, "no flow completed by the horizon");
  if (v == Variant::kFaults) {
    c.expect(r.faults.post_repair_blackholes == 0,
             "post_repair_blackholes = " +
                 std::to_string(r.faults.post_repair_blackholes));
  }
  c.same(r.obs, ref, ref_name);
  return c.problems();
}

// --- Decomposition calls of the traced run ---------------------------------

// 64k events pushed with random times, then popped; median ns per
// push+pop over several rounds. Pops must come out in time order.
double queue_ns_per_push_pop(Tracer& tr, Check& c) {
  auto s = tr.span("sim.event_queue.replay");
  constexpr std::size_t kEvents = 65536;
  sim::EventQueue q;
  q.reserve(kEvents);
  std::vector<double> per_op;
  bool ordered = true;
  for (std::uint64_t round = 1; round <= 9; ++round) {
    Rng rng(round);
    const double t0 = now_s();
    for (std::size_t i = 0; i < kEvents; ++i) {
      sim::Event e;
      e.time = static_cast<TimeNs>(rng.next_u64(1'000'000));
      q.push(std::move(e));
    }
    TimeNs last = 0;
    while (!q.empty()) {
      const auto e = q.pop();
      ordered = ordered && e.time >= last;
      last = e.time;
    }
    per_op.push_back((now_s() - t0) * 1e9 / kEvents);
  }
  c.expect(ordered, "event queue popped out of time order");
  return median(per_op);
}

// Link enqueue/on_dequeue cycles: 64 full-sized packets queued on an idle
// link, then drained; median ns per packet over several batches.
double link_ns_per_packet(Tracer& tr, Check& c) {
  auto s = tr.span("sim.link.replay");
  sim::Simulator simulator;
  const sim::LinkConfig cfg;
  sim::Link link(0, 0, 1, cfg);
  simulator.set_handler([&](const sim::Event& e) {
    if (e.type == sim::EventType::kLinkDequeue) link.on_dequeue(simulator);
  });
  sim::Packet p;
  p.wire_size = 1500;
  constexpr int kBatch = 64;
  constexpr int kCycles = 200;
  std::vector<double> per_packet;
  for (int batch = 0; batch < 9; ++batch) {
    const double t0 = now_s();
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (int i = 0; i < kBatch; ++i) link.enqueue(simulator, p);
      simulator.run();
    }
    per_packet.push_back((now_s() - t0) * 1e9 / (kBatch * kCycles));
  }
  c.expect(link.packets_sent() == std::uint64_t{9} * kCycles * kBatch &&
               link.drops() == 0,
           "link replay lost packets");
  return median(per_packet);
}

// Cold k-shortest paths for every ToR pair the flow list uses.
double ksp_cold_s(const Inputs& in, Tracer& tr) {
  const auto& t = in.x.topo;
  std::set<std::pair<graph::NodeId, graph::NodeId>> tor_pairs;
  for (const auto& f : in.flows) {
    tor_pairs.emplace(t.switch_of_server(f.src_server),
                      t.switch_of_server(f.dst_server));
  }
  routing::KspTable ksp(t.g, 4);
  auto s = tr.span("routing.ksp");
  for (const auto& [a, b] : tor_pairs) {
    if (a != b) (void)ksp.paths(a, b);
  }
  return s.close();
}

double cross_lp_link_share(const topo::Topology& t, int lps) {
  const auto part = sim::pdes::partition_topology(t, lps, 1);
  std::int64_t cross = 0;
  for (const auto& e : t.g.edges()) cross += part.lp_of(e.a) != part.lp_of(e.b);
  return t.g.num_edges() == 0 ? 0.0
                              : static_cast<double>(cross) /
                                    static_cast<double>(t.g.num_edges());
}

std::vector<Variant> variants_of(const std::string& workload) {
  if (workload == "packet") return {Variant::kSerial, Variant::kFaults};
  if (workload == "packet_pdes") return {Variant::kPdes};
  if (workload == "packet_faults") return {Variant::kFaults};
  return {Variant::kSerial};
}

std::string pin_group(Variant v) {
  return v == Variant::kFaults ? "faults" : "packet";
}

// The traced operation of one variant, its decomposition calls and an
// untraced repeat. Metrics of layers every variant enters come from spans
// this call records, so a later call sets them again; the fault.* and
// routing.ksp_s metrics come from the fault variant only.
void traced_run(const Options& o, Variant v, const Observed& pins,
                Tracer& tr, Outcome& out) {
  tr.set_recording(true);
  const std::size_t first_span = tr.num_spans();
  const auto first_s = [&](const std::string& name) {
    return tr.first_s(name, first_span);
  };
  // The traced operation, with every span recorded.
  double traced_shared = 0.0;
  std::unique_ptr<Inputs> in;
  {
    auto s = tr.span("setup");
    in = set_up(o, v, tr);
    traced_shared += s.close();
  }
  const Outputs r = simulate(*in, v, o, tr);
  traced_shared += r.sim_s;

  // Decomposition calls, each its own span.
  Check extra;
  const auto& t = in->x.topo;
  {
    auto s = tr.span("routing.ecmp_build");
    (void)routing::EcmpTable::build(t.g, t.tors());
  }
  const double ksp_s = v == Variant::kFaults ? ksp_cold_s(*in, tr) : 0.0;
  const double queue_ns = queue_ns_per_push_pop(tr, extra);
  const double link_ns = link_ns_per_packet(tr, extra);

  Observed ref = pins;
  std::string ref_name = "pin";
  // The other engine on the same inputs: PDES next to a serial run and the
  // serial engine next to a PDES run. It gives the speedup, the PDES
  // layer's counters, and the serial outputs PDES must reproduce.
  std::optional<Outputs> other;
  if (v != Variant::kFaults) {
    const Variant w = v == Variant::kPdes ? Variant::kSerial : Variant::kPdes;
    auto s = tr.span("sim.other_engine");
    auto other_in = set_up(o, w, tr);
    other = simulate(*other_in, w, o, tr);
  }
  const Outputs* serial = nullptr;
  const Outputs* pdes = nullptr;
  if (other) {
    serial = v == Variant::kSerial ? &r : &*other;
    pdes = v == Variant::kPdes ? &r : &*other;
  }
  if (ref.empty()) {
    // No pins for this seed: the serial engine is the reference (the
    // untraced repeat below then also checks determinism).
    ref = serial != nullptr ? serial->obs : r.obs;
    ref_name = serial != nullptr ? "serial engine" : "first simulation";
  }
  {
    auto problems = check(r, v, ref, ref_name);
    if (other) {
      const auto more = check(*other, v, ref, ref_name);
      problems.insert(problems.end(), more.begin(), more.end());
    }
    problems.insert(problems.end(), extra.problems().begin(),
                    extra.problems().end());
    out.op(problems);
  }

  // The same operation untraced: the tracing overhead is the difference
  // of the spans both share (set-up and simulation).
  const auto spans = tr.num_spans();
  tr.set_recording(false);
  double untraced_shared = 0.0;
  {
    auto s = tr.span("setup");
    auto again = set_up(o, v, tr);
    untraced_shared += s.close();
    const Outputs r2 = simulate(*again, v, o, tr);
    untraced_shared += r2.sim_s;
    out.op(check(r2, v, ref, ref_name));
  }

  const double events = static_cast<double>(r.events);
  out.metric("topo.build_s", first_s("topo.build"), "s");
  out.metric("workload.flows_s", first_s("workload.flows"), "s");
  out.metric("workload.flows", static_cast<double>(in->flows.size()), "count");
  out.metric("routing.ecmp_build_s", first_s("routing.ecmp_build"), "s");
  out.metric("sim.network_build_s", first_s("sim.network_build"), "s");
  out.metric("sim.events", events, "count");
  out.metric("sim.ns_per_event", r.sim_s * 1e9 / events, "ns");
  out.metric("sim.drops", std::stod(r.obs.at("drops")), "count");
  out.metric("sim.ecn_marks", std::stod(r.obs.at("ecn_marks")), "count");
  out.metric("sim.flows_completed", static_cast<double>(r.flows_completed),
             "count");
  out.metric("sim.event_queue.ns_per_push_pop", queue_ns, "ns");
  out.metric("sim.link.ns_per_packet", link_ns, "ns");
  if (pdes != nullptr) {
    const double epochs = static_cast<double>(pdes->pdes.epochs);
    out.metric("sim.pdes.epochs", epochs, "count");
    out.metric("sim.pdes.events_per_epoch",
               static_cast<double>(pdes->events) / epochs, "count");
    out.metric("sim.pdes.ns_per_epoch", pdes->sim_s * 1e9 / epochs, "ns");
    out.metric("sim.pdes.cross_lp_link_share",
               cross_lp_link_share(t, pdes->pdes.lps), "fraction");
    out.metric("sim.pdes.speedup_vs_serial", serial->sim_s / pdes->sim_s,
               "ratio");
  }
  if (v == Variant::kFaults) {
    const auto& fs = r.faults;
    out.metric("routing.ksp_s", ksp_s, "s");
    out.metric("fault.events", static_cast<double>(in->plan.events().size()),
               "count");
    out.metric("fault.repairs", static_cast<double>(fs.repairs), "count");
    out.metric("fault.detections", static_cast<double>(fs.detections), "count");
    out.metric("fault.gray_loss_drops", static_cast<double>(fs.gray_loss_drops),
               "count");
    out.metric("fault.blackhole_drops", static_cast<double>(fs.blackhole_drops),
               "count");
    out.metric("fault.expelled_packets",
               static_cast<double>(fs.expelled_packets), "count");
  }
  out.metric("trace.spans", static_cast<double>(spans), "count");
  out.metric("trace.overhead_s", traced_shared - untraced_shared, "s");
}

// One set-up and simulation of a variant; its set-up CPU time is the
// calling thread's.
struct VariantRun {
  Outputs r;
  double setup_cpu_s = 0.0;
};

VariantRun run_variant(const Options& o, Variant v, Tracer& tr) {
  VariantRun run;
  std::unique_ptr<Inputs> in;
  {
    auto s = tr.span("setup");
    in = set_up(o, v, tr);
    run.setup_cpu_s = s.thread_cpu_s();
  }
  run.r = simulate(*in, v, o, tr);
  return run;
}

}  // namespace

void run_packet(const Options& o, Tracer& tr, Outcome& out) {
  const std::vector<Variant> variants = variants_of(o.workload);
  std::string error;
  auto load_pins = [&](Variant v, std::uint64_t seed) {
    const auto pins =
        Pins::load(o.pins_path, pin_group(v), o.size, seed, &error);
    if (!pins) throw std::runtime_error(error);
    return pins->values();
  };
  if (o.trace) {
    // The fault variant first, so that the layers both variants enter
    // report the last, HYB serial, run.
    for (auto it = variants.rbegin(); it != variants.rend(); ++it) {
      traced_run(o, *it, load_pins(*it, o.seed), tr, out);
    }
    return;
  }

  // Rounds of one set-up and one simulation per variant, rotating over the
  // instances, until the window is spent; every instance runs at least
  // twice, so each simulation is checked against its pins or its own first
  // run. The variants of a round run at once, one thread each. The samples
  // are CPU times summed over the round's variants: on a shared host the
  // speed of one vCPU swings with its neighbours' load, and the sum over
  // two threads averages two vCPUs. The window is kept on the wall clock.
  // The resident peak is taken per round (see reset_peak_rss), so heap an
  // earlier round freed but the allocator kept does not set it.
  constexpr int kInstances = 4;
  struct Reference {
    Observed obs;
    std::string name = "pin";
  };
  struct Instance {
    Options opts;
    std::vector<Reference> refs;  // one per variant
    std::vector<double> round_cpu_s;
    std::vector<double> peak_mb;
    double completed_share = 0.0;  // mean over the variants
  };
  std::vector<Instance> instances(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    auto& x = instances[static_cast<std::size_t>(i)];
    x.opts = o;
    x.opts.seed = instance_seed(o.seed, i);
    for (const Variant v : variants) {
      x.refs.push_back({load_pins(v, x.opts.seed)});
    }
  }
  std::vector<double> setup_times;
  std::vector<double> round_wall_s;
  const double deadline = now_s() + o.seconds;
  for (std::size_t round = 0;; ++round) {
    if (round >= 2 * kInstances && now_s() + median(round_wall_s) > deadline) {
      break;
    }
    const double round_start = now_s();
    auto& x = instances[round % kInstances];
    const bool first_round = x.round_cpu_s.empty();
    if (variants.front() == Variant::kPdes && x.refs.front().obs.empty()) {
      // No pins: the serial engine on the same inputs is the reference
      // every parallel run must reproduce.
      auto in = set_up(x.opts, Variant::kSerial, tr);
      x.refs.front() = {simulate(*in, Variant::kSerial, x.opts, tr).obs,
                        "serial engine"};
    }
    reset_peak_rss();
    std::vector<std::future<VariantRun>> others;
    for (std::size_t k = 1; k < variants.size(); ++k) {
      others.push_back(std::async(std::launch::async, run_variant,
                                  std::cref(x.opts), variants[k],
                                  std::ref(tr)));
    }
    std::vector<VariantRun> runs;
    runs.push_back(run_variant(x.opts, variants.front(), tr));
    for (auto& f : others) runs.push_back(f.get());

    double setup_cpu = 0.0;
    double sim_cpu = 0.0;
    double completed = 0.0;
    for (std::size_t k = 0; k < variants.size(); ++k) {
      const Variant v = variants[k];
      Reference& ref = x.refs[k];
      const Outputs& r = runs[k].r;
      setup_cpu += runs[k].setup_cpu_s;
      if (ref.obs.empty()) {
        // Later simulations must reproduce the first.
        ref = {r.obs, "first simulation"};
      }
      if (first_round) {
        const auto lines = pin_lines(pin_group(v), o.size, x.opts.seed, r.obs);
        out.pin_lines.insert(out.pin_lines.end(), lines.begin(), lines.end());
      }
      out.op(check(r, v, ref.obs, ref.name));
      sim_cpu += r.sim_cpu_s;
      completed += r.completed_share / static_cast<double>(variants.size());
    }
    setup_times.push_back(setup_cpu);
    x.round_cpu_s.push_back(sim_cpu);
    x.peak_mb.push_back(peak_rss_mb());
    x.completed_share = completed;
    round_wall_s.push_back(now_s() - round_start);
  }

  std::vector<std::vector<double>> per_instance;
  std::vector<std::vector<double>> peaks;
  std::vector<double> all_rounds;
  std::vector<double> all_peaks;
  double completed = 0.0;
  for (const auto& x : instances) {
    per_instance.push_back(x.round_cpu_s);
    peaks.push_back(x.peak_mb);
    all_rounds.insert(all_rounds.end(), x.round_cpu_s.begin(),
                      x.round_cpu_s.end());
    all_peaks.insert(all_peaks.end(), x.peak_mb.begin(), x.peak_mb.end());
    completed += x.completed_share / kInstances;
  }
  note_samples("setup_s", setup_times);
  note_samples("op_cpu_s", all_rounds);
  note_samples("round_wall_s", round_wall_s);
  note_samples("peak_rss_mb", all_peaks);
  out.metric("setup_s", median(setup_times), "s");
  out.metric("op_cpu_s", mean_of_medians(per_instance), "s");
  out.metric("peak_rss_mb", mean_of_medians(peaks), "MB");
  out.metric("quality", completed, "fraction");
}

}  // namespace perfbench
