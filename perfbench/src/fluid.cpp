// Fluid workloads (paper section 5).
//
//   fluid    GK sweeps over the default ten active-rack fractions at
//            eps = 0.1 and kThreads workers, for longest-matching and
//            all-to-all TMs on a Jellyfish (degree 8, 4 servers per
//            switch). The sweep entry is core::fluid_sweep_resilient: the
//            same points as core::fluid_sweep, plus each point's Status.
//            One operation is one GK point. Its traced run also measures
//            the bracket's layers.
//   bracket  flow::throughput_bracket on the implicit all-to-all of a
//            100k-switch topo::jellyfish_csr (degree 16, 8 servers per
//            switch). One operation is one bracket. Not a timed workload.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <set>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/fluid_runner.hpp"
#include "flow/bracket.hpp"
#include "flow/mcf.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "flow/tm_view.hpp"
#include "topo/csr/csr_algorithms.hpp"
#include "topo/jellyfish.hpp"

namespace perfbench {

namespace {

using namespace flexnets;

struct Shape {
  int switches;
  int degree;
  int servers;
};

Shape gk_shape(Size s) {
  return s == Size::kTiny ? Shape{16, 4, 2} : Shape{80, 8, 4};
}
Shape bracket_shape(Size s) {
  return s == Size::kTiny ? Shape{2'000, 8, 4} : Shape{100'000, 16, 8};
}

constexpr double kEps = 0.1;
constexpr core::TmFamily kFamilies[] = {core::TmFamily::kLongestMatching,
                                        core::TmFamily::kAllToAll};

std::string family_name(core::TmFamily f) {
  return f == core::TmFamily::kAllToAll ? "all_to_all" : "longest_matching";
}

std::string lambda_key(core::TmFamily f, std::size_t i) {
  return "lambda." + family_name(f) + "." + std::to_string(i);
}

// ---------------------------------------------------------------------------
// fluid

struct GkInputs {
  topo::Topology topo;
  flow::ThroughputCache cache;
};

GkInputs set_up_gk(const Options& o, Tracer& tr) {
  const Shape sh = gk_shape(o.size);
  GkInputs in;
  {
    auto s = tr.span("topo.build");
    in.topo = topo::jellyfish(sh.switches, sh.degree, sh.servers, o.seed);
  }
  {
    auto s = tr.span("flow.cache_build");
    in.cache = flow::build_throughput_cache(in.topo);
  }
  return in;
}

core::FluidSweepOptions sweep_options(const Options& o, core::TmFamily f) {
  core::FluidSweepOptions so;
  so.family = f;
  so.eps = kEps;
  so.seed = o.seed;
  so.threads = kThreads;
  return so;
}

// Both sweeps: the point records of each family in sweep order, the sweep
// wall and CPU times and, in a traced run, how many threads computed points.
struct Sweeps {
  std::vector<std::vector<core::FluidPointRecord>> recs;
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
  std::vector<int> threads;
  [[nodiscard]] double total_s() const {
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum;
  }
  [[nodiscard]] double total_cpu_s() const {
    double sum = 0.0;
    for (const double s : cpu_seconds) sum += s;
    return sum;
  }
  [[nodiscard]] std::size_t points() const {
    std::size_t n = 0;
    for (const auto& r : recs) n += r.size();
    return n;
  }
};

// The distinct threads a sweep computed points on, recorded by its point
// hook: the pool's workers plus the calling thread, which helps while it
// waits.
class PointThreads {
 public:
  void add() {
    const std::lock_guard<std::mutex> lock(mu_);
    ids_.insert(std::this_thread::get_id());
  }
  [[nodiscard]] int count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(ids_.size());
  }

 private:
  mutable std::mutex mu_;
  std::set<std::thread::id> ids_;
};

Sweeps run_sweeps(const Options& o, const GkInputs& in, Tracer& tr) {
  Sweeps out;
  for (const auto f : kFamilies) {
    core::ResilientSweepOptions ro;
    ro.sweep = sweep_options(o, f);
    PointThreads threads;
    if (tr.recording()) ro.sweep.point_hook = [&threads](std::size_t) { threads.add(); };
    auto s = tr.span("core.sweep." + family_name(f));
    out.recs.push_back(core::fluid_sweep_resilient(in.topo, ro));
    out.seconds.push_back(s.close());
    out.cpu_seconds.push_back(s.cpu_s());
    out.threads.push_back(threads.count());
  }
  return out;
}

Observed observe(const Sweeps& sw) {
  Observed obs;
  for (std::size_t k = 0; k < sw.recs.size(); ++k) {
    for (std::size_t i = 0; i < sw.recs[k].size(); ++i) {
      obs[lambda_key(kFamilies[k], i)] = exact(sw.recs[k][i].point.throughput);
    }
  }
  return obs;
}

double lambda_mean(const Sweeps& sw) {
  double sum = 0.0;
  for (const auto& fam : sw.recs) {
    for (const auto& r : fam) sum += r.point.throughput;
  }
  return sum / static_cast<double>(sw.points());
}

// One operation per point: an ok Status, lambda in (0, 1], within 3 eps
// (relative) of its pin as the golden-lambda suite allows, and bit-equal
// to the same point of the run's first sweeps (determinism).
void check_sweeps(const Sweeps& sw, const Observed& pins, const Observed& first,
                  Outcome& out) {
  for (std::size_t k = 0; k < sw.recs.size(); ++k) {
    for (std::size_t i = 0; i < sw.recs[k].size(); ++i) {
      const auto& rec = sw.recs[k][i];
      const std::string key = lambda_key(kFamilies[k], i);
      const double lambda = rec.point.throughput;
      Check c;
      c.expect(rec.status.ok(), key + ": " + rec.status.to_string());
      c.expect(lambda > 0.0 && lambda <= 1.0,
               key + " = " + exact(lambda) + " outside (0, 1]");
      if (const auto it = pins.find(key); it != pins.end()) {
        const double pin = std::strtod(it->second.c_str(), nullptr);
        c.expect(std::abs(lambda - pin) <= 3.0 * kEps * pin,
                 key + " = " + exact(lambda) + ", more than 3 eps from pin " +
                     it->second);
      }
      if (const auto it = first.find(key); it != first.end()) {
        c.expect(it->second == exact(lambda),
                 key + " = " + exact(lambda) + ", first sweep had " +
                     it->second);
      }
      out.op(c.problems());
    }
  }
}

// Rebuilds every point of the sweeps from its sub-seed, as core's sweep
// computes it, with each step in its own span; a rebuilt lambda must equal
// the sweep's bit for bit.
void rebuild_points(const Options& o, const GkInputs& in, const Sweeps& sw,
                    Tracer& tr, Outcome& out) {
  const auto num_tors = in.topo.tors().size();
  double all_solve = 0.0, all_phases = 0.0, all_calls = 0.0;
  double point_sum = 0.0, capacity = 0.0, max_share = 0.0;
  for (std::size_t k = 0; k < sw.recs.size(); ++k) {
    const auto f = kFamilies[k];
    const auto so = sweep_options(o, f);
    double solve = 0.0, phases = 0.0, calls = 0.0, slowest = 0.0;
    for (std::size_t i = 0; i < so.fractions.size(); ++i) {
      auto point = tr.span("flow.point");
      const std::uint64_t sub_seed = hash_words(so.seed, i);
      flow::TrafficMatrix tm;
      {
        auto s = tr.span("flow.tm_build");
        const int count = std::clamp<int>(
            static_cast<int>(std::llround(so.fractions[i] *
                                          static_cast<double>(num_tors))),
            2, static_cast<int>(num_tors));
        const auto active = flow::pick_active_racks(in.topo, count, sub_seed);
        tm = f == core::TmFamily::kAllToAll
                 ? flow::all_to_all_tm(in.topo, active)
                 : flow::longest_matching_tm(in.topo, active);
      }
      flow::McfInstance inst;
      {
        auto s = tr.span("flow.instance_build");
        inst = flow::build_mcf_instance(in.cache, tm);
      }
      flow::McfResult r;
      {
        auto s = tr.span("flow.gk.solve");
        r = flow::max_concurrent_flow(inst.num_nodes, inst.edges,
                                      inst.commodities, so.eps, so.limits);
        solve += s.close();
      }
      const double point_s = point.close();
      point_sum += point_s;
      slowest = std::max(slowest, point_s);
      phases += r.phases;
      calls += static_cast<double>(r.dijkstra_calls);

      const double lambda = std::clamp(r.lambda, 0.0, 1.0);
      const double swept = sw.recs[k][i].point.throughput;
      Check c;
      c.expect(exact(lambda) == exact(swept),
               lambda_key(f, i) + " rebuilt as " + exact(lambda) +
                   ", the sweep had " + exact(swept));
      c.expect(r.status.ok(), lambda_key(f, i) + ": " + r.status.to_string());
      out.op(c.problems());
    }
    const std::string p = "flow.gk." + family_name(f);
    out.metric(p + ".solve_s", solve, "s");
    out.metric(p + ".phases", phases, "count");
    out.metric(p + ".dijkstra_calls", calls, "count");
    out.metric(p + ".ns_per_dijkstra", solve * 1e9 / calls, "ns");
    all_solve += solve;
    all_phases += phases;
    all_calls += calls;
    capacity += sw.threads[k] * sw.seconds[k];
    max_share = std::max(max_share, slowest / sw.seconds[k]);
  }
  out.metric("flow.tm_build_s", tr.total_s("flow.tm_build"), "s");
  out.metric("flow.instance_build_s", tr.total_s("flow.instance_build"), "s");
  out.metric("flow.gk.solve_s", all_solve, "s");
  out.metric("flow.gk.phases", all_phases, "count");
  out.metric("flow.gk.dijkstra_calls", all_calls, "count");
  out.metric("flow.gk.ns_per_dijkstra", all_solve * 1e9 / all_calls, "ns");
  // Rebuilt point times against the sweeps' thread capacity.
  out.metric("core.sweep.parallel_efficiency", point_sum / capacity, "fraction");
  out.metric("core.sweep.max_point_share", max_share, "fraction");
  out.metric("core.sweep.threads", sw.threads.front(), "count");
}

// ---------------------------------------------------------------------------
// bracket

topo::CsrTopology set_up_csr(const Options& o, Tracer& tr) {
  const Shape sh = bracket_shape(o.size);
  auto s = tr.span("topo.csr.build");
  return topo::jellyfish_csr(sh.switches, sh.degree, sh.servers, o.seed);
}

struct BracketRun {
  flow::ThroughputBracket br;
  double seconds = 0.0;  // TM view + bracket, wall time
  double cpu_seconds = 0.0;
};

BracketRun bracket_once(const Options& o, const topo::CsrTopology& t,
                        Tracer& tr) {
  auto op = tr.span("bracket");
  flow::TmView view = [&] {
    auto s = tr.span("flow.tm_view");
    const auto active = flow::pick_active_racks_csr(
        t, static_cast<int>(t.tors().size()), o.seed);
    return flow::all_to_all_view(t, active);
  }();
  BracketRun r;
  {
    auto s = tr.span("flow.bracket");
    flow::BracketOptions bo;
    bo.seed = o.seed;
    r.br = flow::throughput_bracket(t, view, bo);
  }
  r.seconds = op.close();
  r.cpu_seconds = op.cpu_s();
  return r;
}

// An ok status, 0 < lower <= upper, and the same bits as the run's first
// bracket (determinism).
std::vector<std::string> check_bracket(const BracketRun& r,
                                       const BracketRun* first) {
  Check c;
  c.expect(r.br.status.ok(), "bracket: " + r.br.status.to_string());
  c.expect(r.br.lower > 0.0 && r.br.lower <= r.br.upper,
           "bracket lower " + exact(r.br.lower) + ", upper " +
               exact(r.br.upper));
  if (first != nullptr) {
    c.expect(exact(r.br.lower) == exact(first->br.lower) &&
                 exact(r.br.upper) == exact(first->br.upper),
             "bracket differs from the run's first");
  }
  return c.problems();
}

// The traced bracket and its decomposition calls, with the bracket's
// per-layer metrics; also the decomposition of the traced fluid run, whose
// untimed bracket it is. Returns the bracket run and, in `shared_s`, the
// traced time of its set-up and bracket.
BracketRun bracket_layers(const Options& o, Tracer& tr, Outcome& out,
                          double* shared_s) {
  topo::CsrTopology t;
  {
    auto s = tr.span("setup");
    t = set_up_csr(o, tr);
    *shared_s = s.close();
  }
  const BracketRun r = bracket_once(o, t, tr);
  *shared_s += r.seconds;
  out.op(check_bracket(r, nullptr));
  {
    auto s = tr.span("topo.csr.bfs_tree");
    (void)topo::csr_bfs_tree(t, 0);
  }
  {
    auto s = tr.span("topo.csr.spectral");
    (void)topo::csr_second_eigenvector(t, flow::BracketOptions{}.power_iterations,
                                       o.seed);
  }
  out.metric("topo.csr.build_s", tr.first_s("topo.csr.build"), "s");
  out.metric("topo.csr.bfs_tree_s", tr.first_s("topo.csr.bfs_tree"), "s");
  out.metric("topo.csr.spectral_s", tr.first_s("topo.csr.spectral"), "s");
  out.metric("flow.tm_view_s", tr.first_s("flow.tm_view"), "s");
  out.metric("flow.bracket_s", tr.first_s("flow.bracket"), "s");
  out.metric("flow.bracket.lower", r.br.lower, "fraction");
  out.metric("flow.bracket.upper", r.br.upper, "fraction");
  out.metric("flow.bracket.upper_path_length", r.br.upper_path_length,
             "fraction");
  out.metric("flow.bracket.gap", r.br.upper / r.br.lower, "ratio");
  return r;
}

void traced_bracket(const Options& o, Tracer& tr, Outcome& out) {
  double traced_shared = 0.0;
  const BracketRun r = bracket_layers(o, tr, out, &traced_shared);

  const auto spans = tr.num_spans();
  tr.set_recording(false);
  double untraced_shared = 0.0;
  {
    auto s = tr.span("setup");
    const auto again = set_up_csr(o, tr);
    untraced_shared += s.close();
    const BracketRun r2 = bracket_once(o, again, tr);
    untraced_shared += r2.seconds;
    out.op(check_bracket(r2, &r));
  }
  out.metric("trace.spans", static_cast<double>(spans), "count");
  out.metric("trace.overhead_s", traced_shared - untraced_shared, "s");
}

void traced_fluid(const Options& o, const Observed& pins, Tracer& tr,
                  Outcome& out) {
  double traced_shared = 0.0;
  GkInputs in;
  {
    auto s = tr.span("setup");
    in = set_up_gk(o, tr);
    traced_shared += s.close();
  }
  const Sweeps sw = run_sweeps(o, in, tr);
  traced_shared += sw.total_s();
  // Read before anything else grows the process: the GK peak alone.
  out.metric("flow.gk.peak_rss_mb", peak_rss_mb(), "MB");
  const Observed first = observe(sw);
  check_sweeps(sw, pins, first, out);
  rebuild_points(o, in, sw, tr, out);
  // The bracket is not timed in a fluid run; its layers are measured here.
  double bracket_s = 0.0;
  (void)bracket_layers(o, tr, out, &bracket_s);

  const auto spans = tr.num_spans();
  tr.set_recording(false);
  double untraced_shared = 0.0;
  {
    auto s = tr.span("setup");
    const GkInputs again = set_up_gk(o, tr);
    untraced_shared += s.close();
    const Sweeps sw2 = run_sweeps(o, again, tr);
    untraced_shared += sw2.total_s();
    check_sweeps(sw2, pins, first, out);
  }

  out.metric("topo.build_s", tr.first_s("topo.build"), "s");
  out.metric("flow.cache_build_s", tr.first_s("flow.cache_build"), "s");
  out.metric("flow.gk.lambda_mean", lambda_mean(sw), "fraction");
  out.metric("trace.spans", static_cast<double>(spans), "count");
  out.metric("trace.overhead_s", traced_shared - untraced_shared, "s");
}

}  // namespace

void run_fluid(const Options& o, Tracer& tr, Outcome& out) {
  std::string error;
  auto load_pins = [&](std::uint64_t seed) {
    const auto pins = Pins::load(o.pins_path, "fluid", o.size, seed, &error);
    if (!pins) throw std::runtime_error(error);
    return pins->values();
  };
  if (o.trace) {
    traced_fluid(o, load_pins(o.seed), tr, out);
    return;
  }

  // Rounds of set-up and one sweep pair, rotating over the instances, until
  // the window is spent; at least one round per instance. A set-up takes
  // tens of microseconds, so each of a round's set-up samples is the mean
  // of a batch. A pair's op_cpu_s sample is its CPU time, summed over the
  // sweep's threads, per GK point; the window is kept on the wall clock. The
  // resident peak is taken per round, as in the packet workloads.
  constexpr int kInstances = 3;
  constexpr int kSetUpBatch = 50;
  struct Instance {
    Options opts;
    Observed pins;
    Observed first;
    std::vector<double> per_point;
    std::vector<double> peak_mb;
    double lambda_mean = 0.0;
  };
  std::vector<Instance> instances(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    auto& x = instances[static_cast<std::size_t>(i)];
    x.opts = o;
    x.opts.seed = instance_seed(o.seed, i);
    x.pins = load_pins(x.opts.seed);
  }
  std::vector<double> setup_times;
  std::vector<double> pair_s;
  const double deadline = now_s() + o.seconds;
  for (std::size_t round = 0;; ++round) {
    if (round >= kInstances && now_s() + median(pair_s) > deadline) break;
    auto& x = instances[round % kInstances];
    reset_peak_rss();
    GkInputs in;
    for (int sample = 0; sample < 3; ++sample) {
      auto s = tr.span("setup");
      for (int k = 0; k < kSetUpBatch; ++k) in = set_up_gk(x.opts, tr);
      setup_times.push_back(s.cpu_s() / kSetUpBatch);
    }
    const Sweeps sw = run_sweeps(x.opts, in, tr);
    if (x.first.empty()) {
      x.first = observe(sw);
      const auto lines = pin_lines("fluid", o.size, x.opts.seed, x.first);
      out.pin_lines.insert(out.pin_lines.end(), lines.begin(), lines.end());
      x.lambda_mean = lambda_mean(sw);
    }
    check_sweeps(sw, x.pins, x.first, out);
    pair_s.push_back(sw.total_s());
    x.per_point.push_back(sw.total_cpu_s() / static_cast<double>(sw.points()));
    x.peak_mb.push_back(peak_rss_mb());
  }

  std::vector<std::vector<double>> per_instance;
  std::vector<std::vector<double>> peaks;
  double quality = 0.0;
  for (const auto& x : instances) {
    per_instance.push_back(x.per_point);
    peaks.push_back(x.peak_mb);
    quality += x.lambda_mean / kInstances;
  }
  note_samples("setup_s", setup_times);
  note_samples("pair_wall_s", pair_s);
  out.metric("setup_s", median(setup_times), "s");
  out.metric("op_cpu_s", mean_of_medians(per_instance), "s");
  out.metric("peak_rss_mb", mean_of_medians(peaks), "MB");
  out.metric("quality", quality, "fraction");
}

void run_bracket(const Options& o, Tracer& tr, Outcome& out) {
  if (o.trace) {
    traced_bracket(o, tr, out);
    return;
  }

  std::vector<double> setup_times;
  topo::CsrTopology t;
  for (int i = 0; i < 5; ++i) {
    auto s = tr.span("setup");
    t = set_up_csr(o, tr);
    setup_times.push_back(s.cpu_s());
  }

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<BracketRun> runs;
  const double deadline = now_s() + o.seconds;
  while (wall.size() < 5 || now_s() + median(wall) <= deadline) {
    runs.push_back(bracket_once(o, t, tr));
    out.op(check_bracket(runs.back(), runs.size() > 1 ? &runs.front() : nullptr));
    wall.push_back(runs.back().seconds);
    cpu.push_back(runs.back().cpu_seconds);
  }

  const auto& br = runs.front().br;
  note_samples("setup_s", setup_times);
  note_samples("op_cpu_s", cpu);
  note_samples("op_wall_s", wall);
  out.metric("setup_s", median(setup_times), "s");
  out.metric("op_cpu_s", median(cpu), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("quality", br.lower / br.upper, "fraction");
}

}  // namespace perfbench
