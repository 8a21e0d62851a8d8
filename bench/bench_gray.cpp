// Cost-equalized resilience showdown under gray failures: fat-tree vs
// Xpander vs Jellyfish (the expanders built from the same switching
// equipment, hosting at least as many servers) swept across a
// (loss_prob x detect_threshold x flap_period) grid. Every cell injects
// the same gray cocktail — two lossy links, one degraded link, one
// flapping link, plus one hard link-down so the per-class drop breakdown
// exercises all three classes — and reports p50/p99 FCT inflation against
// the same topology's clean baseline, the drop breakdown, and how much of
// the gray damage the detector found and routed around.
//
// Modes / flags:
//   (default)            human-oriented showdown tables + digest line
//   --digest-check       serial vs PDES (--threads, else {2, 4}) digest
//                        bit-equality on gray plans (jellyfish) and mixed
//                        gray+binary plans (fat-tree); exits nonzero on
//                        any divergence — the CI gray determinism gate
//   --json [path]        append the gray_* cases into BENCH_SIM.json
//                        (append_perf_json: micro_sim's cases survive)
//   --journal/--resume/--workers/... the shared resilient-sweep flags
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/table.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/degradation.hpp"
#include "perf_json.hpp"
#include "sim/network.hpp"
#include "sim/pdes/runner.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"
#include "util.hpp"
#include "workload/arrivals.hpp"
#include "workload/flow_size.hpp"

using namespace flexnets;

namespace {

constexpr TimeNs kHorizon = 80 * kMillisecond;

// Mid-size flows in three staggered waves: unlike the saturating timeline
// benches, FCT inflation needs flows that *complete*, so every wave fits
// comfortably inside the horizon even with half the gray cocktail active.
std::vector<workload::FlowSpec> showdown_flows(const topo::Topology& t) {
  std::vector<workload::FlowSpec> flows;
  const int n = t.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 256 * kKB});
    flows.push_back(
        {1 * kMillisecond + s * kMicrosecond, (s + n / 3) % n, s, 64 * kKB});
    flows.push_back(
        {4 * kMillisecond + s * kMicrosecond, s, (s + n / 5) % n, 128 * kKB});
  }
  return flows;
}

// The gray cocktail every grid cell injects (loss_prob and flap_period are
// the swept axes). One hard link failure rides along so expelled /
// transient-blackhole drops appear next to the gray losses in the
// breakdown; everything heals by window_end + repair_after, leaving a
// clean tail for the late flows.
fault::FaultPlan gray_plan(const topo::Topology& t, double loss_prob,
                           TimeNs flap_period) {
  fault::RandomFaultOptions opt;
  opt.link_failures = 1;
  opt.switch_failures = 0;
  opt.lossy_links = 2;
  opt.loss_prob = loss_prob;
  opt.degraded_links = 1;
  opt.degrade_fraction = 0.5;
  opt.flapping_links = 1;
  opt.flap_period = flap_period;
  opt.flap_duty = 0.5;
  opt.window_begin = 2 * kMillisecond;
  opt.window_end = 5 * kMillisecond;
  opt.repair_after = 10 * kMillisecond;
  return fault::FaultPlan::random(t, opt, 99);
}

sim::NetworkConfig net_config(const fault::FaultPlan* plan,
                              int detect_threshold) {
  sim::NetworkConfig cfg;
  cfg.seed = 12;
  cfg.faults = plan;
  cfg.control_plane_delay = 500 * kMicrosecond;
  cfg.detector.detect_threshold = detect_threshold;
  return cfg;
}

metrics::FctSummary summarize_flows(const sim::PacketNetwork& net,
                                    const std::vector<workload::FlowSpec>& fl) {
  std::vector<metrics::FlowRecord> records;
  records.reserve(fl.size());
  for (std::size_t i = 0; i < fl.size(); ++i) {
    const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
    if (f.start_time >= 0) {
      records.push_back({f.start_time, f.completion_time, f.size});
    } else {
      records.push_back({fl[i].start, -1, fl[i].size});
    }
  }
  return metrics::summarize(records, 0, kHorizon,
                            workload::kShortFlowThreshold);
}

struct GrayRun {
  metrics::FctSummary fct;
  sim::PacketNetwork::FaultStats stats;
  std::uint64_t digest = 0;
};

GrayRun run_one(const topo::Topology& t, const fault::FaultPlan* plan,
                int detect_threshold) {
  sim::PacketNetwork net(t, net_config(plan, detect_threshold));
  const auto flows = showdown_flows(t);
  net.run(flows, kHorizon);
  return {summarize_flows(net, flows), net.fault_stats(),
          net.simulator().event_digest()};
}

// --------------------------------------------------------------------------
// --digest-check: the CI gray determinism gate. Serial vs PDES event-digest
// bit-equality on a gray-only jellyfish plan and a mixed gray+binary
// fat-tree plan, at each requested thread count.

int digest_check(int threads_flag) {
  CheckPolicyScope policy(CheckPolicy::kThrow);
  AuditScope audit(true);

  const auto ft = topo::fat_tree(4);
  const auto jf = topo::jellyfish(16, 3, 2, 1);
  struct Entry {
    std::string label;
    const topo::Topology* topo;
  };
  const std::vector<Entry> entries = {{"fattree_mixed", &ft.topo},
                                      {"jellyfish_gray", &jf}};
  std::vector<int> thread_counts;
  if (threads_flag > 1) {
    thread_counts.push_back(threads_flag);
  } else {
    thread_counts = {2, 4};
  }

  bool ok = true;
  for (const auto& e : entries) {
    // The jellyfish entry drops the hard failure so the plan is purely
    // gray (no structural event until the restores); the fat-tree keeps
    // the full cocktail so kFault/kRepair/kDetect interleave.
    auto plan = gray_plan(*e.topo, 0.02, 1 * kMillisecond);
    if (e.label == "jellyfish_gray") {
      fault::RandomFaultOptions opt;
      opt.link_failures = 0;
      opt.switch_failures = 0;
      opt.lossy_links = 2;
      opt.loss_prob = 0.02;
      opt.degraded_links = 1;
      opt.degrade_fraction = 0.5;
      opt.flapping_links = 1;
      opt.flap_period = 1 * kMillisecond;
      opt.flap_duty = 0.5;
      opt.window_begin = 2 * kMillisecond;
      opt.window_end = 5 * kMillisecond;
      opt.repair_after = 10 * kMillisecond;
      plan = fault::FaultPlan::random(*e.topo, opt, 99);
    }
    const auto flows = showdown_flows(*e.topo);

    sim::PacketNetwork serial(*e.topo, net_config(&plan, 32));
    serial.run(flows, kHorizon);
    const std::uint64_t ref = serial.simulator().event_digest();
    FLEXNETS_CHECK(serial.fault_stats().gray_loss_drops > 0,
                   "digest-check plan produced no gray losses for ",
                   e.label);
    std::printf("digest gray_%s_serial: %016llx\n", e.label.c_str(),
                static_cast<unsigned long long>(ref));

    for (const int threads : thread_counts) {
      sim::PacketNetwork net(*e.topo, net_config(&plan, 32));
      sim::pdes::RunnerConfig pcfg;
      pcfg.threads = threads;
      const auto stats = sim::pdes::run_parallel(net, flows, pcfg, kHorizon);
      std::printf("digest gray_%s_t%d: %016llx\n", e.label.c_str(), threads,
                  static_cast<unsigned long long>(stats.event_digest));
      if (stats.event_digest != ref) {
        std::printf("FAIL: %s PDES digest (t=%d) diverged from serial\n",
                    e.label.c_str(), threads);
        ok = false;
      }
    }
  }
  std::printf("%s\n", ok ? "PASS: gray digests bit-identical serial vs PDES"
                         : "FAIL: see messages above");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Gray showdown",
                "cost-equalized resilience under gray failures");
  const int threads = bench::parse_threads(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--digest-check") == 0) {
      return digest_check(threads);
    }
  }
  const auto flags = bench::parse_resilient_flags(argc, argv);
  const auto shard = bench::parse_shard_flags(argc, argv);
  std::string json_path;
  const bool json =
      bench::parse_json_flag(argc, argv, "BENCH_SIM.json", &json_path);
  bench::ResilientState state;
  // Workers never journal: the coordinator alone writes the merged file.
  if (shard.worker_grid.empty()) bench::init_resilient_state(flags, &state);
  const bool full = core::repro_full();

  // Same-equipment contenders (the scaled analogue of the paper's
  // cost-equalized comparison): the expanders reuse the fat-tree's switch
  // budget and host at least as many servers on it.
  const auto ft = topo::fat_tree(full ? 6 : 4);
  const auto xp = full ? topo::xpander(5, 9, 2, 1) : topo::xpander(3, 4, 2, 1);
  const auto jf = topo::jellyfish(full ? 36 : 16, 3, 2, 1);
  struct Entry {
    std::string label;
    const topo::Topology* topo;
  };
  const std::vector<Entry> entries = {
      {"fat_tree", &ft.topo}, {"xpander", &xp.topo}, {"jellyfish", &jf}};

  // Axes chosen so detection actually bites somewhere in the grid: at the
  // low threshold a lossy link's hash drops cross it and the repair
  // excludes the link; at the high threshold only the flap (detected at
  // its first down transition) is ever noticed, so the lossy links keep
  // bleeding — the contrast IS the experiment.
  const std::vector<double> loss_probs =
      full ? std::vector<double>{0.005, 0.01, 0.05}
           : std::vector<double>{0.01, 0.05};
  const std::vector<int> thresholds =
      full ? std::vector<int>{8, 32, 128} : std::vector<int>{8, 128};
  const std::vector<TimeNs> flap_periods =
      full ? std::vector<TimeNs>{250 * kMicrosecond, 1 * kMillisecond,
                                 4 * kMillisecond}
           : std::vector<TimeNs>{500 * kMicrosecond, 2 * kMillisecond};

  const std::size_t cells =
      loss_probs.size() * thresholds.size() * flap_periods.size();
  const std::size_t n = entries.size() * cells;

  // Clean baselines, one per topology. Computed before the grid so worker
  // subprocesses (which re-execute main up to the grid call) share them;
  // fn(i) still depends only on i.
  AuditScope audit(true);
  std::vector<metrics::FctSummary> baselines;
  for (const auto& e : entries) {
    baselines.push_back(run_one(*e.topo, nullptr, 64).fct);
  }

  const double grid_begin_ns = bench::monotonic_ns();
  const auto records = bench::run_grid_resilient_sharded(
      argc, argv, n, threads, "gray", &state, flags, shard,
      [&](std::size_t i) {
        const std::size_t topo_i = i / cells;
        std::size_t c = i % cells;
        const double lp = loss_probs[c / (thresholds.size() *
                                          flap_periods.size())];
        c %= thresholds.size() * flap_periods.size();
        const int thr = thresholds[c / flap_periods.size()];
        const TimeNs fp = flap_periods[c % flap_periods.size()];

        const auto& t = *entries[topo_i].topo;
        const auto plan = gray_plan(t, lp, fp);
        const auto r = run_one(t, &plan, thr);
        const auto infl =
            metrics::fct_inflation_summary(baselines[topo_i], r.fct);
        const metrics::DropBreakdown drops{
            r.stats.blackhole_drops, r.stats.expelled_packets,
            r.stats.gray_loss_drops};
        core::JournalRecord rec;
        rec.values = {
            {"loss_prob", lp},
            {"detect_threshold", static_cast<double>(thr)},
            {"flap_period_us", static_cast<double>(fp) / kMicrosecond},
            {"fct_infl_mean", infl.mean},
            {"fct_infl_p50", infl.p50},
            {"fct_infl_p99", infl.p99},
            {"gray_loss_drops", static_cast<double>(r.stats.gray_loss_drops)},
            {"blackhole_drops", static_cast<double>(r.stats.blackhole_drops)},
            {"expelled_packets",
             static_cast<double>(r.stats.expelled_packets)},
            {"gray_drop_fraction", drops.gray_fraction()},
            {"detections", static_cast<double>(r.stats.detections)},
            {"gray_links_excluded",
             static_cast<double>(r.stats.gray_links_excluded)},
            {"post_repair_blackholes",
             static_cast<double>(r.stats.post_repair_blackholes)},
            {"incomplete_flows",
             static_cast<double>(r.fct.incomplete_flows)}};
        return rec;
      });

  bool ok = true;
  TextTable table({"topology", "loss", "thresh", "flap_us", "infl_p50",
                   "infl_p99", "gray_drops", "detected", "excluded",
                   "post_bh"});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = records[i];
    table.add_row({entries[i / cells].label, TextTable::fmt(r.value("loss_prob"), 3),
                   std::to_string(static_cast<int>(r.value("detect_threshold"))),
                   std::to_string(static_cast<long long>(
                       r.value("flap_period_us"))),
                   TextTable::fmt(r.value("fct_infl_p50"), 2),
                   TextTable::fmt(r.value("fct_infl_p99"), 2),
                   std::to_string(static_cast<long long>(
                       r.value("gray_loss_drops"))),
                   std::to_string(
                       static_cast<long long>(r.value("detections"))),
                   std::to_string(static_cast<long long>(
                       r.value("gray_links_excluded"))),
                   std::to_string(static_cast<long long>(
                       r.value("post_repair_blackholes")))});
    if (r.value("post_repair_blackholes") != 0.0) {
      std::printf("FAIL: %s cell %zu dropped packets as blackholes after the "
                  "final repair\n",
                  entries[i / cells].label.c_str(), i % cells);
      ok = false;
    }
  }
  table.print();
  std::printf(
      "\nExpected: p99 inflation grows with loss_prob and shrinks as the\n"
      "detector gets more aggressive (lower threshold -> earlier reroute);\n"
      "the expanders' path diversity keeps their tail flatter than the\n"
      "fat-tree's at equal cost. Gray losses dominate the drop breakdown\n"
      "(the hard failure contributes the expelled class), and after the\n"
      "final repair the audit proves zero blackholes remain.\n\n");
  bench::print_digest_line("gray", bench::grid_digest(records),
                           records.size(), bench::count_failed(records));

  if (json) {
    // Wall time is stamped at emission, never journaled: the grid digest
    // must stay bit-reproducible across runs and machines.
    const double ns_per_cell =
        (bench::monotonic_ns() - grid_begin_ns) / static_cast<double>(n);
    std::vector<bench::PerfCase> cases;
    for (std::size_t i = 0; i < n; ++i) {
      bench::PerfCase c;
      c.name = "gray_" + entries[i / cells].label + "_c" +
               std::to_string(i % cells);
      c.add("ns_per_op", ns_per_cell);
      for (const auto& [key, value] : records[i].values) {
        c.add(key, value);
      }
      cases.push_back(std::move(c));
    }
    if (!bench::append_perf_json(json_path, "micro_sim", cases)) ok = false;
  }
  return ok ? 0 : 1;
}
