// The flexnets benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size paper|tiny] [--pins <file>]
//             [--trace-out <file>] [--print-pins]
//             [--commit <id>] [--source-digest <hex>]
//
// Workloads: packet, fluid (the timed ones), packet_serial, packet_pdes,
// packet_faults, bracket.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once with every span recorded, prints the per-layer metrics
// and writes the spans as Chrome trace-event JSON to --trace-out.
//
// Standard output carries two JSON lines, the host stamp and then the
// result {"correct", "attempted", "failed", "metrics"}. Any failed output
// check makes the exit code 1; notes go to standard error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/check.hpp"

namespace perfbench {

namespace {

// The names and units of every per-layer metric, in report order. A traced
// run reports all of them; layers a workload never enters read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"topo.build_s", "s"},
      {"topo.csr.build_s", "s"},
      {"topo.csr.bfs_tree_s", "s"},
      {"topo.csr.spectral_s", "s"},
      {"workload.flows_s", "s"},
      {"workload.flows", "count"},
      {"routing.ecmp_build_s", "s"},
      {"routing.ksp_s", "s"},
      {"sim.network_build_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.drops", "count"},
      {"sim.ecn_marks", "count"},
      {"sim.flows_completed", "count"},
      {"sim.event_queue.ns_per_push_pop", "ns"},
      {"sim.link.ns_per_packet", "ns"},
      {"sim.pdes.epochs", "count"},
      {"sim.pdes.events_per_epoch", "count"},
      {"sim.pdes.ns_per_epoch", "ns"},
      {"sim.pdes.cross_lp_link_share", "fraction"},
      {"sim.pdes.speedup_vs_serial", "ratio"},
      {"fault.events", "count"},
      {"fault.repairs", "count"},
      {"fault.detections", "count"},
      {"fault.gray_loss_drops", "count"},
      {"fault.blackhole_drops", "count"},
      {"fault.expelled_packets", "count"},
      {"flow.cache_build_s", "s"},
      {"flow.tm_build_s", "s"},
      {"flow.instance_build_s", "s"},
      {"flow.gk.solve_s", "s"},
      {"flow.gk.phases", "count"},
      {"flow.gk.dijkstra_calls", "count"},
      {"flow.gk.ns_per_dijkstra", "ns"},
      {"flow.gk.longest_matching.solve_s", "s"},
      {"flow.gk.longest_matching.phases", "count"},
      {"flow.gk.longest_matching.dijkstra_calls", "count"},
      {"flow.gk.longest_matching.ns_per_dijkstra", "ns"},
      {"flow.gk.all_to_all.solve_s", "s"},
      {"flow.gk.all_to_all.phases", "count"},
      {"flow.gk.all_to_all.dijkstra_calls", "count"},
      {"flow.gk.all_to_all.ns_per_dijkstra", "ns"},
      {"flow.gk.peak_rss_mb", "MB"},
      {"flow.gk.lambda_mean", "fraction"},
      {"flow.tm_view_s", "s"},
      {"flow.bracket_s", "s"},
      {"flow.bracket.lower", "fraction"},
      {"flow.bracket.upper", "fraction"},
      {"flow.bracket.upper_path_length", "fraction"},
      {"flow.bracket.gap", "ratio"},
      {"core.sweep.parallel_efficiency", "fraction"},
      {"core.sweep.max_point_share", "fraction"},
      {"core.sweep.threads", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <packet|fluid|"
               "packet_serial|packet_pdes|packet_faults|bracket> --seed <n> "
               "--seconds <s> --trace <0|1> [--size paper|tiny] "
               "[--pins <file>] [--trace-out <file>] [--print-pins] "
               "[--commit <id>] [--source-digest <hex>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    if (key == "--print-pins") {
      o.print_pins = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(key + " needs a value");
    }
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace") o.trace = std::stoi(value) != 0;
      else if (key == "--pins") o.pins_path = value;
      else if (key == "--trace-out") o.trace_out = value;
      else if (key == "--commit") o.commit = value;
      else if (key == "--source-digest") o.source_digest = value;
      else if (key == "--size" && (value == "paper" || value == "tiny"))
        o.size = value == "tiny" ? Size::kTiny : Size::kPaper;
      else usage("unknown flag or value " + key + " " + value);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string host_json(const Options& o) {
  std::ostringstream h;
  h << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
    << ",\"cxx_flags\":" << quoted(PERFBENCH_CXX_FLAGS)
    << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
    << ",\"commit\":" << quoted(o.commit)
    << ",\"source_digest\":" << quoted(o.source_digest)
    << ",\"workload\":" << quoted(o.workload)
    << ",\"size\":" << quoted(size_name(o.size)) << ",\"seed\":" << o.seed
    << ",\"threads\":" << kThreads << ",\"seconds\":" << number(o.seconds)
    << ",\"trace\":" << (o.trace ? 1 : 0) << "}";
  return h.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream m;
  m << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    m << (i == 0 ? "" : ", ") << quoted(metrics[i].name)
      << ": {\"value\": " << number(metrics[i].value)
      << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  m << "}";
  return m.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  // Library invariant checks throw instead of aborting, so one failing
  // operation is reported as a failed operation.
  const flexnets::CheckPolicyScope throwing(flexnets::CheckPolicy::kThrow);

  Tracer tr(o.trace);
  Outcome out;
  try {
    if (o.workload == "packet" || o.workload == "packet_serial" ||
        o.workload == "packet_pdes" || o.workload == "packet_faults") {
      run_packet(o, tr, out);
    } else if (o.workload == "fluid") {
      run_fluid(o, tr, out);
    } else if (o.workload == "bracket") {
      run_bracket(o, tr, out);
    } else {
      usage("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    out.op({std::string("workload threw: ") + e.what()});
  }

  std::vector<Metric> metrics;
  if (o.trace) {
    // Every per-layer metric, in table order; layers this workload never
    // enters read 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      double value = 0.0;
      for (const auto& m : out.metrics()) {
        if (m.name == name) value = m.value;
      }
      metrics.push_back({name, value, unit});
    }
    if (!o.trace_out.empty()) {
      std::ostringstream other;
      other << "{\"host\":" << host_json(o)
            << ",\"metrics\":" << metrics_json(metrics) << ",\"self_s\":{";
      bool first = true;
      for (const auto& [name, self] : tr.self_times()) {
        other << (first ? "" : ",") << quoted(name) << ":" << number(self);
        first = false;
      }
      other << "}}";
      if (!tr.write_chrome(o.trace_out, other.str())) {
        out.op({"cannot write trace file " + o.trace_out});
      } else {
        std::fprintf(stderr, "trace: %zu spans written to %s\n",
                     tr.num_spans(), o.trace_out.c_str());
      }
    }
  } else {
    metrics = out.metrics();
  }

  for (const auto& e : out.errors()) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  if (o.print_pins) {
    for (const auto& line : out.pin_lines) std::fprintf(stderr, "%s\n", line.c_str());
  }
  const bool correct = out.failed() == 0 && out.attempted() > 0;
  std::fprintf(stderr, "%s seed %llu: %d operations, %d failed (error rate %.4g)\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               out.attempted(), out.failed(),
               out.attempted() == 0 ? 1.0
                                    : static_cast<double>(out.failed()) /
                                          out.attempted());
  std::printf("{\"host\": %s}\n", host_json(o).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted(), out.failed(),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
