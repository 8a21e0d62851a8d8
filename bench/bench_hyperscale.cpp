// Hyperscale throughput evaluation: jellyfish construction and cut/dual
// throughput brackets at 10k / 50k / 100k switches, scales the GK solver
// cannot reach.
//
// Takes no flags; any argument exits 2. The exit status is the gate
// (ctest runs it as the `bench_hyperscale` case): 1 unless every bracket
// is ordered (0 <= lower <= upper <= 1), the GK materializer refuses the
// 100k all-to-all TM, and peak RSS stays within kRssBudgetMb.
#include <cstdio>
#include <string>

#include "common/status.hpp"
#include "flow/bracket.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_view.hpp"
#include "topo/jellyfish.hpp"
#include "util.hpp"

namespace {

using namespace flexnets;

struct Scale {
  const char* tag;
  int num_switches;
};
// degree 16, 8 servers/rack: 100k switches = 800k servers, 1.6M links.
constexpr int kDegree = 16;
constexpr int kServers = 8;
constexpr Scale kScales[] = {{"10k", 10'000}, {"50k", 50'000},
                             {"100k", 100'000}};
// The memory budget of the whole run; the 100k bracket sets its peak.
constexpr double kRssBudgetMb = 2048.0;

// One hyperscale scale point: topology build, implicit all-to-all TmView, and
// the throughput bracket, printed as one table row. Returns false unless
// the bracket is ordered.
bool run_scale(const Scale& s, TextTable* table) {
  const double t0 = bench::monotonic_ns();
  const auto t = topo::jellyfish(s.num_switches, kDegree, kServers, 1);
  const double build_ns = bench::monotonic_ns() - t0;

  const auto view = flow::all_to_all_view(t, t.tors());
  const double t1 = bench::monotonic_ns();
  const auto br = flow::throughput_bracket(t, view);
  const double bracket_ns = bench::monotonic_ns() - t1;

  table->add_row({std::string("jellyfish ") + s.tag + "x16",
                  TextTable::fmt(build_ns / 1e6, 1),
                  TextTable::fmt(bracket_ns / 1e6, 1),
                  TextTable::fmt(br.lower, 4), TextTable::fmt(br.upper, 4),
                  TextTable::fmt(bench::peak_rss_kb() / 1024.0, 0)});
  const bool ordered = 0.0 <= br.lower && br.lower <= br.upper &&
                       br.upper <= 1.0 + 1e-9;
  if (!ordered) {
    std::fprintf(stderr, "FAIL: %s bracket [%.17g, %.17g] is not ordered\n",
                 s.tag, br.lower, br.upper);
  }
  return ordered;
}

// The guard that keeps the streaming path honest: handing an implicit
// hyperscale TM to the GK materializer must refuse with structured
// kInvalidInput, never attempt the 10^10-commodity allocation.
bool check_cap_guard() {
  const auto t = topo::jellyfish(100'000, kDegree, kServers, 1);
  const auto view = flow::all_to_all_view(t, t.tors());
  const auto refused =
      flow::build_mcf_instance(flow::build_throughput_cache(t), view);
  const bool ok = !refused.ok() &&
                  refused.status().code() == StatusCode::kInvalidInput;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: commodity cap did not refuse a %lld-commodity "
                 "materialization\n",
                 static_cast<long long>(view.num_commodities()));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, "bench_hyperscale", {}, {},
                     [](const std::string&, const std::string&) {});
  bench::banner("Hyperscale bracket",
                "CSR jellyfish build + throughput bracket at 10k-100k "
                "switches");

  TextTable table({"topology", "build_ms", "bracket_ms", "lower", "upper",
                   "peak_rss_mb"});
  bool ok = true;
  for (const auto& s : kScales) ok &= run_scale(s, &table);
  ok &= check_cap_guard();
  table.print();

  const double rss_mb = bench::peak_rss_kb() / 1024.0;
  std::printf("peak RSS %.0f MB (budget %.0f MB)\n", rss_mb, kRssBudgetMb);
  if (rss_mb > kRssBudgetMb) {
    std::fprintf(stderr, "FAIL: peak RSS exceeds the budget\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
