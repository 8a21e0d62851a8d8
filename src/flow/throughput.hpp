// Per-server throughput of a static topology on a rack-level TM in the
// hose-model fluid-flow setting (paper section 5).
//
// Construction: each network link becomes two directed edges of capacity 1
// (one server line rate per direction). Each rack appearing in the TM gets
// a virtual source/sink node attached by directed edges whose capacities
// equal its total out/in demand, structurally enforcing the hose-model NIC
// limits. Per-server throughput is then the max concurrent-flow fraction
// lambda, in [0, 1].
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.hpp"
#include "common/status.hpp"
#include "flow/mcf.hpp"
#include "flow/tm_view.hpp"
#include "flow/traffic_matrix.hpp"
#include "topo/csr/csr_topology.hpp"
#include "topo/topology.hpp"

namespace flexnets::flow {

struct ThroughputOptions {
  double eps = 0.1;      // GK approximation parameter
  McfLimits limits = {};  // cooperative phase budget / cancellation (mcf.hpp)
};

// Returns lambda in [0, 1]; 0 for an empty TM.
double per_server_throughput(const topo::Topology& t, const TrafficMatrix& tm,
                             const ThroughputOptions& opts = {});

// Budget-aware form: `lambda` is always feasible (GK is primal) and
// `upper` is the solver's proven upper bound on the optimum, both clamped
// to [0, 1]; McfResult (flow/mcf.hpp) states what an ok status guarantees.
// `status` is kBudgetExhausted / kNonConverged when the solve stopped
// early. Both bounds read 0 when no solve ran (empty TM, refused instance).
struct ThroughputResult {
  double lambda = 0.0;
  double upper = 0.0;
  Status status;
};

// Shared read-only per-topology state for sweep drivers that evaluate many
// TMs on one topology, possibly from several threads at once: the doubled
// directed-edge list every GK instance starts from. Built once, then only
// read — each evaluation copies it and appends its own virtual hose nodes,
// so concurrent sweep points never share mutable state. `topo_digest`
// fingerprints the topology it was built from; under FLEXNETS_AUDIT every
// handoff is verified against the topology actually being evaluated, so a
// sweep cannot silently reuse a cache across mismatched topologies.
struct ThroughputCache {
  int num_switches FLEXNETS_SHARED_READONLY = 0;
  std::vector<DirectedEdge> base_edges FLEXNETS_SHARED_READONLY;
  std::uint64_t topo_digest FLEXNETS_SHARED_READONLY = 0;
};

ThroughputCache build_throughput_cache(const topo::Topology& t);

// Flat-representation builder: identical cache for a CSR twin of the same
// topology (same edge order, same digest), so lambda through either
// representation is bit-identical.
ThroughputCache build_throughput_cache(const topo::CsrTopology& t);

// The concrete GK instance a (topology, TM) evaluation solves: the cache's
// doubled directed edges plus one virtual hose node per rack with demand.
// Exposed so the golden-lambda suite and bench/micro_flow can run the
// optimized and the frozen reference solver on bit-identical instances.
struct McfInstance {
  int num_nodes = 0;
  std::vector<DirectedEdge> edges;
  std::vector<McfCommodity> commodities;
};

McfInstance build_mcf_instance(const ThroughputCache& cache,
                               const TrafficMatrix& tm);

// Materialization guard for the streaming path: a GK solve must hold every
// commodity, so handing it an implicit TM only makes sense below this many
// pairs. Above the cap the instance is refused as structured kInvalidInput
// instead of attempting an allocation that would OOM at hyperscale (an
// all-to-all over 100k racks is 10^10 commodities). Callers with bigger
// appetites pass their own cap explicitly.
inline constexpr std::int64_t kDefaultMcfCommodityCap = 2'000'000;

// Streams `tm` into a concrete GK instance. Enumeration order matches the
// materialized generators, so the instance — and the lambda solved from it
// — is bit-identical to the TrafficMatrix path. Returns kInvalidInput when
// tm.num_commodities() exceeds the cap.
StatusOr<McfInstance> build_mcf_instance(
    const ThroughputCache& cache, const TmView& tm,
    std::int64_t max_commodities = kDefaultMcfCommodityCap);

// As above, but starts from a prebuilt cache for `t` (cheaper inside
// sweeps, and the only state shared across concurrent points).
double per_server_throughput(const topo::Topology& t, const TrafficMatrix& tm,
                             const ThroughputOptions& opts,
                             const ThroughputCache& cache);

// The budget-aware entry the resilient sweep drivers use: same lambda as
// per_server_throughput, plus the solver status for the point record.
ThroughputResult per_server_throughput_budgeted(const topo::Topology& t,
                                                const TrafficMatrix& tm,
                                                const ThroughputOptions& opts,
                                                const ThroughputCache& cache);

// ---- Hyperscale (CSR + streaming TM) entries --------------------------
//
// The flat-path twins of the entries above: same GK instance bit for bit
// when the CSR topology and TmView mirror a (Topology, TrafficMatrix)
// pair. lambda is 0.0 and status kInvalidInput when the commodity cap
// refuses the materialization.

double per_server_throughput(const topo::CsrTopology& t, const TmView& tm,
                             const ThroughputOptions& opts = {});

ThroughputResult per_server_throughput_budgeted(
    const topo::CsrTopology& t, const TmView& tm,
    const ThroughputOptions& opts, const ThroughputCache& cache,
    std::int64_t max_commodities = kDefaultMcfCommodityCap);

// The throughput-proportionality ideal (paper Fig 2): a TP network built at
// worst-case throughput `alpha` achieves min(alpha / x, 1) when only an
// x-fraction of servers participate.
double tp_curve(double alpha, double x);

}  // namespace flexnets::flow
