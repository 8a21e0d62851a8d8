#include "topo/jellyfish.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace flexnets::topo {

namespace {

using Pair = std::pair<NodeId, NodeId>;

Pair canon(NodeId a, NodeId b) { return a < b ? Pair{a, b} : Pair{b, a}; }

// Sorted link set with O(log n + degree) indexed selection, replacing the
// original std::set<Pair> whose std::advance-based random pick was O(E) per
// draw — quadratic over a 100k-switch build. Links live in per-low-endpoint
// buckets (bucket[a] holds the b's of canonical pairs (a, b), sorted), and
// a Fenwick tree over bucket sizes answers "k-th link in lexicographic
// order". Because the global order (bucket index major, b minor) IS the
// std::set iteration order of canonical pairs, every RNG-visible operation
// — membership, indexed pick, final sorted emission — matches the legacy
// construction bit for bit (tests/csr pins every generator's digest).
class LinkSet {
 public:
  LinkSet(NodeId n, int expected_degree)
      : buckets_(static_cast<std::size_t>(n)),
        fenwick_(static_cast<std::size_t>(n) + 1, 0) {
    for (auto& b : buckets_) {
      b.reserve(static_cast<std::size_t>(expected_degree) + 2);
    }
    top_ = 1;
    while (top_ * 2 <= static_cast<std::size_t>(n)) top_ *= 2;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  [[nodiscard]] bool contains(NodeId a, NodeId b) const {
    const auto [lo, hi] = canon(a, b);
    const auto& bucket = buckets_[static_cast<std::size_t>(lo)];
    return std::binary_search(bucket.begin(), bucket.end(), hi);
  }

  void insert(NodeId a, NodeId b) {
    const auto [lo, hi] = canon(a, b);
    auto& bucket = buckets_[static_cast<std::size_t>(lo)];
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), hi), hi);
    fenwick_update(lo, +1);
    ++size_;
  }

  void erase(NodeId a, NodeId b) {
    const auto [lo, hi] = canon(a, b);
    auto& bucket = buckets_[static_cast<std::size_t>(lo)];
    const auto it = std::lower_bound(bucket.begin(), bucket.end(), hi);
    assert(it != bucket.end() && *it == hi);
    bucket.erase(it);
    fenwick_update(lo, -1);
    --size_;
  }

  // idx-th canonical pair in lexicographic order, 0-based: exactly
  // *std::next(set.begin(), idx) of the legacy representation.
  [[nodiscard]] Pair select(std::uint64_t idx) const {
    assert(idx < size_);
    std::uint64_t rem = idx;
    std::size_t pos = 0;  // count of whole buckets whose prefix sum <= rem
    for (std::size_t pw = top_; pw > 0; pw >>= 1) {
      const std::size_t next = pos + pw;
      if (next < fenwick_.size() &&
          static_cast<std::uint64_t>(fenwick_[next]) <= rem) {
        pos = next;
        rem -= static_cast<std::uint64_t>(fenwick_[pos]);
      }
    }
    const auto lo = static_cast<NodeId>(pos);
    return {lo, buckets_[pos][static_cast<std::size_t>(rem)]};
  }

  // All links ascending (a, b) — the legacy set's iteration order.
  [[nodiscard]] std::vector<graph::Edge> sorted_links() const {
    std::vector<graph::Edge> out;
    out.reserve(static_cast<std::size_t>(size_));
    for (std::size_t a = 0; a < buckets_.size(); ++a) {
      for (const NodeId b : buckets_[a]) {
        out.push_back({static_cast<NodeId>(a), b});
      }
    }
    return out;
  }

 private:
  void fenwick_update(NodeId bucket, std::int64_t delta) {
    for (std::size_t i = static_cast<std::size_t>(bucket) + 1;
         i < fenwick_.size(); i += i & (~i + 1)) {
      fenwick_[i] += delta;
    }
  }

  std::vector<std::vector<NodeId>> buckets_;
  std::vector<std::int64_t> fenwick_;  // 1-based, over bucket sizes
  std::size_t top_ = 1;                // largest power of two <= n
  std::uint64_t size_ = 0;
};

// Jellyfish-style random graph with a prescribed degree per node: random
// incremental joins, then edge-steal repair for nodes left with >= 2 free
// ports. If the total port count is odd, one port stays unfilled. Returns
// the links ascending; RNG-visible behavior is identical to the historic
// std::set construction (same seeds reproduce the same graphs).
std::vector<graph::Edge> random_links(const std::vector<int>& degree,
                                     Rng rng) {
  const auto n = static_cast<NodeId>(degree.size());
  const int max_degree =
      degree.empty() ? 0 : *std::max_element(degree.begin(), degree.end());
  std::vector<int> free_ports = degree;
  LinkSet links(n, max_degree);

  auto add = [&](NodeId a, NodeId b) {
    links.insert(a, b);
    --free_ports[a];
    --free_ports[b];
  };
  auto remove = [&](NodeId a, NodeId b) {
    links.erase(a, b);
    ++free_ports[a];
    ++free_ports[b];
  };

  // Phase 1: repeated random pairing passes over open switches.
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<NodeId> open;
    for (NodeId i = 0; i < n; ++i) {
      if (free_ports[i] > 0) open.push_back(i);
    }
    if (open.size() < 2) break;
    rng.shuffle(open);
    for (std::size_t i = 0; i + 1 < open.size(); i += 2) {
      const NodeId a = open[i];
      const NodeId b = open[i + 1];
      if (free_ports[a] > 0 && free_ports[b] > 0 && !links.contains(a, b)) {
        add(a, b);
        progress = true;
      }
    }
  }

  // Phase 2: a switch with >= 2 free ports steals an existing link (x, y):
  // remove it and add (s, x), (s, y).
  for (NodeId s = 0; s < n; ++s) {
    int guard = 20000;
    while (free_ports[s] >= 2 && guard-- > 0) {
      const auto [x, y] = links.select(rng.next_u64(links.size()));
      if (x == s || y == s) continue;
      if (links.contains(s, x) || links.contains(s, y)) continue;
      remove(x, y);
      add(s, x);
      add(s, y);
    }
    assert(free_ports[s] <= 1 && "jellyfish repair failed to converge");
  }

  // Phase 3: if exactly two switches have one free port each, join them
  // (directly or via one swap). A single leftover port (odd total) stays.
  std::vector<NodeId> open;
  for (NodeId i = 0; i < n; ++i) {
    if (free_ports[i] == 1) open.push_back(i);
  }
  if (open.size() == 2) {
    const NodeId a = open[0];
    const NodeId b = open[1];
    if (!links.contains(a, b)) {
      add(a, b);
    } else {
      int guard = 20000;
      while (guard-- > 0) {
        const auto [x, y] = links.select(rng.next_u64(links.size()));
        if (x == a || x == b || y == a || y == b) continue;
        if (links.contains(a, x) || links.contains(b, y)) continue;
        remove(x, y);
        add(a, x);
        add(b, y);
        break;
      }
    }
  }
  return links.sorted_links();
}

std::string jellyfish_name(int num_switches, int network_degree) {
  return "jellyfish(n=" + std::to_string(num_switches) +
         ",r=" + std::to_string(network_degree) + ")";
}

std::string same_equipment_name(int num_switches, int radix,
                                int total_servers) {
  return "jellyfish(n=" + std::to_string(num_switches) +
         ",radix=" + std::to_string(radix) +
         ",srv=" + std::to_string(total_servers) + ")";
}

std::vector<graph::Edge> jellyfish_links(int num_switches,
                                         int network_degree,
                                         std::uint64_t seed) {
  assert(num_switches > network_degree);
  assert((static_cast<std::int64_t>(num_switches) * network_degree) % 2 == 0);
  const std::vector<int> degree(static_cast<std::size_t>(num_switches),
                                network_degree);
  return random_links(degree, Rng(splitmix64(seed ^ 0x4a656c6c79ULL)));
}

// Shared same-equipment sizing: round-robin servers, leftover radix as
// network ports.
std::pair<std::vector<int>, std::vector<int>> same_equipment_layout(
    int num_switches, int radix, int total_servers) {
  assert(total_servers >= 0 && total_servers < num_switches * radix);
  std::vector<int> servers(static_cast<std::size_t>(num_switches),
                           total_servers / num_switches);
  for (int i = 0; i < total_servers % num_switches; ++i) ++servers[i];
  std::vector<int> degree(static_cast<std::size_t>(num_switches));
  for (int i = 0; i < num_switches; ++i) {
    degree[i] = radix - servers[i];
    assert(degree[i] > 0);
  }
  return {std::move(servers), std::move(degree)};
}

}  // namespace

Topology jellyfish(int num_switches, int network_degree,
                   int servers_per_switch, std::uint64_t seed) {
  return Topology(
      jellyfish_name(num_switches, network_degree),
      graph::Graph(num_switches,
                   jellyfish_links(num_switches, network_degree, seed)),
      std::vector<int>(static_cast<std::size_t>(num_switches),
                       servers_per_switch));
}

Topology jellyfish_same_equipment(int num_switches, int radix,
                                  int total_servers, std::uint64_t seed) {
  auto [servers, degree] =
      same_equipment_layout(num_switches, radix, total_servers);
  return Topology(
      same_equipment_name(num_switches, radix, total_servers),
      graph::Graph(num_switches,
                   random_links(degree,
                                Rng(splitmix64(seed ^ 0x4a656c6c79ULL)))),
      std::move(servers));
}

}  // namespace flexnets::topo
