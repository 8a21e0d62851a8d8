#include "workload/pairs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace flexnets::workload {

namespace {

// Uniformly random server on `rack`; if `exclude` >= 0, resamples away from
// that server id (used to avoid self-pairs within a rack).
int random_server_on(const topo::Topology& t, topo::NodeId rack, Rng& rng,
                     int exclude = -1) {
  const int base = t.first_server_of_switch(rack);
  const int count = t.servers_per_switch()[rack];
  assert(count > 0);
  for (;;) {
    const int s = base + static_cast<int>(rng.next_u64(
                             static_cast<std::uint64_t>(count)));
    if (s != exclude) return s;
  }
}

class A2APairs final : public PairDistribution {
 public:
  A2APairs(const topo::Topology& t, std::vector<topo::NodeId> active)
      : t_(t), active_(std::move(active)) {
    assert(active_.size() >= 2 ||
           (active_.size() == 1 && t_.servers_per_switch()[active_[0]] >= 2));
  }

  [[nodiscard]] ServerPair sample(Rng& rng) const override {
    // Uniform over ordered rack pairs (src rack may equal dst rack only if
    // it is the lone active rack), then uniform over servers.
    const auto n = active_.size();
    const auto src_rack = active_[rng.next_u64(n)];
    topo::NodeId dst_rack = src_rack;
    if (n >= 2) {
      do {
        dst_rack = active_[rng.next_u64(n)];
      } while (dst_rack == src_rack);
    }
    const int src = random_server_on(t_, src_rack, rng);
    const int dst = random_server_on(t_, dst_rack, rng,
                                     dst_rack == src_rack ? src : -1);
    return {src, dst};
  }

  [[nodiscard]] std::string name() const override { return "a2a"; }
  [[nodiscard]] const std::vector<topo::NodeId>& active_racks() const override {
    return active_;
  }

 private:
  const topo::Topology& t_;
  std::vector<topo::NodeId> active_;
};

class PermutationPairs final : public PairDistribution {
 public:
  PermutationPairs(const topo::Topology& t, std::vector<topo::NodeId> active,
                   std::uint64_t seed)
      : t_(t), active_(std::move(active)) {
    assert(active_.size() >= 2);
    Rng rng(splitmix64(seed ^ 0x9e37bULL));
    std::vector<topo::NodeId> order = active_;
    rng.shuffle(order);
    // Cyclic pairing of the shuffled order: rack i -> rack i+1. Every rack
    // has exactly one partner it sends to and one it receives from.
    partner_.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      partner_[i] = {order[i], order[(i + 1) % order.size()]};
    }
  }

  [[nodiscard]] ServerPair sample(Rng& rng) const override {
    const auto& [src_rack, dst_rack] = partner_[rng.next_u64(partner_.size())];
    return {random_server_on(t_, src_rack, rng),
            random_server_on(t_, dst_rack, rng)};
  }

  [[nodiscard]] std::string name() const override { return "permute"; }
  [[nodiscard]] const std::vector<topo::NodeId>& active_racks() const override {
    return active_;
  }

 private:
  const topo::Topology& t_;
  std::vector<topo::NodeId> active_;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> partner_;
};

class SkewPairs final : public PairDistribution {
 public:
  SkewPairs(const topo::Topology& t, double theta, double phi,
            std::uint64_t seed)
      : t_(t), active_(t.tors()) {
    assert(theta > 0.0 && theta <= 1.0 && phi >= 0.0 && phi <= 1.0);
    Rng rng(splitmix64(seed ^ 0x5137ULL));
    auto shuffled = active_;
    rng.shuffle(shuffled);
    const auto num_hot = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(theta * static_cast<double>(shuffled.size()))));
    const auto num_cold = shuffled.size() - num_hot;

    // Per-rack participation weight (paper section 6.7).
    weights_.assign(active_.size(), 0.0);
    std::vector<char> hot(static_cast<std::size_t>(t.num_switches()), 0);
    for (std::size_t i = 0; i < num_hot; ++i) hot[shuffled[i]] = 1;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      weights_[i] = hot[active_[i]]
                        ? phi / static_cast<double>(num_hot)
                        : (1.0 - phi) / static_cast<double>(num_cold);
    }
    cumulative_.resize(weights_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      acc += weights_[i];
      cumulative_[i] = acc;
    }
  }

  [[nodiscard]] ServerPair sample(Rng& rng) const override {
    // Product-of-weights pair probability with self-pairs excluded: draw
    // both racks independently from the weight distribution, reject equal.
    topo::NodeId src_rack;
    topo::NodeId dst_rack;
    do {
      src_rack = draw_rack(rng);
      dst_rack = draw_rack(rng);
    } while (src_rack == dst_rack);
    return {random_server_on(t_, src_rack, rng),
            random_server_on(t_, dst_rack, rng)};
  }

  [[nodiscard]] std::string name() const override { return "skew"; }
  [[nodiscard]] const std::vector<topo::NodeId>& active_racks() const override {
    return active_;
  }

 private:
  [[nodiscard]] topo::NodeId draw_rack(Rng& rng) const {
    const double u = rng.next_double() * cumulative_.back();
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return active_[static_cast<std::size_t>(
        std::distance(cumulative_.begin(), it))];
  }

  const topo::Topology& t_;
  std::vector<topo::NodeId> active_;
  std::vector<double> weights_;
  std::vector<double> cumulative_;
};

class IncastPairs final : public PairDistribution {
 public:
  IncastPairs(const topo::Topology& t, int dst_server,
              std::vector<topo::NodeId> source_racks)
      : t_(t), dst_(dst_server) {
    const auto dst_rack = t.switch_of_server(dst_server);
    active_.push_back(dst_rack);
    for (const auto r : source_racks) {
      if (r != dst_rack) active_.push_back(r);
    }
    assert(active_.size() >= 2 && "incast needs at least one source rack");
  }

  [[nodiscard]] ServerPair sample(Rng& rng) const override {
    // active_[0] is the destination rack; sources come from the rest.
    const auto src_rack = active_[1 + rng.next_u64(active_.size() - 1)];
    return {random_server_on(t_, src_rack, rng), dst_};
  }

  [[nodiscard]] std::string name() const override { return "incast"; }
  [[nodiscard]] const std::vector<topo::NodeId>& active_racks() const override {
    return active_;
  }

 private:
  const topo::Topology& t_;
  int dst_;
  std::vector<topo::NodeId> active_;
};

class TwoRackPairs final : public PairDistribution {
 public:
  TwoRackPairs(const topo::Topology& t, topo::NodeId a, topo::NodeId b,
               int servers_per_rack)
      : t_(t), active_{a, b}, count_(servers_per_rack) {
    assert(count_ >= 1);
    assert(count_ <= t.servers_per_switch()[a]);
    assert(count_ <= t.servers_per_switch()[b]);
  }

  [[nodiscard]] ServerPair sample(Rng& rng) const override {
    // Direction chosen uniformly; only the first `count_` servers on each
    // rack participate (paper Fig 7(b): 10 servers on two adjacent racks).
    const bool forward = rng.next_u64(2) == 0;
    const auto src_rack = forward ? active_[0] : active_[1];
    const auto dst_rack = forward ? active_[1] : active_[0];
    const int src = t_.first_server_of_switch(src_rack) +
                    static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(count_)));
    const int dst = t_.first_server_of_switch(dst_rack) +
                    static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(count_)));
    return {src, dst};
  }

  [[nodiscard]] std::string name() const override { return "two-rack"; }
  [[nodiscard]] const std::vector<topo::NodeId>& active_racks() const override {
    return active_;
  }

 private:
  const topo::Topology& t_;
  std::vector<topo::NodeId> active_;
  int count_;
};

}  // namespace

std::unique_ptr<PairDistribution> all_to_all_pairs(
    const topo::Topology& t, std::vector<topo::NodeId> active) {
  return std::make_unique<A2APairs>(t, std::move(active));
}

std::unique_ptr<PairDistribution> permutation_pairs(
    const topo::Topology& t, std::vector<topo::NodeId> active,
    std::uint64_t seed) {
  return std::make_unique<PermutationPairs>(t, std::move(active), seed);
}

std::unique_ptr<PairDistribution> skew_pairs(const topo::Topology& t,
                                             double theta, double phi,
                                             std::uint64_t seed) {
  return std::make_unique<SkewPairs>(t, theta, phi, seed);
}

std::unique_ptr<PairDistribution> incast_pairs(
    const topo::Topology& t, int dst_server,
    std::vector<topo::NodeId> source_racks) {
  return std::make_unique<IncastPairs>(t, dst_server,
                                       std::move(source_racks));
}

std::unique_ptr<PairDistribution> two_rack_pairs(const topo::Topology& t,
                                                 topo::NodeId rack_a,
                                                 topo::NodeId rack_b,
                                                 int servers_per_rack) {
  return std::make_unique<TwoRackPairs>(t, rack_a, rack_b, servers_per_rack);
}

std::vector<topo::NodeId> first_fraction_racks(const topo::Topology& t,
                                               double x) {
  auto tors = t.tors();
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(x * static_cast<double>(tors.size()))));
  tors.resize(std::min(keep, tors.size()));
  return tors;
}

std::vector<topo::NodeId> random_fraction_racks(const topo::Topology& t,
                                                double x, std::uint64_t seed) {
  auto tors = t.tors();
  Rng rng(splitmix64(seed ^ 0xf7ac7ULL));
  rng.shuffle(tors);
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(x * static_cast<double>(tors.size()))));
  tors.resize(std::min(keep, tors.size()));
  return tors;
}

}  // namespace flexnets::workload
