#include "topo/slim_fly.hpp"

#include <cassert>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace flexnets::topo {

bool is_prime(int p) {
  if (p < 2) return false;
  for (int d = 2; static_cast<long long>(d) * d <= p; ++d) {
    if (p % d == 0) return false;
  }
  return true;
}

namespace {

int pow_mod(long long base, long long exp, long long mod) {
  long long r = 1;
  base %= mod;
  while (exp > 0) {
    if (exp & 1) r = r * base % mod;
    base = base * base % mod;
    exp >>= 1;
  }
  return static_cast<int>(r);
}

}  // namespace

int primitive_root(int q) {
  assert(is_prime(q) && q > 2);
  // Factor q-1, then test candidates.
  std::vector<int> factors;
  int m = q - 1;
  for (int d = 2; d * d <= m; ++d) {
    if (m % d == 0) {
      factors.push_back(d);
      while (m % d == 0) m /= d;
    }
  }
  if (m > 1) factors.push_back(m);
  for (int g = 2; g < q; ++g) {
    bool ok = true;
    for (int f : factors) {
      if (pow_mod(g, (q - 1) / f, q) == 1) {
        ok = false;
        break;
      }
    }
    if (ok) return g;
  }
  assert(false && "no primitive root found");
  return -1;
}

SlimFly slim_fly(int q, int servers_per_switch) {
  assert(is_prime(q) && q > 2);
  // We support q = 4w + 1 (delta = +1), where the generator sets X and X'
  // are symmetric (-1 is a quadratic residue), which the construction below
  // relies on. This covers the paper's configuration (q = 17).
  assert(q % 4 == 1 && "slim_fly requires a prime q with q % 4 == 1");
  const int delta = 1;

  SlimFly sf;
  sf.q = q;
  sf.delta = delta;
  const int n = 2 * q * q;

  const int xi = primitive_root(q);
  std::set<int> X, Xp;
  {
    long long v = 1;
    for (int i = 0; i < q - 1; ++i) {
      (i % 2 == 0 ? X : Xp).insert(static_cast<int>(v));
      v = v * xi % q;
    }
  }

  // Node ids: group 0 router (x, y) -> x*q + y; group 1 router (m, c) ->
  // q*q + m*q + c.
  auto id0 = [q](int x, int y) { return x * q + y; };
  auto id1 = [q](int m, int c) { return q * q + m * q + c; };

  // Intra-group links; X and X' are symmetric sets for the respective delta,
  // so add each undirected edge once (y < y' ordering).
  std::vector<graph::Edge> links;
  for (int x = 0; x < q; ++x) {
    for (int y = 0; y < q; ++y) {
      for (int yp = y + 1; yp < q; ++yp) {
        const int diff = (yp - y) % q;
        if (X.contains(diff) && X.contains((q - diff) % q)) {
          links.push_back({id0(x, y), id0(x, yp)});
        }
      }
    }
  }
  for (int m = 0; m < q; ++m) {
    for (int c = 0; c < q; ++c) {
      for (int cp = c + 1; cp < q; ++cp) {
        const int diff = (cp - c) % q;
        if (Xp.contains(diff) && Xp.contains((q - diff) % q)) {
          links.push_back({id1(m, c), id1(m, cp)});
        }
      }
    }
  }

  // Inter-group links: (0, x, y) ~ (1, m, c) iff y = m*x + c (mod q).
  for (int x = 0; x < q; ++x) {
    for (int y = 0; y < q; ++y) {
      for (int m = 0; m < q; ++m) {
        const int c = ((y - m * x) % q + q * q) % q;
        links.push_back({id0(x, y), id1(m, c)});
      }
    }
  }
  sf.topo = Topology(
      "slimfly(q=" + std::to_string(q) + ")", graph::Graph(n, std::move(links)),
      std::vector<int>(static_cast<std::size_t>(n), servers_per_switch));
  return sf;
}

}  // namespace flexnets::topo
