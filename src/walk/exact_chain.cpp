#include "walk/exact_chain.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace rr::walk {

double ring_hitting_time(std::uint32_t n, std::uint32_t d) {
  RR_REQUIRE(d <= n, "distance exceeds ring size");
  return static_cast<double>(d) * static_cast<double>(n - d);
}

double gamblers_ruin_up_probability(std::uint32_t x, std::uint32_t L) {
  RR_REQUIRE(L > 0 && x <= L, "need 0 <= x <= L, L > 0");
  return static_cast<double>(x) / static_cast<double>(L);
}

double gamblers_ruin_exit_time(std::uint32_t x, std::uint32_t L) {
  RR_REQUIRE(L > 0 && x <= L, "need 0 <= x <= L, L > 0");
  return static_cast<double>(x) * static_cast<double>(L - x);
}

std::vector<double> expected_hitting_times(const graph::Graph& g,
                                           graph::NodeId target, double tol,
                                           std::uint32_t max_iters) {
  using graph::NodeId;
  RR_REQUIRE(target < g.num_nodes(), "target out of range");
  RR_REQUIRE(g.is_connected(), "hitting times need a connected graph");
  const NodeId n = g.num_nodes();
  std::vector<double> h(n, 0.0);
  // Gauss-Seidel on h(v) = 1 + (1/deg v) * sum_u h(u), h(target) = 0.
  // The system is an irreducible M-matrix; Gauss-Seidel converges.
  for (std::uint32_t iter = 0; iter < max_iters; ++iter) {
    double max_delta = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (v == target) continue;
      double sum = 0.0;
      for (NodeId u : g.neighbors(v)) sum += h[u];
      const double next = 1.0 + sum / g.degree(v);
      max_delta = std::max(max_delta, std::abs(next - h[v]));
      h[v] = next;
    }
    if (max_delta < tol) return h;
  }
  RR_REQUIRE(false, "hitting-time solver did not converge; raise max_iters");
}

std::vector<double> stationary_distribution(const graph::Graph& g) {
  std::vector<double> pi(g.num_nodes());
  const double arcs = static_cast<double>(g.num_arcs());
  RR_REQUIRE(arcs > 0, "empty graph has no stationary distribution");
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    pi[v] = g.degree(v) / arcs;
  }
  return pi;
}

double expected_return_time(const graph::Graph& g, graph::NodeId v) {
  RR_REQUIRE(v < g.num_nodes(), "node out of range");
  RR_REQUIRE(g.degree(v) > 0, "isolated node is never revisited");
  return static_cast<double>(g.num_arcs()) / g.degree(v);
}

double tv_distance_after(const graph::Graph& g, graph::NodeId start,
                         std::uint32_t t, bool lazy) {
  using graph::NodeId;
  RR_REQUIRE(start < g.num_nodes(), "start out of range");
  const NodeId n = g.num_nodes();
  std::vector<double> dist(n, 0.0), next(n, 0.0);
  dist[start] = 1.0;
  for (std::uint32_t step = 0; step < t; ++step) {
    std::fill(next.begin(), next.end(), 0.0);
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == 0.0) continue;
      const double keep = lazy ? 0.5 * dist[v] : 0.0;
      next[v] += keep;
      const double spread = (dist[v] - keep) / g.degree(v);
      for (NodeId u : g.neighbors(v)) next[u] += spread;
    }
    dist.swap(next);
  }
  const auto pi = stationary_distribution(g);
  double tv = 0.0;
  for (NodeId v = 0; v < n; ++v) tv += std::abs(dist[v] - pi[v]);
  return 0.5 * tv;
}

}  // namespace rr::walk
