#include "graph/generators.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/lattice_rows.hpp"

namespace rr::graph {

CsrGraph ring(NodeId n) {
  RR_REQUIRE(n >= 3, "ring requires n >= 3");
  return CsrGraph::from_rows(RingRows{n});
}

CsrGraph path(NodeId n) {
  RR_REQUIRE(n >= 2, "path requires n >= 2");
  // Edges in decreasing order: an internal node v meets {v, v+1} before
  // {v-1, v}, so its port 0 points toward higher ids.
  std::vector<Edge> edges;
  for (NodeId v = n - 1; v-- > 0;) edges.emplace_back(v, v + 1);
  return CsrGraph::from_edges(n, edges);
}

CsrGraph grid(NodeId w, NodeId h) {
  RR_REQUIRE(w >= 2 && h >= 2, "grid requires w,h >= 2");
  std::vector<Edge> edges;
  auto id = [w](NodeId x, NodeId y) { return y * w + x; };
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId x = 0; x < w; ++x) {
      if (x + 1 < w) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < h) edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  return CsrGraph::from_edges(w * h, edges);
}

CsrGraph torus(NodeId w, NodeId h) {
  RR_REQUIRE(w >= 3 && h >= 3, "torus requires w,h >= 3");
  return CsrGraph::from_rows(TorusRows{w, h});
}

CsrGraph clique(NodeId n) {
  RR_REQUIRE(n >= 2, "clique requires n >= 2");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph star(NodeId n) {
  RR_REQUIRE(n >= 2, "star requires n >= 2");
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return CsrGraph::from_edges(n, edges);
}

CsrGraph binary_tree(NodeId n) {
  RR_REQUIRE(n >= 2, "binary_tree requires n >= 2");
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back((v - 1) / 2, v);
  return CsrGraph::from_edges(n, edges);
}

CsrGraph hypercube(std::uint32_t d) {
  RR_REQUIRE(d >= 1 && d < 25, "hypercube dimension out of range");
  const NodeId n = NodeId{1} << d;
  // Edges in bit order from each node's perspective: iterating bits in
  // the outer loop makes port i flip bit i at every node.
  std::vector<Edge> edges;
  for (std::uint32_t bit = 0; bit < d; ++bit) {
    for (NodeId v = 0; v < n; ++v) {
      NodeId u = v ^ (NodeId{1} << bit);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph lollipop(NodeId n, NodeId m) {
  RR_REQUIRE(m >= 3 && m <= n, "lollipop requires 3 <= m <= n");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < m; ++u) {
    for (NodeId v = u + 1; v < m; ++v) edges.emplace_back(u, v);
  }
  for (NodeId v = m; v < n; ++v) edges.emplace_back(v - 1, v);
  return CsrGraph::from_edges(n, edges);
}

namespace {

bool try_random_regular(NodeId n, std::uint32_t d, Rng& rng, CsrGraph& out) {
  // Configuration model: d stubs per node, random perfect matching, reject
  // self-loops and parallel edges.
  std::vector<NodeId> stubs(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs[static_cast<std::size_t>(v) * d + i] = v;
  }
  for (std::size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
  std::vector<Edge> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    NodeId u = stubs[i], v = stubs[i + 1];
    if (u == v) return false;
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(edges.begin(), edges.end());
  if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) return false;
  CsrGraph g = CsrGraph::from_edges(n, edges);
  if (!g.is_connected()) return false;
  out = std::move(g);
  return true;
}

}  // namespace

CsrGraph random_regular(NodeId n, std::uint32_t d, std::uint64_t seed) {
  RR_REQUIRE(d >= 2 && d < n, "random_regular requires 2 <= d < n");
  RR_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0, "n*d must be even");
  Rng rng(seed);
  CsrGraph g;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    if (try_random_regular(n, d, rng, g)) return g;
  }
  RR_REQUIRE(false, "random_regular: rejection sampling did not converge");
}

CsrGraph erdos_renyi(NodeId n, double p, std::uint64_t seed) {
  RR_REQUIRE(n >= 2, "erdos_renyi requires n >= 2");
  RR_REQUIRE(p > 0.0 && p <= 1.0, "p must be in (0,1]");
  Rng rng(seed);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    std::vector<Edge> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.uniform01() < p) edges.emplace_back(u, v);
      }
    }
    CsrGraph g = CsrGraph::from_edges(n, edges);
    if (g.is_connected()) return g;
  }
  RR_REQUIRE(false, "erdos_renyi: did not produce a connected sample");
}

}  // namespace rr::graph
