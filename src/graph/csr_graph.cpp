#include "graph/csr_graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace rr::graph {

CsrGraph CsrGraph::from_edges(NodeId n, const std::vector<Edge>& edges) {
  OffsetList offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    RR_REQUIRE(u < n && v < n, "edge endpoint out of range");
    RR_REQUIRE(u != v, "self-loops are not part of the model");
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // Each row fills in list order: next[v] is v's first free port.
  std::vector<std::size_t> next(offsets.begin(), offsets.end() - 1);
  ArcList arcs(offsets[n]);
  for (const auto& [u, v] : edges) {
    arcs[next[u]++] = v;
    arcs[next[v]++] = u;
  }
  PortList ports(offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    sort_row_ports(arcs.data() + offsets[v],
                   static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]),
                   ports.data() + offsets[v]);
  }
  return CsrGraph(std::move(offsets), std::move(arcs), std::move(ports));
}

CsrGraph::CsrGraph(OffsetList offsets, ArcList arcs, PortList sorted_ports)
    : offsets_store_(std::move(offsets)),
      neighbors_store_(std::move(arcs)),
      ports_store_(std::move(sorted_ports)) {
  RR_REQUIRE(!offsets_store_.empty() &&
                 offsets_store_.back() == neighbors_store_.size() &&
                 ports_store_.size() == neighbors_store_.size(),
             "CsrGraph arrays disagree on the arc count");
  num_nodes_ = static_cast<NodeId>(offsets_store_.size() - 1);
  bind_owned();
}

void CsrGraph::sort_row_ports(const NodeId* heads, std::uint32_t deg,
                              std::uint32_t* ports) {
  std::iota(ports, ports + deg, 0u);
  std::sort(ports, ports + deg, [heads](std::uint32_t a, std::uint32_t b) {
    return heads[a] != heads[b] ? heads[a] < heads[b] : a < b;
  });
}

void CsrGraph::bind_owned() {
  offsets_ = offsets_store_.data();
  neighbors_ = neighbors_store_.data();
  sorted_ports_ = ports_store_.empty() ? nullptr : ports_store_.data();
}

CsrGraph::CsrGraph(const std::size_t* offsets, NodeId num_nodes,
                   const NodeId* neighbors, const std::uint32_t* sorted_ports,
                   std::shared_ptr<const void> backing)
    : backing_(std::move(backing)),
      offsets_(offsets),
      neighbors_(neighbors),
      sorted_ports_(sorted_ports),
      num_nodes_(num_nodes) {
  RR_REQUIRE(offsets_ != nullptr && neighbors_ != nullptr,
             "CsrGraph view requires offsets and neighbors arrays");
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  offsets_store_ = other.offsets_store_;
  neighbors_store_ = other.neighbors_store_;
  ports_store_ = other.ports_store_;
  backing_ = other.backing_;
  num_nodes_ = other.num_nodes_;
  if (backing_ != nullptr) {  // view: share the external arrays
    offsets_ = other.offsets_;
    neighbors_ = other.neighbors_;
    sorted_ports_ = other.sorted_ports_;
  } else {  // owned: rebind to this object's copies
    bind_owned();
  }
  return *this;
}

std::uint32_t CsrGraph::port_to(NodeId v, NodeId u) const {
  RR_REQUIRE(v < num_nodes() && u < num_nodes(), "node out of range");
  const NodeId* heads = neighbors_ + offsets_[v];
  const std::uint32_t deg = degree_unchecked(v);
  if (sorted_ports_ == nullptr) {
    for (std::uint32_t p = 0; p < deg; ++p) {
      if (heads[p] == u) return p;
    }
    RR_UNREACHABLE("port_to: no edge between the given nodes");
  }
  const std::uint32_t* first = sorted_ports_ + offsets_[v];
  const std::uint32_t* last = sorted_ports_ + offsets_[v + 1];
  const std::uint32_t* it = std::lower_bound(
      first, last, u,
      [heads](std::uint32_t port, NodeId target) { return heads[port] < target; });
  RR_REQUIRE(it != last && heads[*it] == u,
             "port_to: no edge between the given nodes");
  return *it;  // ties sort by port, so this is the smallest matching port
}

bool CsrGraph::has_edge(NodeId v, NodeId u) const {
  if (v >= num_nodes() || u >= num_nodes()) return false;
  const NodeId* heads = neighbors_ + offsets_[v];
  const std::uint32_t deg = degree_unchecked(v);
  if (sorted_ports_ == nullptr) {
    for (std::uint32_t p = 0; p < deg; ++p) {
      if (heads[p] == u) return true;
    }
    return false;
  }
  const std::uint32_t* first = sorted_ports_ + offsets_[v];
  const std::uint32_t* last = sorted_ports_ + offsets_[v + 1];
  const std::uint32_t* it = std::lower_bound(
      first, last, u,
      [heads](std::uint32_t port, NodeId target) { return heads[port] < target; });
  return it != last && heads[*it] == u;
}

bool CsrGraph::is_connected() const {
  NoInitVector<NodeId> queue(num_nodes_);  // [0, tail) written before read
  std::vector<std::uint8_t> seen(num_nodes_, 0);
  return is_connected(queue.data(), seen.data());
}

bool CsrGraph::is_connected(NodeId* queue, std::uint8_t* seen) const {
  if (num_nodes_ == 0) return true;
  std::size_t head = 0;
  std::size_t tail = 0;
  seen[0] = 1;
  queue[tail++] = 0;
  while (head < tail) {
    const NodeId v = queue[head++];
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const NodeId u = neighbors_[i];
      if (!seen[u]) {
        seen[u] = 1;
        queue[tail++] = u;
      }
    }
  }
  return tail == num_nodes_;
}

std::vector<std::uint32_t> CsrGraph::bfs_distances(NodeId src) const {
  RR_REQUIRE(src < num_nodes(), "node out of range");
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(num_nodes_, kInf);
  std::vector<NodeId> queue;
  queue.reserve(num_nodes_);
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const NodeId u = neighbors_[i];
      if (dist[u] == kInf) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

std::uint32_t CsrGraph::eccentricity(NodeId src) const {
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : bfs_distances(src)) {
    RR_REQUIRE(d != std::numeric_limits<std::uint32_t>::max(),
               "eccentricity requires a connected graph");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t CsrGraph::diameter() const {
  RR_REQUIRE(num_nodes() > 0, "diameter of empty graph");
  std::uint32_t d = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) d = std::max(d, eccentricity(v));
  return d;
}

}  // namespace rr::graph
