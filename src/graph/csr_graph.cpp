#include "graph/csr_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace rr::graph {

CsrGraph::CsrGraph(const Graph& g) : num_nodes_(g.num_nodes()) {
  const NodeId n = num_nodes_;
  offsets_store_.resize(static_cast<std::size_t>(n) + 1);
  offsets_store_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    offsets_store_[v + 1] = offsets_store_[v] + g.degree(v);
  }
  neighbors_store_.resize(offsets_store_[n]);
  ports_store_.resize(offsets_store_[n]);
  for (NodeId v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    NodeId* heads = neighbors_store_.data() + offsets_store_[v];
    std::copy(row.begin(), row.end(), heads);
    sort_row_ports(heads, g.degree(v),
                   ports_store_.data() + offsets_store_[v]);
  }
  bind_owned();
}

CsrGraph::CsrGraph(std::vector<std::size_t> offsets, std::vector<NodeId> arcs,
                   std::vector<std::uint32_t> sorted_ports)
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
  if (num_nodes_ == 0) return true;
  std::vector<std::uint8_t> seen(num_nodes_, 0);
  std::vector<NodeId> queue(num_nodes_);
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

}  // namespace rr::graph
