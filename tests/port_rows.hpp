#pragma once

// Hand-built port orders for tests. CsrGraph::from_edges gives each node
// its ports in edge-list order, which cannot spell every cyclic order
// (the ring's port 0 clockwise everywhere is one it cannot). PortRows is
// the adjacency written out row by row, in port order, as a test means
// it; csr() is the CsrGraph with exactly those rows.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr_graph.hpp"

namespace rr::testing {

struct PortRows {
  std::vector<std::vector<graph::NodeId>> rows;

  explicit PortRows(graph::NodeId n) : rows(n) {}

  /// The rows of `g`, in its port order.
  explicit PortRows(const graph::CsrGraph& g) : rows(g.num_nodes()) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto row = g.neighbors(v);
      rows[v].assign(row.begin(), row.end());
    }
  }

  /// Edge {u, v} takes the next free port at each endpoint.
  void add_edge(graph::NodeId u, graph::NodeId v) {
    rows[u].push_back(v);
    rows[v].push_back(u);
  }

  /// Port p of `v` becomes port (p - offset) mod deg(v).
  void rotate(graph::NodeId v, std::uint32_t offset) {
    auto& row = rows[v];
    if (row.empty()) return;
    std::rotate(row.begin(), row.begin() + offset % row.size(), row.end());
  }

  /// A CsrGraph over copies of the rows: a view whose arrays it keeps
  /// alive, with the sorted-port index from_edges would build.
  graph::CsrGraph csr() const {
    struct Arrays {
      std::vector<std::size_t> offsets{0};
      std::vector<graph::NodeId> heads;
      std::vector<std::uint32_t> ports;
    };
    auto a = std::make_shared<Arrays>();
    a->heads.reserve(1);  // a view needs non-null arrays, edgeless or not
    for (const auto& row : rows) {
      a->heads.insert(a->heads.end(), row.begin(), row.end());
      a->offsets.push_back(a->heads.size());
    }
    a->ports.resize(a->heads.size());
    for (std::size_t v = 0; v < rows.size(); ++v) {
      graph::CsrGraph::sort_row_ports(
          a->heads.data() + a->offsets[v],
          static_cast<std::uint32_t>(rows[v].size()),
          a->ports.data() + a->offsets[v]);
    }
    const auto n = static_cast<graph::NodeId>(rows.size());
    return graph::CsrGraph(a->offsets.data(), n, a->heads.data(),
                           a->ports.data(), a);
  }
};

}  // namespace rr::testing
