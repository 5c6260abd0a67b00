#pragma once

// Compressed-sparse-row view of a Graph (flat graph substrate).
//
// `Graph` stores adjacency as vector<vector<NodeId>>: every neighbor access
// in a simulation round chases an outer pointer, so large instances walk the
// heap instead of a cache line. CsrGraph flattens the same port-ordered
// adjacency into two arrays — `offsets_` (n+1 prefix sums of degrees) and
// `neighbors_` (all 2|E| arc heads, port order preserved per node) — so a
// round over the occupied nodes does contiguous scans. The rotor
// engines and dist workers run every inner loop on it. They get it from
// GraphDescriptor::build_csr, which streams the lattice kinds (ring,
// torus) straight into the owned arrays (graph/lattice_rows.hpp) and
// snapshots a built Graph for every other kind. `Graph` remains the
// mutable builder/query type for the generators, permute_ports, BFS
// diagnostics and the engines that need those APIs (walks, eulerian).
//
// Port semantics are identical to Graph: `neighbor(v, p)` is the arc head
// reached from v through port p, and the cyclic successor of p is
// (p+1) mod deg(v). The CSR view is immutable; permute ports on the Graph
// *before* constructing the view.
//
// Storage comes in two modes behind the same pointer-based accessors:
// owned (built from a Graph or a row source, arrays in member vectors)
// and view (arrays live elsewhere — an mmap'd graph image,
// graph/mmap_substrate.hpp — and `backing_` keeps that storage alive).
// Copying an owned CsrGraph copies the arrays; copying a view shares them.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/no_init.hpp"
#include "common/require.hpp"
#include "graph/graph.hpp"
#include "sim/thread_pool.hpp"

namespace rr::graph {

class CsrGraph {
 public:
  /// The empty graph (no nodes).
  CsrGraph() : CsrGraph(OffsetList(1, 0), {}, {}) {}

  /// Snapshots `g`'s port-ordered adjacency. The offsets are one serial
  /// prefix sum; with a pool the rows then split into one range per pool
  /// thread, each job copying its rows' heads and sorting their ports
  /// (sim::for_each_node_job: graphs under its cutoff stay on the
  /// caller). The arrays are identical at any pool width.
  explicit CsrGraph(const Graph& g, sim::ThreadPool* pool = nullptr);

  /// Streams a fixed-degree row source (graph/lattice_rows.hpp) into an
  /// owned graph, with no intermediate Graph. Rows split into ranges as
  /// in CsrGraph(const Graph&, pool); each job writes its rows' offsets,
  /// arcs and sorted ports into unfilled storage, so it is the first
  /// thread to touch those pages.
  template <typename Rows>
  static CsrGraph from_rows(const Rows& rows, sim::ThreadPool* pool = nullptr) {
    constexpr std::uint32_t deg = Rows::kDegree;
    const std::uint64_t n = rows.num_nodes();
    OffsetList offsets(n + 1);
    ArcList arcs(n * deg);
    PortList ports(n * deg);
    offsets[n] = n * deg;
    const std::uint64_t jobs = row_jobs(pool);
    sim::for_each_node_job(pool, n, jobs, [&](std::uint64_t j) {
      for (std::uint64_t v = n * j / jobs; v < n * (j + 1) / jobs; ++v) {
        offsets[v] = v * deg;
        rows.row(v, &arcs[v * deg]);
        sort_row_ports(&arcs[v * deg], deg, &ports[v * deg]);
      }
    });
    return CsrGraph(std::move(offsets), std::move(arcs), std::move(ports));
  }

  /// Writes the permutation of one row's ports sorted by (head, port)
  /// into ports[0, deg): the sorted_ports layout.
  static void sort_row_ports(const NodeId* heads, std::uint32_t deg,
                             std::uint32_t* ports);

  /// View over externally owned arrays: `offsets` (n+1 prefix sums),
  /// `neighbors` (offsets[n] arc heads), and optionally `sorted_ports`
  /// (same length; nullptr degrades port_to/has_edge to a linear scan).
  /// `backing` is retained for the lifetime of this view and any copy of
  /// it (e.g. the shared_ptr of the mmap'd substrate the arrays live in).
  CsrGraph(const std::size_t* offsets, NodeId num_nodes,
           const NodeId* neighbors, const std::uint32_t* sorted_ports,
           std::shared_ptr<const void> backing);

  // Owned mode must rebind the accessor pointers to the copied vectors;
  // view mode shares the underlying arrays (and their backing). Moves
  // keep the heap buffers, so the default member-wise move is correct.
  CsrGraph(const CsrGraph& other) { *this = other; }
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&&) noexcept = default;
  CsrGraph& operator=(CsrGraph&&) noexcept = default;

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_arcs() / 2; }
  /// Number of arcs in the directed symmetric version (2|E|).
  std::size_t num_arcs() const { return offsets_[num_nodes_]; }

  std::uint32_t degree(NodeId v) const {
    RR_REQUIRE(v < num_nodes(), "node out of range");
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Node reached from `v` through port `p`.
  NodeId neighbor(NodeId v, std::uint32_t p) const {
    RR_REQUIRE(v < num_nodes(), "node out of range");
    RR_REQUIRE(p < offsets_[v + 1] - offsets_[v], "port out of range");
    return neighbors_[offsets_[v] + p];
  }

  /// Neighbors of `v` in port order.
  std::span<const NodeId> neighbors(NodeId v) const {
    RR_REQUIRE(v < num_nodes(), "node out of range");
    return {neighbors_ + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // ---- unchecked hot-path accessors (engine inner loops) ----

  /// Pointer to the port-ordered neighbor row of `v`; valid for
  /// [0, degree(v)) without bounds checks.
  const NodeId* row(NodeId v) const { return neighbors_ + offsets_[v]; }
  /// Base of the flat arc-head array; engines that cache per-node row
  /// offsets (graph::NodeState::row_begin) index it directly and skip the
  /// offsets_ lookup of row().
  const NodeId* arcs() const { return neighbors_; }
  /// Offset of v's neighbor row in arcs() (what NodeState::row_begin
  /// caches at engine construction).
  std::size_t row_offset(NodeId v) const { return offsets_[v]; }
  /// Base of the per-row (head, port)-sorted port permutation, parallel
  /// to arcs(); nullptr for a view built without one.
  const std::uint32_t* sorted_ports() const { return sorted_ports_; }
  std::uint32_t degree_unchecked(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Smallest port at `v` leading to `u` (paper's port_v(u)); O(log deg v)
  /// via the neighbor-sorted port index (Graph::port_to is O(deg)).
  /// Requires the edge to exist.
  std::uint32_t port_to(NodeId v, NodeId u) const;

  /// O(log deg v) membership test.
  bool has_edge(NodeId v, NodeId u) const;

  /// True iff every node is reachable from node 0 (BFS over the flat
  /// arrays; the empty graph is connected).
  bool is_connected() const;
  /// The same BFS over caller-owned scratch: `queue` has room for
  /// num_nodes() ids and `seen` holds num_nodes() zero bytes. A pool job
  /// checks connectivity this way so that it allocates nothing: a large
  /// block freed on a worker thread stays resident in that thread's
  /// malloc arena.
  bool is_connected(NodeId* queue, std::uint8_t* seen) const;

 private:
  using OffsetList = NoInitVector<std::size_t>;
  using ArcList = NoInitVector<NodeId>;
  using PortList = NoInitVector<std::uint32_t>;

  /// Owned mode over prebuilt arrays: `offsets` (n+1 prefix sums),
  /// `arcs` (offsets[n] heads in port order) and `sorted_ports` (same
  /// length, each row in sort_row_ports order).
  CsrGraph(OffsetList offsets, ArcList arcs, PortList sorted_ports);

  /// Row ranges of a build: one per pool thread, one without a pool.
  static std::uint64_t row_jobs(const sim::ThreadPool* pool) {
    return pool != nullptr ? pool->num_threads() : 1;
  }

  /// Owned mode: points the accessors at this object's vectors.
  void bind_owned();

  // Owned-mode storage (empty in view mode).
  OffsetList offsets_store_;  // n+1 prefix sums of degrees
  ArcList neighbors_store_;   // arc heads, port order per node
  // Per-node port permutation sorted by (neighbor, port): sorted_ports_[i]
  // for i in [offsets_[v], offsets_[v+1]) enumerates v's ports so that
  // neighbors_[offsets_[v] + sorted_ports_[i]] is nondecreasing, with ties
  // (parallel edges) broken by smaller port. Supports binary-search
  // port_to/has_edge without disturbing the cyclic port order.
  PortList ports_store_;

  std::shared_ptr<const void> backing_;  // view mode: keeps the arrays alive

  const std::size_t* offsets_ = nullptr;
  const NodeId* neighbors_ = nullptr;
  const std::uint32_t* sorted_ports_ = nullptr;  // nullptr: linear port_to
  NodeId num_nodes_ = 0;
};

}  // namespace rr::graph
