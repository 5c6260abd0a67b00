#pragma once

// CSR row-space partitioning + the packed node-state block (graph layer).
//
// Shard-parallel stepping (core::RotorRouter with shards > 1, and the
// dist workers) and the sequential engine's SoA hot path share two
// layout decisions made here:
//
//  * NodeState packs the per-node fields every rotor-router round touches
//    — agent count, rotor pointer, degree, the arrival accumulator and
//    the CSR row offset — into one cache-line-aligned stride. The seed
//    engine kept them in parallel vectors (plus a degree/row lookup
//    through the CSR offsets), so a single agent exit gathered five
//    scattered cache lines; packed, it gathers one (plus the neighbor
//    row).
//
//  * Partition splits the CSR row space [0, n) into `shards` contiguous,
//    arc-balanced ranges. Contiguity is what makes sharded rounds race-
//    free with plain arrays: a shard owns the rows [begin(s), end(s)), so
//    per-node writes (counts, pointers, visit stats, arrival buffers) from
//    different shards never alias, and ownership tests are two compares.
//
// The per-shard *frontier index* supports the out-of-shard half of a
// round: frontier(s) is the sorted set of nodes outside shard s that an
// agent leaving shard s can reach in one hop (the heads of s's boundary
// arcs). A shard accumulates out-of-shard arrivals in a dense buffer
// indexed by frontier slot (frontier_slot) instead of a hash map; the
// merge phase walks source shards in a fixed order, which is what makes
// shard-parallel rounds bit-identical to sequential ones (see README
// "Sharded stepping & determinism").

#include <cstdint>
#include <vector>

#include "common/no_init.hpp"
#include "common/require.hpp"
#include "graph/csr_graph.hpp"
#include "sim/thread_pool.hpp"

namespace rr::graph {

/// Per-node hot state of a rotor-router round: one aligned stride instead
/// of five parallel arrays. `degree` and `row_begin` duplicate the CSR
/// offsets so the stepping loop never touches the offsets array, and
/// `arrivals` rides in the same line so depositing an agent on a node and
/// committing that arrival at the end of the round hit memory once.
struct alignas(32) NodeState {
  std::uint32_t count = 0;     ///< agents currently hosted
  std::uint32_t pointer = 0;   ///< current rotor (port) pointer
  std::uint32_t degree = 0;    ///< cached deg(v)
  std::uint32_t arrivals = 0;  ///< agents arriving this round (pre-commit)
  std::uint64_t row_begin = 0; ///< cached CSR offset of v's neighbor row
};

class Partition {
 public:
  /// Splits `g`'s rows into at most `shards` contiguous ranges balanced
  /// by arc count (each node weighted 1 + deg, so both huge-degree hubs
  /// and seas of tiny nodes split evenly). `shards` is clamped to
  /// [1, num_nodes]; every shard is non-empty. The boundaries are one
  /// serial O(n) scan; each shard's frontier, frontier owners and arc
  /// slots are then one job per shard, on `pool` when one is given
  /// (sim::for_each_node_job: graphs under its cutoff stay on the
  /// caller). The index is identical either way.
  Partition(const CsrGraph& g, std::uint32_t shards,
            sim::ThreadPool* pool = nullptr);

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(starts_.size() - 1);
  }
  NodeId begin(std::uint32_t s) const { return starts_[s]; }
  NodeId end(std::uint32_t s) const { return starts_[s + 1]; }
  NodeId num_nodes() const { return starts_.back(); }

  /// Shard owning row v (binary search over the shard starts).
  std::uint32_t owner(NodeId v) const;

  /// Sorted, duplicate-free list of out-of-shard nodes reachable in one
  /// hop from shard s (the heads of s's boundary arcs).
  const std::vector<NodeId>& frontier(std::uint32_t s) const {
    return frontier_[s];
  }

  /// Slot of `u` in frontier(s); `u` must be a frontier member (the
  /// stepping loop only asks about arc heads, which are by construction).
  /// O(log |frontier|); hot loops use the precomputed arc_slot instead.
  std::uint32_t frontier_slot(std::uint32_t s, NodeId u) const;

  /// arc_slot(i) for an arc index i into CsrGraph::arcs(): the frontier
  /// slot of that arc's head in the tail-owner's frontier, or kInShard
  /// when tail and head share a shard. Precomputed once, so the scan
  /// phase classifies and buckets every exit in O(1) instead of a binary
  /// search per cross-shard arrival. Only built for multi-shard
  /// partitions (a single shard has no cross-shard arcs).
  static constexpr std::uint32_t kInShard = ~std::uint32_t{0};
  std::uint32_t arc_slot(std::size_t arc) const { return arc_slots_[arc]; }

  /// Owner shard of frontier(s)[slot] (precomputed alongside arc_slots_).
  std::uint32_t frontier_owner(std::uint32_t s, std::uint32_t slot) const {
    return frontier_owners_[s][slot];
  }

 private:
  std::vector<NodeId> starts_;                 // size num_shards()+1
  std::vector<std::vector<NodeId>> frontier_;  // per shard, sorted unique
  NoInitVector<std::uint32_t> arc_slots_;      // per arc; empty if 1 shard
  std::vector<std::vector<std::uint32_t>> frontier_owners_;
};

}  // namespace rr::graph
