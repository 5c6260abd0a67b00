#include "graph/partition.hpp"

#include <algorithm>

namespace rr::graph {

Partition::Partition(const CsrGraph& g, std::uint32_t shards,
                     sim::ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  RR_REQUIRE(n > 0, "cannot partition an empty graph");
  if (shards == 0) shards = 1;
  if (shards > n) shards = n;

  // Weighted prefix boundaries: shard s ends at the smallest row whose
  // cumulative weight reaches total * (s+1) / shards. Weights are 1 + deg
  // so the split tracks per-round work (scan cost + exit fan-out). The
  // max(.., previous + 1) keeps every shard non-empty even when a single
  // hub node carries most of the weight.
  const std::uint64_t total = std::uint64_t{n} + g.num_arcs();
  starts_.assign(shards + 1, 0);
  std::uint64_t prefix = 0;
  NodeId v = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    starts_[s] = v;
    const std::uint64_t target = total * (s + 1) / shards;
    // Leave enough rows for the remaining shards to get one each.
    const NodeId ceiling = n - (shards - 1 - s);
    while (v < ceiling && (prefix < target || v == starts_[s])) {
      prefix += 1 + g.degree_unchecked(v);
      ++v;
    }
  }
  starts_[shards] = n;

  // Per shard, in its own job: the frontier (sorted unique heads of the
  // boundary arcs), each frontier node's owner, and the slot of every arc
  // leaving the shard's rows. Each job writes only shard s's entries.
  frontier_.resize(shards);
  frontier_owners_.resize(shards);
  if (shards > 1) arc_slots_.resize(g.num_arcs());
  sim::for_each_node_job(pool, n, shards, [&](std::uint64_t job) {
    const auto s = static_cast<std::uint32_t>(job);
    const NodeId lo = starts_[s];
    const NodeId hi = starts_[s + 1];
    auto& fr = frontier_[s];
    for (NodeId w = lo; w < hi; ++w) {
      for (NodeId u : g.neighbors(w)) {
        if (u < lo || u >= hi) fr.push_back(u);
      }
    }
    std::sort(fr.begin(), fr.end());
    fr.erase(std::unique(fr.begin(), fr.end()), fr.end());
    if (shards == 1) return;
    frontier_owners_[s].resize(fr.size());
    for (std::uint32_t slot = 0; slot < fr.size(); ++slot) {
      frontier_owners_[s][slot] = owner(fr[slot]);
    }
    for (NodeId w = lo; w < hi; ++w) {
      const std::size_t base = g.row_offset(w);
      const auto row = g.neighbors(w);
      for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(row.size()); ++p) {
        const NodeId u = row[p];
        arc_slots_[base + p] =
            (u >= lo && u < hi) ? kInShard : frontier_slot(s, u);
      }
    }
  });
}

std::uint32_t Partition::owner(NodeId v) const {
  RR_REQUIRE(v < num_nodes(), "node out of range");
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), v);
  return static_cast<std::uint32_t>(it - starts_.begin() - 1);
}

std::uint32_t Partition::frontier_slot(std::uint32_t s, NodeId u) const {
  const auto& fr = frontier_[s];
  const auto it = std::lower_bound(fr.begin(), fr.end(), u);
  RR_ASSERT(it != fr.end() && *it == u, "node not on shard frontier");
  return static_cast<std::uint32_t>(it - fr.begin());
}

}  // namespace rr::graph
