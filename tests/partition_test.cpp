// Property tests for graph::Partition, the substrate of shard-parallel
// stepping: shards must tile the row space exactly (cover, disjoint,
// ordered, non-empty), stay arc-balanced, and the per-shard frontier index
// must be complete — every out-of-shard arc head reachable from a shard
// resolves to exactly one slot, and no slot is unreachable. The sharded
// engine's race-freedom and determinism arguments (README "Sharded
// stepping & determinism") rest on these invariants. A partition built
// on a pool must equal the inline one element for element.

#include "graph/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "pool_matrix.hpp"
#include "sim/thread_pool.hpp"

namespace rr::graph {
namespace {

std::vector<Graph> zoo() {
  std::vector<Graph> graphs;
  graphs.push_back(ring(17));
  graphs.push_back(path(9));
  graphs.push_back(torus(6, 7));
  graphs.push_back(grid(5, 4));
  graphs.push_back(clique(12));
  graphs.push_back(star(23));
  graphs.push_back(binary_tree(31));
  graphs.push_back(hypercube(5));
  graphs.push_back(lollipop(24, 8));
  graphs.push_back(random_regular(30, 4, 7));
  return graphs;
}

const std::uint32_t kShardCounts[] = {1, 2, 3, 7, 8, 64, 1000};

TEST(Partition, ShardsTileTheRowSpaceExactlyOnce) {
  for (const Graph& g : zoo()) {
    const CsrGraph csr(g);
    for (std::uint32_t shards : kShardCounts) {
      const Partition part(csr, shards);
      SCOPED_TRACE(::testing::Message() << "n=" << csr.num_nodes()
                                      << " shards=" << shards);
      ASSERT_GE(part.num_shards(), 1u);
      ASSERT_LE(part.num_shards(), std::min<std::uint32_t>(shards, csr.num_nodes()));
      ASSERT_EQ(part.begin(0), 0u);
      ASSERT_EQ(part.end(part.num_shards() - 1), csr.num_nodes());
      for (std::uint32_t s = 0; s < part.num_shards(); ++s) {
        ASSERT_LT(part.begin(s), part.end(s)) << "empty shard " << s;
        if (s + 1 < part.num_shards()) {
          ASSERT_EQ(part.end(s), part.begin(s + 1)) << "gap after shard " << s;
        }
        for (NodeId v = part.begin(s); v < part.end(s); ++v) {
          ASSERT_EQ(part.owner(v), s);
        }
      }
    }
  }
}

TEST(Partition, ArcWeightStaysBalanced) {
  // Greedy prefix splitting keeps every shard within one node's weight of
  // the ideal share (the node that crossed the boundary), except where
  // the tail shards were squeezed to stay non-empty.
  for (const Graph& g : zoo()) {
    const CsrGraph csr(g);
    std::uint64_t total = 0;
    std::uint32_t max_weight = 0;
    for (NodeId v = 0; v < csr.num_nodes(); ++v) {
      total += 1 + csr.degree(v);
      max_weight = std::max(max_weight, 1 + csr.degree(v));
    }
    for (std::uint32_t shards : {2u, 3u, 7u, 8u}) {
      const Partition part(csr, shards);
      for (std::uint32_t s = 0; s < part.num_shards(); ++s) {
        std::uint64_t w = 0;
        for (NodeId v = part.begin(s); v < part.end(s); ++v) {
          w += 1 + csr.degree(v);
        }
        EXPECT_LE(w, total / part.num_shards() + max_weight)
            << "n=" << csr.num_nodes() << " shards=" << shards << " s=" << s;
      }
    }
  }
}

TEST(Partition, FrontierIndexIsCompleteAndMinimal) {
  for (const Graph& g : zoo()) {
    const CsrGraph csr(g);
    for (std::uint32_t shards : kShardCounts) {
      const Partition part(csr, shards);
      SCOPED_TRACE(::testing::Message() << "n=" << csr.num_nodes()
                                      << " shards=" << shards);
      for (std::uint32_t s = 0; s < part.num_shards(); ++s) {
        const auto& fr = part.frontier(s);
        // Sorted and duplicate-free: slots are usable as dense indices.
        ASSERT_TRUE(std::is_sorted(fr.begin(), fr.end()));
        ASSERT_TRUE(std::adjacent_find(fr.begin(), fr.end()) == fr.end());
        // Complete: every out-of-shard arc head has a slot that resolves
        // back to it.
        for (NodeId v = part.begin(s); v < part.end(s); ++v) {
          for (NodeId u : csr.neighbors(v)) {
            if (part.owner(u) == s) continue;
            const std::uint32_t slot = part.frontier_slot(s, u);
            ASSERT_LT(slot, fr.size());
            ASSERT_EQ(fr[slot], u);
          }
        }
        // Minimal: every slot is a genuine out-of-shard boundary head.
        for (NodeId u : fr) {
          ASSERT_NE(part.owner(u), s);
          bool reachable = false;
          for (NodeId v = part.begin(s); v < part.end(s) && !reachable; ++v) {
            const auto row = csr.neighbors(v);
            reachable = std::find(row.begin(), row.end(), u) != row.end();
          }
          ASSERT_TRUE(reachable) << "frontier node " << u << " unreachable";
        }
      }
    }
  }
}

TEST(Partition, ArcSlotTableMatchesFrontierIndex) {
  // The O(1) per-arc classification used by the scan hot loop must agree
  // with the definitional binary-search index for every arc.
  for (const Graph& g : zoo()) {
    const CsrGraph csr(g);
    for (std::uint32_t shards : {2u, 3u, 7u, 8u}) {
      const Partition part(csr, shards);
      SCOPED_TRACE(::testing::Message() << "n=" << csr.num_nodes()
                                        << " shards=" << shards);
      for (NodeId v = 0; v < csr.num_nodes(); ++v) {
        const std::uint32_t s = part.owner(v);
        const auto row = csr.neighbors(v);
        for (std::uint32_t p = 0; p < row.size(); ++p) {
          const NodeId u = row[p];
          const std::uint32_t slot = part.arc_slot(csr.row_offset(v) + p);
          if (part.owner(u) == s) {
            ASSERT_EQ(slot, Partition::kInShard);
          } else {
            ASSERT_EQ(slot, part.frontier_slot(s, u));
            ASSERT_EQ(part.frontier(s)[slot], u);
            ASSERT_EQ(part.frontier_owner(s, slot), part.owner(u));
          }
        }
      }
    }
  }
}

TEST(Partition, PooledBuildEqualsInlineBuild) {
  // Starts, frontiers, frontier owners and every arc slot, for shard
  // counts 1..5 and more shards than nodes, on graphs below and at or
  // above sim::kPoolMinNodes (where the per-shard jobs leave the caller).
  const char* const kinds[] = {"ring 17",     "ring 65537",  "torus 3 3",
                               "torus 7 5",   "torus 512 3", "torus 16 16",
                               "torus 256 256", "grid 7 5",  "grid 256 257",
                               "random-regular 30 4 7"};
  for (const char* text : kinds) {
    const auto d = GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value());
    const CsrGraph csr = *d->build_csr();
    for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 5u, 40000u}) {
      const Partition expected(csr, shards);
      for (const unsigned width : testing::pool_widths({1, 2, 3, 4})) {
        SCOPED_TRACE(::testing::Message() << text << " shards=" << shards
                                          << " width=" << width);
        sim::ThreadPool pool(width);
        const Partition got(csr, shards, &pool);
        ASSERT_EQ(got.num_shards(), expected.num_shards());
        for (std::uint32_t s = 0; s < expected.num_shards(); ++s) {
          ASSERT_EQ(got.begin(s), expected.begin(s));
          ASSERT_EQ(got.end(s), expected.end(s));
          ASSERT_EQ(got.frontier(s), expected.frontier(s));
          for (std::uint32_t slot = 0; slot < expected.frontier(s).size();
               ++slot) {
            ASSERT_EQ(got.frontier_owner(s, slot),
                      expected.frontier_owner(s, slot));
          }
        }
        if (expected.num_shards() > 1) {
          for (std::size_t arc = 0; arc < csr.num_arcs(); ++arc) {
            ASSERT_EQ(got.arc_slot(arc), expected.arc_slot(arc)) << arc;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rr::graph
