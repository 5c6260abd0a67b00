// Tests for GraphDescriptor::build: the streamed lattice rows must be
// element-for-element the port order ring and torus were first defined
// by (edge insertion, spelled out in PortRows), every other kind must be
// its generator's graph, and build() must reject exactly what num_nodes()
// rejects. A build on a pool must write the same arrays as the inline
// one at every pool width, on both sides of the pool cutoff. Every
// kind's port order is pinned by digest. Also CsrGraph::is_connected and
// the engines' connectivity gate on the CSR path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/rotor_router.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "pool_matrix.hpp"
#include "port_rows.hpp"
#include "sim/thread_pool.hpp"

namespace rr::graph {
namespace {

// Offsets, arcs and sorted ports of `got` equal `expected`'s.
void expect_same_csr(const CsrGraph& got, const CsrGraph& expected) {
  ASSERT_EQ(got.num_nodes(), expected.num_nodes());
  ASSERT_EQ(got.num_arcs(), expected.num_arcs());
  for (NodeId v = 0; v <= expected.num_nodes(); ++v) {
    ASSERT_EQ(got.row_offset(v), expected.row_offset(v)) << "v=" << v;
  }
  ASSERT_NE(got.sorted_ports(), nullptr);
  for (std::size_t i = 0; i < expected.num_arcs(); ++i) {
    ASSERT_EQ(got.arcs()[i], expected.arcs()[i]) << "arc " << i;
    ASSERT_EQ(got.sorted_ports()[i], expected.sorted_ports()[i])
        << "arc " << i;
  }
}

// The descriptor's build() is `expected`, arrays and all, and connected.
void expect_builds(const std::string& text, const CsrGraph& expected) {
  SCOPED_TRACE(text);
  const auto d = GraphDescriptor::parse(text);
  ASSERT_TRUE(d.has_value());
  const auto got = d->build();
  ASSERT_TRUE(got.has_value());
  expect_same_csr(*got, expected);
  EXPECT_TRUE(got->is_connected());
}

TEST(CsrBuild, StreamedRingMatchesGraphBuilder) {
  // The ring's first definition: edges {v, v+1 mod n} in order, then every
  // node but 0 rotated by one so that port 0 is clockwise everywhere.
  for (const NodeId n : {3u, 4u, 5u, 1024u}) {
    testing::PortRows ring(n);
    for (NodeId v = 0; v < n; ++v) ring.add_edge(v, (v + 1) % n);
    for (NodeId v = 1; v < n; ++v) ring.rotate(v, 1);
    expect_builds("ring " + std::to_string(n), ring.csr());
  }
}

TEST(CsrBuild, StreamedTorusMatchesGraphBuilder) {
  // The torus's first definition: per cell, the edge to the right and
  // then the one down, cells in (y, x) order. Corner (0,0), the x==0
  // column, the y==0 row, interior cells, and non-square shapes, up to
  // the benchmark's 512x512 instance.
  const std::pair<NodeId, NodeId> shapes[] = {{3, 3},   {3, 5},   {5, 3},
                                              {4, 4},   {64, 32}, {512, 512}};
  for (const auto& [w, h] : shapes) {
    testing::PortRows torus(w * h);
    for (NodeId y = 0; y < h; ++y) {
      for (NodeId x = 0; x < w; ++x) {
        torus.add_edge(y * w + x, y * w + (x + 1) % w);
        torus.add_edge(y * w + x, (y + 1) % h * w + x);
      }
    }
    expect_builds("torus " + std::to_string(w) + " " + std::to_string(h),
                  torus.csr());
  }
}

TEST(CsrBuild, OtherKindsSnapshotTheBuiltGraph) {
  // The descriptor dispatches to the generator, arguments in order.
  expect_builds("hypercube 6", hypercube(6));
  expect_builds("random-regular 128 4 7", random_regular(128, 4, 7));
  expect_builds("lollipop 12 5", lollipop(12, 5));
}

TEST(CsrBuild, RejectsExactlyWhatBuildRejects) {
  std::vector<GraphDescriptor> bad;
  // Grammatical descriptors whose parameters build() refuses: below the
  // generator minimum, over kMaxArcs, and junk numeric tokens.
  for (const char* text : {"ring 2", "ring 0", "torus 2 5", "torus 5 2",
                           "torus 8192 8193", "ring 99999999999",
                           "torus x 5", "ring 12a", "hypercube 40",
                           "tree 1"}) {
    const auto d = GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value()) << text;
    bad.push_back(*d);
  }
  // Hand-built descriptors parse() would refuse.
  bad.push_back(GraphDescriptor{"torus", {"8"}});
  bad.push_back(GraphDescriptor{"moebius", {"8"}});
  bad.push_back(GraphDescriptor{"ring", {"-4"}});
  sim::ThreadPool pool(2);
  for (const GraphDescriptor& d : bad) {
    SCOPED_TRACE(d.text());
    EXPECT_FALSE(d.num_nodes().has_value());
    EXPECT_FALSE(d.build().has_value());
    EXPECT_FALSE(d.build(&pool).has_value());
  }
}

TEST(CsrBuild, PooledBuildEqualsInlineBuild) {
  // Streamed (ring, torus) and edge-list (grid, random-regular) kinds,
  // rows that split unevenly over the pool, and graphs just below and
  // at or above sim::kPoolMinNodes = 65536 nodes, where the jobs move
  // from the caller to the pool's threads.
  static_assert(sim::kPoolMinNodes == 65536);
  const char* const kinds[] = {
      "ring 3",       "ring 65535",    "ring 65537",   "torus 3 3",
      "torus 7 5",    "torus 512 3",   "torus 16 16",  "torus 255 256",
      "torus 256 256", "grid 7 5",     "grid 256 257", "random-regular 30 4 7",
      "random-regular 128 3 5"};
  for (const char* text : kinds) {
    SCOPED_TRACE(text);
    const auto d = GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value());
    const auto expected = d->build();
    ASSERT_TRUE(expected.has_value());
    for (const unsigned width : testing::pool_widths({1, 2, 3, 4})) {
      SCOPED_TRACE(::testing::Message() << "pool width " << width);
      sim::ThreadPool pool(width);
      const auto got = d->build(&pool);
      ASSERT_TRUE(got.has_value());
      expect_same_csr(*got, *expected);
    }
  }
}

CsrGraph two_components() {
  return CsrGraph::from_edges(4, {{0, 1}, {2, 3}});
}

TEST(CsrBuild, IsConnectedDetectsComponents) {
  EXPECT_FALSE(two_components().is_connected());
  EXPECT_TRUE(CsrGraph::from_edges(4, {{0, 1}, {2, 3}, {1, 2}}).is_connected());
  EXPECT_TRUE(CsrGraph().is_connected());
  EXPECT_EQ(CsrGraph().num_nodes(), 0u);
}

TEST(CsrBuildDeath, RotorRouterRejectsDisconnectedCsr) {
  EXPECT_DEATH(core::RotorRouter(two_components(), {0}), "connected");
  EXPECT_DEATH(core::RotorRouter(two_components(), {0}, {}, 2), "connected");
}

TEST(CsrBuildDeath, PooledBuildKeepsEveryCheck) {
  // Above the pool cutoff the connectivity check and the pointer checks
  // run in pool jobs; each still aborts the build. Two 40000-node rings
  // are disconnected; the torus is connected.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 40000; ++i) {
    edges.emplace_back(i, (i + 1) % 40000);
    edges.emplace_back(40000 + i, 40000 + (i + 1) % 40000);
  }
  const CsrGraph split = CsrGraph::from_edges(80000, edges);
  const CsrGraph torus = *GraphDescriptor::torus(256, 256).build();
  std::vector<std::uint32_t> pointers(torus.num_nodes(), 0);
  pointers.back() = 4;  // every torus node has degree 4
  for (const std::uint32_t shards : {1u, 4u}) {
    EXPECT_DEATH(
        {
          sim::ThreadPool pool(4);
          core::RotorRouter(split, {0}, {}, shards, &pool);
        },
        "connected");
    EXPECT_DEATH(
        {
          sim::ThreadPool pool(4);
          core::RotorRouter(torus, {0}, pointers, shards, &pool);
        },
        "pointer out of range");
    EXPECT_DEATH(
        {
          sim::ThreadPool pool(4);
          core::RotorRouter(torus, {0, torus.num_nodes()}, {}, shards, &pool);
        },
        "agent start node out of range");
  }
}

// FNV-1a over the node count, the n+1 row offsets and every arc head in
// port order: the bytes a CsrGraph is made of, minus the derived
// sorted-port index.
std::uint64_t csr_digest(const std::string& text) {
  const auto g = GraphDescriptor::parse(text)->build();
  EXPECT_TRUE(g.has_value()) << text;
  if (!g) return 0;
  Fnv1a h;
  h.mix(g->num_nodes());
  std::uint64_t offset = 0;
  h.mix(offset);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    offset += g->degree(v);
    h.mix(offset);
  }
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (const NodeId u : g->neighbors(v)) h.mix(u);
  }
  return h.value();
}

TEST(CsrKindGolden, EveryKindKeepsItsPortOrder) {
  // One instance of each descriptor kind. A change to a generator's
  // port order moves every trajectory on that kind, so these digests
  // change only with a deliberate, documented port-order change.
  const struct {
    const char* text;
    std::uint64_t digest;
  } kGolden[] = {
      {"ring 12", 0xeed2a295189c10afULL},
      {"path 9", 0x11a01f96fec950b2ULL},
      {"grid 5 4", 0x7c6468577474ba21ULL},
      {"torus 5 4", 0xba5e6372687e6993ULL},
      {"clique 6", 0x88ee976e335df8f7ULL},
      {"star 7", 0xc639bad1a15dad1eULL},
      {"tree 10", 0x8dae3effded1e52bULL},
      {"hypercube 4", 0x2fae0063b2da6dabULL},
      {"lollipop 10 4", 0x8f034767bda987c1ULL},
      {"random-regular 20 3 7", 0x80c0e379557651f7ULL},
      {"erdos-renyi 16 0.3 5", 0xb778c653c21d972dULL},
  };
  for (const auto& g : kGolden) {
    EXPECT_EQ(csr_digest(g.text), g.digest)
        << g.text << " digest 0x" << std::hex << csr_digest(g.text);
  }
}

}  // namespace
}  // namespace rr::graph
