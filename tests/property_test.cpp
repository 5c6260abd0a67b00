// Parameterized property tests sweeping (n, k, placement, pointer-init)
// grids: engine equivalence, conservation laws, the Sec. 2.1 monotonicity
// lemmas under randomized delay schedules, and domain-partition sanity on
// arbitrary reachable configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "port_rows.hpp"

namespace rr::core {
namespace {

enum class Placement { kAllOnOne, kEquallySpaced, kRandom, kClustered };
enum class PointerInit { kUniform, kRandom, kToward, kNegative };

struct Config {
  NodeId n;
  std::uint32_t k;
  Placement placement;
  PointerInit pointers;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto& c = info.param;
  const char* p[] = {"AllOnOne", "Spaced", "Random", "Clustered"};
  const char* q[] = {"Uniform", "RandomPtr", "Toward", "Negative"};
  return "n" + std::to_string(c.n) + "k" + std::to_string(c.k) +
         p[static_cast<int>(c.placement)] + q[static_cast<int>(c.pointers)];
}

std::vector<NodeId> make_agents(const Config& c, Rng& rng) {
  switch (c.placement) {
    case Placement::kAllOnOne:
      return place_all_on_one(c.k, c.n / 3);
    case Placement::kEquallySpaced:
      return place_equally_spaced(c.n, c.k);
    case Placement::kRandom:
      return place_random(c.n, c.k, rng);
    case Placement::kClustered:
      return place_clustered(c.n, c.k, c.n / 2, c.n / 10 + 1, rng);
  }
  return {};
}

std::vector<std::uint8_t> make_pointers(const Config& c,
                                        const std::vector<NodeId>& agents,
                                        Rng& rng) {
  switch (c.pointers) {
    case PointerInit::kUniform:
      return pointers_uniform(c.n, kClockwise);
    case PointerInit::kRandom:
      return pointers_random(c.n, rng);
    case PointerInit::kToward:
      return pointers_toward(c.n, agents.front());
    case PointerInit::kNegative:
      return pointers_negative(c.n, agents);
  }
  return {};
}

class RingProperty : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    Rng rng(0xC0FFEE ^ (GetParam().n * 131) ^ GetParam().k);
    agents_ = make_agents(GetParam(), rng);
    pointers_ = make_pointers(GetParam(), agents_, rng);
  }
  std::vector<NodeId> agents_;
  std::vector<std::uint8_t> pointers_;
};

TEST_P(RingProperty, EnginesAgreeExactly) {
  const auto& c = GetParam();
  RingRotorRouter fast(c.n, agents_, pointers_);
  graph::CsrGraph g = graph::ring(c.n);
  std::vector<std::uint32_t> p32(pointers_.begin(), pointers_.end());
  RotorRouter ref(g, agents_, p32);
  const int rounds = 3 * static_cast<int>(c.n);
  for (int t = 0; t < rounds; ++t) {
    fast.step();
    ref.step();
  }
  for (NodeId v = 0; v < c.n; ++v) {
    ASSERT_EQ(fast.agents_at(v), ref.agents_at(v)) << "v " << v;
    ASSERT_EQ(fast.pointer(v), ref.pointer(v)) << "v " << v;
    ASSERT_EQ(fast.visits(v), ref.visits(v)) << "v " << v;
  }
}

TEST_P(RingProperty, AgentsConservedAndVisitExitIdentityHolds) {
  const auto& c = GetParam();
  RingRotorRouter rr(c.n, agents_, pointers_);
  std::vector<std::uint64_t> prev_visits(c.n);
  for (int t = 0; t < 2 * static_cast<int>(c.n); ++t) {
    std::uint64_t agents_total = 0;
    for (NodeId v = 0; v < c.n; ++v) {
      prev_visits[v] = rr.visits(v);
      agents_total += rr.agents_at(v);
    }
    ASSERT_EQ(agents_total, c.k);
    rr.step();
    for (NodeId v = 0; v < c.n; ++v) {
      // Undelayed Eq. (2): exits after round t+1 equal visits at round t.
      ASSERT_EQ(rr.exits(v), prev_visits[v]) << "v " << v;
    }
  }
}

TEST_P(RingProperty, CoverageIsMonotoneAndComplete) {
  const auto& c = GetParam();
  RingRotorRouter rr(c.n, agents_, pointers_);
  NodeId prev = rr.covered_count();
  const std::uint64_t cap = 8ULL * c.n * c.n + 64 * c.n;
  while (!rr.all_covered()) {
    rr.step();
    ASSERT_GE(rr.covered_count(), prev);
    prev = rr.covered_count();
    ASSERT_LE(rr.time(), cap) << "cover time exceeded Theta(n^2) budget";
  }
  for (NodeId v = 0; v < c.n; ++v) {
    ASSERT_TRUE(rr.visited(v));
    ASSERT_NE(rr.first_visit_time(v), kRingNotCovered);
  }
}

TEST_P(RingProperty, RandomDelayScheduleObeysSlowdownLemma) {
  // For an arbitrary delay schedule D with the same initial configuration:
  // n^D_v(T) <= n^R[k]_v(T) for every v and T (Lemma 1 specialization).
  const auto& c = GetParam();
  RingRotorRouter delayed(c.n, agents_, pointers_);
  RingRotorRouter undelayed(c.n, agents_, pointers_);
  Rng rng(c.n * 7 + c.k);
  for (int t = 0; t < 2 * static_cast<int>(c.n); ++t) {
    delayed.step_delayed([&rng](NodeId, std::uint64_t, std::uint32_t present) {
      return rng.bounded(present + 1);  // hold a random subset
    });
    undelayed.step();
    for (NodeId v = 0; v < c.n; ++v) {
      ASSERT_LE(delayed.visits(v), undelayed.visits(v)) << "t " << t;
    }
  }
}

TEST_P(RingProperty, DomainPartitionIsExhaustiveWhenWellDefined) {
  const auto& c = GetParam();
  RingRotorRouter rr(c.n, agents_, pointers_);
  for (int probe = 0; probe < 8; ++probe) {
    rr.run(c.n / 2 + 1);
    const auto snap = compute_domains(rr);
    if (!snap.well_defined) continue;
    std::uint32_t total = snap.unvisited;
    for (const auto& d : snap.domains) {
      total += d.size;
      EXPECT_LE(d.lazy_size, d.size);
      EXPECT_GT(rr.agents_at(d.anchor), 0u);
    }
    ASSERT_EQ(total, c.n);
  }
}

TEST_P(RingProperty, PointerStatesRemainBinary) {
  const auto& c = GetParam();
  RingRotorRouter rr(c.n, agents_, pointers_);
  rr.run(5 * c.n);
  for (NodeId v = 0; v < c.n; ++v) {
    ASSERT_LE(rr.pointer(v), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RingProperty,
    ::testing::Values(
        Config{16, 1, Placement::kAllOnOne, PointerInit::kToward},
        Config{16, 3, Placement::kRandom, PointerInit::kRandom},
        Config{33, 2, Placement::kEquallySpaced, PointerInit::kNegative},
        Config{33, 5, Placement::kClustered, PointerInit::kUniform},
        Config{64, 4, Placement::kEquallySpaced, PointerInit::kUniform},
        Config{64, 8, Placement::kAllOnOne, PointerInit::kRandom},
        Config{64, 16, Placement::kRandom, PointerInit::kNegative},
        Config{101, 7, Placement::kRandom, PointerInit::kToward},
        Config{101, 13, Placement::kClustered, PointerInit::kRandom},
        Config{128, 32, Placement::kEquallySpaced, PointerInit::kToward},
        Config{128, 2, Placement::kAllOnOne, PointerInit::kNegative},
        Config{255, 17, Placement::kRandom, PointerInit::kUniform}),
    config_name);

// --- General-graph properties across topologies. ---

class GraphProperty : public ::testing::TestWithParam<int> {
 protected:
  graph::CsrGraph make() const {
    switch (GetParam()) {
      case 0: return graph::ring(20);
      case 1: return graph::path(15);
      case 2: return graph::grid(5, 4);
      case 3: return graph::torus(4, 4);
      case 4: return graph::clique(7);
      case 5: return graph::star(9);
      case 6: return graph::binary_tree(15);
      case 7: return graph::hypercube(4);
      case 8: return graph::random_regular(16, 3, 3);
      default: return graph::lollipop(14, 6);
    }
  }
};

TEST_P(GraphProperty, CsrViewMatchesGraphExactly) {
  // The flat CSR arrays must agree with the port-ordered rows they hold on
  // every structural query: degrees, port-ordered neighbors, port lookup
  // and membership, against linear scans of the rows. This is the
  // contract the engines' hot loops rely on. Checked on the generator's
  // graph and on a copy whose port orders are rotated at random.
  const auto expect_rows = [](const graph::CsrGraph& csr,
                               const testing::PortRows& rows) {
    std::size_t arcs = 0;
    for (const auto& row : rows.rows) arcs += row.size();
    ASSERT_EQ(csr.num_nodes(), rows.rows.size());
    ASSERT_EQ(csr.num_arcs(), arcs);
    ASSERT_EQ(csr.num_edges(), arcs / 2);
    for (graph::NodeId v = 0; v < csr.num_nodes(); ++v) {
      const auto& expected = rows.rows[v];
      ASSERT_EQ(csr.degree(v), expected.size()) << "v " << v;
      const auto actual = csr.neighbors(v);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::uint32_t p = 0; p < expected.size(); ++p) {
        ASSERT_EQ(actual[p], expected[p]) << "v " << v << " p " << p;
        ASSERT_EQ(csr.neighbor(v, p), expected[p]);
        ASSERT_EQ(csr.row(v)[p], expected[p]);
      }
      for (graph::NodeId u = 0; u < csr.num_nodes(); ++u) {
        const auto it = std::find(expected.begin(), expected.end(), u);
        ASSERT_EQ(csr.has_edge(v, u), it != expected.end())
            << "v " << v << " u " << u;
        if (it != expected.end()) {
          ASSERT_EQ(csr.port_to(v, u), it - expected.begin())
              << "v " << v << " u " << u;
        }
      }
    }
  };
  const graph::CsrGraph built = make();
  testing::PortRows rows(built);
  expect_rows(built, rows);
  Rng rng(built.num_nodes() * 31 + 7);
  for (graph::NodeId v = 0; v < built.num_nodes(); ++v) {
    rows.rotate(v, rng.bounded(built.degree(v)));
  }
  expect_rows(rows.csr(), rows);
}

TEST_P(GraphProperty, RoundRobinArcFairness) {
  // After any number of rounds, the exit counts through the ports of any
  // node differ by at most 1 (the defining rotor-router property).
  graph::CsrGraph g = make();
  RotorRouter rr(g, {0, 0, g.num_nodes() / 2});
  // Reference per-arc counters.
  std::vector<std::vector<std::uint64_t>> arc(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    arc[v].assign(g.degree(v), 0);
  }
  std::vector<std::uint32_t> ptr(g.num_nodes(), 0), cnt(g.num_nodes(), 0);
  cnt[0] = 2;
  cnt[g.num_nodes() / 2] += 1;
  for (int t = 0; t < 120; ++t) {
    std::vector<std::uint32_t> nxt(g.num_nodes(), 0);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (std::uint32_t i = 0; i < cnt[v]; ++i) {
        const std::uint32_t p = (ptr[v] + i) % g.degree(v);
        ++arc[v][p];
        ++nxt[g.neighbor(v, p)];
      }
      ptr[v] = (ptr[v] + cnt[v]) % g.degree(v);
    }
    cnt = nxt;
    rr.step();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(rr.agents_at(v), cnt[v]) << "t " << t << " v " << v;
      std::uint64_t lo = ~0ULL, hi = 0;
      for (std::uint32_t p = 0; p < g.degree(v); ++p) {
        lo = std::min(lo, arc[v][p]);
        hi = std::max(hi, arc[v][p]);
      }
      ASSERT_LE(hi - lo, 1u) << "round-robin violated at v " << v;
    }
  }
}

TEST_P(GraphProperty, EveryTopologyGetsCovered) {
  graph::CsrGraph g = make();
  RotorRouter rr(g, {0});
  const std::uint64_t cap =
      4ULL * g.diameter() * g.num_edges() + 64 * g.num_edges();
  EXPECT_NE(rr.run_until_covered(cap), kNotCovered);
}

TEST_P(GraphProperty, MoreAgentsDominateVisitCounts) {
  graph::CsrGraph g = make();
  RotorRouter more(g, {0, 0});
  RotorRouter fewer(g, {0});
  for (int t = 0; t < 150; ++t) {
    more.step();
    fewer.step();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_LE(fewer.visits(v), more.visits(v)) << "t " << t << " v " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, GraphProperty, ::testing::Range(0, 10));

// --- CSR engine vs seed semantics: lockstep against a naive simulator
// straight from Sec. 1.3, from random rotor pointers (a rotated port order
// started at pointer 0 walks the same trajectory), on the paper's main
// topologies. ---

class CsrLockstep : public ::testing::TestWithParam<int> {
 protected:
  graph::CsrGraph make() const {
    switch (GetParam()) {
      case 0: return graph::ring(48);
      case 1: return graph::torus(6, 7);
      case 2: return graph::random_regular(40, 4, 11);
      default: return graph::erdos_renyi(36, 0.2, 23);
    }
  }
};

TEST_P(CsrLockstep, MatchesNaiveNestedVectorSimulation) {
  const graph::CsrGraph g = make();
  Rng rng(0xBEEF + GetParam());
  const std::vector<graph::NodeId> agents = {
      0, 0, g.num_nodes() / 3, g.num_nodes() / 3, g.num_nodes() - 1};
  std::vector<std::uint32_t> init_ptrs(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    init_ptrs[v] = rng.bounded(g.degree(v));
  }

  RotorRouter rr(g, agents, init_ptrs);

  // Naive reference, straight from Sec. 1.3.
  std::vector<std::uint32_t> ptr = init_ptrs, cnt(g.num_nodes(), 0);
  std::vector<std::uint64_t> vis(g.num_nodes(), 0);
  for (graph::NodeId a : agents) {
    ++cnt[a];
    ++vis[a];
  }
  for (int t = 0; t < 200; ++t) {
    std::vector<std::uint32_t> nxt(g.num_nodes(), 0);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (std::uint32_t i = 0; i < cnt[v]; ++i) {
        nxt[g.neighbor(v, (ptr[v] + i) % g.degree(v))] += 1;
      }
      ptr[v] = (ptr[v] + cnt[v]) % g.degree(v);
    }
    cnt = nxt;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) vis[v] += cnt[v];
    rr.step();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(rr.agents_at(v), cnt[v]) << "t " << t << " v " << v;
      ASSERT_EQ(rr.pointer(v), ptr[v]) << "t " << t << " v " << v;
      ASSERT_EQ(rr.visits(v), vis[v]) << "t " << t << " v " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RingTorusRandom, CsrLockstep, ::testing::Range(0, 4));

TEST(CsrGraphMultigraph, ParallelEdgesKeepSmallestPort) {
  // port_to must return the *smallest* port among parallel edges, as a
  // linear scan of the row would.
  const auto csr = graph::CsrGraph::from_edges(
      4, {{0, 1}, {0, 2}, {0, 1}, {0, 3}, {2, 3}});  // node 0: ports 0, 2 -> 1
  EXPECT_EQ(csr.port_to(0, 1), 0u);
  EXPECT_EQ(csr.port_to(0, 2), 1u);
  EXPECT_EQ(csr.port_to(0, 3), 3u);
  EXPECT_EQ(csr.port_to(1, 0), 0u);
  EXPECT_FALSE(csr.has_edge(1, 2));
  EXPECT_TRUE(csr.has_edge(3, 0));
}

}  // namespace
}  // namespace rr::core
