// Dynamics-level property tests of the stabilized rotor-router, mirroring
// the motion structure the Sec. 2.2 propositions describe: inside its
// domain an agent moves as a clean zig-zag (direction changes only at the
// domain borders, cf. Proposition 2), each sweep covers the domain twice
// per period, and general-graph multi-agent systems starve no node.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"

namespace rr::core {
namespace {

// Tracks the single agent inside [lo, hi] across rounds (valid while no
// other agent enters the range).
struct TrackedAgent {
  NodeId pos;
  bool valid;
};

TrackedAgent locate_in_range(const RingRotorRouter& rr, NodeId lo, NodeId hi) {
  TrackedAgent t{0, false};
  for (NodeId v = lo; v <= hi; ++v) {
    if (rr.agents_at(v) > 0) {
      if (t.valid || rr.agents_at(v) > 1) return {0, false};
      t = {v, true};
    }
  }
  return t;
}

TEST(Dynamics, StabilizedAgentZigZagsWithinItsDomain) {
  // n divisible by k, equally spaced: domains are aligned blocks. Follow
  // the agent of one block: its direction must flip only near the block
  // borders (Proposition 2's traversal structure).
  const NodeId n = 240;
  const std::uint32_t k = 6;
  const NodeId block = n / k;
  const auto agents = place_equally_spaced(n, k);
  RingRotorRouter rr(n, agents, pointers_negative(n, agents));
  rr.run_until_covered(8ULL * n * n);
  rr.run(8ULL * n * n / k);  // deep stabilization

  // Read the actual domain partition and follow the agent of a domain
  // that does not wrap node 0 (keeps the range arithmetic simple).
  const auto snap = compute_domains(rr);
  ASSERT_EQ(snap.domains.size(), k);
  NodeId lo = 0, hi = 0;
  bool found = false;
  for (const auto& d : snap.domains) {
    if (d.size >= block / 2 && d.begin + d.size <= n) {
      lo = d.begin;
      hi = d.begin + d.size - 1;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no non-wrapping domain of reasonable size";
  auto tracked = locate_in_range(rr, lo, hi);
  // March until we find a round with a cleanly-inside agent.
  for (int tries = 0; tries < 1000 && !tracked.valid; ++tries) {
    rr.step();
    tracked = locate_in_range(rr, lo, hi);
  }
  ASSERT_TRUE(tracked.valid) << "no isolated agent found in the domain";

  NodeId prev = tracked.pos;
  int direction_changes = 0;
  std::vector<NodeId> turn_points;
  int prev_dir = 0;
  for (std::uint64_t t = 0; t < 4ULL * block; ++t) {
    rr.step();
    // The agent moves +-1 per round; find it adjacent to prev.
    const NodeId cw = rr.clockwise(prev);
    const NodeId acw = rr.anticlockwise(prev);
    NodeId next;
    if (rr.agents_at(cw) > 0 && rr.last_visit_time(cw) == rr.time()) {
      next = cw;
    } else {
      ASSERT_TRUE(rr.agents_at(acw) > 0 &&
                  rr.last_visit_time(acw) == rr.time())
          << "tracked agent lost at t=" << t;
      next = acw;
    }
    const int dir = (next == cw) ? +1 : -1;
    if (prev_dir != 0 && dir != prev_dir) {
      ++direction_changes;
      turn_points.push_back(prev);
    }
    prev_dir = dir;
    prev = next;
  }
  // Over 4*block rounds the agent completes ~2 full sweeps: expect ~4
  // turnarounds, all near the block borders.
  EXPECT_GE(direction_changes, 2);
  EXPECT_LE(direction_changes, 6);
  for (NodeId tp : turn_points) {
    const NodeId d_lo = (tp >= lo) ? tp - lo : lo - tp;
    const NodeId d_hi = (hi >= tp) ? hi - tp : tp - hi;
    // Borders drift by +-1 per sweep (the oscillation of Sec. 2.2), so
    // allow a small margin around the snapshot's borders.
    EXPECT_LE(std::min(d_lo, d_hi), 4u)
        << "turnaround at " << tp << " far from borders [" << lo << "," << hi
        << "]";
  }
}

TEST(Dynamics, EachNodeVisitedTwicePerPeriodInEquilibrium) {
  // Proposition 2's consequence: per limit-cycle period (2n/k), an agent
  // visits every node of its domain exactly twice — so every node's visit
  // count grows by exactly 2 per period.
  const NodeId n = 120;
  const std::uint32_t k = 4;
  RingRotorRouter rr(n, place_equally_spaced(n, k), {});
  rr.run_until_covered(8ULL * n * n);
  rr.run(4ULL * n * n / k);
  const std::uint64_t period = 2ULL * n / k;
  std::vector<std::uint64_t> before(n);
  for (NodeId v = 0; v < n; ++v) before[v] = rr.visits(v);
  rr.run(period);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(rr.visits(v) - before[v], 2u) << "v " << v;
  }
}

class GraphStarvation : public ::testing::TestWithParam<int> {
 protected:
  graph::CsrGraph make() const {
    switch (GetParam()) {
      case 0: return graph::ring(30);
      case 1: return graph::grid(6, 5);
      case 2: return graph::torus(5, 5);
      case 3: return graph::clique(10);
      case 4: return graph::hypercube(4);
      case 5: return graph::binary_tree(31);
      default: return graph::random_regular(24, 3, 8);
    }
  }
};

TEST_P(GraphStarvation, NoNodeStarvesUnderMultipleAgents) {
  // After stabilization-scale warm-up, every node keeps being visited
  // within a 4|E| window (the Eulerian limit guarantees ~2|E|/k spacing).
  graph::CsrGraph g = make();
  RotorRouter rr(g, {0, 0, static_cast<graph::NodeId>(g.num_nodes() / 2)});
  rr.run(8ULL * g.diameter() * g.num_edges());
  std::vector<std::uint64_t> before(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) before[v] = rr.visits(v);
  rr.run(4ULL * g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GT(rr.visits(v), before[v]) << "node " << v << " starved";
  }
}

TEST_P(GraphStarvation, VisitRatesAreDegreeProportionalInTheLimit) {
  // In the Eulerian limit each arc carries one agent per 2|E|/k rounds, so
  // per-node visit rates converge to deg(v) * k / 2|E| — the same visit
  // frequencies as the random walk's stationary distribution.
  graph::CsrGraph g = make();
  const std::uint32_t k = 2;
  RotorRouter rr(g, std::vector<graph::NodeId>(k, 0));
  rr.run(8ULL * g.diameter() * g.num_edges());
  std::vector<std::uint64_t> before(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) before[v] = rr.visits(v);
  const std::uint64_t window = 64ULL * g.num_edges();
  rr.run(window);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const double rate =
        static_cast<double>(rr.visits(v) - before[v]) / window;
    const double expected =
        static_cast<double>(g.degree(v)) * k / (2.0 * g.num_edges());
    EXPECT_NEAR(rate, expected, 0.25 * expected) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, GraphStarvation, ::testing::Range(0, 7));

}  // namespace
}  // namespace rr::core
