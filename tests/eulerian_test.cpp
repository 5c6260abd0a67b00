// Tests for the Eulerian-circuit substrate: Hierholzer construction,
// verification, and the cross-check that the single-agent rotor-router's
// locked-in cycle is a directed Eulerian circuit (Yanovski et al.).

#include "graph/eulerian.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/rotor_router.hpp"

namespace rr::graph {
namespace {

class EulerianTopology : public ::testing::TestWithParam<int> {
 protected:
  CsrGraph make() const {
    switch (GetParam()) {
      case 0: return ring(12);
      case 1: return path(9);
      case 2: return grid(4, 4);
      case 3: return torus(3, 4);
      case 4: return clique(6);
      case 5: return star(7);
      case 6: return binary_tree(15);
      case 7: return hypercube(3);
      case 8: return random_regular(14, 3, 21);
      default: return lollipop(12, 5);
    }
  }
};

TEST_P(EulerianTopology, HierholzerProducesValidCircuit) {
  CsrGraph g = make();
  const auto circuit = eulerian_circuit(g, 0);
  EXPECT_EQ(circuit.size(), g.num_arcs());
  EXPECT_TRUE(is_eulerian_circuit(g, circuit));
}

TEST_P(EulerianTopology, CircuitFromEveryStartNode) {
  CsrGraph g = make();
  for (NodeId v = 0; v < g.num_nodes(); v += 3) {
    const auto circuit = eulerian_circuit(g, v);
    EXPECT_TRUE(is_eulerian_circuit(g, circuit)) << "start " << v;
    EXPECT_EQ(circuit.front().tail, v);
  }
}

TEST_P(EulerianTopology, LockedInRotorWalkIsEulerian) {
  // Simulate past lock-in, slice out one 2|E| window, verify it is a
  // directed Eulerian circuit — the Yanovski et al. limit behaviour.
  CsrGraph g = make();
  rr::core::RotorRouter rotor(g, {0});
  const auto lock = rr::core::single_agent_lock_in(rotor);
  ASSERT_TRUE(lock.locked_in);
  const auto walk =
      rotor_walk_arcs(g, 0, lock.lock_in_time - 1 + g.num_arcs());
  const std::vector<Arc> window(walk.end() - g.num_arcs(), walk.end());
  EXPECT_TRUE(is_eulerian_circuit(g, window));
}

INSTANTIATE_TEST_SUITE_P(Topologies, EulerianTopology, ::testing::Range(0, 10));

TEST(Eulerian, VerifierRejectsBrokenCircuits) {
  CsrGraph g = ring(6);
  auto circuit = eulerian_circuit(g, 0);
  // Duplicate an arc.
  auto dup = circuit;
  dup[3] = dup[2];
  EXPECT_FALSE(is_eulerian_circuit(g, dup));
  // Truncate.
  auto cut = circuit;
  cut.pop_back();
  EXPECT_FALSE(is_eulerian_circuit(g, cut));
  // Break incidence.
  auto swapped = circuit;
  std::swap(swapped[1], swapped[5]);
  EXPECT_FALSE(is_eulerian_circuit(g, swapped));
}

TEST(Eulerian, ArcOffsetsPartitionArcs) {
  CsrGraph g = grid(3, 3);
  const auto offsets = arc_offsets(g);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), g.num_arcs());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(offsets[v + 1] - offsets[v], g.degree(v));
  }
}

TEST(Eulerian, RotorWalkArcsAreIncident) {
  CsrGraph g = torus(4, 4);
  const auto walk = rotor_walk_arcs(g, 5, 200);
  ASSERT_EQ(walk.size(), 200u);
  EXPECT_EQ(walk.front().tail, 5u);
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    EXPECT_EQ(walk[i].head(g), walk[i + 1].tail) << "i " << i;
  }
}

TEST(EulerianDeath, RejectsDisconnected) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_DEATH(eulerian_circuit(g, 0), "connected");
}

}  // namespace
}  // namespace rr::graph
