// Tests for the cover-time and return-time measurements (S8,
// sim/measure.hpp), small-scale checks of the paper's Theorems 1-4 and 6
// shapes, and the agreement of the ring, lazy and rotor backends on them.

#include "sim/measure.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <sstream>
#include <string>

#include "core/initializers.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"

namespace rr::core {
namespace {

using sim::cover_time;
using sim::windowed_return_time;

std::unique_ptr<sim::Engine> ring(NodeId n, std::vector<NodeId> agents,
                                  const std::vector<std::uint8_t>& ptrs = {}) {
  return sim::create_engine("ring", graph::GraphDescriptor::ring(n),
                            std::move(agents), ptrs);
}

TEST(RingCover, UniformPointersSingleAgentSweepsOnce) {
  EXPECT_EQ(cover_time(*ring(16, {0}, pointers_uniform(16, kClockwise))), 15u);
}

TEST(RingCover, DefaultCapIsGenerous) {
  // Worst-case single-agent cover is Theta(n^2); the default cap must
  // never truncate it.
  const NodeId n = 128;
  const std::uint64_t cover = cover_time(*ring(n, {0}, pointers_toward(n, 0)));
  ASSERT_NE(cover, kRingNotCovered);
  EXPECT_GT(cover, static_cast<std::uint64_t>(n) * n / 8);
}

TEST(RingCover, ExplicitCapTruncates) {
  const NodeId n = 128;
  EXPECT_EQ(cover_time(*ring(n, {0}, pointers_toward(n, 0)), 10),
            kRingNotCovered);
}

TEST(RingCover, Theorem1WorstCaseScalesAsNSquaredOverLogK) {
  // Fixed k, growing n: all-on-one cover should grow ~ n^2 (the log k is
  // constant across the sweep); ratios to n^2 stay within a narrow band.
  const std::uint32_t k = 8;
  double prev_ratio = -1.0;
  for (NodeId n : {256u, 512u, 1024u}) {
    const auto cover =
        cover_time(*ring(n, place_all_on_one(k, 0), pointers_toward(n, 0)));
    ASSERT_NE(cover, kRingNotCovered);
    const double ratio = static_cast<double>(cover) / (static_cast<double>(n) * n);
    if (prev_ratio > 0) {
      EXPECT_NEAR(ratio, prev_ratio, 0.5 * prev_ratio) << "n " << n;
    }
    prev_ratio = ratio;
  }
}

TEST(RingCover, Theorem1MoreAgentsHelpLogarithmically) {
  // All-on-one: doubling k from 4 to 64 should speed coverage up by a
  // modest (logarithmic) factor, far less than 16x.
  const NodeId n = 1024;
  const double t4 = static_cast<double>(
      cover_time(*ring(n, place_all_on_one(4, 0), pointers_toward(n, 0))));
  const double t64 = static_cast<double>(
      cover_time(*ring(n, place_all_on_one(64, 0), pointers_toward(n, 0))));
  EXPECT_LT(t64, t4);              // more agents never slow it down
  EXPECT_GT(t64, t4 / 16.0);      // but the speed-up is sub-linear
  EXPECT_LT(t64, t4 / 1.2);       // and clearly visible
}

TEST(RingCover, Theorem3EquallySpacedIsQuadraticInNOverK) {
  // best placement: cover = O((n/k)^2); check ratio stability across n at
  // fixed n/k.
  for (std::uint32_t scale : {1u, 2u, 4u}) {
    const NodeId n = 256 * scale;
    const std::uint32_t k = 4 * scale;  // n/k fixed at 64
    const auto agents = place_equally_spaced(n, k);
    const auto cover = cover_time(*ring(n, agents, pointers_negative(n, agents)));
    ASSERT_NE(cover, kRingNotCovered);
    const double gap = 64.0;
    EXPECT_LE(static_cast<double>(cover), 4.0 * gap * gap) << "n " << n;
    EXPECT_GE(static_cast<double>(cover), 0.25 * gap * gap) << "n " << n;
  }
}

TEST(RingCover, Theorem4AdversarialPointersForceQuadraticLowerBound) {
  // Even from the best placement, the remote-vertex negative adversary
  // forces Omega((n/k)^2).
  const NodeId n = 1024;
  const std::uint32_t k = 8;
  auto agents = place_equally_spaced(n, k);
  const auto adv = adversarial_remote_init(n, agents);
  ASSERT_TRUE(adv.found);
  const auto cover = cover_time(*ring(n, agents, adv.pointers));
  ASSERT_NE(cover, kRingNotCovered);
  const double gap = static_cast<double>(n) / k;
  EXPECT_GE(static_cast<double>(cover), 0.1 * gap * gap);
}

TEST(GraphCover, SingleAgentBoundDEOnSmallGraphs) {
  // Yanovski et al.: cover within 2 D |E| (we allow the full lock-in bound
  // with slack).
  for (const auto& g : {graph::ring(24), graph::grid(6, 4), graph::clique(8),
                        graph::hypercube(4)}) {
    RotorRouter rotor(g, {0});
    const std::uint64_t cover = cover_time(rotor);
    ASSERT_NE(cover, kNotCovered);
    EXPECT_LE(cover, 2ULL * g.diameter() * g.num_edges() + 2 * g.num_edges());
  }
}

TEST(GraphCover, MoreAgentsNeverSlowCoverage) {
  graph::CsrGraph g = graph::grid(8, 8);
  RotorRouter one(g, {0});
  RotorRouter four(g, {0, 0, 0, 0});
  const std::uint64_t c1 = cover_time(one);
  const std::uint64_t c4 = cover_time(four);
  ASSERT_NE(c1, kNotCovered);
  ASSERT_NE(c4, kNotCovered);
  EXPECT_LE(c4, c1);
}

TEST(ReturnTime, Theorem6MaxGapIsThetaNOverK) {
  const NodeId n = 256;
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const auto ret = windowed_return_time(*ring(n, place_equally_spaced(n, k)));
    ASSERT_TRUE(ret.covered);
    const double expected = static_cast<double>(n) / k;
    EXPECT_GE(static_cast<double>(ret.max_gap), 0.5 * expected) << "k " << k;
    EXPECT_LE(static_cast<double>(ret.max_gap), 6.0 * expected) << "k " << k;
  }
}

TEST(ReturnTime, IndependentOfInitialPlacement) {
  // Thm 6 holds regardless of initialization: all-on-one eventually gives
  // the same Theta(n/k) refresh.
  const NodeId n = 256;
  const std::uint32_t k = 8;
  const auto r1 = windowed_return_time(
      *ring(n, place_all_on_one(k, 0), pointers_toward(n, 0)));
  const auto r2 = windowed_return_time(*ring(n, place_equally_spaced(n, k)));
  ASSERT_TRUE(r1.covered);
  ASSERT_TRUE(r2.covered);
  const double ratio = static_cast<double>(r1.max_gap) /
                       static_cast<double>(r2.max_gap);
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 3.0);
}

TEST(ReturnTime, EveryNodeKeepsBeingVisited) {
  const auto ret = windowed_return_time(*ring(128, place_equally_spaced(128, 4)));
  EXPECT_GT(ret.min_visits, 0u) << "some node starved during the window";
  EXPECT_GT(ret.mean_gap, 0.0);
  EXPECT_LE(ret.mean_gap, static_cast<double>(ret.max_gap));
}

// The paper's quantities are properties of the dynamics, not of a backend:
// the ring, lazy and rotor engines on the same ring instance agree on the
// cover time, the windowed return time and the exact return time.
struct BackendCase {
  NodeId n;
  std::uint32_t k;
  const char* place;  // one | spaced | random
  const char* ptr;    // toward | negative | uniform | random
};

std::string case_name(const BackendCase& c) {
  std::ostringstream name;
  name << 'n' << c.n << 'k' << c.k << '_' << c.place << '_' << c.ptr;
  return name.str();
}

void PrintTo(const BackendCase& c, std::ostream* os) { *os << case_name(c); }

class BackendsAgree : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BackendsAgree, OnCoverWindowedAndExactReturnTime) {
  const BackendCase c = GetParam();
  Rng rng(17);
  const std::string place = c.place;
  const std::string ptr = c.ptr;
  const auto agents = place == "one"      ? place_all_on_one(c.k, 0)
                      : place == "spaced" ? place_equally_spaced(c.n, c.k)
                                          : place_random(c.n, c.k, rng);
  const auto ptrs = ptr == "toward"     ? pointers_toward(c.n, agents.front())
                    : ptr == "negative" ? pointers_negative(c.n, agents)
                    : ptr == "uniform"  ? pointers_uniform(c.n, kClockwise)
                                        : pointers_random(c.n, rng);
  auto make = [&](const char* name) {
    return sim::create_engine(name, graph::GraphDescriptor::ring(c.n), agents,
                              ptrs);
  };
  const std::uint64_t cover = cover_time(*make("ring"));
  const auto windowed = windowed_return_time(*make("ring"));
  const auto exact = sim::exact_return_time(*make("ring"), 1ULL << 22);
  ASSERT_NE(cover, kRingNotCovered);
  ASSERT_TRUE(exact.has_value());
  for (const char* name : {"lazy", "rotor"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(cover_time(*make(name)), cover);
    const auto w = windowed_return_time(*make(name));
    EXPECT_EQ(w.max_gap, windowed.max_gap);
    EXPECT_EQ(w.mean_gap, windowed.mean_gap);
    EXPECT_EQ(w.min_visits, windowed.min_visits);
    EXPECT_EQ(w.covered, windowed.covered);
    const auto e = sim::exact_return_time(*make(name), 1ULL << 22);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->period, exact->period);
    EXPECT_EQ(e->max_gap, exact->max_gap);
    EXPECT_EQ(e->min_gap, exact->min_gap);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, BackendsAgree,
    ::testing::Values(BackendCase{48, 1, "one", "toward"},
                      BackendCase{60, 3, "spaced", "negative"},
                      BackendCase{64, 4, "one", "uniform"},
                      BackendCase{90, 5, "random", "random"},
                      BackendCase{120, 8, "spaced", "uniform"},
                      // n >= 16 k^2: lazy runs its sparse representation.
                      BackendCase{128, 2, "random", "random"},
                      BackendCase{256, 4, "spaced", "negative"}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace rr::core
