// Cross-module integration tests: small-scale versions of the bench
// experiments, pinning the paper's quantitative shapes end to end.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/fit.hpp"
#include "analysis/ode.hpp"
#include "sim/runner.hpp"
#include "analysis/sequence.hpp"
#include "analysis/stats.hpp"
#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "sim/measure.hpp"
#include "walk/ring_walk.hpp"

namespace rr {
namespace {

using core::NodeId;

std::unique_ptr<sim::Engine> ring(NodeId n, std::vector<NodeId> agents,
                                  const std::vector<std::uint8_t>& ptrs = {}) {
  return sim::create_engine("ring", graph::GraphDescriptor::ring(n),
                            std::move(agents), ptrs);
}

TEST(Integration, Table1RotorWorstShape) {
  // cover(all-on-one) / (n^2/log2 k) flat across the n sweep.
  const std::uint32_t k = 8;
  std::vector<double> measured, predicted;
  for (NodeId n : {128u, 256u, 512u, 1024u}) {
    measured.push_back(static_cast<double>(sim::cover_time(
        *ring(n, core::place_all_on_one(k, 0), core::pointers_toward(n, 0)))));
    predicted.push_back(static_cast<double>(n) * n / std::log2(8.0));
  }
  EXPECT_LT(analysis::ratio_spread(measured, predicted), 1.3);
  const auto fit = analysis::fit_power_law(
      std::vector<double>{128, 256, 512, 1024}, measured);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Integration, Table1RotorBestShape) {
  // Fixed n/k: cover constant; the paper's Theta((n/k)^2).
  std::vector<double> covers;
  for (std::uint32_t s : {1u, 2u, 4u}) {
    const NodeId n = 256 * s;
    const std::uint32_t k = 4 * s;
    const auto agents = core::place_equally_spaced(n, k);
    covers.push_back(static_cast<double>(sim::cover_time(
        *ring(n, agents, core::pointers_negative(n, agents)))));
  }
  EXPECT_LT(analysis::ratio_spread(covers,
                                   std::vector<double>(covers.size(), 1.0)),
            1.1);
}

TEST(Integration, Table1WalksWorstLogSpeedup) {
  // E[cover] with k walkers all-on-one improves only ~log k: from k=2 to
  // k=32 the speed-up should be around log2(32)/log2(2) = 5, not 16.
  const NodeId n = 256;
  sim::Runner runner;
  auto mean_cover = [&](std::uint32_t k) {
    return runner.stats(40, [&, k](std::uint64_t i) {
      walk::RingRandomWalks w(n, core::place_all_on_one(k, 0), 42 + i * 13);
      return static_cast<double>(w.run_until_covered(~0ULL / 2));
    }).mean();
  };
  const double c2 = mean_cover(2);
  const double c32 = mean_cover(32);
  const double speedup = c2 / c32;
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 10.0);  // far from linear (16x)
}

TEST(Integration, Fig2ProfileMatchesLemma13) {
  // The undelayed all-on-one run's domain profile tracks {a_i} of the
  // half-ring: correlation across i should be near-perfect.
  const NodeId n = 1024;
  const std::uint32_t k = 8;
  core::RingRotorRouter rr(n, core::place_all_on_one(k, 0),
                           core::pointers_toward(n, 0));
  while (rr.covered_count() < n / 2) rr.step();
  auto snap = core::compute_domains(rr);
  std::vector<double> sizes;
  for (const auto& d : snap.domains) sizes.push_back(d.size);
  std::sort(sizes.rbegin(), sizes.rend());
  const auto seq = analysis::compute_lemma13(k / 2);
  const double S_half = static_cast<double>(rr.covered_count()) / 2.0;
  for (std::uint32_t i = 1; i <= k / 2; ++i) {
    const double share = 0.5 * (sizes[2 * (i - 1)] + sizes[2 * i - 1]) / S_half;
    EXPECT_NEAR(share, seq.a[i], 0.12 * seq.a[i]) << "i " << i;
  }
}

TEST(Integration, CoveredRegionGrowsAsSqrtT) {
  const NodeId n = 2048;
  const std::uint32_t k = 8;
  core::RingRotorRouter rr(n, core::place_all_on_one(k, 0),
                           core::pointers_toward(n, 0));
  std::vector<double> ts, Ss;
  NodeId target = n / 8;
  while (rr.covered_count() < 3 * n / 4) {
    rr.step();
    if (rr.covered_count() >= target) {
      ts.push_back(static_cast<double>(rr.time()));
      Ss.push_back(static_cast<double>(rr.covered_count()));
      target = static_cast<NodeId>(target * 1.3) + 1;
    }
  }
  const auto fit = analysis::fit_power_law(ts, Ss);
  EXPECT_NEAR(fit.slope, 0.5, 0.03);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Integration, OdeAndDiscreteAgreeOnGrowthExponent) {
  analysis::ContinuousDomainModel model(std::vector<double>(8, 1.0),
                                        analysis::Boundary::kUncovered);
  std::vector<double> ts, totals;
  double next = 200.0;
  while (model.total() < 1500.0) {
    model.step(0.25);
    if (model.time() >= next) {
      ts.push_back(model.time());
      totals.push_back(model.total());
      next *= 1.4;
    }
  }
  const auto fit = analysis::fit_power_law(ts, totals);
  EXPECT_NEAR(fit.slope, 0.5, 0.05);
}

TEST(Integration, ReturnTimeSpeedupIsLinearInK) {
  // Thm 6 consequence: return-time speed-up over a single agent ~ k.
  const NodeId n = 512;
  const auto r1 = sim::windowed_return_time(*ring(n, {0}));
  for (std::uint32_t k : {4u, 16u}) {
    const auto rk =
        sim::windowed_return_time(*ring(n, core::place_equally_spaced(n, k)));
    const double speedup =
        static_cast<double>(r1.max_gap) / static_cast<double>(rk.max_gap);
    EXPECT_NEAR(speedup, static_cast<double>(k), 0.35 * k) << "k " << k;
  }
}

TEST(Integration, ExactAndWindowedReturnTimesAgree) {
  const NodeId n = 96;
  const std::uint32_t k = 4;
  const auto agents = core::place_equally_spaced(n, k);
  const auto exact = sim::exact_return_time(*ring(n, agents), 1ULL << 24);
  ASSERT_TRUE(exact.has_value());
  const auto windowed = sim::windowed_return_time(*ring(n, agents));
  // The windowed estimate observes gaps on the same limit cycle.
  EXPECT_NEAR(static_cast<double>(windowed.max_gap),
              static_cast<double>(exact->max_gap),
              0.35 * static_cast<double>(exact->max_gap));
}

TEST(Integration, RemoteAdversaryBeatsBenignByPolynomialFactor) {
  const NodeId n = 2048;
  const std::uint32_t k = 8;
  auto agents = core::place_equally_spaced(n, k);
  const auto adv = core::adversarial_remote_init(n, agents);
  const double cb = static_cast<double>(
      sim::cover_time(*ring(n, agents, core::pointers_uniform(n, 0))));
  const double ch =
      static_cast<double>(sim::cover_time(*ring(n, agents, adv.pointers)));
  EXPECT_GT(ch, 10.0 * cb);  // the adversary really hurts
  EXPECT_GE(ch, 0.2 * std::pow(static_cast<double>(n) / k, 2.0));  // Thm 4
}

TEST(Integration, WalksBestPlacementCarriesLogSquaredPenalty) {
  // Thm 5 vs Thm 3: random walks from the best placement are slower than
  // the rotor-router from the same placement by ~log^2 k.
  const NodeId n = 512;
  const std::uint32_t k = 8;
  const auto agents = core::place_equally_spaced(n, k);
  const double rotor = static_cast<double>(
      sim::cover_time(*ring(n, agents, core::pointers_negative(n, agents))));
  const double walks = sim::Runner().stats(60, [&](std::uint64_t i) {
    walk::RingRandomWalks w(n, agents, sim::derive_seed(777, i));
    return static_cast<double>(w.run_until_covered(~0ULL / 2));
  }).mean();
  EXPECT_GT(walks, 1.5 * rotor);   // log^2(8) ~ 9, constants eat some of it
  EXPECT_LT(walks, 40.0 * rotor);  // but not unboundedly slower
}

}  // namespace
}  // namespace rr
