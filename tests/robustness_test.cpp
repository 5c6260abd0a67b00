// Robustness of the multi-agent rotor-router to fleet changes mid-run
// (paper Sec. 1.2 cites Bampas et al. [7] for robustness to graph changes;
// here we exercise the agent-fleet analogue the model supports natively):
// crashing or adding agents re-converges to the Thm 6 limit behaviour for
// the new k, and visit-count monotonicity (Lemma 1) survives the change.
// Reading the pointers and agents off the engine makes the surgery exact.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/domains.hpp"
#include "core/initializers.hpp"

namespace rr::core {
namespace {

// A ring fleet: n, agent multiset, pointer vector.
struct Fleet {
  NodeId n = 0;
  std::vector<NodeId> agents;
  std::vector<std::uint8_t> pointers;

  RingRotorRouter make() const { return RingRotorRouter(n, agents, pointers); }
};

// The engine's current pointers and agents (read through pointer and
// agents_at), so `make()` resumes the run exactly with fresh visit
// statistics.
Fleet capture(const RingRotorRouter& rr) {
  Fleet fleet;
  fleet.n = rr.num_nodes();
  for (NodeId v = 0; v < rr.num_nodes(); ++v) {
    fleet.pointers.push_back(rr.pointer(v));
    fleet.agents.insert(fleet.agents.end(), rr.agents_at(v), v);
  }
  return fleet;
}

// Runs `rr` until coverage plus a stabilization tail, then measures max
// inter-visit gap over a window.
std::uint64_t settle_and_measure_gap(RingRotorRouter& rr,
                                     std::uint64_t settle,
                                     std::uint64_t window) {
  rr.run(settle);
  const NodeId n = rr.num_nodes();
  std::vector<std::uint64_t> last(n), gap(n, 0);
  for (NodeId v = 0; v < n; ++v) last[v] = rr.last_visit_time(v);
  const std::uint64_t t_end = rr.time() + window;
  while (rr.time() < t_end) {
    rr.step();
    for (NodeId v : rr.occupied_nodes()) {
      if (rr.last_visit_time(v) == rr.time()) {
        gap[v] = std::max(gap[v], rr.time() - last[v]);
        last[v] = rr.time();
      }
    }
  }
  std::uint64_t worst = 0;
  for (NodeId v = 0; v < n; ++v) {
    worst = std::max({worst, gap[v], t_end - last[v]});
  }
  return worst;
}

Fleet crash_one_agent(const RingRotorRouter& rr) {
  Fleet cp = capture(rr);
  cp.agents.pop_back();
  return cp;
}

TEST(Robustness, CrashedAgentSystemReconvergesToNewRefreshRate) {
  const NodeId n = 240;
  const std::uint32_t k = 6;
  const auto agents = place_equally_spaced(n, k);
  RingRotorRouter rr(n, agents, pointers_negative(n, agents));
  rr.run_until_covered(8ULL * n * n);
  rr.run(4ULL * n * n / k);

  // Crash one agent; the remaining k-1 take over its domain.
  RingRotorRouter survivor = crash_one_agent(rr).make();
  const std::uint64_t gap = settle_and_measure_gap(
      survivor, 8ULL * n * n / (k - 1), 16ULL * n / (k - 1) + 64);
  const double expected = 2.0 * n / (k - 1);
  EXPECT_GE(static_cast<double>(gap), 0.6 * expected);
  EXPECT_LE(static_cast<double>(gap), 2.0 * expected);
}

TEST(Robustness, RepeatedCrashesDegradeGracefullyToSingleAgent) {
  const NodeId n = 120;
  std::uint32_t k = 5;
  const auto agents = place_equally_spaced(n, k);
  RingRotorRouter rr(n, agents, pointers_negative(n, agents));
  rr.run_until_covered(8ULL * n * n);
  while (k > 1) {
    Fleet cp = crash_one_agent(rr);
    --k;
    ASSERT_EQ(cp.agents.size(), k);
    rr = cp.make();
    const std::uint64_t gap =
        settle_and_measure_gap(rr, 8ULL * n * n / k, 16ULL * n / k + 64);
    // Refresh degrades proportionally but never breaks.
    EXPECT_LE(static_cast<double>(gap), 2.5 * n / k + 16) << "k " << k;
  }
}

TEST(Robustness, AddedAgentNeverSlowsVisits) {
  // Lemma 1 applied mid-run: continue a run with and without an extra
  // agent injected at node 0; the reinforced run dominates visit counts.
  const NodeId n = 96;
  const auto agents = place_equally_spaced(n, 3);
  RingRotorRouter base(n, agents, pointers_negative(n, agents));
  base.run(500);
  Fleet cp = capture(base);
  Fleet reinforced = cp;
  reinforced.agents.push_back(0);

  RingRotorRouter plain = cp.make();
  RingRotorRouter more = reinforced.make();
  for (int t = 0; t < 800; ++t) {
    plain.step();
    more.step();
    for (NodeId v = 0; v < n; ++v) {
      if (v == 0) continue;  // the injected agent's start differs by n_v(0)
      ASSERT_LE(plain.visits(v), more.visits(v)) << "t " << t << " v " << v;
    }
  }
}

TEST(Robustness, AddedAgentImprovesRefreshRate) {
  const NodeId n = 240;
  const std::uint32_t k = 3;
  const auto agents = place_equally_spaced(n, k);
  RingRotorRouter rr(n, agents, pointers_negative(n, agents));
  rr.run_until_covered(8ULL * n * n);
  rr.run(4ULL * n * n / k);
  const std::uint64_t before =
      settle_and_measure_gap(rr, 0, 16ULL * n / k + 64);

  Fleet cp = capture(rr);
  for (std::uint32_t i = 0; i < k; ++i) {
    cp.agents.push_back(static_cast<NodeId>((i * n) / k + n / (2 * k)));
  }
  RingRotorRouter doubled = cp.make();
  const std::uint64_t after = settle_and_measure_gap(
      doubled, 8ULL * n * n / (2 * k), 16ULL * n / (2 * k) + 64);
  EXPECT_LT(after, before);
  EXPECT_NEAR(static_cast<double>(before) / after, 2.0, 0.8);
}

TEST(Robustness, DomainsRepartitionAfterCrash) {
  const NodeId n = 200;
  const std::uint32_t k = 5;
  const auto agents = place_equally_spaced(n, k);
  RingRotorRouter rr(n, agents, pointers_negative(n, agents));
  rr.run_until_covered(8ULL * n * n);
  rr.run(4ULL * n * n / k);
  ASSERT_EQ(compute_domains(rr).domains.size(), k);

  RingRotorRouter survivor = crash_one_agent(rr).make();
  survivor.run(16ULL * n * n / (k - 1));
  const auto snap = compute_domains(survivor);
  ASSERT_EQ(snap.domains.size(), k - 1);
  EXPECT_LE(snap.max_adjacent_diff(), 14u)
      << "domains failed to re-balance after the crash";
}

}  // namespace
}  // namespace rr::core
