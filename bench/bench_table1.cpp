// E-T1: reproduces paper Table 1 side by side — cover time (worst and best
// placement) and return time, for the k-agent rotor-router vs k random
// walks on the n-node ring. One (n,k) instance per cell; the per-row
// benches (bench_cover_*, bench_random_walks, bench_return_time) sweep the
// parameters and verify the Theta-shapes.

#include <cmath>
#include <cstdio>

#include "sim/runner.hpp"
#include "analysis/table.hpp"
#include "core/initializers.hpp"
#include "sim/measure.hpp"
#include "walk/ring_walk.hpp"

namespace {

using rr::analysis::Table;

double walk_cover_mean(rr::core::NodeId n, const std::vector<rr::core::NodeId>& starts,
                       std::uint64_t trials, std::uint64_t seed) {
  auto stats = rr::sim::Runner().stats(trials, [&](std::uint64_t i) {
    rr::walk::RingRandomWalks walks(n, starts, rr::sim::derive_seed(seed, i));
    return static_cast<double>(walks.run_until_covered(~0ULL / 2));
  });
  return stats.mean();
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Table 1 — cover & return time of the multi-agent rotor-router vs k "
      "random walks on the ring",
      "Klasing et al., Table 1 (Thms 1-6)");

  const auto n = static_cast<rr::core::NodeId>(rr::sim::scaled_pow2(1024));
  const std::uint32_t k = 16;
  const std::uint64_t trials = rr::sim::scaled(12, 4);
  const double log2k = std::log2(static_cast<double>(k));
  const double lnk = std::log(static_cast<double>(k));
  std::printf("Instance: n=%u, k=%u, %llu random-walk trials per cell\n\n", n,
              k, static_cast<unsigned long long>(trials));

  // --- rotor-router, worst placement (Thm 1): all on one node, pointers
  // along the shortest path to the start.
  const auto ring = rr::graph::GraphDescriptor::ring(n);
  const auto worst_agents = rr::core::place_all_on_one(k, 0);
  const double rr_worst = static_cast<double>(rr::sim::cover_time(
      *rr::sim::create_engine("ring", ring, worst_agents,
                              rr::core::pointers_toward(n, 0))));

  // --- rotor-router, best placement (Thm 3): equally spaced, adversarial
  // (negative) pointers.
  const auto best_agents = rr::core::place_equally_spaced(n, k);
  const auto best_pointers = rr::core::pointers_negative(n, best_agents);
  const double rr_best = static_cast<double>(rr::sim::cover_time(
      *rr::sim::create_engine("ring", ring, best_agents, best_pointers)));

  // --- rotor-router return time (Thm 6).
  const auto ret = rr::sim::windowed_return_time(
      *rr::sim::create_engine("ring", ring, best_agents, best_pointers));

  // --- k random walks (Table 1 row 2).
  const double rw_worst = walk_cover_mean(n, worst_agents, trials, 101);
  const double rw_best = walk_cover_mean(n, best_agents, trials, 202);
  const auto gaps = rr::walk::ring_walk_gap_stats(
      n, k, 303, /*warmup=*/4ULL * n, /*window=*/64ULL * n / k + 1024);

  const double nd = static_cast<double>(n);
  const double pred_rr_worst = nd * nd / log2k;
  const double pred_rr_best = (nd / k) * (nd / k);
  const double pred_rw_worst = nd * nd / lnk;
  const double pred_rw_best = (nd / k) * (nd / k) * lnk * lnk;
  const double pred_return = nd / k;

  Table t({"Model", "Placement", "Quantity", "Paper Theta", "Predicted",
           "Measured", "measured/predicted"});
  t.add_row({"rotor-router (k agents)", "worst (all-on-one)", "cover",
             "n^2/log k", Table::sci(pred_rr_worst), Table::sci(rr_worst),
             Table::num(rr_worst / pred_rr_worst, 2)});
  t.add_row({"rotor-router (k agents)", "best (equally spaced)", "cover",
             "n^2/k^2", Table::sci(pred_rr_best), Table::sci(rr_best),
             Table::num(rr_best / pred_rr_best, 2)});
  t.add_row({"rotor-router (k agents)", "any", "return",
             "n/k", Table::sci(pred_return),
             Table::sci(static_cast<double>(ret.max_gap)),
             Table::num(static_cast<double>(ret.max_gap) / pred_return, 2)});
  t.add_row({"k random walks (E[.])", "worst (all-on-one)", "cover",
             "n^2/log k", Table::sci(pred_rw_worst), Table::sci(rw_worst),
             Table::num(rw_worst / pred_rw_worst, 2)});
  t.add_row({"k random walks (E[.])", "best (equally spaced)", "cover",
             "n^2/(k^2/log^2 k)", Table::sci(pred_rw_best), Table::sci(rw_best),
             Table::num(rw_best / pred_rw_best, 2)});
  t.add_row({"k random walks (E[.])", "any", "return (mean gap)",
             "n/k", Table::sci(pred_return), Table::sci(gaps.mean_gap),
             Table::num(gaps.mean_gap / pred_return, 2)});
  t.print();

  std::printf(
      "\nShape check: every `measured/predicted` column should be a"
      " moderate constant (the paper's Theta hides constants).\n"
      "Rotor-router rows are deterministic; random-walk rows are means over"
      " %llu trials.\n",
      static_cast<unsigned long long>(trials));
  return 0;
}
