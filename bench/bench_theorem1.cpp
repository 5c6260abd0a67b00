// E-T1C (Thm 1, constructive): executes the proof's delayed deployment and
// reports the per-phase accounting, certifying Theta(n^2/log k) via the
// slow-down lemma (Lemma 3): B1 <= C(R[k]) <= total.

#include <cmath>
#include <cstdio>

#include "sim/runner.hpp"
#include "analysis/table.hpp"
#include "core/theorem1_deployment.hpp"
#include "graph/generators.hpp"

namespace {

using rr::analysis::Table;
using rr::graph::NodeId;

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Theorem 1's delayed deployment, executed",
      "Phases A/B1/B2 with desirable configurations; Lemma 3 sandwich");

  const auto base_n = static_cast<NodeId>(rr::sim::scaled_pow2(512));
  const std::uint32_t k = 8;

  Table t({"n", "phase A", "B1 (tau)", "B2", "total (T)",
           "undelayed C(R[k])", "tau<=C<=T", "T/(n^2/log k)"});
  for (NodeId n = base_n; n <= 4 * base_n; n *= 2) {
    rr::core::Theorem1Deployment dep(n, k);
    const auto res = dep.run();
    if (!res.covered) {
      std::printf("n=%u: deployment did not cover within cap\n", n);
      continue;
    }
    // Undelayed reference on the same path initialization.
    rr::graph::CsrGraph p = rr::graph::path(n);
    std::vector<std::uint32_t> left(n, 0);
    for (NodeId v = 1; v + 1 < n; ++v) left[v] = 1;
    rr::core::RotorRouter undelayed(p, std::vector<NodeId>(k, 0), left);
    const auto cover = undelayed.run_until_covered(64ULL * n * n);

    const bool sandwich =
        res.phase_b1_rounds <= cover && cover <= res.total_rounds;
    const double pred =
        static_cast<double>(n) * n / std::log2(static_cast<double>(k));
    t.add_row({Table::integer(n), Table::integer(res.phase_a_rounds),
               Table::integer(res.phase_b1_rounds),
               Table::integer(res.phase_b2_rounds),
               Table::integer(res.total_rounds), Table::integer(cover),
               sandwich ? "yes" : "NO!",
               Table::num(static_cast<double>(res.total_rounds) / pred, 3)});
  }
  t.print();
  std::printf(
      "\nThe deployment walks through desirable configurations (agent i at"
      " p_i*S, Lemma 13 profile); its fully-active B1 rounds lower-bound"
      " and its total upper-bounds the undelayed cover time (Lemma 3),"
      " yielding the Theta(n^2/log k) certificate of Thm 1.\n");
  return 0;
}
