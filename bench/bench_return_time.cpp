// E-RR-RT (Table 1, return time; Thm 6):
//   after stabilization, every node is visited every Theta(n/k) rounds,
//   regardless of the initialization.
//
// Measures windowed max inter-visit gaps at large n (sweeping k and the
// initialization) and exact on-cycle return times at small n via Brent
// cycle detection.

#include <cstdio>
#include <vector>

#include "sim/runner.hpp"
#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "sim/measure.hpp"

namespace {

using rr::analysis::Table;
using rr::core::NodeId;
using rr::graph::GraphDescriptor;

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Return time of the k-agent rotor-router on the ring",
      "Thm 6: every node visited every Theta(n/k) rounds in the limit");

  const auto n = static_cast<NodeId>(rr::sim::scaled_pow2(2048));

  // --- Sweep k, two different initializations. ---
  {
    Table t({"init", "k", "n/k", "max gap", "mean gap", "max/(n/k)"});
    std::vector<double> ratios;
    for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
      // Equally spaced (best case) and all-on-one (worst case): Thm 6 says
      // the limit refresh rate is the same.
      const auto rs = rr::sim::windowed_return_time(*rr::sim::create_engine(
          "ring", GraphDescriptor::ring(n), rr::core::place_equally_spaced(n, k)));
      const auto ro = rr::sim::windowed_return_time(*rr::sim::create_engine(
          "ring", GraphDescriptor::ring(n), rr::core::place_all_on_one(k, 0),
          rr::core::pointers_toward(n, 0)));
      const double pred = static_cast<double>(n) / k;
      t.add_row({"equally spaced", Table::integer(k), Table::integer(n / k),
                 Table::integer(rs.max_gap), Table::num(rs.mean_gap, 1),
                 Table::num(static_cast<double>(rs.max_gap) / pred, 2)});
      t.add_row({"all on one node", Table::integer(k), Table::integer(n / k),
                 Table::integer(ro.max_gap), Table::num(ro.mean_gap, 1),
                 Table::num(static_cast<double>(ro.max_gap) / pred, 2)});
      ratios.push_back(static_cast<double>(rs.max_gap) / pred);
      ratios.push_back(static_cast<double>(ro.max_gap) / pred);
    }
    t.print();
    double lo = ratios[0], hi = ratios[0];
    for (double r : ratios) {
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    std::printf("\nmax-gap/(n/k) stays in [%.2f, %.2f] across k and"
                " initializations: Theta(n/k), matching Thm 6.\n\n",
                lo, hi);
  }

  // --- Exact return times on the limit cycle (small n, Brent). ---
  {
    const NodeId ns = 120;
    Table t({"n", "k", "period", "exact max gap", "exact min gap",
             "max/(n/k)"});
    for (std::uint32_t k : {1u, 2u, 3u, 4u, 6u, 8u}) {
      const auto ret = rr::sim::exact_return_time(
          *rr::sim::create_engine("ring", GraphDescriptor::ring(ns),
                                  rr::core::place_equally_spaced(ns, k)),
          1ULL << 26);
      if (!ret) {
        std::printf("k=%u: no cycle within cap\n", k);
        continue;
      }
      t.add_row({Table::integer(ns), Table::integer(k),
                 Table::integer(ret->period), Table::integer(ret->max_gap),
                 Table::integer(ret->min_gap),
                 Table::num(static_cast<double>(ret->max_gap) * k / ns, 2)});
    }
    t.print();
    std::printf("\nk=1 recovers the single-agent Eulerian cycle (period 2n,"
                " max gap < 2n); the k-agent limit refresh is ~2n/k.\n");
  }
  return 0;
}
