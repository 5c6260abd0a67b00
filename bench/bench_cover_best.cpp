// E-RR-B (Table 1 row 1, best placement; Thms 3-4):
//   cover time of k equally spaced agents = Theta(n^2 / k^2),
//   for ANY pointer arrangement (O) and for an adversarial one (Omega).
//
// Sweeps (n, k) at fixed n/k (ratio to (n/k)^2 must be flat), sweeps k at
// fixed n, and compares pointer arrangements (benign, random, negative).

#include <cmath>
#include <cstdio>
#include <vector>

#include "sim/runner.hpp"
#include "analysis/fit.hpp"
#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "sim/measure.hpp"

namespace {

using rr::analysis::Table;
using rr::core::NodeId;

double cover_spaced(NodeId n, std::uint32_t k,
                    const std::vector<std::uint8_t>& ptrs) {
  return static_cast<double>(rr::sim::cover_time(*rr::sim::create_engine(
      "ring", rr::graph::GraphDescriptor::ring(n),
      rr::core::place_equally_spaced(n, k), ptrs)));
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Best-placement cover time of the k-agent rotor-router",
      "Thms 3-4: Theta((n/k)^2) for equally spaced agents");

  const auto base_n = static_cast<NodeId>(rr::sim::scaled_pow2(1024));

  // --- Fixed n/k, growing n: cover should stay ~ constant = Theta((n/k)^2).
  {
    Table t({"n", "k", "n/k", "cover (negative ptrs)", "(n/k)^2", "ratio"});
    std::vector<double> ratios;
    for (std::uint32_t s = 1; s <= 8; s *= 2) {
      const NodeId n = base_n * s;
      const std::uint32_t k = 8 * s;
      const auto agents = rr::core::place_equally_spaced(n, k);
      const double c =
          cover_spaced(n, k, rr::core::pointers_negative(n, agents));
      const double pred = std::pow(static_cast<double>(n) / k, 2.0);
      t.add_row({Table::integer(n), Table::integer(k), Table::integer(n / k),
                 Table::integer(static_cast<std::uint64_t>(c)),
                 Table::sci(pred), Table::num(c / pred, 3)});
      ratios.push_back(c / pred);
    }
    t.print();
    std::printf("ratio flatness (max/min): %.2f\n\n",
                rr::analysis::ratio_spread(
                    ratios, std::vector<double>(ratios.size(), 1.0)));
  }

  // --- Fixed n, growing k: cover ~ (n/k)^2 falls quadratically. ---
  {
    const NodeId n = 4 * base_n;
    Table t({"n", "k", "cover", "(n/k)^2", "ratio", "speed-up vs k=2"});
    std::vector<double> ks, cs;
    double c2 = 0.0;
    for (std::uint32_t k = 2; k <= 128; k *= 2) {
      const auto agents = rr::core::place_equally_spaced(n, k);
      const double c =
          cover_spaced(n, k, rr::core::pointers_negative(n, agents));
      if (k == 2) c2 = c;
      const double pred = std::pow(static_cast<double>(n) / k, 2.0);
      t.add_row({Table::integer(n), Table::integer(k),
                 Table::integer(static_cast<std::uint64_t>(c)),
                 Table::sci(pred), Table::num(c / pred, 3),
                 Table::num(c2 / c, 1)});
      ks.push_back(k);
      cs.push_back(c);
    }
    const auto fit = rr::analysis::fit_power_law(ks, cs);
    t.print();
    std::printf("fitted exponent in k: %.3f (paper: -2), R^2=%.4f\n\n",
                fit.slope, fit.r_squared);
  }

  // --- Pointer arrangements: Thm 3 says O((n/k)^2) regardless; Thm 4 says
  // the adversary can force Omega((n/k)^2) — so all arrangements land in a
  // constant band around (n/k)^2, benign ones at the bottom. ---
  {
    const NodeId n = 4 * base_n;
    const std::uint32_t k = 32;
    const auto agents = rr::core::place_equally_spaced(n, k);
    const double pred = std::pow(static_cast<double>(n) / k, 2.0);
    rr::Rng rng(777);
    Table t({"pointer init", "cover", "cover/(n/k)^2"});
    auto row = [&](const char* name, std::vector<std::uint8_t> ptrs) {
      const double c = cover_spaced(n, k, std::move(ptrs));
      t.add_row({name, Table::integer(static_cast<std::uint64_t>(c)),
                 Table::num(c / pred, 3)});
    };
    row("all clockwise (benign)", rr::core::pointers_uniform(n, 0));
    row("negative (toward nearest agent)", rr::core::pointers_negative(n, agents));
    row("remote-vertex adversary (Thm 4)",
        rr::core::adversarial_remote_init(n, agents).pointers);
    row("random #0", rr::core::pointers_random(n, rng));
    row("random #1", rr::core::pointers_random(n, rng));
    t.print();
    std::printf("\nUpper bound (Thm 3) and lower bound (Thm 4) meet: every"
                " row is Theta((n/k)^2); benign pointers give the smallest"
                " constant (~n/k sweep per agent still needs a return trip).\n");
  }
  return 0;
}
