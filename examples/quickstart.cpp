// Quickstart: deploy k rotor-router agents on an n-node ring, measure the
// cover time, watch the domains even out, and compare with k random walks.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart [n] [k]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/measure.hpp"
#include "sim/runner.hpp"
#include "walk/ring_walk.hpp"

int main(int argc, char** argv) {
  const rr::core::NodeId n = argc > 1 ? std::atoi(argv[1]) : 1024;
  const std::uint32_t k = argc > 2 ? std::atoi(argv[2]) : 8;

  std::printf("rotor-ring quickstart: n=%u nodes, k=%u agents\n\n", n, k);

  // 1) Worst-case initialization (Thm 1): all agents on node 0, every
  //    pointer aimed back at node 0.
  const auto ring = rr::graph::GraphDescriptor::ring(n);
  const std::uint64_t cover_worst = rr::sim::cover_time(
      *rr::sim::create_engine("ring", ring, rr::core::place_all_on_one(k, 0),
                              rr::core::pointers_toward(n, 0)));
  std::printf("cover time, all-on-one + adversarial pointers: %llu rounds"
              " (paper: Theta(n^2/log k))\n",
              static_cast<unsigned long long>(cover_worst));

  // 2) Best-case initialization (Thm 3): equally spaced agents.
  const auto agents = rr::core::place_equally_spaced(n, k);
  const auto pointers = rr::core::pointers_negative(n, agents);
  const std::uint64_t cover_best = rr::sim::cover_time(
      *rr::sim::create_engine("ring", ring, agents, pointers));
  std::printf("cover time, equally spaced:                    %llu rounds"
              " (paper: Theta((n/k)^2))\n",
              static_cast<unsigned long long>(cover_best));

  // 3) Limit behaviour (Thm 6): after stabilization every node is visited
  //    every Theta(n/k) rounds.
  const auto ret = rr::sim::windowed_return_time(
      *rr::sim::create_engine("ring", ring, agents, pointers));
  std::printf("return time (max inter-visit gap):             %llu rounds"
              " (paper: Theta(n/k) = ~%u)\n",
              static_cast<unsigned long long>(ret.max_gap), n / k);

  // 4) Domains: the visited ring partitions into per-agent domains whose
  //    sizes converge (Lemma 12).
  rr::core::RingRotorRouter engine(n, agents, pointers);
  engine.run_until_covered(8ULL * n * n);
  engine.run(4ULL * n * n / k);
  const auto snapshot = rr::core::compute_domains(engine);
  std::printf("domains after stabilization: %zu domains, sizes in [%u, %u]"
              " (n/k = %u)\n",
              snapshot.domains.size(), snapshot.min_size(), snapshot.max_size(),
              n / k);

  // 5) The randomized baseline: k parallel random walks from the same
  //    placement (expectation over 10 trials, fanned across the batched
  //    runner's thread pool).
  rr::sim::Runner runner;
  const auto walk_stats = runner.stats(10, [&](std::uint64_t trial) {
    rr::walk::RingRandomWalks walks(n, agents, 1000 + trial);
    return static_cast<double>(walks.run_until_covered(~0ULL / 2));
  });
  std::printf("k random walks from the same placement:        %.0f rounds"
              " (mean of %llu trials, +-%.0f at 95%%)\n",
              walk_stats.mean(),
              static_cast<unsigned long long>(walk_stats.count()),
              walk_stats.ci95());
  return 0;
}
