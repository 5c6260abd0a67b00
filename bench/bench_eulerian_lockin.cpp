// E-YAN (related-work substrate, Sec. 1.2/2.1): single-agent Eulerian
// lock-in (Yanovski et al. / Bampas et al.) and multi-agent monotonicity
// (Lemma 1 corollary: adding agents never slows exploration).
//
// The paper's framework builds on: (a) the single agent stabilizes to an
// Eulerian cycle within 2 D |E| rounds, and (b) multi-agent visit counts
// dominate fewer-agent ones. Both are exercised across topologies here.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "analysis/table.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/measure.hpp"
#include "sim/registry.hpp"

namespace {

using rr::analysis::Table;
using rr::graph::CsrGraph;

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Eulerian lock-in and multi-agent monotonicity on general graphs",
      "Yanovski et al. [27], Bampas et al. [6]; Lemma 1");

  struct Topo {
    std::string name;
    CsrGraph g;
  };
  const rr::graph::NodeId m = rr::sim::bench_scale() >= 2 ? 2 : 1;
  const rr::graph::NodeId dim = 8 * m;
  std::vector<Topo> topologies;
  topologies.push_back({"ring(" + std::to_string(64 * m) + ")",
                        rr::graph::ring(64 * m)});
  topologies.push_back({"grid(" + std::to_string(dim) + "x" + std::to_string(dim) + ")",
                        rr::graph::grid(dim, dim)});
  topologies.push_back({"torus(" + std::to_string(dim) + "x" + std::to_string(dim) + ")",
                        rr::graph::torus(dim, dim)});
  topologies.push_back({"hypercube(6)", rr::graph::hypercube(6)});
  topologies.push_back({"clique(" + std::to_string(16 * m) + ")",
                        rr::graph::clique(16 * m)});
  topologies.push_back({"binary_tree(63)", rr::graph::binary_tree(63)});
  topologies.push_back({"random_3_regular(64)", rr::graph::random_regular(64, 3, 1)});
  topologies.push_back({"lollipop(48,16)", rr::graph::lollipop(48, 16)});

  // --- Lock-in times vs the 2 D |E| bound. ---
  {
    Table t({"topology", "D", "|E|", "lock-in", "2 D |E|", "lock-in/(2D|E|)"});
    for (const auto& topo : topologies) {
      rr::core::RotorRouter rotor(topo.g, {0});
      const auto res = rr::core::single_agent_lock_in(rotor);
      const double bound = 2.0 * topo.g.diameter() * topo.g.num_edges();
      t.add_row({topo.name, Table::integer(topo.g.diameter()),
                 Table::integer(topo.g.num_edges()),
                 res.locked_in ? Table::integer(res.lock_in_time) : "none",
                 Table::integer(static_cast<std::uint64_t>(bound)),
                 res.locked_in
                     ? Table::num(static_cast<double>(res.lock_in_time) / bound, 3)
                     : "-"});
    }
    t.print();
    std::printf("\nEvery lock-in lands within the Theta(D|E|) bound"
                " (ratio <= 1), reproducing Yanovski et al.\n\n");
  }

  // --- Cover time vs k: monotone non-increasing (Lemma 1 corollary),
  // with near-linear speed-up at small k (Yanovski's experiments). ---
  {
    Table t({"topology", "k=1", "k=2", "k=4", "k=8", "k=16",
             "speed-up k=16"});
    for (const auto& topo : topologies) {
      std::vector<std::string> row{topo.name};
      double c1 = 0.0, prev = 1e300;
      bool monotone = true;
      double c16 = 0.0;
      for (std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
        rr::core::RotorRouter rotor(topo.g,
                                    std::vector<rr::graph::NodeId>(k, 0));
        const auto c = rr::sim::cover_time(rotor);
        const double cd = static_cast<double>(c);
        if (k == 1) c1 = cd;
        if (k == 16) c16 = cd;
        if (cd > prev) monotone = false;
        prev = cd;
        row.push_back(Table::integer(c));
      }
      row.push_back(Table::num(c1 / c16, 1) + (monotone ? "" : " (!)"));
      t.add_row(std::move(row));
    }
    t.print();
    std::printf("\nCover time never increases with k (rows marked (!) would"
                " violate Lemma 1 — none should be).\n\n");
  }

  // --- The lock-in picture as a backend: extract the token-circulation
  // engine from the live locked rotor (Brent detector) and measure it. ---
  rr::sim::BenchJsonWriter json;
  {
    Table t({"topology", "Brent detect round", "period", "2|E|",
             "circuit Eulerian?"});
    for (const auto& topo : topologies) {
      const auto locked = rr::core::eulerian_from_lock_in(topo.g, 0);
      t.add_row({topo.name,
                 locked.locked_in ? Table::integer(locked.detected_at) : "-",
                 locked.locked_in ? Table::integer(locked.period) : "-",
                 Table::integer(topo.g.num_arcs()),
                 locked.locked_in &&
                         rr::graph::is_eulerian_circuit(
                             topo.g, locked.engine->circuit())
                     ? "yes"
                     : "NO (!)"});
    }
    t.print();
    std::printf("\nThe detected limit cycle is one circuit lap (period ="
                " 2|E|) and the extracted lap is Eulerian: the engine"
                " continues the rotor's own trajectory"
                " (tests/eulerian_engine_test.cpp gates lockstep).\n\n");
  }

  // --- Token-circulation throughput (agent-steps/s), O(k)/round
  // regardless of |E|; sampled for the CI artifact. ---
  {
    const rr::graph::NodeId side = 16 * m;
    const std::uint32_t k = 8;
    Table t({"rep", "agent-steps/s (torus " + std::to_string(side) + "^2, k=" +
                        std::to_string(k) + ")"});
    rr::sim::EngineConfig config;
    for (std::uint32_t i = 0; i < k; ++i) {
      config.agents.push_back((i * side * side) / k);
    }
    for (int rep = 0; rep < 5; ++rep) {
      auto engine = rr::sim::EngineRegistry::instance().create(
          "eulerian", rr::graph::GraphDescriptor::torus(side, side), config);
      const std::uint64_t rounds = rr::sim::scaled(400000);
      const auto t0 = std::chrono::steady_clock::now();
      engine->run(rounds);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      const double per_s = static_cast<double>(rounds) * k / dt.count();
      json.add("EulerianCirculation/torus/k8/agent_steps_per_s", per_s);
      t.add_row({Table::integer(rep), Table::sci(per_s)});
    }
    t.print();
  }
  return 0;
}
