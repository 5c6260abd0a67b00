// E-ODE (Sec. 2.3): the continuous-time approximation vs the discrete
// rotor-router — now through the registered continuous-domain *engine*
// (analysis::ContinuousDomainEngine behind sim::EngineRegistry), so the
// comparison exercises the exact backend the CLI and checkpoint layer
// run, not a side-channel integrator.
//
// The ODE  d nu_i/dt = 1/nu_i - 1/(2 nu_{i-1}) - 1/(2 nu_{i+1})  predicts:
//   (1) the covered region grows like sqrt(t) during exploration,
//   (2) after coverage the stationary profile is flat (equal domains),
//   (3) cover-time order (n/k)^2 for balanced starts.
// Each prediction is compared against the discrete simulator here; the
// hard tolerances live in tests/continuous_engine_test.cpp (the backend's
// convergence gate). With RR_BENCH_JSON set, engine throughput samples
// are appended to the CI artifact for tools/bench_diff.py.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "analysis/continuous_engine.hpp"
#include "analysis/fit.hpp"
#include "analysis/table.hpp"
#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "sim/measure.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"

namespace {

using rr::analysis::ContinuousDomainEngine;
using rr::analysis::Table;
using rr::core::NodeId;

std::unique_ptr<rr::sim::Engine> make_ode(NodeId n,
                                          const std::vector<NodeId>& agents) {
  rr::sim::EngineConfig config;
  config.agents = {agents.begin(), agents.end()};
  std::string error;
  auto engine = rr::sim::EngineRegistry::instance().create(
      "ode", rr::graph::GraphDescriptor::ring(n), config, &error);
  if (!engine) {
    std::fprintf(stderr, "bench_continuous_model: %s\n", error.c_str());
    std::exit(1);  // a registry/config break must fail loudly, not segv
  }
  return engine;
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Continuous-domain engine vs discrete rotor-router",
      "Sec. 2.3: sqrt(t) growth, flat stationary profile, cover-time order");

  const auto n = static_cast<NodeId>(rr::sim::scaled_pow2(2048));
  const std::uint32_t k = 8;
  rr::sim::BenchJsonWriter json;

  // --- (1) Growth exponent of the covered region, discrete vs ODE. ---
  {
    rr::core::RingRotorRouter rr(n, rr::core::place_all_on_one(k, 0),
                                 rr::core::pointers_toward(n, 0));
    std::vector<double> ts, Ss;
    NodeId next_target = n / 16;
    while (rr.covered_count() < 3 * n / 4) {
      rr.step();
      if (rr.covered_count() >= next_target) {
        ts.push_back(static_cast<double>(rr.time()));
        Ss.push_back(static_cast<double>(rr.covered_count()));
        next_target = static_cast<NodeId>(next_target * 1.4) + 1;
      }
    }
    const auto discrete_fit = rr::analysis::fit_power_law(ts, Ss);

    auto model = make_ode(n, std::vector<NodeId>(k, 0));
    std::vector<double> mts, mSs;
    double next_sample = 64.0;
    while (model->covered_count() < 3 * n / 4) {
      model->step();
      if (static_cast<double>(model->time()) >= next_sample) {
        mts.push_back(static_cast<double>(model->time()));
        mSs.push_back(static_cast<double>(model->covered_count()));
        next_sample *= 1.4;
      }
    }
    const auto ode_fit = rr::analysis::fit_power_law(mts, mSs);

    Table t({"system", "growth exponent of covered region", "R^2"});
    t.add_row({"discrete rotor-router (k on one node)",
               Table::num(discrete_fit.slope, 3),
               Table::num(discrete_fit.r_squared, 4)});
    t.add_row({"continuous-domain engine", Table::num(ode_fit.slope, 3),
               Table::num(ode_fit.r_squared, 4)});
    t.add_row({"paper prediction (f(t) ~ sqrt t)", "0.5", "-"});
    t.print();
    std::printf("\n");
  }

  // --- (2) Stationary profile after coverage: flat in both systems. ---
  {
    // Uneven starts; both systems run to coverage plus a relaxation tail.
    std::vector<NodeId> agents;
    for (std::uint32_t i = 0; i < k; ++i) {
      agents.push_back(static_cast<NodeId>(
          (static_cast<std::uint64_t>(i) * i * n) / (k * k)));
    }
    const std::uint64_t relax = 8ULL * n * n / k;
    auto model = make_ode(n, agents);
    model->run_until_covered(8ULL * n * n);
    model->run(relax);
    auto* ode = dynamic_cast<ContinuousDomainEngine*>(model.get());
    double lo = 1e300, hi = 0;
    for (double v : ode->sizes()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    rr::core::RingRotorRouter rr(n, agents,
                                 rr::core::pointers_negative(n, agents));
    rr.run_until_covered(8ULL * n * n);
    rr.run(relax);
    const auto snap = rr::core::compute_domains(rr);

    Table t({"system", "min domain", "max domain", "max/min"});
    t.add_row({"continuous-domain engine (uneven start)", Table::num(lo, 2),
               Table::num(hi, 2), Table::num(hi / lo, 3)});
    t.add_row({"discrete rotor-router", Table::integer(snap.min_size()),
               Table::integer(snap.max_size()),
               Table::num(static_cast<double>(snap.max_size()) /
                              snap.min_size(),
                          3)});
    t.print();
    std::printf("\nBoth relax to an (almost) flat profile; the discrete"
                " system keeps an O(1) ripple (Lemma 12's <=10), the gate"
                " tests/continuous_engine_test.cpp enforces the match.\n\n");
  }

  // --- (3) Cover-time prediction from the ODE engine. ---
  {
    Table t({"k", "discrete cover", "ODE cover", "discrete/ODE"});
    for (std::uint32_t kk : {4u, 8u, 16u}) {
      const auto agents = rr::core::place_equally_spaced(n, kk);
      const double discrete = static_cast<double>(
          rr::sim::cover_time(*rr::sim::create_engine(
              "ring", rr::graph::GraphDescriptor::ring(n), agents,
              rr::core::pointers_negative(n, agents))));
      auto model = make_ode(n, agents);
      const double ode_t =
          static_cast<double>(model->run_until_covered(8ULL * n * n));
      t.add_row({Table::integer(kk), Table::sci(discrete), Table::sci(ode_t),
                 Table::num(discrete / ode_t, 2)});
    }
    t.print();
    std::printf("\nEqually spaced agents grow k independent domains at"
                " d nu/dt = 1/nu until they link, i.e. cover at t ="
                " (n/k)^2/2 — and the discrete negative-pointer system"
                " matches within a percent: capturing node d costs one"
                " zig-zag traversal of length ~2d, so sum 2d = d^2 = 2t.\n");
  }

  // --- Engine throughput (rounds/s), sampled for the CI artifact. ---
  {
    Table t({"rep", "rounds/s (n=" + std::to_string(n) + ", k=8)"});
    for (int rep = 0; rep < 5; ++rep) {
      auto model = make_ode(n, rr::core::place_equally_spaced(n, k));
      const std::uint64_t rounds = rr::sim::scaled(20000);
      const auto t0 = std::chrono::steady_clock::now();
      model->run(rounds);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      const double per_s = static_cast<double>(rounds) / dt.count();
      json.add("ContinuousDomainEngine/ring/k8/rounds_per_s", per_s);
      t.add_row({Table::integer(rep), Table::sci(per_s)});
    }
    t.print();
  }
  return 0;
}
