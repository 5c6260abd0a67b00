// Steady-state cycle leaping (sim/cycle_jump.hpp): dense vs leap
// throughput post-lock-in, plus the detection-overhead lane.
//
// The paper's periodicity (every deterministic rotor-router run locks
// into an Eulerian circulation) turns long-horizon simulation into a
// detect-once-then-add problem: after confirmation, run(T) advances
// floor((T-t)/p) cycles by patching counters in O(n). This bench pins
// the two numbers the feature is judged by: the post-lock-in rounds/s
// ratio vs dense stepping (target: >= 100x on non-ring backends), and
// the probing overhead on a run that never cycles inside the detection
// budget and on a sparse ring's post-cover horizon (target: < 5% of
// dense throughput, median of interleaved repetitions).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/runner.hpp"

namespace {

using rr::analysis::Table;
using rr::graph::CsrGraph;
using rr::graph::NodeId;

const std::vector<std::string> kRotorAccumulators = {"time", "visits", "exits",
                                                     "last_visit"};
const std::vector<std::string> kTokenAccumulators = {"time", "visits"};

std::vector<NodeId> spread_agents(NodeId n, std::uint32_t k) {
  std::vector<NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<NodeId>((static_cast<std::uint64_t>(i) * n) / k);
  }
  return agents;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  // Leap-path timings can undercut the clock tick; floor keeps the
  // reported rate finite instead of infinite.
  return dt.count() > 1e-9 ? dt.count() : 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double timed_run_s(rr::sim::Engine& engine, std::uint64_t rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(rounds);
  return seconds_since(t0);
}

double timed_rounds_per_s(rr::sim::Engine& engine, std::uint64_t rounds) {
  return static_cast<double>(rounds) / timed_run_s(engine, rounds);
}

const char* probe_state(const rr::sim::CycleJumpStats& st) {
  if (st.confirmed) return "confirmed";
  return st.abandoned ? "abandoned" : "probing";
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Steady-state cycle leaping: dense vs leap rounds/s post-lock-in",
      "Lemma 1 periodicity; sim/cycle_jump.hpp");

  rr::sim::BenchJsonWriter json;

  struct Config {
    std::string name;
    std::string backend;  // "rotor" or "eulerian"
    CsrGraph g;
    std::uint32_t k;
  };
  std::vector<Config> configs;
  for (const std::uint32_t k : {4u, 64u}) {
    configs.push_back({"torus(16x16)", "rotor", rr::graph::torus(16, 16), k});
    configs.push_back({"ring(256)", "rotor", rr::graph::ring(256), k});
    configs.push_back({"random_4_regular(256)", "rotor",
                       rr::graph::random_regular(256, 4, 1), k});
    configs.push_back({"torus(16x16)", "eulerian", rr::graph::torus(16, 16), k});
  }

  // Generous budget: the point of this lane is the post-confirmation
  // ratio, not the budget heuristic (the overhead lane below uses the
  // default options on purpose).
  rr::sim::CycleJumpOptions opt;
  opt.detect_budget = 1ull << 22;

  {
    Table t({"topology", "backend", "k", "dense rounds/s", "leap rounds/s",
             "speed-up", "period"});
    for (const auto& c : configs) {
      const auto agents = spread_agents(c.g.num_nodes(), c.k);
      const auto make = [&]() -> std::unique_ptr<rr::sim::Engine> {
        if (c.backend == "eulerian") {
          return std::make_unique<rr::core::EulerianRotorRouter>(c.g, agents);
        }
        return std::make_unique<rr::core::RotorRouter>(
            c.g, agents, std::vector<std::uint32_t>{});
      };
      auto dense = make();
      auto leap = std::make_unique<rr::sim::CycleJumpEngine>(
          make(),
          c.backend == "eulerian" ? kTokenAccumulators : kRotorAccumulators,
          opt);

      // Warm both engines past lock-in; the wrapped one until its period
      // is confirmed (or the budget abandons — reported as speed-up 1).
      std::uint64_t warm = 0;
      while (!leap->stats().confirmed && !leap->stats().abandoned &&
             warm < (1ull << 23)) {
        leap->run(4096);
        warm += 4096;
      }
      dense->run(warm);

      const std::uint64_t dense_rounds = rr::sim::scaled(2000000);
      const double dense_rate = timed_rounds_per_s(*dense, dense_rounds);
      // A horizon no dense engine could touch: consumed almost entirely
      // by O(n) leaps once the period is live.
      const std::uint64_t leap_rounds =
          leap->stats().confirmed ? 1000000000000ull : dense_rounds;
      const double leap_rate = timed_rounds_per_s(*leap, leap_rounds);

      const std::string tag = "CycleJump/" + c.backend + "/" + c.name + "/k" +
                              std::to_string(c.k);
      json.add(tag + "/dense_rounds_per_s", dense_rate);
      json.add(tag + "/leap_rounds_per_s", leap_rate);
      t.add_row({c.name, c.backend, Table::integer(c.k),
                 Table::sci(dense_rate), Table::sci(leap_rate),
                 Table::sci(leap_rate / dense_rate),
                 leap->stats().confirmed
                     ? Table::integer(leap->stats().period)
                     : "abandoned"});
    }
    t.print();
    std::printf(
        "\nPost-confirmation run() advances whole cycles by patching\n"
        "counters, so the leap lane's rounds/s is horizon-bound, not\n"
        "work-bound: >= 100x over dense stepping on every backend that\n"
        "confirms (the differential lane in tests/cycle_jump_test.cpp\n"
        "gates that the landings are bit-exact).\n\n");
  }

  // --- Detection overhead: dense and wrapped twins under default
  // options, timed over the same rounds in interleaved repetitions and
  // judged by the median of the per-repetition time ratios (a single
  // pair on a shared host swings by more than the gate). Two shapes:
  //   - a lollipop transient (lock-in is Theta(D |E|), astronomically
  //     past the adaptive budget): the run never confirms;
  //   - a sparse random ring (4096 nodes, 2 agents) over a post-cover
  //     horizon of 2^20 rounds, ring-sweep's costliest shape: O(k)
  //     rounds against an O(n) hash, so only a cost-scaled stride keeps
  //     the samples cheap. ---
  {
    constexpr int kReps = 7;
    constexpr std::uint64_t kSlice = std::uint64_t{1} << 16;
    Table t({"lane", "dense rounds/s", "wrapped rounds/s", "samples/engine",
             "probe", "overhead (median of " + std::to_string(kReps) + ")"});
    struct Lane {
      std::string name;
      std::string json_tag;
      std::function<std::unique_ptr<rr::sim::Engine>()> make;
      std::vector<std::string> accumulators;
      bool to_cover;  // time only the rounds after cover
      std::uint64_t rounds;
    };
    const CsrGraph lollipop = rr::graph::lollipop(1024, 512);
    const auto lollipop_agents = spread_agents(lollipop.num_nodes(), 16);
    rr::Rng rng(rr::sim::derive_seed(1, 3));
    const NodeId ring_n = 4096;
    const auto ring_agents = rr::core::place_random(ring_n, 2, rng);
    const auto ring_ptrs = rr::core::pointers_random(ring_n, rng);
    const std::vector<Lane> lanes = {
        {"lollipop(1024,512) k16, never cycles", "CycleJump/overhead",
         [&] {
           return std::make_unique<rr::core::RotorRouter>(
               lollipop, lollipop_agents, std::vector<std::uint32_t>{});
         },
         kRotorAccumulators, false, rr::sim::scaled(4000000)},
        {"ring(4096) k2 random, 2^20 after cover",
         "CycleJump/overhead/sparse_ring",
         [&] {
           return std::make_unique<rr::core::RingRotorRouter>(
               ring_n, ring_agents, ring_ptrs);
         },
         kRotorAccumulators, true, std::uint64_t{1} << 20},
    };
    bool pass = true;
    for (const Lane& lane : lanes) {
      std::vector<double> ratios, dense_rates, probed_rates;
      rr::sim::CycleJumpStats stats;
      for (int rep = 0; rep < kReps; ++rep) {
        auto dense = lane.make();
        rr::sim::CycleJumpEngine probed(lane.make(), lane.accumulators,
                                        rr::sim::CycleJumpOptions{});
        if (lane.to_cover) {
          dense->run_until_covered(~std::uint64_t{0});
          probed.run_until_covered(~std::uint64_t{0});
        }
        // The twins alternate in slices of 2^16 rounds, so host drift
        // within a repetition hits both alike.
        double dense_s = 0.0;
        double probed_s = 0.0;
        for (std::uint64_t done = 0; done < lane.rounds; done += kSlice) {
          const std::uint64_t slice = std::min(kSlice, lane.rounds - done);
          dense_s += timed_run_s(*dense, slice);
          probed_s += timed_run_s(probed, slice);
        }
        ratios.push_back(probed_s / dense_s);
        dense_rates.push_back(static_cast<double>(lane.rounds) / dense_s);
        probed_rates.push_back(static_cast<double>(lane.rounds) / probed_s);
        stats = probed.stats();
      }
      const double overhead_pct = (median(ratios) - 1.0) * 100.0;
      pass = pass && overhead_pct < 5.0;
      json.add(lane.json_tag + "/dense_rounds_per_s", median(dense_rates));
      json.add(lane.json_tag + "/probed_rounds_per_s", median(probed_rates));
      t.add_row({lane.name, Table::sci(median(dense_rates)),
                 Table::sci(median(probed_rates)),
                 Table::integer(stats.samples), probe_state(stats),
                 Table::num(overhead_pct, 2) + "%"});
    }
    t.print();
    std::printf(
        "\nProbing starts at cover, one O(n) hash per power-of-two stride\n"
        ">= 32 n / k rounds: the wrapper is safe to leave on by default\n"
        "(--cycle-jump auto). Gate: both medians < 5%% overhead %s\n",
        pass ? "PASS" : "WARN");
  }
  return 0;
}
