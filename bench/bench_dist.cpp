// Distributed sharding (dist/coordinator.hpp): rounds/s vs worker count
// plus the comms metrics that explain it — spill bytes/round, spill
// batches/round, and the mid-scan overlap share (batches relayed while
// their sender was still scanning).
//
// Honesty first: on one machine the workers are in-process threads (or
// sibling rr_noded processes) sharing the same cores, so this bench does
// NOT demonstrate distributed speed-up. What it pins is the *cost* side
// of the design: per-round protocol overhead versus the sequential
// engine, how that overhead scales with worker count, and how the spill
// batch size trades framing amortization against comms/compute overlap.
// The bit-equality side is gated in tests/dist_engine_test.cpp; the CI
// smoke lane runs the real multi-process transport.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "core/rotor_router.hpp"
#include "dist/coordinator.hpp"
#include "graph/descriptor.hpp"
#include "sim/runner.hpp"

namespace {

using rr::analysis::Table;
using rr::graph::GraphDescriptor;
using rr::graph::NodeId;

std::vector<NodeId> spread_agents(NodeId n, std::uint32_t k) {
  std::vector<NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<NodeId>((static_cast<std::uint64_t>(i) * n) / k);
  }
  return agents;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() > 1e-9 ? dt.count() : 1e-9;
}

double timed_rounds_per_s(rr::sim::Engine& engine, std::uint64_t rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(rounds);
  return static_cast<double>(rounds) / seconds_since(t0);
}

/// The fork/exec transport needs the sibling worker binary; the bench
/// runs from build/bench, so look next to the examples output.
std::string find_noded() {
  namespace fs = std::filesystem;
  for (const char* candidate :
       {"../examples/rr_noded", "./examples/rr_noded", "./rr_noded"}) {
    std::error_code ec;
    if (fs::exists(candidate, ec)) return candidate;
  }
  return {};
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Distributed sharding: protocol overhead vs worker count, spill comms",
      "dist/coordinator.hpp; dynamics bit-equal to the sequential engine");

  rr::sim::BenchJsonWriter json;

  struct Config {
    std::string name;
    GraphDescriptor descriptor;
    std::uint32_t k;
    std::uint64_t spill_batch;
  };
  const std::vector<Config> configs = {
      {"torus(32x32)", GraphDescriptor::torus(32, 32), 256, 256},
      {"torus(32x32)/batch1", GraphDescriptor::torus(32, 32), 256, 1},
      {"ring(4096)", GraphDescriptor::parse("ring 4096").value(), 64, 256},
  };
  const std::uint64_t rounds = rr::sim::scaled(20000, 200);

  Table t({"topology", "transport", "workers", "rounds/s", "vs sequential",
           "spill B/round", "batches/round", "overlap"});
  for (const auto& c : configs) {
    auto csr = c.descriptor.build();
    if (!csr) {
      std::fprintf(stderr, "bench_dist: cannot build %s\n", c.name.c_str());
      return 1;
    }
    const auto agents = spread_agents(csr->num_nodes(), c.k);

    rr::core::RotorRouter sequential(std::move(*csr), agents, {});
    const double seq_rate = timed_rounds_per_s(sequential, rounds);
    json.add("Dist/" + c.name + "/sequential/rounds_per_s", seq_rate);
    t.add_row({c.name, "(none)", "0", Table::sci(seq_rate), "1.00", "-", "-",
               "-"});

    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
      rr::core::DistOptions opt;
      opt.workers = workers;
      opt.spill_batch = c.spill_batch;
      std::string error;
      auto dist = rr::core::DistributedRotorRouter::create(
          c.descriptor, agents, {}, opt, &error);
      if (!dist) {
        std::fprintf(stderr, "bench_dist: %s\n", error.c_str());
        return 1;
      }
      const double rate = timed_rounds_per_s(*dist, rounds);
      const auto& comms = dist->comms_stats();
      const double per_round = static_cast<double>(comms.rounds);
      const double spill_bytes =
          static_cast<double>(comms.spill_bytes) / per_round;
      const double batches = static_cast<double>(comms.batches) / per_round;
      const double overlap =
          comms.batches
              ? static_cast<double>(comms.mid_scan_batches) /
                    static_cast<double>(comms.batches)
              : 0.0;
      const std::string tag =
          "Dist/" + c.name + "/threads/w" + std::to_string(workers);
      json.add(tag + "/rounds_per_s", rate);
      json.add_metric(tag, "spill_bytes_per_round", spill_bytes);
      json.add_metric(tag, "batches_per_round", batches);
      t.add_row({c.name, "threads", Table::integer(workers), Table::sci(rate),
                 Table::num(rate / seq_rate, 2), Table::num(spill_bytes, 1),
                 Table::num(batches, 2), Table::num(overlap * 100.0, 0) + "%"});
    }
  }

  // One fork/exec lane when the sibling binary is around: same protocol,
  // real process boundaries and kernel socket buffers in the path.
  if (const std::string noded = find_noded(); !noded.empty()) {
    const Config& c = configs.front();
    const auto agents = spread_agents(*c.descriptor.num_nodes(), c.k);
    rr::core::DistOptions opt;
    opt.workers = 4;
    opt.spill_batch = c.spill_batch;
    opt.noded_path = noded;
    std::string error;
    auto dist = rr::core::DistributedRotorRouter::create(c.descriptor, agents,
                                                         {}, opt, &error);
    if (dist) {
      const double rate = timed_rounds_per_s(*dist, rounds);
      json.add("Dist/" + c.name + "/noded/w4/rounds_per_s", rate);
      t.add_row({c.name, "rr_noded", "4", Table::sci(rate), "-", "-", "-",
                 "-"});
    } else {
      std::fprintf(stderr, "bench_dist: noded lane skipped: %s\n",
                   error.c_str());
    }
  } else {
    std::printf("(rr_noded not found next to the bench; fork/exec lane "
                "skipped)\n");
  }
  t.print();

  std::printf(
      "\nSingle-machine numbers: workers share these cores, so rounds/s\n"
      "measures protocol overhead, not distributed speed-up. Small spill\n"
      "batches raise the overlap share (batches relayed mid-scan) at the\n"
      "price of more framing; the trajectory is bit-identical either way\n"
      "(tests/dist_engine_test.cpp).\n");
  return 0;
}
