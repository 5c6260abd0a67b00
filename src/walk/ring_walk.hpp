#pragma once

// k parallel random walks on the ring (S9).
//
// The baseline the paper compares against: k independent agents, each
// performing a simple +-1 random walk, moving synchronously. Each walker
// consumes one bit per round from a private 64-bit buffer, which keeps the
// per-walker random streams independent of k and of each other (walker i's
// trajectory depends only on the seed, not on how many other walkers run).
// bench_ablation compares this against drawing one RNG word per step: the
// buffers cost a little throughput and are kept for the stream-stability
// property, not for speed.
//
// Why this engine stays beside the registry's `walks` backend
// (walk::GraphRandomWalks): `walks` draws every walker from one shared
// RNG, so walker i's path there depends on k. Folding this engine onto it
// would change every random-walk number it produces, among them Table 1's
// random-walk rows (bench_table1) and the quickstart and ring_patrol
// examples' output.

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace rr::walk {

using NodeId = std::uint32_t;

constexpr std::uint64_t kWalkNotCovered = ~std::uint64_t{0};

class RingRandomWalks {
 public:
  RingRandomWalks(NodeId n, std::vector<NodeId> starts, std::uint64_t seed);

  /// One synchronous round: every walker steps to a uniform neighbor.
  void step();
  void run(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) step();
  }

  /// Runs until every node is visited; returns cover time (absolute round)
  /// or kWalkNotCovered if `max_rounds` elapsed.
  std::uint64_t run_until_covered(std::uint64_t max_rounds);

  NodeId num_nodes() const { return n_; }
  std::uint32_t num_walkers() const {
    return static_cast<std::uint32_t>(pos_.size());
  }
  std::uint64_t time() const { return time_; }
  NodeId position(std::uint32_t walker) const { return pos_[walker]; }
  const std::vector<NodeId>& positions() const { return pos_; }

  bool visited(NodeId v) const { return last_visit_[v] != kWalkNotCovered; }
  NodeId covered_count() const { return covered_; }
  bool all_covered() const { return covered_ == n_; }
  /// Round of the most recent visit (0 = initial placement);
  /// kWalkNotCovered if never visited.
  std::uint64_t last_visit_time(NodeId v) const { return last_visit_[v]; }

 private:
  NodeId n_;
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;
  std::vector<Rng> rngs_;                // one independent stream per walker
  std::vector<NodeId> pos_;
  std::vector<std::uint64_t> bits_;      // per-walker random bit buffer
  std::vector<std::uint8_t> bits_left_;  // remaining bits in the buffer
  std::vector<std::uint64_t> last_visit_;
};

/// Measured per-node revisit gap statistics for stationary-phase walks.
struct GapStats {
  double mean_gap = 0.0;     ///< average inter-visit gap (expected ~ n/k)
  double max_gap = 0.0;      ///< worst observed gap (high variance!)
  double var_gap = 0.0;      ///< variance of observed gaps
  std::uint64_t samples = 0;
};

/// Runs `warmup` rounds then measures inter-visit gaps over `window` rounds.
GapStats ring_walk_gap_stats(NodeId n, std::uint32_t k, std::uint64_t seed,
                             std::uint64_t warmup, std::uint64_t window);

}  // namespace rr::walk
