#pragma once

// Ring-specialized multi-agent rotor-router engine (S4).
//
// Semantically identical to RotorRouter on graph::ring(n) (property tests
// assert lockstep equality), but a round costs O(#occupied nodes) instead of
// touching graph adjacency, and the engine tracks the extra per-node state
// the paper's ring analysis needs:
//   - the travel direction of the last single arrival (to classify visits as
//     propagation vs reflection, Sec. 2.2),
//   - whether the last completed visit was a single-agent propagation (the
//     membership test of lazy domains, Definition 1).
//
// Layout: a step touches three per-node strides, not one array per field:
// RingNode (16 bytes: count, this round's arrivals and the Sec. 2.2
// classification state; all-zero when fresh), core::VisitStats (visits,
// exits, first/last visit; the general engine's stride) and the pointer
// bytes, moved in from the caller instead of copied into RingNode. A round
// keeps its arrival total plus the direction of the latest deposit, since
// travel direction only matters after a single arrival.
//
// Port convention: pointer 0 = clockwise (v -> v+1 mod n), pointer 1 =
// anticlockwise (v -> v-1 mod n). This matches graph::ring(n).

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/require.hpp"
#include "core/shard_step.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"

namespace rr::core {

using NodeId = std::uint32_t;

inline constexpr std::uint8_t kClockwise = 0;
inline constexpr std::uint8_t kAnticlockwise = 1;

inline constexpr std::uint64_t kRingNotCovered = sim::kNotCovered;

class RingRotorRouter final : public sim::Engine, public sim::StateIO {
 public:
  /// `agents`: multiset of starting nodes; `pointers`: per-node initial
  /// pointer (0 = clockwise, 1 = anticlockwise), empty means all clockwise.
  RingRotorRouter(NodeId n, const std::vector<NodeId>& agents,
                  std::vector<std::uint8_t> pointers = {});

  void step() override {
    step_delayed([](NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// One delayed round; `delay(v, t, present)` -> agents held at v (Sec 2.1).
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    ++time_;
    // Only a node's own departure changes its count before the commit, so
    // vacated nodes leave the occupied list as the scan passes them.
    const std::size_t occupied_before = occupied_.size();
    std::size_t kept = 0;
    for (std::size_t idx = 0; idx < occupied_before; ++idx) {
      const NodeId v = occupied_[idx];
      const std::uint32_t present = node_[v].count;
      std::uint32_t held = delay(v, time_, present);
      if (held > present) held = present;
      if (held < present) depart(v, present - held);
      node_[v].count = held;
      if (held > 0) occupied_[kept++] = v;
    }
    occupied_.resize(kept);
    commit_arrivals();
  }

  // The base loops, with step() and the clock devirtualized; out of line
  // so callers (the lazy engine's dense phase) keep their loops small.
  void run(std::uint64_t rounds) override;
  std::uint64_t run_until_covered(std::uint64_t max_rounds) override;

  NodeId num_nodes() const override { return n_; }
  std::uint64_t time() const override { return time_; }
  std::uint32_t num_agents() const override { return num_agents_; }

  std::uint32_t agents_at(NodeId v) const { return node_[v].count; }
  std::uint8_t pointer(NodeId v) const { return pointers_[v]; }
  const std::vector<NodeId>& occupied_nodes() const { return occupied_; }
  /// Equals the number of nodes hosting at least one agent.
  std::size_t occupied_count() const { return occupied_.size(); }

  std::uint64_t visits(NodeId v) const override { return stats_[v].visits; }
  std::uint64_t exits(NodeId v) const { return stats_[v].exits; }
  std::uint64_t first_visit_time(NodeId v) const override {
    return stats_[v].first_visit;
  }
  std::uint64_t last_visit_time(NodeId v) const { return stats_[v].last_visit; }
  bool visited(NodeId v) const {
    return first_visit_time(v) != kRingNotCovered;
  }

  NodeId covered_count() const override { return covered_; }

  /// True iff the last *completed* visit to v (arrival followed by
  /// departure) was by a single agent and was a propagation (Definition 1).
  bool last_visit_single_propagation(NodeId v) const {
    return node_[v].single_prop != 0;
  }

  std::vector<NodeId> agent_positions() const;
  std::uint64_t config_hash() const override;

  const char* engine_name() const override { return "ring-rotor-router"; }

  /// Full dynamical state, including the Sec. 2.2 visit-classification
  /// fields (travel direction, last arrival count, single-propagation
  /// flag) so domain analyses continue exactly after a resume.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

  NodeId clockwise(NodeId v) const { return v + 1 == n_ ? 0 : v + 1; }
  NodeId anticlockwise(NodeId v) const { return v == 0 ? n_ - 1 : v - 1; }

 private:
  /// Per-node state of the round kernel; all-zero is a fresh node.
  struct RingNode {
    std::uint32_t count;
    std::uint32_t arrivals;      ///< this round's
    std::uint32_t last_arrival;  ///< agents in the last arrival batch
    std::uint8_t arrival_dir;    ///< travel direction of the latest deposit
    std::uint8_t travel_dir;     ///< of the last single arrival
    std::uint8_t single_prop;    ///< see last_visit_single_propagation
  };
  static_assert(std::is_trivial_v<RingNode>);

  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }

  /// Sends `moving` agents out of v along alternating ports from its
  /// pointer: ceil(moving/2) the pointer's way, the rest the other way.
  void depart(NodeId v, std::uint32_t moving) {
    RingNode& nv = node_[v];
    const std::uint8_t ptr = pointers_[v];
    pointers_[v] = static_cast<std::uint8_t>((ptr + moving) & 1);
    stats_[v].exits += moving;
    if (moving == 1) {
      // Definition 1: the completed visit counts toward a lazy domain iff
      // one agent arrived alone and left in its travel direction.
      nv.single_prop = nv.last_arrival == 1 && ptr == nv.travel_dir;
      // v + 1 or v + n - 1, masked rather than branched on the pointer.
      const std::uint64_t u = v + 1 + ((0 - std::uint64_t{ptr}) & (n_ - 2));
      deposit(static_cast<NodeId>(u >= n_ ? u - n_ : u), ptr, 1);
      return;
    }
    nv.single_prop = 0;
    const std::uint32_t cw = ptr == kClockwise ? (moving + 1) / 2 : moving / 2;
    deposit(clockwise(v), kClockwise, cw);
    deposit(anticlockwise(v), kAnticlockwise, moving - cw);
  }

  void deposit(NodeId u, std::uint8_t travel_dir, std::uint32_t c) {
    RingNode& nu = node_[u];
    if (nu.arrivals == 0) touched_.push_back(u);
    nu.arrivals += c;
    nu.arrival_dir = travel_dir;
  }

  void commit_arrivals();

  NodeId n_;
  std::uint32_t num_agents_;
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;

  std::vector<RingNode> node_;
  std::vector<VisitStats> stats_;
  std::vector<std::uint8_t> pointers_;
  std::vector<NodeId> occupied_;  ///< nodes with count > 0
  std::vector<NodeId> touched_;   ///< nodes with arrivals this round
};

}  // namespace rr::core
