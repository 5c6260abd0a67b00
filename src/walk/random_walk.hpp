#pragma once

// k parallel random walks on a general graph (S9).
//
// Used for cross-topology comparisons (exploration race example, Yanovski
// baseline) and for validating the ring-specialized engine against the
// generic one on graph::ring(n). Implements sim::Engine, so batched
// runners and polymorphic drivers treat it exactly like the deterministic
// rotor-routers; the walkers step on a copy of the CsrGraph, so each
// walker step is a flat-array load.
//
// Delayed deployments (`step_delayed`) hold D(v,t) of the walkers present
// at v for the round, mirroring the rotor-router semantics (which walkers
// are held is arbitrary — they are exchangeable — but deterministic: the
// lowest-indexed walkers at v stay).

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/csr_graph.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"

namespace rr::walk {

inline constexpr std::uint64_t kGraphWalkNotCovered = sim::kNotCovered;

class GraphRandomWalks final : public sim::Engine, public sim::StateIO {
 public:
  GraphRandomWalks(const graph::CsrGraph& g,
                   std::vector<graph::NodeId> starts, std::uint64_t seed);

  void step() override;

  /// One delayed round; `delay(v, t, present)` -> walkers held at v.
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    ++time_;
    // Count walkers per node (touched-list so the pass is O(k)).
    for (graph::NodeId p : pos_) {
      if (present_[p]++ == 0) touched_.push_back(p);
    }
    for (graph::NodeId v : touched_) {
      std::uint32_t held = delay(v, time_, present_[v]);
      if (held > present_[v]) held = present_[v];
      hold_left_[v] = held;
    }
    for (auto& p : pos_) {
      if (hold_left_[p] > 0) {
        --hold_left_[p];  // held walkers stay and do not revisit (Lemma 1)
        continue;
      }
      move_walker(p);
    }
    for (graph::NodeId v : touched_) {
      present_[v] = 0;
      hold_left_[v] = 0;
    }
    touched_.clear();
  }

  const graph::CsrGraph& graph() const { return csr_; }
  std::uint32_t num_walkers() const {
    return static_cast<std::uint32_t>(pos_.size());
  }
  std::uint32_t num_agents() const override { return num_walkers(); }
  graph::NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint64_t time() const override { return time_; }
  graph::NodeId position(std::uint32_t walker) const { return pos_[walker]; }

  bool visited(graph::NodeId v) const {
    return first_visit_[v] != kGraphWalkNotCovered;
  }
  graph::NodeId covered_count() const override { return covered_; }

  std::uint64_t visits(graph::NodeId v) const override { return visits_[v]; }
  std::uint64_t first_visit_time(graph::NodeId v) const override {
    return first_visit_[v];
  }

  /// FNV-1a hash of the walker positions (walkers are distinguishable).
  std::uint64_t config_hash() const override;

  const char* engine_name() const override { return "random-walks"; }

  /// Full dynamical state including the xoshiro256** stream words, so a
  /// resumed stochastic run draws the identical future randomness.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

 private:
  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }

  void move_walker(graph::NodeId& p) {
    const std::uint32_t deg = csr_.degree_unchecked(p);
    RR_ASSERT(deg > 0, "walker stranded on isolated node");
    p = csr_.row(p)[deg == 1 ? 0 : rng_.bounded(deg)];
    record_visit(p);
  }

  void record_visit(graph::NodeId p) {
    ++visits_[p];
    if (first_visit_[p] == kGraphWalkNotCovered) {
      first_visit_[p] = time_;
      ++covered_;
    }
  }

  graph::CsrGraph csr_;
  std::uint64_t time_ = 0;
  graph::NodeId covered_ = 0;
  Rng rng_;
  std::vector<graph::NodeId> pos_;
  std::vector<std::uint64_t> visits_;
  std::vector<std::uint64_t> first_visit_;
  // Scratch for step_delayed (zeroed via the touched list after each round).
  std::vector<std::uint32_t> present_;
  std::vector<std::uint32_t> hold_left_;
  std::vector<graph::NodeId> touched_;
};

/// Mean cover time over `trials` independent runs (the expectation the
/// paper's Table 1 refers to), with the sample standard deviation.
struct CoverEstimate {
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< half-width of the 95% confidence interval
  std::uint64_t trials = 0;
};

CoverEstimate estimate_walk_cover_time(const graph::CsrGraph& g,
                                       const std::vector<graph::NodeId>& starts,
                                       std::uint64_t trials,
                                       std::uint64_t seed,
                                       std::uint64_t max_rounds);

}  // namespace rr::walk
