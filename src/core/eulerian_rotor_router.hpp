#pragma once

// Eulerian token-circulation engine (S1 extension, paper Secs. 1.2/2.1).
//
// The paper's framework builds on the Yanovski et al. substrate result:
// a single rotor-router agent locks into a traversal of a directed
// Eulerian circuit of the symmetric version of G within 2 D |E| rounds,
// after which the dynamics ARE token circulation — the agent is a token
// moving one arc per round along a fixed cyclic arc sequence. This engine
// is that picture made a first-class sim::Engine backend: a configuration
// is (circuit, token offsets), one synchronous round advances every
// unheld token one arc, and a round costs O(k) regardless of |E|.
//
// Two ways to obtain one:
//
//   - EulerianRotorRouter(g, agents): constructs a Hierholzer circuit
//     (graph/eulerian.hpp) and places one token per agent at the first
//     circuit position whose tail is the agent's start node. This is the
//     registry/CLI path: an exact token-circulation dynamics on any
//     connected substrate, covering within 2|E| rounds per token.
//
//   - eulerian_from_lock_in(g, start): runs a real single-agent
//     core::RotorRouter until the hardened cycle detector
//     (sim/cycle_jump.hpp) confirms its limit cycle, extracts the
//     locked-in circuit from the live rotor state, and returns a token
//     engine positioned exactly where the rotor agent stands. From that
//     point the two engines advance identically round for round — the
//     paper's Eulerian-lock-in claim as an executable invariant, gated in
//     tests/eulerian_engine_test.cpp across topologies.
//
// Delayed deployments (Sec. 2.1) hold D(v, t, present) of the tokens at v
// for the round (lowest-indexed stay, mirroring walk::GraphRandomWalks);
// a held token keeps its circuit offset, so lockstep with a delayed
// rotor-router is preserved. Visits count token landings plus initial
// placement (n_v(0) convention shared by every backend).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/require.hpp"
#include "graph/csr_graph.hpp"
#include "graph/eulerian.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"

namespace rr::core {

class RotorRouter;

class EulerianRotorRouter final : public sim::Engine,
                                  public sim::StateIO,
                                  public sim::CycleLeapable {
 public:
  /// Hierholzer circuit from `agents[0]`; one token per agent, placed at
  /// successive circuit offsets tailed at that agent's start node (a
  /// degree-d node has d such offsets), so co-located agents take
  /// distinct trajectories — the analogue of distinct exit ports.
  EulerianRotorRouter(graph::CsrGraph g,
                      const std::vector<graph::NodeId>& agents);

  /// Token circulation on an explicit circuit (must be a directed
  /// Eulerian circuit of `g`); `token_offsets` are circuit positions in
  /// [0, circuit.size()).
  EulerianRotorRouter(graph::CsrGraph g, std::vector<graph::Arc> circuit,
                      std::vector<std::uint64_t> token_offsets);

  void step() override {
    step_delayed(
        [](graph::NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// One delayed round; `delay(v, t, present)` -> tokens held at v.
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    ++time_;
    for (std::uint64_t o : tokens_) {
      const graph::NodeId v = node_at_[o];
      if (present_[v]++ == 0) touched_.push_back(v);
    }
    for (graph::NodeId v : touched_) {
      std::uint32_t held = delay(v, time_, present_[v]);
      if (held > present_[v]) held = present_[v];
      hold_left_[v] = held;
    }
    const std::uint64_t circuit_len = node_at_.size();
    for (std::uint64_t& o : tokens_) {
      const graph::NodeId v = node_at_[o];
      if (hold_left_[v] > 0) {
        --hold_left_[v];  // held tokens stay and do not revisit (Lemma 1)
        continue;
      }
      o = (o + 1 == circuit_len) ? 0 : o + 1;
      arrive(node_at_[o]);
    }
    for (graph::NodeId v : touched_) {
      present_[v] = 0;
      hold_left_[v] = 0;
    }
    touched_.clear();
  }

  std::uint64_t time() const override { return time_; }
  graph::NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint32_t num_agents() const override {
    return static_cast<std::uint32_t>(tokens_.size());
  }

  std::uint64_t visits(graph::NodeId v) const override { return visits_[v]; }
  std::uint64_t first_visit_time(graph::NodeId v) const override {
    return first_visit_[v];
  }
  graph::NodeId covered_count() const override { return covered_; }

  /// The fixed circuit (2|E| arcs) and the live token offsets into it.
  const std::vector<graph::Arc>& circuit() const { return circuit_; }
  std::uint64_t token_offset(std::uint32_t token) const {
    return tokens_[token];
  }
  /// Node currently hosting `token` (== circuit()[offset].tail).
  graph::NodeId token_node(std::uint32_t token) const {
    return node_at_[tokens_[token]];
  }
  /// Sorted multiset of token positions (for tests / cross-engine gates).
  std::vector<graph::NodeId> agent_positions() const;

  /// FNV-1a over the sorted token-offset multiset (plus the circuit
  /// length): the configuration is periodic in the offsets with period
  /// dividing 2|E|, which the hardened detector (sim/cycle_jump.hpp)
  /// recovers exactly.
  std::uint64_t config_hash() const override;

  const char* engine_name() const override { return "eulerian-circulation"; }

  /// Full dynamical state: the circuit (start node + port sequence, the
  /// tails re-chained on load), token offsets, and visit statistics.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

  /// Confirmed-cycle fast leap (sim::CycleLeapable): the circulation's
  /// accumulators are time and the per-node visit counts; tokens and the
  /// circuit are bit-identical across a period and stay untouched.
  [[nodiscard]] bool apply_cycle_leap(
      const std::vector<sim::AccumulatorDelta>& deltas,
      std::uint64_t cycles) override;

 private:
  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }
  void arrive(graph::NodeId u);
  /// Rebuilds node_at_ / arc bookkeeping from circuit_; false if circuit_
  /// is not a directed Eulerian circuit of the engine's graph.
  bool index_circuit();
  void reset_visits_from_tokens();

  graph::CsrGraph csr_;
  std::uint64_t time_ = 0;
  graph::NodeId covered_ = 0;

  std::vector<graph::Arc> circuit_;     // fixed Eulerian circuit, 2|E| arcs
  std::vector<graph::NodeId> node_at_;  // circuit_[i].tail (hot stepping array)
  std::vector<std::uint64_t> tokens_;   // circuit offsets, one per agent

  // Per-round delay scratch (touched-list so a round stays O(k)).
  std::vector<std::uint32_t> present_;
  std::vector<std::uint32_t> hold_left_;
  std::vector<graph::NodeId> touched_;

  std::vector<std::uint64_t> visits_;
  std::vector<std::uint64_t> first_visit_;
};

/// Result of extracting the token-circulation picture from a live rotor
/// walk (see eulerian_from_lock_in).
struct EulerianLockIn {
  bool locked_in = false;
  /// Absolute rotor round at which the Brent detector confirmed the limit
  /// cycle (the rotor is provably inside its Eulerian traversal here).
  std::uint64_t detected_at = 0;
  /// Detected period; equals 2|E| for a single locked-in agent.
  std::uint64_t period = 0;
  /// The rotor engine, advanced to `detected_at` + 2|E| (one extraction
  /// lap; by periodicity its configuration equals the one at detection).
  std::unique_ptr<RotorRouter> rotor;
  /// Token engine on the extracted circuit, its token standing exactly on
  /// the rotor agent's node; stepping both keeps them in lockstep.
  std::unique_ptr<EulerianRotorRouter> engine;
};

/// Runs a single-agent rotor-router from `start`, detects its limit cycle
/// with the generic Brent detector, extracts the locked-in Eulerian
/// circuit from the live state, and returns the aligned token engine.
/// `max_steps` 0 picks the 2 D |E| lock-in bound with slack. locked_in is
/// false if no cycle was confirmed within the cap (or the extracted lap
/// failed Eulerian verification — impossible short of a hash collision).
EulerianLockIn eulerian_from_lock_in(const graph::CsrGraph& g,
                                     graph::NodeId start,
                                     std::vector<std::uint32_t> pointers = {},
                                     std::uint64_t max_steps = 0);

struct LockInResult {
  bool locked_in = false;
  std::uint64_t lock_in_time = 0;  ///< first round of a fully-Eulerian window
  std::uint64_t steps_simulated = 0;
};

/// Steps a one-agent `rotor` until rounds [t0, t0 + 2|E|) traverse every
/// arc exactly once: the agent has locked into its Eulerian circuit
/// (Yanovski et al.: within 2 D |E| rounds). Each round's arc is read as
/// (position, pointer(position)) before the step, so the rotor rule stays
/// RotorRouter's own. `max_steps` 0 = 4 n |E| + 8 |E| + 64 (n bounds D).
LockInResult single_agent_lock_in(RotorRouter& rotor,
                                  std::uint64_t max_steps = 0);

}  // namespace rr::core
