#pragma once

// The explicit delayed deployment from the proof of Theorem 1 (S5/S12).
//
// Thm 1 proves the Theta(n^2/log k) worst-case cover time by exhibiting a
// delayed deployment D of the all-on-one initialization on the path whose
// fully-active rounds (Phase B1) dominate its total duration; Lemma 3 (the
// slow-down lemma) then sandwiches the undelayed cover time between the two.
// The deployment cycles through *desirable configurations* of length S:
// agent i parked at position round(p_i * S), all pointers aimed left, where
// p_i = a_i + ... + a_k for the Lemma 13 sequence {a_i}.
//
//   Phase A : starting from k agents at node 0 (pointers all leftward),
//             release agents one at a time; agent i zig-zags out to its
//             target p_i * S_0 and is parked there.
//   Phase B : repeat until covered —
//     B1: release all agents simultaneously for ceil(2 k^4 a_k S_j) rounds;
//     B2: re-park agents one at a time at the positions of the next
//         desirable configuration of length S_{j+1}.
//
// This module *executes* that schedule with the general engine on
// graph::path(n) and reports the per-phase accounting, letting tests and
// benches check the proof's two claims empirically: (i) the deployment
// covers, (ii) B1 >= constant fraction of the total, so by Lemma 3 the
// undelayed cover time is Theta(total).

#include <cstdint>
#include <vector>

#include "analysis/sequence.hpp"
#include "core/rotor_router.hpp"

namespace rr::core {

struct Theorem1Result {
  bool covered = false;
  std::uint64_t phase_a_rounds = 0;
  std::uint64_t phase_b1_rounds = 0;  ///< fully-active rounds (tau of Lemma 3)
  std::uint64_t phase_b2_rounds = 0;
  std::uint64_t total_rounds = 0;     ///< T of Lemma 3
  std::uint32_t phase_b_steps = 0;    ///< number of B1+B2 iterations
  /// Length of the desirable configuration when coverage happened.
  std::uint64_t final_length = 0;
};

class Theorem1Deployment {
 public:
  /// Deployment of `k` agents on the `n`-node path (nodes 0..n-1, agents
  /// start at node 0, pointers leftward: the Thm 1 path reduction of the
  /// ring instance). Requires k > 3 (Lemma 13) and k << n.
  Theorem1Deployment(graph::NodeId n, std::uint32_t k);

  /// Executes the full schedule; stops as soon as the path is covered or
  /// `max_rounds` elapse.
  Theorem1Result run(std::uint64_t max_rounds = 0);

  /// Position agent i (1-based, i=1 farthest) holds in a desirable
  /// configuration of length S.
  graph::NodeId target_position(std::uint32_t i, double S) const;

  const analysis::Lemma13Sequence& sequence() const { return seq_; }
  double initial_length() const { return s0_; }
  double length_increment() const { return delta_s_; }

 private:
  // Moves one agent (currently at `from`) until it first stands on
  // `target`, holding everyone else; returns rounds used (or UINT64_MAX on
  // cap). Updates the engine in place.
  std::uint64_t park_agent(RotorRouter& engine, graph::NodeId from,
                           graph::NodeId target, std::uint64_t cap);

  graph::NodeId n_;
  std::uint32_t k_;
  analysis::Lemma13Sequence seq_;
  graph::CsrGraph path_;
  std::vector<std::uint32_t> left_pointers_;
  double s0_ = 0.0;       ///< S_0 = n / sqrt(k log k)
  double delta_s_ = 0.0;  ///< S_{j+1} - S_j = ceil(k^4 a_1 a_k) + 12k
};

}  // namespace rr::core
