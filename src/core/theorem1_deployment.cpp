#include "core/theorem1_deployment.hpp"

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"

namespace rr::core {

using graph::NodeId;

namespace {

// Pointer value meaning "toward node 0" on graph::path(n): node 0 has only
// port 0 (toward 1); internal nodes have port 1 toward v-1; the right
// endpoint has only port 0 (toward n-2).
std::vector<std::uint32_t> leftward_pointers(const graph::CsrGraph& path) {
  std::vector<std::uint32_t> p(path.num_nodes(), 0);
  for (NodeId v = 1; v < path.num_nodes(); ++v) {
    p[v] = path.degree(v) - 1;  // internal: port 1 = left; right end: port 0
  }
  // Right endpoint: its single port already points left (to n-2).
  p[path.num_nodes() - 1] = 0;
  return p;
}

}  // namespace

Theorem1Deployment::Theorem1Deployment(NodeId n, std::uint32_t k)
    : n_(n),
      k_(k),
      seq_(analysis::compute_lemma13(k)),
      path_(graph::path(n)),
      left_pointers_(leftward_pointers(path_)) {
  RR_REQUIRE(k > 3, "Thm 1 construction needs k > 3 (Lemma 13)");
  RR_REQUIRE(n > 16 * k, "Thm 1 construction needs k << n");
  const double logk = std::log2(static_cast<double>(k));
  s0_ = static_cast<double>(n) / std::sqrt(static_cast<double>(k) * logk);
  const double k4 = std::pow(static_cast<double>(k), 4.0);
  delta_s_ = std::ceil(k4 * seq_.a[1] * seq_.a[k]) + 12.0 * k;
}

NodeId Theorem1Deployment::target_position(std::uint32_t i, double S) const {
  RR_REQUIRE(i >= 1 && i <= k_, "agent index out of range");
  const double p_i = seq_.p(i);
  const double raw = p_i * S;
  NodeId pos = static_cast<NodeId>(raw + 0.5);
  if (pos >= n_) pos = n_ - 1;
  if (pos == 0) pos = 1;
  return pos;
}

std::uint64_t Theorem1Deployment::park_agent(RotorRouter& engine, NodeId from,
                                             NodeId target,
                                             std::uint64_t cap) {
  NodeId pos = from;
  std::uint64_t rounds = 0;
  while (pos != target) {
    if (rounds >= cap) return ~std::uint64_t{0};
    // The single released agent moves like a 1-agent rotor-router over the
    // shared pointer state; everyone else is frozen. Predict its move from
    // the current pointer, then advance the engine one delayed round.
    const NodeId next = path_.neighbor(pos, engine.pointer(pos));
    engine.step_delayed([pos](NodeId v, std::uint64_t, std::uint32_t present) {
      return v == pos ? present - 1 : present;
    });
    pos = next;
    ++rounds;
  }
  return rounds;
}

Theorem1Result Theorem1Deployment::run(std::uint64_t max_rounds) {
  if (max_rounds == 0) {
    max_rounds = 64ULL * n_ * n_ + (1ULL << 22);
  }
  Theorem1Result result;

  std::vector<NodeId> starts(k_, 0);
  RotorRouter engine(path_, starts, left_pointers_);

  // --- Phase A: park agents 1..k at the S_0 desirable configuration. ---
  for (std::uint32_t i = 1; i <= k_; ++i) {
    const std::uint64_t used =
        park_agent(engine, 0, target_position(i, s0_), max_rounds);
    if (used == ~std::uint64_t{0}) return result;
    result.phase_a_rounds += used;
  }

  // --- Phase B: repeat desirable -> B1 -> B2 -> desirable. ---
  double S = s0_;
  while (!engine.all_covered()) {
    if (engine.time() >= max_rounds) return result;
    // B1: everyone active for ceil(2 k^4 a_k S) rounds. These are the
    // fully-active rounds counted by the slow-down lemma.
    const auto b1 = static_cast<std::uint64_t>(
        std::ceil(2.0 * std::pow(static_cast<double>(k_), 4.0) * seq_.a[k_] * S));
    for (std::uint64_t t = 0; t < b1 && !engine.all_covered(); ++t) {
      engine.step();
      ++result.phase_b1_rounds;
    }
    if (engine.all_covered()) break;

    // B2: re-park agents one at a time at the S_{j+1} configuration,
    // rightmost (agent 1) first. Agent i is the i-th rightmost.
    const double S_next = std::min(S + delta_s_, static_cast<double>(n_));
    auto positions = engine.agent_positions();  // ascending
    for (std::uint32_t i = 1; i <= k_; ++i) {
      positions = engine.agent_positions();
      const NodeId from = positions[k_ - i];  // i-th rightmost
      const NodeId target = target_position(i, S_next);
      const std::uint64_t used = park_agent(engine, from, target, max_rounds);
      if (used == ~std::uint64_t{0}) return result;
      result.phase_b2_rounds += used;
      if (engine.all_covered()) break;
    }
    S = S_next;
    ++result.phase_b_steps;
  }

  result.covered = engine.all_covered();
  result.total_rounds = engine.time();
  result.final_length = static_cast<std::uint64_t>(S);
  return result;
}

}  // namespace rr::core
