#pragma once

// General-graph multi-agent rotor-router engine (S3).
//
// Direct transliteration of the model in paper Sec. 1.3. A configuration is
// ((rho_v), (pi_v), {r_1..r_k}): rho_v is the cyclic port order (owned by the
// CsrGraph), pi_v the current port pointer, and the agents form a multiset of
// node positions. One synchronous round moves, at every node v hosting c
// agents, the c agents out along ports pi_v, pi_v+1, ..., pi_v+c-1 (mod
// deg v), then advances pi_v by c. Agents are indistinguishable, so the
// engine stores per-node counts rather than identities.
//
// The engine steps on a CsrGraph it owns (GraphDescriptor::build's
// result, moved in), so the stepping loops scan flat arrays.
// The per-node hot state lives in one packed graph::NodeState stride
// (count, pointer, degree) and the visit bookkeeping in one VisitStats
// stride — the round is memory-latency-bound on scattered nodes, so each
// agent exit gathers two cache lines instead of six parallel-array ones.
//
// The engine also maintains the bookkeeping used throughout the paper's
// analysis: n_v(t) (visits including the initial placement, Eq. (3)),
// e_v(t) (exits, Eq. (2)), first/last visit times and coverage.
//
// Delayed deployments (Sec. 2.1) are supported by `step_delayed`, which
// holds D(v,t) agents at v for the round.
//
// The round itself is core::RotorShard (core/shard_step.hpp). One shard
// (the default) is the sequential engine: no partition, no pool, no
// ownership test per arc. With `shards` > 1 the engine runs the same
// rounds shard-parallel over a graph::Partition of the CSR row space, as
// two phases on a pool:
//
//   scan:  every shard walks its own occupied rows, distributes the
//          exits, and writes arrivals either directly into the
//          destination's NodeState (in-shard) or into its per-shard spill
//          buffer indexed by the partition's frontier slots (out-of-
//          shard). All writes land in rows the shard owns or in its
//          private spill, so the phase is race-free by layout.
//
//   merge: every shard commits the arrivals for its own rows — first its
//          in-shard touched list, then the spill slots destined for it
//          from every source shard in ascending source order. The commit
//          order is therefore a pure function of the configuration, never
//          of thread scheduling.
//
// Bit-equality across shard counts holds by construction, not by
// tolerance: a round-t exit depends only on the (t-1)-state of its own
// node, arrivals are additive, and per-round bookkeeping (visits, first/
// last visit, coverage) depends only on per-node arrival *totals* — so
// any parallel schedule commits the exact configuration the sequential
// scan does, and config_hash matches round for round (enforced by the
// differential harness across shard counts, thread counts, and delayed
// schedules; see tests/sharded_rotor_test.cpp). The shard count is an
// execution detail, not dynamical state: checkpoints restore at any
// shard count (rr_cli run --resume ... --shards N). Delay schedules are
// evaluated shard-parallel; they must be pure functions of (node, round,
// present), which the differential harness already requires.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/no_init.hpp"
#include "common/require.hpp"
#include "core/shard_step.hpp"
#include "graph/csr_graph.hpp"
#include "graph/mmap_substrate.hpp"
#include "graph/partition.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"
#include "sim/thread_pool.hpp"

namespace rr::core {

using graph::CsrGraph;
using graph::NodeId;

inline constexpr std::uint64_t kNotCovered = sim::kNotCovered;

class RotorRouter final : public sim::Engine,
                          public sim::StateIO,
                          public sim::CycleLeapable {
 public:
  /// `agents`: multiset of starting nodes (k = agents.size()).
  /// `pointers`: initial pi_v per node; empty means all ports 0.
  /// The graph must be connected.
  /// `shards` > 1 steps shard-parallel (clamped to the node count). `pool`
  /// may be shared (e.g. sim::Runner::pool()) so trial- and shard-level
  /// parallelism draw from one set of threads; stepping from inside a
  /// pool job then runs the shards inline (ThreadPool nesting rule). With
  /// pool == nullptr a sharded engine owns a pool sized to
  /// min(shards, hardware).
  RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {},
              std::uint32_t shards = 1, sim::ThreadPool* pool = nullptr);

  /// Out-of-core construction over an opened `rr-graph v1` image: the CSR
  /// adjacency, NodeState and VisitStats arrays are views into the
  /// substrate's private mapping (degree/row_begin and the never-visited
  /// sentinel come precomputed from the image), so construction faults in
  /// O(agents) pages instead of touching every node. The mapping is
  /// MAP_PRIVATE: this engine's mutations never reach the image file, and
  /// each open() gives a fresh initial state. The substrate handle is
  /// retained via the views, so callers may drop their shared_ptr. Always
  /// one shard.
  RotorRouter(const std::shared_ptr<graph::MappedSubstrate>& substrate,
              const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {});

  /// One synchronous round with no delays.
  void step() override {
    step_delayed([](NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// One synchronous round of a delayed deployment: `delay(v, t, present)`
  /// returns D(v,t), the number of agents (clamped to `present`) held at v
  /// during round t. Holding agents never increases visit counts (Lemma 1).
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    pristine_ = false;
    ++time_;
    const RotorArrays a = arrays();
    const auto no_spill = [](std::uint32_t) {};
    if (!part_) {
      shards_[0].scan<true>(a, nullptr, 0, time_, delay, no_spill);
      shards_[0].commit(a, time_);
    } else {
      pool_->for_each(shards_.size(), [&](std::uint64_t s) {
        shards_[s].scan<false>(a, &*part_, static_cast<std::uint32_t>(s),
                               time_, delay, no_spill);
      }, /*chunk=*/1);
      pool_->for_each(shards_.size(), [&](std::uint64_t d) {
        merge_shard(static_cast<std::uint32_t>(d));
      }, /*chunk=*/1);
    }
    for (RotorShard& sh : shards_) covered_ += sh.take_newly_covered();
  }

  std::uint64_t time() const override { return time_; }
  const CsrGraph& graph() const { return csr_; }
  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint32_t num_agents() const override { return num_agents_; }

  std::uint32_t agents_at(NodeId v) const { return node_[v].count; }
  std::uint32_t pointer(NodeId v) const { return node_[v].pointer; }
  /// Nodes hosting agents, in commit order; single-shard engines only
  /// (a sharded engine keeps one list per shard).
  const std::vector<NodeId>& occupied_nodes() const {
    RR_REQUIRE(shards_.size() == 1, "occupied_nodes() needs one shard");
    return shards_[0].occupied;
  }
  /// Number of occupied-list entries; the commit keeps this equal to the
  /// number of nodes hosting at least one agent (no stale growth).
  std::size_t occupied_count() const;

  /// n_v(t): total visits to v in rounds [1,t] plus agents placed at v
  /// initially (paper's n_v(0) convention).
  std::uint64_t visits(NodeId v) const override { return stats_[v].visits; }
  /// e_v(t): total exits from v in rounds [1,t].
  std::uint64_t exits(NodeId v) const { return stats_[v].exits; }

  /// Total traversals of the arc (v, neighbor(v, port)) so far, via the
  /// paper's Sec. 1.3 identity: ceil((e_v - label) / deg v), where the
  /// label of a port is its offset from the *initial* pointer at v. Exact
  /// at every round boundary; used for Yanovski-style edge-fairness
  /// measurements without per-arc counters.
  std::uint64_t arc_traversals(NodeId v, std::uint32_t port) const {
    RR_REQUIRE(v < node_.size(), "node out of range");
    const std::uint32_t deg = csr_.degree(v);
    RR_REQUIRE(port < deg, "port out of range");
    const std::uint32_t label = (port + deg - initial_pointers_[v]) % deg;
    const std::uint64_t e = stats_[v].exits;
    return e > label ? (e - label + deg - 1) / deg : 0;
  }

  /// Round of the first visit (0 for initial hosts), kNotCovered if none.
  std::uint64_t first_visit_time(NodeId v) const override {
    return stats_[v].first_visit;
  }
  std::uint64_t last_visit_time(NodeId v) const { return stats_[v].last_visit; }

  NodeId covered_count() const override { return covered_; }

  /// Sorted multiset of agent positions (for tests / hashing).
  std::vector<NodeId> agent_positions() const;

  /// FNV-1a hash of (pointers, agent counts): identifies a configuration.
  std::uint64_t config_hash() const override;

  const char* engine_name() const override { return "rotor-router"; }

  /// Full dynamical state: time, pointer field (current and initial, the
  /// latter backing arc_traversals), sparse agent counts, visit/exit
  /// statistics. A deserialized engine continues bit-exactly. The agent
  /// sites come from the shards' own rows: a sharded engine compacts each
  /// partition range on its pool, sized by that shard's occupied list
  /// (collect_rotor_sites); one shard scans [0, n) inline.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

  /// Pool-parallel restore: v2 documents deserialize their per-node
  /// segments on `pool` when the segment layouts line up (see
  /// deserialize_rotor_state); bit-identical result to the sequential
  /// form. nullptr (and the virtual overload) use the engine's own
  /// stepping pool — none for one shard.
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in,
                                       sim::ThreadPool* pool);

  /// Confirmed-cycle fast leap (sim::CycleLeapable): time and the stats
  /// counters advance by per-cycle deltas, node state untouched.
  [[nodiscard]] bool apply_cycle_leap(
      const std::vector<sim::AccumulatorDelta>& deltas,
      std::uint64_t cycles) override;

 private:
  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }
  RotorArrays arrays() { return {csr_.arcs(), node_.data(), stats_.data()}; }
  std::uint32_t owner(NodeId v) const { return part_ ? part_->owner(v) : 0; }
  /// Merge phase of shard d: own touched list, then every source shard's
  /// spill bucket for d in ascending source order.
  void merge_shard(std::uint32_t d);

  CsrGraph csr_;
  std::optional<graph::Partition> part_;  // empty: one shard, sequential
  std::uint32_t num_agents_;
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;
  /// True while the per-node arrays still hold construction defaults
  /// everywhere except the agent sites (constructed without a pointer
  /// override, never stepped or restored). Lets deserialize_state skip
  /// rewriting default-valued spans, so resuming into a freshly opened
  /// substrate image dirties only the pages that differ from the image.
  bool pristine_ = false;

  // Owned vectors for in-RAM construction, views into the image mapping
  // for substrate construction — same indexing either way.
  graph::MappedArray<graph::NodeState> node_;  // packed per-node hot state
  NoInitVector<std::uint32_t> initial_pointers_;
  graph::MappedArray<VisitStats> stats_;  // packed visits/exits/first/last
  std::vector<RotorShard> shards_;        // one per partition shard

  std::unique_ptr<sim::ThreadPool> owned_pool_;  // when none was shared
  sim::ThreadPool* pool_ = nullptr;              // set iff part_
};

}  // namespace rr::core
