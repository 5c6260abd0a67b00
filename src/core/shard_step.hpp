#pragma once

// The rotor-router round kernel (core layer).
//
// The paper's Sec. 1.3 round — move the non-held agents out along
// consecutive ports from the rotor pointer, advance the pointer, commit
// arrivals — is written exactly once, here, as core::RotorShard. Three
// callers drive it:
//
//  * core::RotorRouter with one shard: the sequential engine. The scan
//    runs with SingleShard = true, so no arc is ever classified.
//  * core::RotorRouter with N shards: every shard scans its own rows on
//    a pool, parking out-of-shard arrivals in its spill buffer; the
//    merge phase commits them into the owning shard.
//  * dist::WorkerNode: one shard per process; the out-of-shard sink
//    flushes the spill buffer over a socket instead.
//
// The differential gates (sharded and dist lockstep against one shard)
// therefore pin the one kernel every stepper runs. Supporting pieces:
//
//  * distribute_exits — the vectorized exit loop. c agents leaving a
//    degree-d node sweep the ports cyclically, so every port receives
//    floor(c/d) agents plus one for the first (c mod d) ports after the
//    pointer. Emitting floor(c/d) per port directly turns a k-agent
//    pile-up (paper Sec. 2, all-on-one deployments) from O(k) arrival
//    increments into O(d), and the remainder loop is the seed engine's
//    loop unchanged — so sparse traffic pays one extra compare.
//
//  * VisitStats — the per-node visit bookkeeping (n_v, e_v, first/last
//    visit) packed into one 32-byte stride. An arrival commit used to
//    touch four parallel uint64 arrays (four cache lines per node); now
//    it touches one.
//
//  * prefetch_ro — gather hints for the occupied-node scan; the round is
//    memory-latency-bound on scattered node state, so overlapping the
//    misses is worth more than any arithmetic tuning.

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "graph/partition.hpp"
#include "sim/engine.hpp"

namespace rr::core {

/// Per-node visit statistics in one stride. `first_visit` uses
/// sim::kNotCovered as the "never" sentinel, matching the engine API.
struct VisitStats {
  std::uint64_t visits = 0;       ///< n_v(t), incl. initial placement
  std::uint64_t exits = 0;        ///< e_v(t)
  std::uint64_t first_visit = sim::kNotCovered;
  std::uint64_t last_visit = 0;
};

/// Read-prefetch `addr` into cache; a hint, never required for
/// correctness.
inline void prefetch_ro(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 1);
#else
  (void)addr;
#endif
}

/// Moves `moving` agents out of a node with port row `row`, degree `deg`
/// and rotor pointer `ptr`: deposit(p, u, c) is called with the exit port,
/// the arrival target and a positive count, and the advanced pointer is
/// returned. The port lets shard-parallel callers classify the arrival in
/// O(1) via Partition::arc_slot. Full sweeps are batched (floor(moving/
/// deg) per port in port order 0..d, a reordering of the per-agent
/// sequence with identical totals); the remainder walks ports ptr,
/// ptr+1, ... as in the paper's Sec. 1.3 rule.
template <typename Deposit>
inline std::uint32_t distribute_exits(const std::uint32_t* row,
                                      std::uint32_t deg, std::uint32_t ptr,
                                      std::uint32_t moving,
                                      Deposit&& deposit) {
  if (moving >= deg) {
    const std::uint32_t cycles = moving / deg;
    for (std::uint32_t p = 0; p < deg; ++p) deposit(p, row[p], cycles);
    moving -= cycles * deg;
  }
  for (std::uint32_t i = 0; i < moving; ++i) {
    deposit(ptr, row[ptr], 1);
    ptr = ptr + 1 == deg ? 0 : ptr + 1;
  }
  return ptr;
}

/// Applies a committed arrival of `a` agents to node `nu`/`st` at round
/// `time` — count, n_v, last-visit, first-visit — and reports whether the
/// node was newly covered (n_v counts arrivals, first visit at the commit
/// round). The caller handles occupied-list membership, checked *before*
/// the count update.
inline bool commit_node_arrival(graph::NodeState& nu, VisitStats& st,
                                std::uint64_t time, std::uint32_t a) {
  nu.count += a;
  st.visits += a;
  st.last_visit = time;
  if (st.first_visit == sim::kNotCovered) {
    st.first_visit = time;
    return true;
  }
  return false;
}

/// The per-node arrays a shard steps over. Views only: each caller keeps
/// its own storage (owned vectors, views into an mmap'd graph image, a
/// worker's full-size arrays), indexed by global node id.
struct RotorArrays {
  const graph::NodeId* arcs;  ///< CSR arc heads (CsrGraph::arcs)
  graph::NodeState* node;
  VisitStats* stats;
};

/// One shard's per-round lists and the round kernel over them. A shard
/// owns a set of rows (all of them, or one graph::Partition range): it
/// scans only its own occupied rows and commits only arrivals to its own
/// rows, so shards never write each other's node state. Padded to a cache
/// line so the per-round metadata writes (vector size bumps,
/// newly_covered) of neighboring shards never false-share.
struct alignas(64) RotorShard {
  std::vector<graph::NodeId> occupied;  ///< owned rows with count > 0
  std::vector<graph::NodeId> touched;   ///< owned rows with arrivals > 0
  /// Out-of-shard arrivals this round, per frontier slot of this shard.
  std::vector<std::uint32_t> spill;
  /// Touched spill slots bucketed by destination shard, so each
  /// destination drains exactly its own entries.
  std::vector<std::vector<std::uint32_t>> spill_touched;
  /// Nodes first visited by this shard's commits since last taken.
  graph::NodeId newly_covered = 0;

  /// Sizes the spill buffers for shard `me` of `part`.
  void attach(const graph::Partition& part, std::uint32_t me) {
    spill.assign(part.frontier(me).size(), 0);
    spill_touched.assign(part.num_shards(), {});
  }

  /// Drops every per-round entry (before repopulating `occupied` from a
  /// restored state); buffer sizes are kept.
  void reset() {
    occupied.clear();
    touched.clear();
    spill.assign(spill.size(), 0);
    for (auto& bucket : spill_touched) bucket.clear();
    newly_covered = 0;
  }

  /// Scan phase of round `time`: every occupied row moves its non-held
  /// agents out — `delay(v, time, present)` is D(v, t), clamped to
  /// `present` (paper Sec. 2.1). Arrivals to own rows accumulate in
  /// NodeState::arrivals; arrivals to other shards' rows (SingleShard
  /// false: `part` classifies each arc, `me` is this shard) accumulate in
  /// `spill`, after which `on_spill(dest)` is called with the destination
  /// shard — the out-of-shard sink, which may drain that bucket at once.
  template <bool SingleShard, typename DelayFn, typename OnSpill>
  void scan(const RotorArrays& a, const graph::Partition* part,
            std::uint32_t me, std::uint64_t time, DelayFn&& delay,
            OnSpill&& on_spill) {
    const std::size_t occupied_before = occupied.size();
    for (std::size_t idx = 0; idx < occupied_before; ++idx) {
      if (idx + 4 < occupied_before) prefetch_ro(&a.node[occupied[idx + 4]]);
      const graph::NodeId v = occupied[idx];
      graph::NodeState& ns = a.node[v];
      const std::uint32_t present = ns.count;
      if (present == 0) continue;  // stale entry; dropped at commit
      std::uint32_t held = delay(v, time, present);
      if (held > present) held = present;
      const std::uint32_t moving = present - held;
      if (moving == 0) continue;
      RR_ASSERT(ns.degree > 0, "agent stranded on isolated node");
      ns.pointer = distribute_exits(
          a.arcs + ns.row_begin, ns.degree, ns.pointer, moving,
          [&](std::uint32_t p, graph::NodeId u, std::uint32_t c) {
            // Arc classification is a precomputed table lookup
            // (Partition::arc_slot), so cross-shard arrivals cost the
            // same O(1) as in-shard ones.
            const std::uint32_t slot =
                SingleShard ? graph::Partition::kInShard
                            : part->arc_slot(ns.row_begin + p);
            if (slot == graph::Partition::kInShard) {
              deposit(a.node, u, c);
            } else {
              const std::uint32_t dest = part->frontier_owner(me, slot);
              if (spill[slot] == 0) spill_touched[dest].push_back(slot);
              spill[slot] += c;
              on_spill(dest);
            }
          });
      a.stats[v].exits += moving;
      ns.count = held;
    }
  }

  /// Accumulates `c` arrivals at own row `u` for this round's commit.
  void deposit(graph::NodeState* node, graph::NodeId u, std::uint32_t c) {
    graph::NodeState& nu = node[u];
    if (nu.arrivals == 0) touched.push_back(u);
    nu.arrivals += c;
  }

  /// Commit phase for the own-row arrivals of round `time`: drops rows
  /// vacated this round from `occupied` (it holds exactly the owned rows
  /// with agents, delayed deployments included), then commits the
  /// touched rows in deposit order.
  void commit(const RotorArrays& a, std::uint64_t time) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < occupied.size(); ++i) {
      if (a.node[occupied[i]].count > 0) occupied[w++] = occupied[i];
    }
    occupied.resize(w);
    const std::size_t touched_n = touched.size();
    for (std::size_t i = 0; i < touched_n; ++i) {
      if (i + 4 < touched_n) prefetch_ro(&a.stats[touched[i + 4]]);
      const graph::NodeId u = touched[i];
      const std::uint32_t c = a.node[u].arrivals;
      if (c == 0) continue;  // duplicate touch already committed
      a.node[u].arrivals = 0;
      commit_arrival(a, time, u, c);
    }
    touched.clear();
  }

  /// Commits `c` agents arriving at own row `u` in round `time`.
  void commit_arrival(const RotorArrays& a, std::uint64_t time,
                      graph::NodeId u, std::uint32_t c) {
    graph::NodeState& nu = a.node[u];
    if (nu.count == 0) occupied.push_back(u);
    if (commit_node_arrival(nu, a.stats[u], time, c)) ++newly_covered;
  }

  /// Hands every nonzero spill total bucketed for shard `dest` to
  /// `sink(node, count)` — `frontier` is this shard's frontier list — and
  /// empties the bucket. Only `dest`'s slots are zeroed, so destinations
  /// may drain one source concurrently.
  template <typename Sink>
  void drain_spill(std::uint32_t dest,
                   const std::vector<graph::NodeId>& frontier, Sink&& sink) {
    std::vector<std::uint32_t>& bucket = spill_touched[dest];
    for (const std::uint32_t slot : bucket) {
      const std::uint32_t c = spill[slot];
      if (c == 0) continue;
      spill[slot] = 0;  // a later deposit re-registers the slot
      sink(frontier[slot], c);
    }
    bucket.clear();
  }

  /// Returns and clears newly_covered.
  graph::NodeId take_newly_covered() {
    const graph::NodeId c = newly_covered;
    newly_covered = 0;
    return c;
  }
};

}  // namespace rr::core
