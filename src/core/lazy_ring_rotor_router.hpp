#pragma once

// Lazy domain-dynamics ring engine (paper Sec. 2.2, Definition 1, Fig. 1).
//
// Once the multi-agent rotor-router on the ring leaves its transient phase,
// the whole configuration collapses to O(k) structure: the pointer field is
// a handful of constant arcs (each agent's domain contributes one arc of
// pointers "behind" it and one "ahead", separated by the vertex-/edge-type
// borders of Fig. 1), every node hosts at most two agents, and the
// unexplored region is a union of at most k arcs. This engine exploits that
// collapse:
//
//   - During the transient prefix it simply *is* the dense RingRotorRouter
//     (exactness by construction). At doubling intervals it scans the
//     pointer field; once the field has O(k) maximal constant runs it
//     promotes itself to the lazy representation and drops the dense state.
//     Promotion also needs leaps that pay (leaps_pay()). Only wide rings
//     (wide(): k == 1 or n >= kWideLeapFactor * k^2) schedule checks. On a
//     crowded ring, whose agents meet every few rounds, the engine promotes
//     at construction if its agents start spread out (minimum gap
//     >= kSpreadGap) on a compact field, and is otherwise the dense engine
//     for its whole life: it schedules no checks and never scans its
//     pointer field.
//   - Post-promotion, a configuration is (pointer runs, occupied sites,
//     unvisited arcs) — O(k) words — and one synchronous round costs
//     O(k log k) regardless of n. Rounds replay the exact dense semantics
//     (ceil/floor port splitting, pointer advance by parity, arrival
//     merging), so delayed deployments and many-agents-per-node pile-ups
//     stay bit-exact; there is no "approximate" mode.
//   - run()/run_until_covered() fast-forward: between interaction events
//     each agent's motion is ballistic (it propagates along its pointer run
//     and reflects at the run border, per the Sec. 2.2 domain dynamics), so
//     the engine advances every agent through a window of W rounds in
//     O(k log k) total, where W is half the minimum inter-agent gap — the
//     horizon within which agents provably cannot influence one another.
//     Visit counts absorb whole sweeps through a range-add Fenwick tree and
//     first visits are assigned with their exact rounds, so observers stay
//     exact too.
//
// Equality with RingRotorRouter (and RotorRouter on graph::ring) at every
// round — config_hash, visits, first visits, coverage, under randomized
// delayed schedules — is enforced by tests/differential_test.cpp.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/fenwick.hpp"
#include "common/require.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/engine.hpp"

namespace rr::core {

class LazyRingRotorRouter final : public sim::Engine, public sim::StateIO {
 public:
  /// Same contract as RingRotorRouter: `agents` is the multiset of starting
  /// nodes, `pointers` the per-node initial pointer (empty = all clockwise).
  LazyRingRotorRouter(NodeId n, const std::vector<NodeId>& agents,
                      std::vector<std::uint8_t> pointers = {});

  void step() override {
    step_delayed([](NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// One delayed round; `delay(v, t, present)` -> agents held at v (Sec 2.1).
  /// Schedules must be pure functions of their arguments: engines may
  /// evaluate them in any per-round node order.
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    if (dense_) {
      maybe_promote();
      if (dense_) {
        dense_->step_delayed(std::forward<DelayFn>(delay));
        return;
      }
    }
    lazy_round(std::forward<DelayFn>(delay));
  }

  /// O(k) amortized per round in the post-transient regime: ballistic
  /// fast-forward between interaction events.
  void run(std::uint64_t rounds) override;

  /// Fast-forwarded like run(); lands exactly on the cover round (leaps
  /// that would overshoot coverage are clamped to the final first-visit).
  std::uint64_t run_until_covered(std::uint64_t max_rounds) override;

  std::uint64_t time() const override {
    return dense_ ? dense_->time() : time_;
  }
  NodeId num_nodes() const override { return n_; }
  std::uint32_t num_agents() const override { return k_; }

  std::uint64_t visits(NodeId v) const override;
  std::uint64_t first_visit_time(NodeId v) const override;
  NodeId covered_count() const override {
    return dense_ ? dense_->covered_count() : covered_;
  }
  std::uint64_t config_hash() const override;
  const char* engine_name() const override { return "lazy-ring-rotor-router"; }

  std::uint32_t agents_at(NodeId v) const;
  std::uint8_t pointer(NodeId v) const;

  /// True once the engine runs on the O(k) representation.
  bool lazy() const { return dense_ == nullptr; }

  /// Attempts the dense -> lazy switch now. Without `force` it promotes
  /// only if leaps pay and the pointer field has collapsed to O(k) runs
  /// (the post-transient signature); with `force` it always promotes (the
  /// lazy representation is exact at any configuration, just not compact).
  bool try_promote(bool force = false);

  /// Break-even of the sparse representation. A sparse round or leap
  /// costs map surgery plus a sort and merge per agent, about ten dense
  /// rounds at k = 32, so promotion pays only when leaps are long. A leap
  /// is at most half the minimum gap between agents, and after cover
  /// (random placement and pointers) its mean tracks n / k^2: 1.3, 6.0,
  /// 11, 63, 54, 534 rounds at n / k^2 = 1, 4, 16, 64, 256, 1024. In
  /// bench_lazy_ring's crowded post-cover rows a forced promotion runs at
  /// 0.1x, 0.4x, 1.1-1.6x and 3.6-4.3x the dense engine's rounds/s at
  /// n / k^2 = 1, 4, 16, 64: it stops losing at 16.
  static constexpr std::uint64_t kWideLeapFactor = 16;

  /// Equally spaced agents keep their spacing, so their leaps stay long
  /// on crowded rings too. Post cover, a forced promotion runs at about
  /// 1.0x the dense engine with gap n / k = 32, 1.7-3.0x with gap 64 and
  /// 4.2-6.1x with gap 128 (k = 8 to 64, n / k^2 down to 1; bench_lazy_ring
  /// spaced rows and a wider sweep of spaced starts): a start this spread
  /// pays.
  static constexpr std::uint64_t kSpreadGap = 64;

  /// True if leaps stay long whatever the configuration: a single agent,
  /// or n >= kWideLeapFactor * k^2. Only wide engines schedule promotion
  /// checks, so a crowded engine's serialized schedule never changes.
  bool wide() const {
    return k_ <= 1 || n_ / kWideLeapFactor >=
                          static_cast<std::uint64_t>(k_) * k_;
  }

  /// True if promotion pays now: wide(), or the agents sit on distinct
  /// nodes at least kSpreadGap apart (true once promoted). O(k log k).
  bool leaps_pay() const;

  /// Maximal constant runs of the pointer field (the promotion criterion;
  /// a run wrapping past node 0 counts as two).
  std::uint32_t pointer_arc_count() const;

  /// Phase-tagged state: `phase=dense` delegates to the inner dense engine
  /// (plus the promotion schedule), `phase=lazy` stores the promoted O(k)
  /// representation (pointer runs, sites) with dense visit statistics. A
  /// load flips the fresh instance into whichever phase the checkpoint
  /// holds — including demoting a lazily-constructed instance back to the
  /// dense engine when the checkpoint predates promotion.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

 private:
  struct Site {
    NodeId node;
    std::uint32_t count;
  };

  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }

  void maybe_promote();
  /// Dense rounds up to `rounds` that stop at the next promotion check
  /// and auto-checkpoint mark; at least one, so an overdue mark fires
  /// after a round as on the sparse path. Call after maybe_promote().
  std::uint64_t dense_chunk(std::uint64_t rounds) const;

  template <typename DelayFn>
  void lazy_round(DelayFn&& delay) {
    ++time_;
    const std::size_t sites_before = sites_.size();
    for (std::size_t i = 0; i < sites_before; ++i) {
      const std::uint32_t present = sites_[i].count;
      std::uint32_t held = delay(sites_[i].node, time_, present);
      if (held > present) held = present;
      const std::uint32_t moving = present - held;
      if (moving == 0) continue;
      depart_lazy(i, moving, held);
    }
    commit_lazy_round();
  }

  void depart_lazy(std::size_t site_idx, std::uint32_t moving,
                   std::uint32_t held);
  void commit_lazy_round();

  // ---- ballistic fast-forward ----

  /// Leaping requires every site to host exactly one agent (Definition 1's
  /// regime); with k sites and k agents that is sites_.size() == k_.
  bool leap_eligible() const { return sites_.size() == k_; }
  /// Rounds within which no two agents can interact: half the minimum
  /// cyclic gap between occupied sites (unbounded for a single agent).
  std::uint64_t safe_window() const;
  /// Min over agents of rounds until the agent reaches the end of its
  /// current pointer run (its reflection border).
  std::uint64_t min_segment() const;
  /// Advances every agent exactly `rounds` rounds (caller guarantees
  /// rounds <= safe_window()); piecewise-ballistic per agent.
  void leap_window(std::uint64_t rounds);
  /// Dry run of a single-segment leap of `rounds` (<= min_segment()):
  /// returns the exact cover round if the leap would complete coverage,
  /// 0 otherwise.
  std::uint64_t linear_cover_round(std::uint64_t rounds) const;

  struct CoverScan {
    std::uint64_t newly = 0;
    std::uint64_t last_round = 0;
  };
  /// Tallies the unvisited nodes among arrivals [a, b] (linear, no wrap) of
  /// a sweep from `origin` travelling `dir` whose first arrival lands at
  /// round t0 + 1; does not mutate (dry run).
  CoverScan scan_unvisited(NodeId a, NodeId b, NodeId origin, std::uint8_t dir,
                           std::uint64_t t0) const;
  /// Assigns exact first-visit rounds for the same arrivals and removes
  /// them from the unvisited arcs.
  void apply_cover(NodeId a, NodeId b, NodeId origin, std::uint8_t dir,
                   std::uint64_t t0);
  /// Fenwick + coverage updates for the `adv` arrivals of a sweep from
  /// `origin` travelling `dir`, starting at round t0 + 1.
  void sweep_visits(NodeId origin, std::uint8_t dir, std::uint64_t adv,
                    std::uint64_t t0);

  // ---- pointer-run map ----
  // runs_ maps run start -> pointer value; runs partition [0, n) and never
  // wrap (node 0 always starts a run, possibly equal-valued with the last).

  std::uint8_t run_value(NodeId v) const;
  /// Propagation budget from v (inclusive) in the direction of v's pointer
  /// value (written to *dir_out if non-null), truncated at the containing
  /// run's border (and at the artificial node-0 split, which only shortens
  /// leaps, never changes semantics).
  std::uint64_t segment_from(NodeId v, std::uint8_t* dir_out) const;
  /// Flips `len` nodes starting at v going `dir`; the caller guarantees the
  /// whole range lies inside v's run (so it never wraps).
  void flip_run_prefix(NodeId v, std::uint64_t len, std::uint8_t dir);
  void flip_range(NodeId lo, NodeId hi);

  /// Hop count of the arrival at u for a sweep leaving `origin` in `dir`;
  /// in [1, n] (a full-ring sweep ends back on the origin at distance n).
  std::uint64_t ring_dist(NodeId origin, NodeId u, std::uint8_t dir) const;

  void mark_visited(NodeId v, std::uint64_t round);
  /// Recomputes covered_ and the unvisited_ arc map from first_visit_
  /// (shared by promotion and checkpoint load).
  void rebuild_unvisited_from_first_visit();

  NodeId fwd(NodeId v, std::uint64_t d) const {
    return static_cast<NodeId>((v + d) % n_);
  }
  NodeId bwd(NodeId v, std::uint64_t d) const {
    return static_cast<NodeId>((v + n_ - d % n_) % n_);
  }

  NodeId n_;
  std::uint32_t k_;

  // Dense prefix: non-null until promotion.
  std::unique_ptr<RingRotorRouter> dense_;
  std::uint64_t next_promo_ = 0;
  std::uint64_t promo_interval_ = 64;

  // Lazy state (valid once dense_ == nullptr).
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;
  std::map<NodeId, std::uint8_t> runs_;
  std::vector<Site> sites_;      // sorted by node, counts > 0
  std::vector<Site> arrivals_;   // per-round scratch
  std::vector<Site> merged_;     // per-round scratch
  RangeAddFenwick visit_counts_;
  std::vector<std::uint64_t> first_visit_;
  std::map<NodeId, NodeId> unvisited_;  // arc start -> arc end (inclusive)
};

}  // namespace rr::core
