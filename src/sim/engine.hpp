#pragma once

// Unified simulation-engine interface (sim layer).
//
// The repository's engines — the general-graph rotor-router
// (core::RotorRouter, CSR-backed, sequential or shard-parallel), the
// distributed stepper (core::DistributedRotorRouter), the
// ring-specialized rotor-routers
// (core::RingRotorRouter, core::LazyRingRotorRouter) and k parallel
// random walks (walk::GraphRandomWalks) — share the synchronous-round model of the
// paper: a configuration evolves one round at a time, visits accumulate,
// coverage is monotone. `sim::Engine` captures that contract once so that
// drivers — batched runners, delayed deployments, limit-cycle detection,
// CLI/bench plumbing — are written against the interface instead of
// per-engine.
//
// Concrete engines are marked `final`: calls through a concrete type
// devirtualize, so the interface costs nothing on hot stepping loops.
// Delayed deployments keep a fast path too: every engine exposes a
// *template* step_delayed for inlineable delay functors; the virtual
// `step_delayed(const DelayFn&)` here is the type-erased version for
// polymorphic drivers.

#include <cstdint>
#include <functional>

namespace rr::sim {

using NodeId = std::uint32_t;

/// Sentinel for "coverage not reached within the round cap". All engine
/// layers share this value (core::kNotCovered etc. alias it).
inline constexpr std::uint64_t kNotCovered = ~std::uint64_t{0};

/// Delayed deployment (paper Sec. 2.1): D(v, t, present) -> number of the
/// `present` agents held at node v during round t.
using DelayFn =
    std::function<std::uint32_t(NodeId, std::uint64_t, std::uint32_t)>;

class Engine {
 public:
  virtual ~Engine() = default;

  /// One synchronous round.
  virtual void step() = 0;

  /// One delayed round (type-erased). Hot loops should prefer the concrete
  /// engine's template step_delayed.
  void step_delayed(const DelayFn& delay) { do_step_delayed(delay); }

  virtual void run(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      step();
      fire_auto_checkpoint_if_due();
    }
  }

  /// Runs until every node has been visited; returns the cover time (the
  /// absolute round of the last first-visit) or kNotCovered if `max_rounds`
  /// (an absolute round cap) elapsed first.
  virtual std::uint64_t run_until_covered(std::uint64_t max_rounds) {
    if (all_covered()) return 0;
    while (time() < max_rounds) {
      step();
      fire_auto_checkpoint_if_due();
      if (all_covered()) return time();
    }
    return kNotCovered;
  }

  /// Periodic auto-checkpointing: during run()/run_until_covered(), `sink`
  /// is invoked with the engine every `every` rounds (at rounds where
  /// time() is `every` apart, starting `every` rounds from now), so a
  /// crash mid-sweep loses at most `every` rounds of work. The sink
  /// should persist atomically — sim::checkpoint_file_sink writes
  /// tmp+rename, behind the stepping loop. `every` 0 (or an empty sink)
  /// disables. Replacing or dropping the sink destroys it, and for
  /// checkpoint_file_sink that is the join: once this returns (or the
  /// engine is destroyed) its last write is on disk and counted.
  void set_auto_checkpoint(std::uint64_t every,
                           std::function<void(const Engine&)> sink) {
    if (every == 0 || !sink) {
      ckpt_every_ = 0;
      ckpt_sink_ = nullptr;
      ckpt_next_ = kNotCovered;
      return;
    }
    ckpt_every_ = every;
    ckpt_sink_ = std::move(sink);
    ckpt_next_ = time() + every;
  }

  virtual std::uint64_t time() const = 0;
  virtual NodeId num_nodes() const = 0;
  virtual std::uint32_t num_agents() const = 0;

  /// n_v(t): visits to v including initial placement (paper Eq. (3)).
  virtual std::uint64_t visits(NodeId v) const = 0;
  /// Round of the first visit (0 for initial hosts), kNotCovered if none.
  virtual std::uint64_t first_visit_time(NodeId v) const = 0;

  virtual NodeId covered_count() const = 0;
  bool all_covered() const { return covered_count() == num_nodes(); }
  /// Fraction of nodes visited at least once, in [0, 1].
  double coverage() const {
    const NodeId n = num_nodes();
    return n == 0 ? 1.0
                  : static_cast<double>(covered_count()) / static_cast<double>(n);
  }

  /// Hash identifying the current configuration (pointers + agent positions
  /// for deterministic engines); equal hashes over time expose limit cycles.
  virtual std::uint64_t config_hash() const = 0;

  /// Stable engine identifier for tables and traces.
  virtual const char* engine_name() const = 0;

 protected:
  /// Rounds until the next auto-checkpoint is due (kNotCovered when
  /// disabled). Engines whose run() leaps multiple rounds at once (the
  /// lazy ring engine) cap their leaps with this so the sink still fires
  /// on the exact schedule.
  std::uint64_t rounds_to_auto_checkpoint() const {
    if (ckpt_next_ == kNotCovered) return kNotCovered;
    // Direct step() calls between runs can move time past the mark; the
    // next fire_auto_checkpoint_if_due() catches up immediately.
    return ckpt_next_ > time() ? ckpt_next_ - time() : 0;
  }

  /// Fires the sink when the schedule says so; a single compare against
  /// the (normally never-due) next-round mark on the hot path.
  void fire_auto_checkpoint_if_due() {
    if (time() >= ckpt_next_) {
      ckpt_sink_(*this);
      ckpt_next_ = time() + ckpt_every_;
    }
  }

 private:
  virtual void do_step_delayed(const DelayFn& delay) = 0;

  std::uint64_t ckpt_every_ = 0;
  std::uint64_t ckpt_next_ = kNotCovered;  // absolute round of next fire
  std::function<void(const Engine&)> ckpt_sink_;
};

}  // namespace rr::sim
