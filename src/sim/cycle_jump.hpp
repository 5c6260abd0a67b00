#pragma once

// Steady-state cycle leaping (sim layer).
//
// The paper's central structural fact is that every deterministic
// rotor-router run is eventually periodic: after cover the system locks
// into an Eulerian circulation with period 2|E| (Klasing–Kosowski–
// Pajak–Sauerwald, PODC'13; the lock-in claim is an executable invariant
// since PR 5). Dense stepping keeps paying full per-round cost for a
// trajectory that is provably a repeating loop. `CycleJumpEngine` wraps
// any *deterministic* backend and exploits the loop:
//
//   1. Detect  — Brent's algorithm over stride-sampled `config_hash()`
//      values proposes a candidate round count c with
//      hash(t) == hash(t - c).
//   2. Confirm — a candidate is never trusted: the wrapper serializes the
//      full engine state (`StateIO::serialize_state`) at the candidate
//      boundaries and requires every *rigid* field to match exactly.
//      A 64-bit hash collision therefore cannot corrupt a run: colliding
//      candidates fail confirmation, are rejected, and the wrapper falls
//      back to dense stepping (tests force this path with a stub engine
//      whose hash repeats before its state does).
//   3. Leap    — once a period is confirmed, `run(T)` advances
//      m = floor((T - t)/p) cycles in O(n) total: time += m*p, each
//      accumulator field += m*delta, node state untouched. This is exact,
//      not approximate: rigid-state equality at distance p means the
//      trajectory from t equals the trajectory from t+p round for round,
//      so the post-leap configuration is bit-identical to dense stepping
//      (the differential harness gates byte-identical rr-ckpt v2
//      snapshots at leap landings for every deterministic backend).
//
// Field classification. Engines declare their *accumulator* fields in
// `EngineSpec::cycle_accumulators` — monotone counters (time, visits,
// exits, last-visit rounds) whose per-period increment is the same from
// any settled in-cycle round. Every other serialized field is *rigid*
// and must compare exactly during confirmation; rigid fields include the
// whole dynamical configuration (pointers, agent positions, tokens,
// travel directions), which is what makes confirmation collision-proof.
// first_visit vectors are rigid on purpose: coverage is frozen on the
// cycle, and a candidate straddling a first visit simply fails one
// confirmation lap and retries a period later (the baseline slides).
//
// Why deltas are extracted one lap *after* the matching lap: the first
// rigid match proves t is on the cycle but accumulator values at t can
// still reflect pre-cycle history (a node's last visit may predate
// lock-in when t sits less than one full period past cycle entry). One
// more lap later every per-node counter has been overwritten by in-cycle
// dynamics, so the observed per-lap delta is the one that repeats
// forever.
//
// Scheduling. Leaps and dense chunks are both capped at the wrapper's
// `rounds_to_auto_checkpoint()` and followed by
// `fire_auto_checkpoint_if_due()`, exactly like the lazy ring engine's
// ballistic fast-forward, so `set_auto_checkpoint` marks fire at their
// exact rounds with files byte-identical to a dense run.
//
// Probing starts at cover: a repeated configuration freezes the visited
// set and the rotor-router covers every connected graph, so no pre-cover
// sample can ever confirm (pre-cover probe events only reschedule
// themselves and drag the budget baseline along). Each sample is one
// O(n) config_hash, so the default stride scales with its cost: the power
// of two at or above max(64, 32 n / k) keeps a sample under ~1.5% of the
// stride * k agent steps it spans. A power-of-two stride is a multiple of
// the lock-in period on power-of-two rings (the period divides
// 2|E| = 2n), so the sampled stream turns constant at lock-in and
// BrentProbe's consecutive-sample check proposes the stride itself one
// sample later. The default budget is counted from cover and holds at
// least 64 samples; probing is abandoned once it elapses or
// `max_rejects` candidates fail confirmation, and the stride doubles
// every generation so a long explicit budget still decays its overhead
// toward zero.
//
// `detect_confirmed_cycle` exposes the stride-1 exact form of the same
// machinery: it returns the *minimal* state period (the hash sequence's
// period always divides the state period, so the smallest confirming
// multiple is exact). sim::exact_return_time (sim/measure.hpp) and
// core::eulerian_from_lock_in build on it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/state_io.hpp"

namespace rr::sim {

enum class CycleJumpMode : std::uint8_t { kOff, kAuto, kOn };

const char* cycle_jump_mode_name(CycleJumpMode mode);
std::optional<CycleJumpMode> cycle_jump_mode_from_name(std::string_view name);

struct CycleJumpOptions {
  /// Probing rounds, counted from cover, before detection is abandoned
  /// for good. 0 = adaptive: max(2^16, 32 * num_nodes, 64 * stride) —
  /// comfortably past the 2|E| lock-in period on bounded-degree graphs,
  /// and never fewer than 64 samples at the initial stride, while keeping
  /// never-cycling runs cheap.
  std::uint64_t detect_budget = 0;
  /// Initial rounds between hash samples; leaping by a stride multiple of
  /// the true period is still exact. 0 = adaptive: bit_ceil(max(64,
  /// ceil(32 * n / k))). A sample is one O(n) config_hash spread over
  /// stride * k agent steps, so probing costs about n / (stride * k)
  /// hashed nodes per agent step; at ~3 ns per hashed node against
  /// ~7 ns per agent step (GCC 12, 4-vCPU Xeon) the adaptive stride keeps
  /// that under ~1.5%, sparse O(k)-per-round engines included. The power
  /// of two makes the stride a multiple of every power-of-two period up
  /// to it, such as a power-of-two ring's (dividing 2n), so a locked-in
  /// run repeats sample to sample.
  std::uint64_t min_stride = 0;
  /// Samples per probing generation; the stride doubles between
  /// generations, so long transients decay the sampling overhead.
  std::uint64_t samples_per_generation = 512;
  /// Failed candidates tolerated before detection is abandoned.
  std::uint32_t max_rejects = 4;
  /// Sliding-baseline confirmation laps per candidate (first-visit or
  /// accumulator settling consumes at most one).
  std::uint32_t max_confirm_laps = 4;
  /// Append the confirmed (period, deltas) to serialized state as the
  /// raw "cycle.hint" field (see CycleHint). Off by default: hinted
  /// checkpoints are a deliberate opt-in because the extra trailing
  /// field breaks byte-identity with dense-run checkpoints. Readers
  /// that predate the field ignore the unknown key, so hinted files
  /// stay loadable everywhere.
  bool persist_hint = false;
  /// Non-zero: adopt a previously confirmed period (a checkpoint's
  /// decoded cycle.hint) — the wrapper skips Brent probing and enters
  /// confirmation directly at this candidate. Confirmation and delta
  /// re-extraction still run in full, so a stale or adversarial hint
  /// costs at most max_confirm_laps wasted compare laps, never a wrong
  /// leap.
  std::uint64_t hint_period = 0;
};

struct CycleJumpStats {
  std::uint64_t samples = 0;        ///< config_hash probes taken
  std::uint64_t candidates = 0;     ///< Brent matches proposed
  std::uint64_t confirm_laps = 0;   ///< full-state comparisons performed
  std::uint64_t rejects = 0;        ///< candidates that failed confirmation
  std::uint64_t leaps = 0;          ///< O(n) leap applications
  std::uint64_t leaped_rounds = 0;  ///< rounds advanced by leaping
  bool confirmed = false;           ///< a period is live right now
  bool abandoned = false;           ///< detection permanently off
  std::uint64_t period = 0;         ///< confirmed leap period (multiple of
                                    ///< the minimal state period)
};

/// Incremental Brent cycle probe over an externally sampled hash stream.
/// Feed (hash, absolute round); a repeat against the stored tortoise or
/// the previous sample yields a candidate cycle length in *rounds* (the
/// sample times need not be evenly spaced — the candidate is simply now
/// minus the matched sample's round, which any genuine state repeat makes
/// a period multiple).
class BrentProbe {
 public:
  /// Returns the candidate round count on a match.
  std::optional<std::uint64_t> feed(std::uint64_t hash, std::uint64_t round) {
    if (!primed_) {
      primed_ = true;
      tortoise_ = last_ = hash;
      tortoise_round_ = last_round_ = round;
      return std::nullopt;
    }
    // A stride that is a period multiple makes the sampled stream constant
    // once locked in: match the previous sample one sample after lock-in
    // instead of waiting for the next power-of-two tortoise reset.
    if (hash == last_) return round - last_round_;
    if (hash == tortoise_) return round - tortoise_round_;
    last_ = hash;
    last_round_ = round;
    if (++lambda_ == power_) {
      tortoise_ = hash;
      tortoise_round_ = round;
      power_ *= 2;
      lambda_ = 0;
    }
    return std::nullopt;
  }

  void reset() { *this = BrentProbe{}; }

 private:
  bool primed_ = false;
  std::uint64_t tortoise_ = 0;
  std::uint64_t tortoise_round_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t last_round_ = 0;
  std::uint64_t power_ = 1;
  std::uint64_t lambda_ = 0;
};

/// Per-cycle increment of one accumulator field, RLE-compressed (visit
/// deltas are piecewise-constant across node ranges on regular graphs).
/// Arithmetic is mod 2^64 throughout, matching the engines' counters.
struct DeltaRun {
  std::uint64_t delta = 0;
  std::uint64_t len = 0;
};

struct AccumulatorDelta {
  std::string key;
  bool scalar = false;
  std::uint64_t scalar_delta = 0;  ///< kU64 fields ("time")
  std::vector<DeltaRun> runs;      ///< list fields, runs cover the list
};

/// A confirmed cycle as persisted in checkpoints: the "cycle.hint" raw
/// field CycleJumpEngine appends when CycleJumpOptions::persist_hint is
/// set. Text format (the hint codec's own version tag, "v1"):
///
///   v1 p=<period>;<key>=s:<delta>;<key>=r:<len>x<delta>,<len>x<delta>
///
/// with u64 decimal numbers throughout (deltas are mod-2^64 per-cycle
/// increments; run lists cover the accumulator list left to right). The
/// hint is advisory: a resuming wrapper feeds the period back through
/// full confirmation (CycleJumpOptions::hint_period) rather than
/// trusting the deltas, so a corrupted hint can never corrupt a run.
struct CycleHint {
  std::uint64_t period = 0;
  std::vector<AccumulatorDelta> deltas;
};

/// Renders a hint in the cycle.hint text format. Keys must not contain
/// ';', '=', or line breaks (registry accumulator keys never do); a
/// violating key or a zero period yields "" (no hint).
std::string encode_cycle_hint(std::uint64_t period,
                              const std::vector<AccumulatorDelta>& deltas);

/// Total parser for the cycle.hint field: nullopt on any malformed
/// input (wrong version tag, junk numbers, trailing bytes). Hints
/// arrive from checkpoint files and are never trusted beyond what
/// confirmation re-proves.
std::optional<CycleHint> decode_cycle_hint(std::string_view text);

/// Optional fast-leap hook. Engines that implement it apply a confirmed
/// leap by patching their own counters in place (O(n), no serialize /
/// reparse round-trip). `apply_cycle_leap` must be atomic: validate every
/// delta key and length first and return false without mutating anything
/// if any is unknown (the wrapper then falls back to the generic
/// serialize-patch-deserialize path, which is equally exact).
class CycleLeapable {
 public:
  virtual ~CycleLeapable() = default;
  [[nodiscard]] virtual bool apply_cycle_leap(
      const std::vector<AccumulatorDelta>& deltas, std::uint64_t cycles) = 0;
};

/// Exact minimal-period detection for a deterministic engine: stride-1
/// Brent over config_hash plus full-state confirmation. Advances `engine`
/// (which must implement StateIO) and returns the minimal state period
/// with the engine left on the cycle, or nullopt if no cycle is confirmed
/// within `max_steps` rounds. `accumulators` names the engine's
/// accumulator fields; nullptr looks them up from the engine registry by
/// engine_name() (nullopt if the registry does not know the engine).
struct ConfirmedCycle {
  std::uint64_t period = 0;   ///< exact minimal state period
  std::uint64_t at_time = 0;  ///< engine round when confirmed (on-cycle)
};

std::optional<ConfirmedCycle> detect_confirmed_cycle(
    Engine& engine, std::uint64_t max_steps,
    const std::vector<std::string>* accumulators = nullptr);

/// Wraps a deterministic engine with detect/confirm/leap `run()`. The
/// wrapper is a transparent Engine + StateIO: every observable
/// (time, visits, config_hash, engine_name, serialized state) forwards to
/// the inner engine, so checkpoints written through the wrapper are
/// byte-identical to dense-run checkpoints and restore as the inner
/// engine type (opting into persist_hint appends the one extra
/// "cycle.hint" trailing field, which old readers skip). Delayed rounds
/// perturb the orbit, so step_delayed invalidates any detection state
/// and restarts probing; deserialize does too.
class CycleJumpEngine final : public Engine, public StateIO {
 public:
  /// `accumulators` per the EngineSpec::cycle_accumulators contract.
  CycleJumpEngine(std::unique_ptr<Engine> inner,
                  std::vector<std::string> accumulators,
                  CycleJumpOptions options = {});
  ~CycleJumpEngine() override;

  void step() override;
  void run(std::uint64_t rounds) override;
  std::uint64_t run_until_covered(std::uint64_t max_rounds) override;

  std::uint64_t time() const override { return inner_->time(); }
  NodeId num_nodes() const override { return inner_->num_nodes(); }
  std::uint32_t num_agents() const override { return inner_->num_agents(); }
  std::uint64_t visits(NodeId v) const override { return inner_->visits(v); }
  std::uint64_t first_visit_time(NodeId v) const override {
    return inner_->first_visit_time(v);
  }
  NodeId covered_count() const override { return inner_->covered_count(); }
  std::uint64_t config_hash() const override { return inner_->config_hash(); }
  const char* engine_name() const override { return inner_->engine_name(); }

  void serialize_state(StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const StateReader& in) override;

  const CycleJumpStats& stats() const { return stats_; }
  Engine& inner() { return *inner_; }
  const Engine& inner() const { return *inner_; }

 private:
  enum class Phase : std::uint8_t { kProbing, kConfirming, kConfirmed,
                                    kAbandoned };

  struct Detector;  // serialized-image machinery (cycle_jump.cpp)

  void do_step_delayed(const DelayFn& delay) override;

  std::uint64_t effective_budget() const;
  /// Rounds until the next probe/confirm event needs the engine paused
  /// (kNotCovered when none is pending).
  std::uint64_t rounds_to_next_event() const;
  /// Runs sampling / confirmation work due at the current round.
  void on_event();
  void invalidate();
  /// Applies m confirmed cycles; falls back to dense stepping (and
  /// abandons) if the state round-trip is rejected.
  void apply_leap(std::uint64_t cycles);
  /// Dense-steps up to `rounds` through the inner engine with detection
  /// events serviced; never crosses an auto-checkpoint mark. Returns the
  /// rounds actually consumed — short when an event confirms the cycle
  /// mid-chunk, so the caller can switch to leaping immediately.
  std::uint64_t dense_chunk(std::uint64_t rounds);

  std::unique_ptr<Engine> inner_;
  StateIO* inner_io_ = nullptr;
  CycleLeapable* inner_leap_ = nullptr;
  std::vector<std::string> accumulators_;
  CycleJumpOptions opt_;
  CycleJumpStats stats_;

  Phase phase_ = Phase::kProbing;
  BrentProbe probe_;
  std::uint64_t start_round_ = 0;   ///< budget baseline
  std::uint64_t stride_ = 0;
  std::uint64_t next_sample_ = 0;   ///< absolute round of the next probe
  std::uint64_t generation_samples_ = 0;

  std::unique_ptr<Detector> detector_;  // confirmation images + deltas
  std::uint64_t candidate_ = 0;         ///< candidate period under test
  std::uint64_t confirm_at_ = 0;        ///< absolute round of next compare
  std::uint32_t laps_ = 0;
  std::uint32_t rejects_ = 0;           ///< since the last invalidation

  std::uint64_t period_ = 0;
  std::vector<AccumulatorDelta> deltas_;
};

/// Registry-driven wrapping. kOff returns `engine` unchanged. kAuto wraps
/// iff the registry marks engine_name() deterministic (unknown engines
/// pass through untouched). kOn requires a deterministic engine: returns
/// nullptr and sets *error otherwise. The returned engine owns `engine`.
std::unique_ptr<Engine> wrap_cycle_jump(std::unique_ptr<Engine> engine,
                                        CycleJumpMode mode,
                                        const CycleJumpOptions& options = {},
                                        std::string* error = nullptr);

}  // namespace rr::sim
