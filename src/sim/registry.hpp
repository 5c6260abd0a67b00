#pragma once

// Engine registry (sim layer): the single engine-construction path.
//
// The paper's argument rests on three coupled views of the same dynamics —
// the discrete rotor walk, the Eulerian token circulation it locks into,
// and the continuous domain-size ODE of Sec. 2.3 — and the repository
// keeps one sim::Engine backend per view (plus the ring specializations
// and the random-walk baseline). Before this registry existed, every
// construction site (rr_cli, sim::restore_checkpoint, the differential
// harness, the engine-sweep benches) grew its own if/else ladder over
// engine names, and the ladders diverged (restore_checkpoint_sharded).
//
// EngineRegistry replaces the ladders with one name-keyed table of
// EngineSpec entries. A spec owns everything a driver needs to know about
// a backend without including its header:
//
//   - `name` (CLI key, e.g. "lazy") and `engine_name` (the checkpoint
//     header key, sim::Engine::engine_name(), e.g.
//     "lazy-ring-rotor-router") — find() matches either;
//   - its substrate requirement (descriptor kinds it runs on; empty =
//     any connected graph) — checked before any factory runs, so a
//     mismatch fails cleanly instead of aborting inside a constructor;
//   - whether it supports shard-parallel stepping (--shards);
//   - a `factory` building a fresh engine from a graph descriptor and an
//     EngineConfig, and a `restore` hook rebuilding one from a
//     checkpoint's state body (sim/checkpoint.hpp calls it).
//
// Adding a backend is one registration block in sim/builtin_engines.cpp
// plus the differential gate in tests/ — no driver changes: rr_cli's
// `engines` listing, checkpoint restore, and the engine-sweep benches all
// pick the new entry up from the table (see README "Adding a backend").
//
// Every lookup is total: unknown names, duplicate registrations, and
// substrate mismatches surface as nullptr/false with an error message,
// never an abort (engine names arrive from CLI flags and checkpoint
// files).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/descriptor.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"
#include "sim/thread_pool.hpp"

namespace rr::sim {

/// Everything a factory may need beyond the substrate. Fields a backend
/// does not use are ignored (e.g. `seed` by the deterministic engines,
/// `shards` by engines whose spec says supports_shards == false).
struct EngineConfig {
  /// Multiset of starting nodes (k = agents.size()); must be non-empty
  /// with every entry < num_nodes of the substrate.
  std::vector<NodeId> agents;
  /// Initial rotor field for engines that have one; empty = engine
  /// default (all ports 0 / all clockwise). Ring engines require entries
  /// in {0, 1}.
  std::vector<std::uint32_t> pointers;
  /// RNG seed for stochastic backends.
  std::uint64_t seed = 1;
  /// > 1 requests shard-parallel stepping from shard-capable backends.
  std::uint32_t shards = 1;
  /// Shared fork-join pool for sharded stepping and for building an
  /// in-RAM rotor engine range by range (nullptr = engine-owned).
  ThreadPool* pool = nullptr;
  /// Worker count for the distributed backend ("dist"); clamped to
  /// [1, num_nodes] like shard counts.
  std::uint32_t dist_workers = 2;
  /// "dist" spill batch size: cross-shard arrivals flush mid-scan once
  /// this many distinct frontier slots accumulate for one destination.
  std::uint64_t dist_spill_batch = 256;
  /// rr_noded binary to fork/exec per "dist" worker; empty = in-process
  /// worker threads over socketpairs (same loop, same protocol).
  std::string dist_noded;
  /// Non-empty: "dist" listens on this AF_UNIX path and accepts
  /// externally launched `rr_noded --connect` workers instead.
  std::string dist_socket;
};

struct EngineSpec {
  std::string name;         ///< short CLI key, e.g. "rotor"
  std::string engine_name;  ///< Engine::engine_name() / checkpoint key
  std::string substrate;    ///< human-readable substrate requirement
  std::string summary;      ///< one-line description for listings
  /// Descriptor kinds the backend accepts; empty = any connected graph.
  std::vector<std::string> substrate_kinds;
  /// True if EngineConfig::shards > 1 selects a shard-parallel stepper.
  bool supports_shards = false;
  /// True if the backend has a rotor field that EngineConfig::pointers
  /// sets; backends without one ignore or reject it.
  bool takes_pointers = false;
  /// True if the trajectory is a pure function of the configuration (no
  /// RNG, no floating point): eligible for steady-state cycle leaping
  /// (sim/cycle_jump.hpp). Stochastic and continuous backends stay false.
  bool deterministic = false;
  /// Opt-in: this spec deliberately reports the same engine_name as an
  /// earlier registration because its checkpoints are interchangeable
  /// with that backend's (the distributed stepper writes "rotor-router"
  /// documents). find() is first-match, so the earlier spec keeps owning
  /// restores by engine_name; this spec is reached via its CLI key.
  bool shares_engine_name = false;
  /// serialize_state keys of monotone accumulator fields (u64 scalar or
  /// u64 list) whose per-period increment is constant from any settled
  /// in-cycle round — time, visit/exit counters, last-visit rounds.
  /// Cycle-jump confirmation compares every *other* field exactly and
  /// leaps these by per-cycle deltas; see sim/cycle_jump.hpp for the
  /// soundness contract. Meaningful only when `deterministic`.
  std::vector<std::string> cycle_accumulators;

  /// Builds a fresh engine. The descriptor has already passed the
  /// substrate check; the factory returns nullptr (optionally setting
  /// `error`) on config problems (bad agents, malformed pointers).
  std::function<std::unique_ptr<Engine>(const graph::GraphDescriptor& d,
                                        const EngineConfig& config,
                                        std::string* error)>
      factory;

  /// Rebuilds an engine from a checkpoint state body written by the
  /// backend's serialize_state. nullptr on any malformed/inconsistent
  /// state (never abort: checkpoints are external input).
  std::function<std::unique_ptr<Engine>(const graph::GraphDescriptor& d,
                                        const StateReader& state,
                                        const EngineConfig& config)>
      restore;
};

class EngineRegistry {
 public:
  /// The process-wide registry, with every built-in backend registered
  /// (sim/builtin_engines.cpp). Construct a fresh EngineRegistry directly
  /// only in tests.
  static EngineRegistry& instance();

  EngineRegistry() = default;

  /// Registers a backend. Returns false (and leaves the table unchanged)
  /// if the spec is incomplete or either name collides with an existing
  /// entry — duplicate registration is a caller bug surfaced as a value,
  /// never an abort.
  bool add(EngineSpec spec);

  /// Looks up a spec by CLI key or by engine_name; nullptr if unknown.
  /// Returned pointers stay valid for the registry's lifetime, across
  /// later add() calls (specs live in a stable-address deque) — callers
  /// (the bench sweep's static registration) cache them.
  const EngineSpec* find(std::string_view name_or_engine_name) const;

  /// All registered specs in registration order (stable for listings).
  std::vector<const EngineSpec*> list() const;

  /// True if `d`'s kind satisfies the spec's substrate requirement.
  static bool substrate_ok(const EngineSpec& spec,
                           const graph::GraphDescriptor& d);

  /// The construction path: resolves the name, validates substrate and
  /// agents, and invokes the factory. nullptr on any failure, with a
  /// diagnostic in `*error` when provided.
  std::unique_ptr<Engine> create(std::string_view name,
                                 const graph::GraphDescriptor& descriptor,
                                 const EngineConfig& config,
                                 std::string* error = nullptr) const;

  /// As create, from descriptor text (parses first).
  std::unique_ptr<Engine> create(std::string_view name,
                                 const std::string& descriptor_text,
                                 const EngineConfig& config,
                                 std::string* error = nullptr) const;

  /// The restore path (sim/checkpoint.hpp): resolves `engine_name`,
  /// validates the substrate, and invokes the spec's restore hook.
  /// `config` carries execution choices that are not checkpoint state
  /// (shard count, pool). nullptr on unknown engine, substrate mismatch,
  /// or a state body the hook rejects.
  std::unique_ptr<Engine> restore(std::string_view engine_name,
                                  const graph::GraphDescriptor& descriptor,
                                  const StateReader& state,
                                  const EngineConfig& config = {},
                                  std::string* error = nullptr) const;

 private:
  std::deque<EngineSpec> specs_;  // deque: spec addresses survive add()
};

}  // namespace rr::sim
