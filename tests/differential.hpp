#pragma once

// Differential-testing harness for sim::Engine backends.
//
// The repository's rule for adding an engine backend (see README "Engine
// backends"): before a backend is trusted, it runs in lockstep against a
// reference backend over randomized configurations — ring sizes, agent
// multisets, pointer initializations, adversarial delayed schedules — with
// the full observable state compared after every round: time, coverage,
// per-node visits and first-visit rounds, and config_hash. This header is
// that gate, written once against sim::Engine so every future backend pair
// reuses it (differential_test.cpp pins LazyRingRotorRouter ==
// RingRotorRouter == RotorRouter-on-graph::ring with it).
//
// Delay schedules must be pure functions of (node, round, present): engines
// are free to evaluate the schedule in any per-round node order, so a
// stateful functor would observe engine internals and break lockstep.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/engine.hpp"

namespace rr::testing {

using sim::NodeId;

struct Mismatch {
  bool ok = true;
  std::uint64_t round = 0;
  std::string detail;
};

/// Compares every Engine observable of `b` against reference `a`.
/// `deep` additionally compares per-node visits and first-visit rounds
/// (O(n); lockstep tests use small rings, so this stays cheap).
inline Mismatch compare_engines(const sim::Engine& a, const sim::Engine& b,
                                bool deep = true) {
  Mismatch m;
  m.round = a.time();
  const auto fail = [&m](const auto&... parts) {
    m.ok = false;
    std::ostringstream out;
    if (!m.detail.empty()) out << "; ";
    (out << ... << parts);
    m.detail += out.str();
  };
  if (a.time() != b.time()) {
    fail("time ", a.time(), " vs ", b.time());
    return m;  // engines out of phase: nothing else is comparable
  }
  if (a.num_nodes() != b.num_nodes()) {
    fail("num_nodes mismatch");
    return m;
  }
  if (a.num_agents() != b.num_agents()) fail("num_agents mismatch");
  if (a.covered_count() != b.covered_count()) {
    fail("covered ", a.covered_count(), " vs ", b.covered_count());
  }
  if (a.config_hash() != b.config_hash()) fail("config_hash mismatch");
  if (deep) {
    for (NodeId v = 0; v < a.num_nodes(); ++v) {
      if (a.visits(v) != b.visits(v)) {
        fail("visits(", v, ") ", a.visits(v), " vs ", b.visits(v));
        break;
      }
      if (a.first_visit_time(v) != b.first_visit_time(v)) {
        fail("first_visit(", v, ") ", a.first_visit_time(v), " vs ",
             b.first_visit_time(v));
        break;
      }
    }
  }
  return m;
}

/// Steps every engine one round at a time for `rounds` rounds under a shared
/// delayed schedule, comparing engines[1..] against engines[0] after every
/// round (and once before the first round). Returns the first mismatch.
inline Mismatch run_lockstep_delayed(const std::vector<sim::Engine*>& engines,
                                     std::uint64_t rounds,
                                     const sim::DelayFn& delay,
                                     bool deep = true) {
  for (std::size_t i = 1; i < engines.size(); ++i) {
    const Mismatch m = compare_engines(*engines[0], *engines[i], deep);
    if (!m.ok) return m;
  }
  for (std::uint64_t t = 0; t < rounds; ++t) {
    for (sim::Engine* e : engines) e->step_delayed(delay);
    for (std::size_t i = 1; i < engines.size(); ++i) {
      const Mismatch m = compare_engines(*engines[0], *engines[i], deep);
      if (!m.ok) return m;
    }
  }
  return {};
}

inline Mismatch run_lockstep_delayed(sim::Engine& reference,
                                     sim::Engine& candidate,
                                     std::uint64_t rounds,
                                     const sim::DelayFn& delay,
                                     bool deep = true) {
  return run_lockstep_delayed({&reference, &candidate}, rounds, delay, deep);
}

inline Mismatch run_lockstep(sim::Engine& reference, sim::Engine& candidate,
                             std::uint64_t rounds, bool deep = true) {
  return run_lockstep_delayed(
      reference, candidate, rounds,
      [](NodeId, std::uint64_t, std::uint32_t) { return 0u; }, deep);
}

// ---- save → load → continue lane ----

/// The checkpoint gate (sim/checkpoint.hpp): `candidate` steps in lockstep
/// with `reference`, but at `restart_round` it is serialized through the
/// engine-generic checkpoint, destroyed, and restored into a fresh
/// instance, which then continues the run. A resumed engine must be
/// indistinguishable from an uninterrupted one: every observable is
/// compared after every round, exactly like run_lockstep_delayed. A failed
/// write/parse/restore is reported as a mismatch at the restart round.
inline Mismatch run_lockstep_with_restart(
    sim::Engine& reference, std::unique_ptr<sim::Engine> candidate,
    const std::string& graph_descriptor, std::uint64_t rounds,
    std::uint64_t restart_round, const sim::DelayFn& delay, bool deep = true) {
  {
    const Mismatch m = compare_engines(reference, *candidate, deep);
    if (!m.ok) return m;
  }
  for (std::uint64_t t = 0; t < rounds; ++t) {
    if (t == restart_round) {
      // Alternate the segment layout with the restart round so every
      // scenario sweep gates both decoder shapes (one per-node segment,
      // and the default split) without any caller changes.
      const std::uint32_t segments =
          restart_round % 2 == 1 ? 1 : sim::kV2DefaultSegments;
      const std::string text = sim::write_checkpoint(
          *candidate, graph_descriptor, sim::CkptFormat::kV2, segments);
      candidate = sim::restore_checkpoint(text);
      if (!candidate) {
        return {false, reference.time(),
                "checkpoint restore failed for descriptor '" +
                    graph_descriptor + "'"};
      }
      const Mismatch m = compare_engines(reference, *candidate, deep);
      if (!m.ok) {
        return {false, m.round, "after restore: " + m.detail};
      }
    }
    reference.step_delayed(delay);
    candidate->step_delayed(delay);
    const Mismatch m = compare_engines(reference, *candidate, deep);
    if (!m.ok) return m;
  }
  return {};
}

// ---- randomized ring scenarios ----

/// A randomized ring configuration plus an adversarial delayed schedule;
/// every field is derived deterministically from the generator's Rng.
struct RingScenario {
  NodeId n = 8;
  std::vector<NodeId> agents{};
  std::vector<std::uint8_t> pointers{};  // empty = all clockwise
  int pointer_kind = 0;
  int delay_kind = 0;
  std::uint64_t delay_seed = 0;
  std::uint64_t rounds = 16;

  /// The schedule as a pure function of (v, t, present).
  sim::DelayFn delay() const {
    const int kind = delay_kind;
    const std::uint64_t seed = delay_seed;
    switch (kind) {
      case 1:  // random partial holds everywhere
        return [seed](NodeId v, std::uint64_t t, std::uint32_t present) {
          const std::uint64_t h =
              mix_seed(seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)), t);
          return static_cast<std::uint32_t>(h % (present + 1));
        };
      case 2:  // freeze a node window for a prefix of the run
        return [seed, n = n](NodeId v, std::uint64_t t, std::uint32_t present) {
          const NodeId v0 = static_cast<NodeId>(seed % n);
          const NodeId span = static_cast<NodeId>(1 + (seed >> 16) % 5);
          const std::uint64_t until = 4 + (seed >> 32) % 64;
          const NodeId offset = static_cast<NodeId>((v + n - v0) % n);
          return (offset < span && t <= until) ? present : 0u;
        };
      case 3:  // parity schedule (holds roughly half the nodes each round)
        return [](NodeId v, std::uint64_t t, std::uint32_t present) {
          return (v + t) % 2 == 0 ? present : 0u;
        };
      default:  // undelayed deployment R[k]
        return [](NodeId, std::uint64_t, std::uint32_t) { return 0u; };
    }
  }

  /// Pointer field widened to the general engine's per-port type.
  std::vector<std::uint32_t> pointers32() const {
    return {pointers.begin(), pointers.end()};
  }

  std::string describe() const {
    std::ostringstream out;
    out << "n=" << n << " k=" << agents.size() << " pointer_kind="
        << pointer_kind << " delay_kind=" << delay_kind << " delay_seed="
        << delay_seed << " rounds=" << rounds << " agents=[";
    for (std::size_t i = 0; i < agents.size(); ++i) {
      out << (i ? "," : "") << agents[i];
    }
    out << "]";
    return out.str();
  }

  static RingScenario random(Rng& rng) {
    RingScenario sc;
    sc.n = 3 + rng.bounded(94);
    const std::uint32_t k = 1 + rng.bounded(2 * sc.n < 24 ? 2 * sc.n : 24);
    sc.agents.resize(k);
    for (auto& a : sc.agents) a = rng.bounded(sc.n);
    sc.pointer_kind = static_cast<int>(rng.bounded(4));
    switch (sc.pointer_kind) {
      case 1:
        sc.pointers = core::pointers_random(sc.n, rng);
        break;
      case 2:
        sc.pointers = core::pointers_toward(sc.n, rng.bounded(sc.n));
        break;
      case 3:
        sc.pointers = core::pointers_negative(sc.n, sc.agents);
        break;
      default:
        break;  // all clockwise
    }
    sc.delay_kind = static_cast<int>(rng.bounded(4));
    sc.delay_seed = rng();
    sc.rounds = 32 + rng.bounded(3 * sc.n);
    return sc;
  }
};

}  // namespace rr::testing
