// Built-in backend registrations for sim::EngineRegistry.
//
// This file is the ONLY construction site of the in-tree engines outside
// of tests: each registration block owns the backend's CLI key, substrate
// requirement, shard capability, and both construction paths (fresh
// factory + checkpoint restore). Adding a backend = adding one block here
// and passing the differential gate (README "Adding a backend").

#include <string>
#include <utility>
#include <vector>

#include "analysis/continuous_engine.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "dist/coordinator.hpp"
#include "graph/descriptor.hpp"
#include "sim/registry.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace detail {

namespace {

void fail(std::string* error, const char* message) {
  if (error) *error = message;
}

std::vector<graph::NodeId> agents_of(const EngineConfig& config) {
  return {config.agents.begin(), config.agents.end()};
}

/// Narrows a general pointer field to the ring engines' direction bytes;
/// nullopt if any entry is not a valid ring port (0 = cw, 1 = acw).
std::optional<std::vector<std::uint8_t>> ring_pointers(
    const EngineConfig& config) {
  std::vector<std::uint8_t> out(config.pointers.size());
  for (std::size_t i = 0; i < config.pointers.size(); ++i) {
    if (config.pointers[i] > 1) return std::nullopt;
    out[i] = static_cast<std::uint8_t>(config.pointers[i]);
  }
  return out;
}

template <typename EngineT, typename... Args>
std::unique_ptr<Engine> restored(const StateReader& state, Args&&... args) {
  auto engine = std::make_unique<EngineT>(std::forward<Args>(args)...);
  if (!engine->deserialize_state(state)) return nullptr;
  return engine;
}

void register_rotor(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "rotor",
      .engine_name = "rotor-router",
      .substrate = "any connected graph",
      .summary = "general-graph multi-agent rotor-router (CSR-backed; "
                 "--shards N steps it shard-parallel, bit-equal)",
      .substrate_kinds = {},
      .supports_shards = true,
      .takes_pointers = true,
      .deterministic = true,
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        // The CSR rows, the partition and the per-node state are written
        // per range on the config's pool (inline under kPoolMinNodes).
        auto csr = d.build(c.pool);
        if (!csr) {
          fail(error, "invalid graph parameters");
          return nullptr;
        }
        if (!c.pointers.empty() && c.pointers.size() != csr->num_nodes()) {
          fail(error, "pointer field size must match the node count");
          return nullptr;
        }
        return std::make_unique<core::RotorRouter>(
            std::move(*csr), agents_of(c), c.pointers, c.shards, c.pool);
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig& c) -> std::unique_ptr<Engine> {
        auto csr = d.build(c.pool);
        if (!csr) return nullptr;
        // The shard count is an execution choice, not checkpoint state:
        // the same document restores sequentially or shard-parallel. The
        // engine builds as the factory's does; a pool (shared, or a
        // sharded engine's own) decodes v2 per-node segments in parallel
        // (bit-identical; see deserialize_rotor_state).
        auto engine = std::make_unique<core::RotorRouter>(
            std::move(*csr), std::vector<graph::NodeId>{0},
            std::vector<std::uint32_t>{}, c.shards, c.pool);
        if (!engine->deserialize_state(state, c.pool)) return nullptr;
        return engine;
      },
  });
}

void register_ring(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "ring",
      .engine_name = "ring-rotor-router",
      .substrate = "ring only",
      .summary = "ring-specialized rotor-router with Sec. 2.2 visit "
                 "classification (domains/borders)",
      .substrate_kinds = {"ring"},
      .takes_pointers = true,
      .deterministic = true,
      // last_arrival is a per-node agent *count* (periodic on the cycle,
      // so rigid comparison both confirms it and keeps it unchanged);
      // only the round-valued counters advance per period.
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        const auto n = *d.num_nodes();
        auto ptrs = ring_pointers(c);
        if (!ptrs || (!ptrs->empty() && ptrs->size() != n)) {
          fail(error, "ring pointers must be n entries in {0, 1}");
          return nullptr;
        }
        return std::make_unique<core::RingRotorRouter>(n, agents_of(c),
                                                       std::move(*ptrs));
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig&) -> std::unique_ptr<Engine> {
        return restored<core::RingRotorRouter>(state, *d.num_nodes(),
                                               std::vector<core::NodeId>{0});
      },
  });
}

void register_lazy(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "lazy",
      .engine_name = "lazy-ring-rotor-router",
      .substrate = "ring only",
      .summary = "O(k log k)/round domain-dynamics ring engine with "
                 "ballistic fast-forward in run()",
      .substrate_kinds = {"ring"},
      .takes_pointers = true,
      .deterministic = true,
      // A crowded engine (wide() false) that does not promote at
      // construction is the dense ring engine for good: its promotion
      // scalars stay constant, and the dense phase confirms on the ring's
      // accumulators (exits and last_visit are only in dense-phase state).
      // A wide engine's dense prefix keeps doubling its promotion schedule
      // (rigid, never equal), so it confirms once promoted to the lazy
      // O(k) representation.
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        const auto n = *d.num_nodes();
        auto ptrs = ring_pointers(c);
        if (!ptrs || (!ptrs->empty() && ptrs->size() != n)) {
          fail(error, "ring pointers must be n entries in {0, 1}");
          return nullptr;
        }
        return std::make_unique<core::LazyRingRotorRouter>(n, agents_of(c),
                                                           std::move(*ptrs));
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig&) -> std::unique_ptr<Engine> {
        return restored<core::LazyRingRotorRouter>(
            state, *d.num_nodes(), std::vector<core::NodeId>{0});
      },
  });
}

void register_walks(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "walks",
      .engine_name = "random-walks",
      .substrate = "any connected graph",
      .summary = "k parallel random walks (the stochastic baseline; "
                 "--seed selects the stream)",
      .substrate_kinds = {},
      .supports_shards = false,
      .cycle_accumulators = {},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        const auto g = d.build();
        if (!g) {
          fail(error, "invalid graph parameters");
          return nullptr;
        }
        return std::make_unique<walk::GraphRandomWalks>(*g, agents_of(c),
                                                        c.seed);
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig&) -> std::unique_ptr<Engine> {
        const auto g = d.build();
        if (!g || g->degree(0) == 0) return nullptr;  // placeholder walker
        return restored<walk::GraphRandomWalks>(
            state, *g, std::vector<graph::NodeId>{0}, /*seed=*/1);
      },
  });
}

void register_eulerian(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "eulerian",
      .engine_name = "eulerian-circulation",
      .substrate = "any connected graph",
      .summary = "Eulerian token circulation: k tokens advancing one arc "
                 "per round along a fixed Eulerian circuit (O(k)/round)",
      .substrate_kinds = {},
      .supports_shards = false,
      .deterministic = true,
      .cycle_accumulators = {"time", "visits"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        const auto g = d.build();
        if (!g) {
          fail(error, "invalid graph parameters");
          return nullptr;
        }
        if (g->num_edges() == 0) {
          fail(error, "token circulation needs at least one edge");
          return nullptr;
        }
        return std::make_unique<core::EulerianRotorRouter>(*g, agents_of(c));
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig&) -> std::unique_ptr<Engine> {
        const auto g = d.build();
        if (!g || g->num_edges() == 0) return nullptr;
        return restored<core::EulerianRotorRouter>(
            state, *g, std::vector<graph::NodeId>{0});
      },
  });
}

void register_ode(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "ode",
      .engine_name = "continuous-domain",
      .substrate = "ring only",
      .summary = "Sec. 2.3 continuous domain-size ODE (RK4, 1 round = "
                 "1.0 model time); convergence-gated, not bit-exact",
      .substrate_kinds = {"ring"},
      .cycle_accumulators = {},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        if (!c.pointers.empty()) {
          fail(error, "the continuous model has no pointer field");
          return nullptr;
        }
        return std::make_unique<analysis::ContinuousDomainEngine>(
            *d.num_nodes(), c.agents);
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig&) -> std::unique_ptr<Engine> {
        return restored<analysis::ContinuousDomainEngine>(
            state, *d.num_nodes(), std::vector<sim::NodeId>{0});
      },
  });
}

core::DistOptions dist_options(const EngineConfig& c) {
  core::DistOptions o;
  o.workers = c.dist_workers;
  o.spill_batch = c.dist_spill_batch;
  o.noded_path = c.dist_noded;
  o.listen_socket = c.dist_socket;
  return o;
}

void register_dist(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "dist",
      // Same engine identity as "rotor": the distributed stepper is the
      // same dynamical system writing the same checkpoint field set
      // (bit-identical documents), so its snapshots restore under any
      // rotor-router backend and vice versa. find() resolves
      // "rotor-router" to the earlier "rotor" spec, so plain restores
      // stay sequential; `--engine dist` reaches this one by CLI key.
      .engine_name = "rotor-router",
      .substrate = "any connected graph",
      .summary = "distributed rotor-router: N worker processes over "
                 "AF_UNIX sockets, batched spill comms, bit-equal to "
                 "sequential (--workers N, --noded PATH|threads)",
      .substrate_kinds = {},
      .supports_shards = false,
      .takes_pointers = true,
      .deterministic = true,
      .shares_engine_name = true,
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        return core::DistributedRotorRouter::create(
            d, agents_of(c), c.pointers, dist_options(c), error);
      },
      .restore = [](const graph::GraphDescriptor& d, const StateReader& state,
                    const EngineConfig& c) -> std::unique_ptr<Engine> {
        auto engine = core::DistributedRotorRouter::create(
            d, std::vector<graph::NodeId>{0}, {}, dist_options(c), nullptr);
        if (!engine || !engine->deserialize_state(state)) return nullptr;
        return engine;
      },
  });
}

}  // namespace

void register_builtin_engines(EngineRegistry& registry) {
  register_rotor(registry);
  register_ring(registry);
  register_lazy(registry);
  register_walks(registry);
  register_eulerian(registry);
  register_ode(registry);
  register_dist(registry);
}

}  // namespace detail
}  // namespace rr::sim
