#pragma once

// StateIO codec of the general-graph rotor-router (core::RotorRouter).
//
// A "rotor-router" checkpoint is the same document at every shard count,
// and the distributed stepper (core::DistributedRotorRouter) reads and
// writes the same field set over its gathered state. This header is that
// field set, written once: both steppers' serialize_state/
// deserialize_state/config_hash delegate here, so a field added for one
// is automatically read and written by the other. The agent sites come
// from collect_rotor_sites over the caller's node ranges: a sharded
// engine's partition, compacted shard-parallel, or [0, n) inline.
//
// The helpers are templated over the per-node array types so the same
// code serves owned std::vector state (in-RAM construction) and
// graph::MappedArray views into an mmap'd substrate image
// (graph/mmap_substrate.hpp); both expose size() and operator[].

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/no_init.hpp"
#include "common/require.hpp"
#include "core/shard_step.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/state_io.hpp"
#include "sim/thread_pool.hpp"

namespace rr::core {

/// CycleLeapable fast hook of the rotor-router engine: applies
/// `cycles` confirmed periods by patching time and the per-node stats
/// counters in place — no serialize/reparse round-trip, one pass over the
/// delta runs. Atomic per the CycleLeapable contract: every delta key and
/// length is validated before anything mutates; false means "unknown
/// shape, nothing changed" and the wrapper falls back to its generic
/// (equally exact) leap path.
template <typename StatsArray>
inline bool leap_rotor_accumulators(
    const std::vector<sim::AccumulatorDelta>& deltas, std::uint64_t cycles,
    std::uint64_t& time, StatsArray& stats) {
  const std::uint64_t n = stats.size();
  const auto member_of = [](const std::string& key)
      -> std::uint64_t VisitStats::* {
    if (key == "visits") return &VisitStats::visits;
    if (key == "exits") return &VisitStats::exits;
    if (key == "last_visit") return &VisitStats::last_visit;
    return nullptr;
  };
  for (const sim::AccumulatorDelta& d : deltas) {
    if (d.key == "time") {
      if (!d.scalar) return false;
      continue;
    }
    if (d.scalar || member_of(d.key) == nullptr) return false;
    std::uint64_t covered = 0;
    for (const sim::DeltaRun& r : d.runs) covered += r.len;
    if (covered != n) return false;
  }
  for (const sim::AccumulatorDelta& d : deltas) {
    if (d.key == "time") {
      time += cycles * d.scalar_delta;
      continue;
    }
    const auto member = member_of(d.key);
    std::uint64_t v = 0;
    for (const sim::DeltaRun& r : d.runs) {
      const std::uint64_t add = cycles * r.delta;
      if (add == 0) {
        v += r.len;
        continue;
      }
      for (std::uint64_t j = 0; j < r.len; ++j, ++v) stats[v].*member += add;
    }
  }
  return true;
}

/// Aborts unless `agents` is a non-empty multiset of nodes below `n`.
inline void require_rotor_agents(const std::vector<graph::NodeId>& agents,
                                 graph::NodeId n) {
  RR_REQUIRE(!agents.empty(), "at least one agent required");
  for (const graph::NodeId v : agents) {
    RR_REQUIRE(v < n, "agent start node out of range");
  }
}

/// The substrate-independent tail of engine construction: places the
/// agents that start in rows [lo, hi), in `agents` order — counts plus
/// the paper's n_v(0) visits, first visit 0 for initial hosts. Assumes
/// node/stats hold their construction state (init_rotor_nodes below, or
/// the substrate image). on_first_occupy(v) fires the first time a node
/// gains an agent — engines seed their occupied bookkeeping with it.
/// Returns the number of nodes it covered. Touches only the agent nodes,
/// so out-of-core construction faults in O(agents) pages.
template <typename NodeArray, typename StatsArray, typename OnFirstOccupy>
inline graph::NodeId place_rotor_agents(
    const std::vector<graph::NodeId>& agents, graph::NodeId lo,
    graph::NodeId hi, NodeArray& node, StatsArray& stats,
    OnFirstOccupy&& on_first_occupy) {
  graph::NodeId covered = 0;
  for (const graph::NodeId v : agents) {
    if (v < lo || v >= hi) continue;
    if (node[v].count == 0) {
      on_first_occupy(v);
      stats[v].first_visit = 0;
      ++covered;
    }
    ++node[v].count;
    ++stats[v].visits;  // n_v(0) counts initially placed agents
  }
  return covered;
}

/// Constructor-time initialization of an in-RAM engine over the node
/// ranges [bounds[r], bounds[r+1]), one job per range plus one job that
/// checks connectivity over the finished CSR, all in one batch on `pool`
/// (sim::for_each_node_job: graphs under its cutoff stay on the caller).
/// Range r's job writes every element of its rows — NodeState caches
/// degree and row offset with the pointer field (`pointers`, or all
/// ports 0 when empty), initial_pointers repeats it, VisitStats gets its
/// defaults — so the arrays may come unfilled; it then places the agents
/// starting in its rows, appending each newly occupied node to sites[r]
/// in `agents` order. After the batch it requires a connected graph,
/// every given pointer below its node's degree, and the agents in range.
/// Returns the initially covered count.
template <typename NodeArray, typename PointerArray, typename StatsArray>
inline graph::NodeId init_rotor_nodes(
    const graph::CsrGraph& csr, const std::vector<graph::NodeId>& agents,
    const std::vector<std::uint32_t>& pointers,
    const std::vector<graph::NodeId>& bounds, NodeArray& node,
    PointerArray& initial_pointers, StatsArray& stats, sim::ThreadPool* pool,
    std::vector<std::vector<graph::NodeId>>& sites) {
  const graph::NodeId n = csr.num_nodes();
  RR_REQUIRE(pointers.empty() || pointers.size() == n,
             "pointer vector size mismatch");
  const std::size_t ranges = bounds.size() - 1;
  sites.assign(ranges, {});
  // ok[0]: connected; ok[r + 1]: range r's pointers are in range.
  std::vector<std::uint8_t> ok(ranges + 1, 1);
  std::vector<graph::NodeId> covered(ranges, 0);
  NoInitVector<graph::NodeId> bfs_queue(n);  // allocated here, not on a worker
  std::vector<std::uint8_t> bfs_seen(n, 0);
  sim::for_each_node_job(pool, n, ranges + 1, [&](std::uint64_t job) {
    if (job == 0) {  // first: the longest job, claimed before the fills
      ok[0] = csr.is_connected(bfs_queue.data(), bfs_seen.data());
      return;
    }
    const std::size_t r = job - 1;
    bool in_range = true;
    for (graph::NodeId v = bounds[r]; v < bounds[r + 1]; ++v) {
      const std::uint32_t degree = csr.degree_unchecked(v);
      std::uint32_t p = 0;
      if (!pointers.empty()) {
        p = pointers[v];
        in_range &= p < degree;
      }
      node[v] = graph::NodeState{.pointer = p,
                                 .degree = degree,
                                 .row_begin = csr.row_offset(v)};
      initial_pointers[v] = p;
      stats[v] = VisitStats{};
    }
    ok[job] = in_range;
    covered[r] = place_rotor_agents(
        agents, bounds[r], bounds[r + 1], node, stats,
        [&](graph::NodeId v) { sites[r].push_back(v); });
  });
  RR_REQUIRE(ok[0], "rotor-router requires a connected graph");
  RR_REQUIRE(std::all_of(ok.begin(), ok.end(), [](std::uint8_t b) { return b; }),
             "pointer out of range");
  require_rotor_agents(agents, n);
  graph::NodeId total = 0;
  for (const graph::NodeId c : covered) total += c;
  return total;
}

/// FNV-1a over (pointer, count) per node — the configuration identity
/// every rotor-router stepper reports as config_hash.
template <typename NodeArray>
inline std::uint64_t rotor_config_hash(const NodeArray& node) {
  Fnv1a h;
  for (const graph::NodeState& ns : node) {
    h.mix(ns.pointer);
    h.mix(ns.count);
  }
  return h.value();
}

/// The sparse "agents" field: (node, count) for every node hosting an
/// agent, in ascending node id.
/// Sized without a zero fill: collect_rotor_sites writes every element.
using AgentSites = sim::PairList;

/// A contiguous node range [begin, end) and the number of agent sites it
/// holds — a shard's rows and its occupied list's size.
struct SiteRange {
  graph::NodeId begin = 0;
  graph::NodeId end = 0;
  std::size_t sites = 0;
};

/// Collects the agent sites of `ranges` (ascending, disjoint) from
/// node[v].count. Each range compacts into its own slice of one
/// pre-sized list, at the prefix sum of the earlier ranges' counts, so
/// slices in range order are already in ascending node id. With a pool
/// and several ranges (a sharded engine's partition) every range is one
/// pool job; one range (the sequential, mmap-backed and distributed
/// steppers, over [0, n)) runs inline. The store is branch-free until the
/// slice is full, and never lands past it: the next range's job owns
/// that slot. A range holding a different number of sites than declared
/// is a broken occupied list and aborts.
template <typename NodeArray>
inline AgentSites collect_rotor_sites(const NodeArray& node,
                                      const std::vector<SiteRange>& ranges,
                                      sim::ThreadPool* pool = nullptr) {
  std::vector<std::size_t> offset(ranges.size() + 1, 0);
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    offset[r + 1] = offset[r] + ranges[r].sites;
  }
  AgentSites sites(offset.back());
  const auto collect = [&](std::uint64_t r) {
    const SiteRange& range = ranges[r];
    std::pair<std::uint64_t, std::uint64_t>* out = sites.data() + offset[r];
    std::size_t w = 0;
    graph::NodeId v = range.begin;
    for (; v < range.end && w < range.sites; ++v) {
      const std::uint32_t c = node[v].count;
      out[w] = {v, c};
      w += c != 0;
    }
    std::uint32_t stray = 0;  // sites past a full slice
    for (; v < range.end; ++v) stray |= node[v].count;
    RR_REQUIRE(w == range.sites && stray == 0,
               "agent sites disagree with the occupied list");
  };
  if (pool != nullptr && ranges.size() > 1) {
    pool->for_each(ranges.size(), collect, /*chunk=*/1);
  } else {
    for (std::size_t r = 0; r < ranges.size(); ++r) collect(r);
  }
  return sites;
}

/// Writes the full rotor-router field set: time, the sparse agent sites
/// (collect_rotor_sites), pointer fields, visit statistics. The per-node
/// fields are recorded as lazy views straight over the engine arrays —
/// nothing O(n) is materialized, so checkpointing an mmap-backed 1e8-node
/// engine allocates only the sparse site list (the codecs stream the
/// views; the engine outlives the writer inside write_checkpoint).
template <typename NodeArray, typename PointerArray, typename StatsArray>
inline void serialize_rotor_state(sim::StateWriter& out, std::uint64_t time,
                                  AgentSites sites, const NodeArray& node,
                                  const PointerArray& initial_pointers,
                                  const StatsArray& stats) {
  const std::size_t n = node.size();
  out.field_u64("time", time);
  out.field_pairs("agents", std::move(sites));
  const std::uint32_t node_stride = sizeof(node[0]);
  const std::uint32_t stats_stride = sizeof(stats[0]);
  out.field_list_strided("pointers", n, &node[0].pointer, node_stride, 4);
  out.field_list_strided("initial_pointers", n, initial_pointers.data(),
                         sizeof(std::uint32_t), 4);
  out.field_list_strided("visits", n, &stats[0].visits, stats_stride, 8);
  out.field_list_strided("exits", n, &stats[0].exits, stats_stride, 8);
  out.field_list_strided("first_visit", n, &stats[0].first_visit,
                         stats_stride, 8);
  out.field_list_strided("last_visit", n, &stats[0].last_visit, stats_stride,
                         8);
}

/// The engine-agnostic result of a restore: everything except the
/// engine's own occupied bookkeeping, which the engine rebuilds from the
/// repopulated counts (one list per shard).
struct RestoredRotorState {
  std::uint64_t time = 0;
  std::uint32_t num_agents = 0;
  graph::NodeId covered = 0;
  /// Occupied nodes in ascending id order (counts already applied).
  std::vector<graph::NodeId> sites;
};

namespace detail {

/// The six lockstep per-node fields of the rotor-router field set, in
/// serialize_rotor_state's declaration order, with each one's
/// construction-time default value (see assume_defaults below).
inline constexpr std::size_t kRotorFields = 6;
inline constexpr const char* kRotorFieldKeys[kRotorFields] = {
    "pointers", "initial_pointers", "visits",
    "exits",    "first_visit",      "last_visit"};
inline constexpr std::uint64_t kRotorFieldDefaults[kRotorFields] = {
    0, 0, 0, 0, sim::kNotCovered, 0};

/// Applies the six lockstep cursors over node range [v0, v1): validates
/// degrees, writes node/stats/initial_pointers, counts covered nodes.
/// The cursors must produce exactly v1 - v0 elements each (checked via
/// finished()). `allow_skip` gates the assume-defaults constant-run
/// elision. nullopt on any malformed or inconsistent stream; the range
/// may then be partially written (the StateIO failed-restore contract).
/// Ranges are disjoint, so the parallel restore runs one call per
/// segment window from pool threads.
template <typename NodeArray, typename PointerArray, typename StatsArray>
inline std::optional<graph::NodeId> apply_rotor_span(
    std::optional<sim::U64ListCursor>* cursors, const graph::CsrGraph& csr,
    NodeArray& node, PointerArray& initial_pointers,
    StatsArray& stats, graph::NodeId v0, graph::NodeId v1, bool allow_skip) {
  graph::NodeId covered = 0;
  sim::U64ListCursor::Run run[kRotorFields];
  for (graph::NodeId v = v0; v < v1;) {
    std::uint64_t span = v1 - v;
    for (std::size_t k = 0; k < kRotorFields; ++k) {
      if (run[k].len == 0) {
        const auto r = cursors[k]->next_run();
        if (!r) return std::nullopt;
        run[k] = *r;
      }
      span = std::min(span, run[k].len);
    }
    bool skip = allow_skip;
    for (std::size_t k = 0; skip && k < kRotorFields; ++k) {
      skip = run[k].delta == 0 && run[k].value == kRotorFieldDefaults[k];
    }
    if (!skip) {
      for (std::uint64_t j = 0; j < span; ++j) {
        const graph::NodeId u = v + static_cast<graph::NodeId>(j);
        const std::uint32_t degree = csr.degree_unchecked(u);
        if (run[0].value >= degree || run[1].value >= degree) {
          return std::nullopt;
        }
        node[u].count = 0;
        node[u].arrivals = 0;
        node[u].pointer = static_cast<std::uint32_t>(run[0].value);
        initial_pointers[u] = static_cast<std::uint32_t>(run[1].value);
        stats[u].visits = run[2].value;
        stats[u].exits = run[3].value;
        stats[u].first_visit = run[4].value;
        stats[u].last_visit = run[5].value;
        if (run[4].value != sim::kNotCovered) ++covered;
        for (std::size_t k = 0; k < kRotorFields; ++k) {
          run[k].value += run[k].delta;
        }
      }
    } else {
      // All six runs are constant defaults over the span; covered
      // gains nothing (first_visit is the sentinel) and every store
      // would rewrite the value already there.
      for (std::size_t k = 0; k < kRotorFields; ++k) {
        run[k].value += run[k].delta * span;  // delta == 0, kept for form
      }
    }
    for (std::size_t k = 0; k < kRotorFields; ++k) run[k].len -= span;
    v += static_cast<graph::NodeId>(span);
  }
  for (std::size_t k = 0; k < kRotorFields; ++k) {
    if (!cursors[k]->finished()) return std::nullopt;
  }
  return covered;
}

}  // namespace detail

/// Validates and applies a serialize_rotor_state document against `csr`'s
/// topology. On success node/stats/initial_pointers hold the restored
/// state (counts and arrival accumulators reset and repopulated from the
/// sparse sites); on failure returns nullopt and the outputs are
/// unspecified (the StateIO contract for a failed restore).
///
/// `assume_defaults`: the caller guarantees node/stats/initial_pointers
/// currently hold the construction-time defaults at every node (count,
/// arrivals, pointer, visits, exits, last_visit all 0; first_visit the
/// never-covered sentinel). Constant runs carrying exactly those values
/// are then skipped instead of rewritten, so restoring a lightly-evolved
/// state into a freshly opened substrate image touches only the pages
/// that actually differ from the image — the resume path stays
/// out-of-core instead of dirtying the whole COW mapping. Skipped
/// pointer runs are value 0, which a connected graph's degree >= 1
/// always admits, so validation is preserved.
///
/// `pool`: a v2 checkpoint splits each per-node field into independently
/// decodable segments (delta baselines restart at each boundary); when
/// all six fields share the same segment layout — always true for
/// documents the v2 encoder wrote — the node range splits at those
/// boundaries and each window deserializes on a pool thread (disjoint
/// node ranges, disjoint writes). Mismatched layouts (only a hand-built
/// document has them), a single segment or no pool decode as one window. Identical results
/// either way (restore is a pure function of the document); only
/// wall-clock differs — this is what keeps session rehydration under
/// server load from serializing on one core.
template <typename NodeArray, typename PointerArray, typename StatsArray>
inline std::optional<RestoredRotorState> deserialize_rotor_state(
    const sim::StateReader& in, const graph::CsrGraph& csr, NodeArray& node,
    PointerArray& initial_pointers, StatsArray& stats,
    bool assume_defaults = false, sim::ThreadPool* pool = nullptr) {
  const graph::NodeId n = csr.num_nodes();
  const auto time = in.u64("time");
  const auto sites = in.pairs("agents");
  if (!time || !sites || sites->empty()) return std::nullopt;
  std::uint64_t total_agents = 0;
  for (const auto& [v, c] : *sites) {
    if (v >= n || c == 0 || c > ~std::uint32_t{0}) return std::nullopt;
    total_agents += c;
  }
  if (total_agents > ~std::uint32_t{0}) return std::nullopt;

  // Node windows [bounds[w], bounds[w+1]): the shared v2 segment layout
  // when a pool can spread it, else the one window [0, n).
  std::optional<std::vector<std::uint64_t>> segments;
  if (pool != nullptr && pool->num_threads() > 1 && n > 0) {
    segments = in.u64_list_segment_bounds(detail::kRotorFieldKeys[0], n);
    for (std::size_t k = 1; segments && k < detail::kRotorFields; ++k) {
      const auto other =
          in.u64_list_segment_bounds(detail::kRotorFieldKeys[k], n);
      if (!other || *other != *segments) segments = std::nullopt;
    }
    if (segments && segments->size() <= 2) segments = std::nullopt;
  }
  const std::vector<std::uint64_t> bounds =
      segments ? std::move(*segments) : std::vector<std::uint64_t>{0, n};
  const bool windowed = bounds.size() > 2;

  // The six per-node fields decode as lockstep run cursors: node v's
  // whole record (pointer, stats) is validated and written in one
  // touch, so the restore makes a single pass over the engine's state
  // memory instead of six, and spans where every field sits in a
  // default-valued constant run are skipped outright under
  // assume_defaults. No O(n) intermediates; a failed stream leaves the
  // state partially written (allowed by the StateIO contract).
  initial_pointers.resize(n);
  const std::size_t windows = bounds.size() - 1;
  std::vector<graph::NodeId> covered(windows, 0);
  std::vector<std::uint8_t> ok(windows, 0);
  const bool allow_skip = assume_defaults && n > 1;
  const auto decode = [&](std::uint64_t w) {
    std::optional<sim::U64ListCursor> cursors[detail::kRotorFields];
    for (std::size_t k = 0; k < detail::kRotorFields; ++k) {
      const char* key = detail::kRotorFieldKeys[k];
      cursors[k] = windowed ? in.u64_list_cursor_window(
                                  key, static_cast<std::size_t>(w),
                                  static_cast<std::size_t>(w) + 1)
                            : in.u64_list_cursor(key, n);
      if (!cursors[k]) return;
    }
    const auto c = detail::apply_rotor_span(
        cursors, csr, node, initial_pointers, stats,
        static_cast<graph::NodeId>(bounds[w]),
        static_cast<graph::NodeId>(bounds[w + 1]), allow_skip);
    if (!c) return;
    covered[w] = *c;
    ok[w] = 1;
  };
  if (windowed && pool != nullptr) {
    pool->for_each(windows, decode, /*chunk=*/1);
  } else {
    for (std::uint64_t w = 0; w < windows; ++w) decode(w);
  }

  RestoredRotorState restored;
  restored.time = *time;
  restored.num_agents = static_cast<std::uint32_t>(total_agents);
  for (std::size_t w = 0; w < windows; ++w) {
    if (!ok[w]) return std::nullopt;
    restored.covered += covered[w];
  }
  restored.sites.reserve(sites->size());
  for (const auto& [v, c] : *sites) {
    node[v].count = static_cast<std::uint32_t>(c);
    restored.sites.push_back(static_cast<graph::NodeId>(v));
  }
  return restored;
}

}  // namespace rr::core
