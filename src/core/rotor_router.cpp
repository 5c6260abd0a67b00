#include "core/rotor_router.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/rotor_state_io.hpp"

namespace rr::core {

RotorRouter::RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers,
                         std::uint32_t shards, sim::ThreadPool* pool)
    : csr_(std::move(csr)),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(csr_.num_nodes()),
      initial_pointers_(csr_.num_nodes()),
      stats_(csr_.num_nodes()) {
  const NodeId n = csr_.num_nodes();
  // Partition's clamp, applied first so a sharded engine's own pool
  // exists before the build work that runs on it.
  if (shards > n) shards = n;
  if (shards > 1) {
    if (!pool) {
      const unsigned hw = std::thread::hardware_concurrency();
      owned_pool_ = std::make_unique<sim::ThreadPool>(
          std::min<unsigned>(shards, hw ? hw : 1));
      pool = owned_pool_.get();
    }
    pool_ = pool;
    part_.emplace(csr_, shards, pool);
  }
  shards_.resize(part_ ? part_->num_shards() : 1);
  if (part_) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      shards_[s].attach(*part_, s);
    }
  }
  // The per-node build runs over the shards' rows, so each shard's
  // occupied list is its agents in `agents` order, as a sequential
  // placement makes it. The sequential engine splits its rows into one
  // range per pool thread and chains the ranges' lists.
  std::vector<NodeId> bounds;
  if (part_) {
    for (std::uint32_t s = 0; s < part_->num_shards(); ++s) {
      bounds.push_back(part_->begin(s));
    }
    bounds.push_back(n);
  } else {
    const std::uint64_t ranges = pool ? pool->num_threads() : 1;
    for (std::uint64_t r = 0; r <= ranges; ++r) {
      bounds.push_back(static_cast<NodeId>(n * r / ranges));
    }
  }
  std::vector<std::vector<NodeId>> sites;
  covered_ = init_rotor_nodes(csr_, agents, pointers, bounds, node_,
                              initial_pointers_, stats_, pool, sites);
  for (std::size_t r = 0; r < sites.size(); ++r) {
    std::vector<NodeId>& occupied = shards_[part_ ? r : 0].occupied;
    if (occupied.empty()) {
      occupied = std::move(sites[r]);
    } else {
      occupied.insert(occupied.end(), sites[r].begin(), sites[r].end());
    }
  }
  pristine_ = pointers.empty();
}

RotorRouter::RotorRouter(const std::shared_ptr<graph::MappedSubstrate>& substrate,
                         const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers)
    : csr_(substrate->csr()),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(substrate->node_state()),
      stats_(substrate->visit_stats<VisitStats>()),
      shards_(1) {
  // The image builder verified connectivity (streamed kinds by
  // construction, built kinds explicitly) and precomputed
  // degree/row_begin, so only the pointer field and agent placement
  // remain. A given pointer field touches every node.
  const NodeId n = csr_.num_nodes();
  if (pointers.empty()) {
    initial_pointers_.assign(n, 0);
  } else {
    RR_REQUIRE(pointers.size() == n, "pointer vector size mismatch");
    for (NodeId v = 0; v < n; ++v) {
      RR_REQUIRE(pointers[v] < csr_.degree_unchecked(v),
                 "pointer out of range");
      node_[v].pointer = pointers[v];
    }
    initial_pointers_.assign(pointers.begin(), pointers.end());
  }
  require_rotor_agents(agents, n);
  covered_ = place_rotor_agents(
      agents, 0, n, node_, stats_,
      [&](NodeId v) { shards_[0].occupied.push_back(v); });
  // Only the first engine over this open may assume the mapping still
  // holds image defaults — engines sharing a handle share COW pages.
  // The claim is consumed unconditionally: this construction dirtied
  // the mapping either way.
  const bool first_over_mapping = substrate->claim_pristine_state();
  pristine_ = pointers.empty() && first_over_mapping;
}

void RotorRouter::merge_shard(std::uint32_t d) {
  RotorShard& sh = shards_[d];
  const RotorArrays a = arrays();
  sh.commit(a, time_);
  // Cross-shard spills destined for this shard, source shards in
  // ascending order: the commit order is a pure function of the
  // configuration, independent of which thread runs which shard. This
  // shard owns every node it drains, so no two committers race.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (s == d) continue;
    shards_[s].drain_spill(d, part_->frontier(s),
                           [&](NodeId u, std::uint32_t c) {
                             sh.commit_arrival(a, time_, u, c);
                           });
  }
}

std::size_t RotorRouter::occupied_count() const {
  std::size_t n = 0;
  for (const RotorShard& sh : shards_) n += sh.occupied.size();
  return n;
}

std::vector<NodeId> RotorRouter::agent_positions() const {
  std::vector<NodeId> pos;
  pos.reserve(num_agents_);
  for (const RotorShard& sh : shards_) {
    for (NodeId v : sh.occupied) {
      for (std::uint32_t i = 0; i < node_[v].count; ++i) pos.push_back(v);
    }
  }
  std::sort(pos.begin(), pos.end());
  return pos;
}

std::uint64_t RotorRouter::config_hash() const {
  return rotor_config_hash(node_);
}

void RotorRouter::serialize_state(sim::StateWriter& out) const {
  // Each shard's rows hold exactly its occupied list's sites, so the
  // shards compact their own rows into disjoint slices on the pool.
  std::vector<SiteRange> ranges(shards_.size());
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    ranges[s] = {part_ ? part_->begin(s) : 0,
                 part_ ? part_->end(s) : csr_.num_nodes(),
                 shards_[s].occupied.size()};
  }
  serialize_rotor_state(out, time_, collect_rotor_sites(node_, ranges, pool_),
                        node_, initial_pointers_, stats_);
}

bool RotorRouter::apply_cycle_leap(
    const std::vector<sim::AccumulatorDelta>& deltas, std::uint64_t cycles) {
  return leap_rotor_accumulators(deltas, cycles, time_, stats_);
}

bool RotorRouter::deserialize_state(const sim::StateReader& in) {
  return deserialize_state(in, /*pool=*/nullptr);
}

bool RotorRouter::deserialize_state(const sim::StateReader& in,
                                    sim::ThreadPool* pool) {
  const bool assume_defaults = pristine_;
  pristine_ = false;
  if (assume_defaults) {
    // Undo the constructor's agent placement so the default-skipping
    // restore's precondition holds at every node (placement only
    // touched count, visits and first_visit on the agent sites).
    for (const RotorShard& sh : shards_) {
      for (const NodeId v : sh.occupied) {
        node_[v].count = 0;
        node_[v].arrivals = 0;
        stats_[v].visits = 0;
        stats_[v].first_visit = kNotCovered;
      }
    }
  }
  const auto restored =
      deserialize_rotor_state(in, csr_, node_, initial_pointers_, stats_,
                              assume_defaults, pool ? pool : pool_);
  if (!restored) return false;
  time_ = restored->time;
  num_agents_ = restored->num_agents;
  covered_ = restored->covered;
  for (RotorShard& sh : shards_) sh.reset();
  for (const NodeId v : restored->sites) {
    shards_[owner(v)].occupied.push_back(v);
  }
  return true;
}

}  // namespace rr::core
