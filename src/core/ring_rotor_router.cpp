#include "core/ring_rotor_router.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace rr::core {

RingRotorRouter::RingRotorRouter(NodeId n, const std::vector<NodeId>& agents,
                                 std::vector<std::uint8_t> pointers)
    : n_(n),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(n),
      stats_(n),
      pointers_(std::move(pointers)) {
  RR_REQUIRE(n >= 3, "ring requires n >= 3");
  RR_REQUIRE(!agents.empty(), "at least one agent required");
  if (pointers_.empty()) {
    pointers_.assign(n, kClockwise);
  } else {
    RR_REQUIRE(pointers_.size() == n, "pointer vector size mismatch");
    for (std::uint8_t p : pointers_) {
      RR_REQUIRE(p <= 1, "ring pointer must be 0 (cw) or 1 (acw)");
    }
  }
  for (NodeId v : agents) {
    RR_REQUIRE(v < n, "agent start node out of range");
    if (node_[v].count == 0) occupied_.push_back(v);
    ++node_[v].count;
    ++stats_[v].visits;
  }
  for (NodeId v : occupied_) {
    stats_[v].first_visit = 0;
    node_[v].last_arrival = node_[v].count;
  }
  covered_ = static_cast<NodeId>(occupied_.size());
}

void RingRotorRouter::run(std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    step();
    fire_auto_checkpoint_if_due();
  }
}

std::uint64_t RingRotorRouter::run_until_covered(std::uint64_t max_rounds) {
  if (covered_ == n_) return 0;
  while (time_ < max_rounds && covered_ != n_) {
    step();
    fire_auto_checkpoint_if_due();
  }
  return covered_ == n_ ? time_ : kRingNotCovered;
}

void RingRotorRouter::commit_arrivals() {
  for (const NodeId u : touched_) {
    RingNode& nu = node_[u];
    const std::uint32_t a = nu.arrivals;
    nu.arrivals = 0;
    if (nu.count == 0) occupied_.push_back(u);
    nu.count += a;
    nu.last_arrival = a;
    if (a == 1) nu.travel_dir = nu.arrival_dir;
    VisitStats& st = stats_[u];
    st.visits += a;
    st.last_visit = time_;
    if (st.first_visit == kRingNotCovered) {
      st.first_visit = time_;
      ++covered_;
    }
  }
  touched_.clear();
}

std::vector<NodeId> RingRotorRouter::agent_positions() const {
  std::vector<NodeId> pos;
  pos.reserve(num_agents_);
  for (NodeId v : occupied_) pos.insert(pos.end(), node_[v].count, v);
  std::sort(pos.begin(), pos.end());
  return pos;
}

std::uint64_t RingRotorRouter::config_hash() const {
  Fnv1a h;
  for (NodeId v = 0; v < n_; ++v) {
    h.mix(pointers_[v]);
    h.mix(node_[v].count);
  }
  return h.value();
}

void RingRotorRouter::serialize_state(sim::StateWriter& out) const {
  out.field_u64("time", time_);
  sim::PairList sites;
  std::vector<std::uint8_t> travel_dir(n_), single_prop(n_);
  for (NodeId v = 0; v < n_; ++v) {
    if (node_[v].count > 0) sites.emplace_back(v, node_[v].count);
    travel_dir[v] = node_[v].travel_dir;
    single_prop[v] = node_[v].single_prop;
  }
  out.field_pairs("agents", std::move(sites));
  out.field_dirs("pointers", pointers_);
  const VisitStats& s0 = stats_[0];
  out.field_list_strided("visits", n_, &s0.visits, sizeof s0, 8);
  out.field_list_strided("exits", n_, &s0.exits, sizeof s0, 8);
  out.field_list_strided("first_visit", n_, &s0.first_visit, sizeof s0, 8);
  out.field_list_strided("last_visit", n_, &s0.last_visit, sizeof s0, 8);
  out.field_dirs("travel_dir", travel_dir);
  out.field_list_strided("last_arrival", n_, &node_[0].last_arrival,
                         sizeof(RingNode), 4);
  out.field_bits("last_single_prop", single_prop);
}

bool RingRotorRouter::deserialize_state(const sim::StateReader& in) {
  const auto time = in.u64("time");
  const auto sites = in.pairs("agents");
  const auto pointers = in.dirs("pointers", n_);
  const auto visits = in.u64_list("visits", n_);
  const auto exits = in.u64_list("exits", n_);
  const auto first_visit = in.u64_list("first_visit", n_);
  const auto last_visit = in.u64_list("last_visit", n_);
  const auto travel_dir = in.dirs("travel_dir", n_);
  const auto last_arrival = in.u64_list("last_arrival", n_);
  const auto last_single_prop = in.bits("last_single_prop", n_);
  if (!time || !sites || sites->empty() || !pointers || !visits || !exits ||
      !first_visit || !last_visit || !travel_dir || !last_arrival ||
      !last_single_prop) {
    return false;
  }
  // Applied while validated: a failed restore is unspecified (StateIO).
  time_ = *time;
  pointers_ = *pointers;
  covered_ = 0;
  for (NodeId v = 0; v < n_; ++v) {
    const std::uint64_t last = (*last_arrival)[v];
    if (last > ~std::uint32_t{0}) return false;
    node_[v] = RingNode{0, 0, static_cast<std::uint32_t>(last), 0,
                        (*travel_dir)[v], (*last_single_prop)[v]};
    stats_[v] = {(*visits)[v], (*exits)[v], (*first_visit)[v],
                 (*last_visit)[v]};
    if (stats_[v].first_visit != kRingNotCovered) ++covered_;
  }
  std::uint64_t total_agents = 0;
  occupied_.clear();
  for (const auto& [v, c] : *sites) {
    if (v >= n_ || c == 0 || c > ~std::uint32_t{0}) return false;
    total_agents += c;
    node_[v].count = static_cast<std::uint32_t>(c);
    occupied_.push_back(static_cast<NodeId>(v));
  }
  num_agents_ = static_cast<std::uint32_t>(total_agents);
  return total_agents <= ~std::uint32_t{0};
}

}  // namespace rr::core
