#include "core/lazy_ring_rotor_router.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace rr::core {

namespace {

constexpr std::uint64_t kUnbounded = ~std::uint64_t{0} >> 1;

}  // namespace

LazyRingRotorRouter::LazyRingRotorRouter(NodeId n,
                                         const std::vector<NodeId>& agents,
                                         std::vector<std::uint8_t> pointers)
    : n_(n),
      k_(static_cast<std::uint32_t>(agents.size())),
      dense_(std::make_unique<RingRotorRouter>(n, agents, std::move(pointers))) {
  // Compact initializations (all-clockwise defaults, equally spaced starts)
  // already have an O(k)-run pointer field: go lazy from round 0. Adversarial
  // fields (random, negative) stay on the dense engine for the transient,
  // and on a crowded ring (!wide()) for good.
  if (!try_promote()) next_promo_ = promo_interval_;
}

bool LazyRingRotorRouter::leaps_pay() const {
  if (!dense_ || wide()) return true;
  std::vector<NodeId> nodes = dense_->occupied_nodes();
  if (nodes.size() < k_) return false;  // a shared node: gap 0
  std::sort(nodes.begin(), nodes.end());
  NodeId gap = nodes.front() + n_ - nodes.back();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    gap = std::min(gap, nodes[i] - nodes[i - 1]);
  }
  return gap >= kSpreadGap;
}

// ---- promotion ----

std::uint32_t LazyRingRotorRouter::pointer_arc_count() const {
  if (!dense_) return static_cast<std::uint32_t>(runs_.size());
  std::uint32_t arcs = 1;
  for (NodeId v = 1; v < n_; ++v) {
    if (dense_->pointer(v) != dense_->pointer(v - 1)) ++arcs;
  }
  return arcs;
}

bool LazyRingRotorRouter::try_promote(bool force) {
  if (!dense_) return true;
  if (!force) {
    if (!leaps_pay()) return false;
    const std::uint32_t limit = std::max<std::uint32_t>(64, 4 * k_ + 16);
    if (pointer_arc_count() > limit) return false;
  }

  runs_.clear();
  auto hint = runs_.emplace_hint(runs_.end(), 0, dense_->pointer(0));
  for (NodeId v = 1; v < n_; ++v) {
    if (dense_->pointer(v) != dense_->pointer(v - 1)) {
      hint = runs_.emplace_hint(runs_.end(), v, dense_->pointer(v));
    }
  }
  (void)hint;

  sites_.clear();
  sites_.reserve(dense_->occupied_nodes().size());
  for (NodeId v : dense_->occupied_nodes()) {
    sites_.push_back({v, dense_->agents_at(v)});
  }
  std::sort(sites_.begin(), sites_.end(),
            [](const Site& a, const Site& b) { return a.node < b.node; });

  std::vector<std::int64_t> visits0(n_);
  for (NodeId v = 0; v < n_; ++v) {
    visits0[v] = static_cast<std::int64_t>(dense_->visits(v));
  }
  visit_counts_ = RangeAddFenwick(visits0);

  first_visit_.resize(n_);
  for (NodeId v = 0; v < n_; ++v) {
    first_visit_[v] = dense_->first_visit_time(v);
  }
  rebuild_unvisited_from_first_visit();
  time_ = dense_->time();
  dense_.reset();
  return true;
}

void LazyRingRotorRouter::maybe_promote() {
  // A crowded engine never advances its serialized schedule, including a
  // schedule loaded from a checkpoint that had already doubled it.
  if (!dense_ || !wide() || dense_->time() < next_promo_) return;
  if (!try_promote()) {
    promo_interval_ *= 2;
    next_promo_ = dense_->time() + promo_interval_;
  }
}

std::uint64_t LazyRingRotorRouter::dense_chunk(std::uint64_t rounds) const {
  if (wide()) rounds = std::min(rounds, next_promo_ - dense_->time());
  return std::max<std::uint64_t>(
      1, std::min(rounds, rounds_to_auto_checkpoint()));
}

// ---- pointer-run map ----

std::uint8_t LazyRingRotorRouter::run_value(NodeId v) const {
  return std::prev(runs_.upper_bound(v))->second;
}

std::uint64_t LazyRingRotorRouter::segment_from(NodeId v,
                                                std::uint8_t* dir_out) const {
  auto it = std::prev(runs_.upper_bound(v));
  const std::uint8_t e = it->second;
  if (dir_out) *dir_out = e;
  if (e == kClockwise) {
    auto nx = std::next(it);
    const NodeId end = (nx == runs_.end()) ? n_ - 1 : nx->first - 1;
    return static_cast<std::uint64_t>(end) - v + 1;
  }
  return static_cast<std::uint64_t>(v) - it->first + 1;
}

void LazyRingRotorRouter::flip_run_prefix(NodeId v, std::uint64_t len,
                                          std::uint8_t dir) {
  RR_ASSERT(len >= 1 && len <= n_, "flip length out of range");
  const NodeId lo =
      dir == kClockwise ? v : static_cast<NodeId>(v - (len - 1));
  const NodeId hi =
      dir == kClockwise ? static_cast<NodeId>(v + (len - 1)) : v;
  flip_range(lo, hi);
}

void LazyRingRotorRouter::flip_range(NodeId lo, NodeId hi) {
  auto it = std::prev(runs_.upper_bound(lo));
  const NodeId a = it->first;
  const std::uint8_t x = it->second;
  const std::uint8_t y = x ^ 1;
  auto nxt = std::next(it);
  const NodeId b = (nxt == runs_.end()) ? n_ - 1 : nxt->first - 1;
  RR_ASSERT(hi <= b, "flip range spans multiple runs");
  if (hi < b) {
    runs_.emplace_hint(nxt, hi + 1, x);
  } else if (nxt != runs_.end() && nxt->second == y) {
    runs_.erase(nxt);
  }
  if (lo > a) {
    runs_.emplace(lo, y);
  } else {
    it->second = y;
    if (a != 0) {
      auto pit = std::prev(it);
      if (pit->second == y) runs_.erase(it);
    }
  }
}

// ---- coverage bookkeeping ----

std::uint64_t LazyRingRotorRouter::ring_dist(NodeId origin, NodeId u,
                                             std::uint8_t dir) const {
  const NodeId d = dir == kClockwise ? static_cast<NodeId>((u + n_ - origin) % n_)
                                     : static_cast<NodeId>((origin + n_ - u) % n_);
  return d == 0 ? n_ : d;
}

void LazyRingRotorRouter::rebuild_unvisited_from_first_visit() {
  covered_ = 0;
  unvisited_.clear();
  for (NodeId v = 0; v < n_; ++v) {
    if (first_visit_[v] != sim::kNotCovered) {
      ++covered_;
    } else if (v == 0 || first_visit_[v - 1] != sim::kNotCovered) {
      unvisited_.emplace_hint(unvisited_.end(), v, v);
    } else {
      std::prev(unvisited_.end())->second = v;
    }
  }
}

void LazyRingRotorRouter::mark_visited(NodeId v, std::uint64_t round) {
  first_visit_[v] = round;
  ++covered_;
  auto it = std::prev(unvisited_.upper_bound(v));
  const NodeId a = it->first;
  const NodeId b = it->second;
  RR_ASSERT(a <= v && v <= b, "unvisited arcs out of sync");
  unvisited_.erase(it);
  if (a < v) unvisited_.emplace(a, v - 1);
  if (v < b) unvisited_.emplace(v + 1, b);
}

LazyRingRotorRouter::CoverScan LazyRingRotorRouter::scan_unvisited(
    NodeId a, NodeId b, NodeId origin, std::uint8_t dir,
    std::uint64_t t0) const {
  CoverScan out;
  auto it = unvisited_.upper_bound(a);
  if (it != unvisited_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= a) it = prev;
  }
  for (; it != unvisited_.end() && it->first <= b; ++it) {
    const NodeId lo = std::max(it->first, a);
    const NodeId hi = std::min(it->second, b);
    out.newly += static_cast<std::uint64_t>(hi) - lo + 1;
    std::uint64_t maxd =
        std::max(ring_dist(origin, lo, dir), ring_dist(origin, hi, dir));
    if (lo <= origin && origin <= hi) maxd = n_;
    out.last_round = std::max(out.last_round, t0 + maxd);
  }
  return out;
}

void LazyRingRotorRouter::apply_cover(NodeId a, NodeId b, NodeId origin,
                                      std::uint8_t dir, std::uint64_t t0) {
  // Collect the overlapped arcs first; arc surgery after the scan keeps the
  // iteration simple.
  std::vector<std::pair<NodeId, NodeId>> hits;
  {
    auto it = unvisited_.upper_bound(a);
    if (it != unvisited_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= a) it = prev;
    }
    for (; it != unvisited_.end() && it->first <= b; ++it) hits.push_back(*it);
  }
  for (const auto& [arc_a, arc_b] : hits) {
    const NodeId lo = std::max(arc_a, a);
    const NodeId hi = std::min(arc_b, b);
    for (NodeId u = lo;; ++u) {
      first_visit_[u] = t0 + ring_dist(origin, u, dir);
      if (u == hi) break;
    }
    covered_ += hi - lo + 1;
    unvisited_.erase(arc_a);
    if (arc_a < lo) unvisited_.emplace(arc_a, lo - 1);
    if (hi < arc_b) unvisited_.emplace(hi + 1, arc_b);
  }
}

void LazyRingRotorRouter::sweep_visits(NodeId origin, std::uint8_t dir,
                                       std::uint64_t adv, std::uint64_t t0) {
  // Arrival set: adv consecutive nodes; as a clockwise-ascending range it
  // starts at origin+1 (cw sweep) or origin-adv (acw sweep), split at the
  // 0 wrap.
  const NodeId first = dir == kClockwise ? fwd(origin, 1) : bwd(origin, adv);
  const std::uint64_t tail = std::min<std::uint64_t>(adv, n_ - first);
  const NodeId tail_end = static_cast<NodeId>(first + tail - 1);
  visit_counts_.add(first, tail_end, 1);
  if (covered_ < n_) apply_cover(first, tail_end, origin, dir, t0);
  if (adv > tail) {
    const NodeId head_end = static_cast<NodeId>(adv - tail - 1);
    visit_counts_.add(0, head_end, 1);
    if (covered_ < n_) apply_cover(0, head_end, origin, dir, t0);
  }
}

// ---- one exact synchronous round (sparse) ----

void LazyRingRotorRouter::depart_lazy(std::size_t site_idx,
                                      std::uint32_t moving,
                                      std::uint32_t held) {
  Site& s = sites_[site_idx];
  const NodeId v = s.node;
  const std::uint8_t ptr = run_value(v);
  // Alternating ports starting at the pointer: ceil(moving/2) through the
  // pointer's direction, floor(moving/2) the other way; pointer advances by
  // parity. Mirrors RingRotorRouter::depart exactly.
  const std::uint32_t via_ptr = (moving + 1) / 2;
  const std::uint32_t cw_out = ptr == kClockwise ? via_ptr : moving - via_ptr;
  const std::uint32_t acw_out = moving - cw_out;
  if (moving & 1) flip_run_prefix(v, 1, kClockwise);
  if (cw_out > 0) arrivals_.push_back({fwd(v, 1), cw_out});
  if (acw_out > 0) arrivals_.push_back({bwd(v, 1), acw_out});
  s.count = held;
}

void LazyRingRotorRouter::commit_lazy_round() {
  std::sort(arrivals_.begin(), arrivals_.end(),
            [](const Site& a, const Site& b) { return a.node < b.node; });
  std::size_t w = 0;
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    if (w > 0 && arrivals_[w - 1].node == arrivals_[i].node) {
      arrivals_[w - 1].count += arrivals_[i].count;
    } else {
      arrivals_[w++] = arrivals_[i];
    }
  }
  arrivals_.resize(w);

  for (const Site& arr : arrivals_) {
    visit_counts_.add(arr.node, arr.node, arr.count);
    if (first_visit_[arr.node] == sim::kNotCovered) {
      mark_visited(arr.node, time_);
    }
  }

  merged_.clear();
  std::size_t si = 0;
  std::size_t ai = 0;
  while (si < sites_.size() || ai < arrivals_.size()) {
    if (si < sites_.size() && sites_[si].count == 0) {
      ++si;
      continue;
    }
    if (ai == arrivals_.size() ||
        (si < sites_.size() && sites_[si].node < arrivals_[ai].node)) {
      merged_.push_back(sites_[si++]);
    } else if (si == sites_.size() ||
               arrivals_[ai].node < sites_[si].node) {
      merged_.push_back(arrivals_[ai++]);
    } else {
      merged_.push_back({sites_[si].node, sites_[si].count + arrivals_[ai].count});
      ++si;
      ++ai;
    }
  }
  sites_.swap(merged_);
  arrivals_.clear();
}

// ---- ballistic fast-forward ----

std::uint64_t LazyRingRotorRouter::safe_window() const {
  if (sites_.size() < 2) return kUnbounded;
  NodeId min_gap = n_;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const NodeId a = sites_[i].node;
    const NodeId b = sites_[(i + 1) % sites_.size()].node;
    const NodeId gap = i + 1 == sites_.size()
                           ? static_cast<NodeId>(b + n_ - a)
                           : static_cast<NodeId>(b - a);
    min_gap = std::min(min_gap, gap);
  }
  return (min_gap - 1) / 2;
}

std::uint64_t LazyRingRotorRouter::min_segment() const {
  std::uint64_t m = kUnbounded;
  for (const Site& s : sites_) {
    m = std::min(m, segment_from(s.node, nullptr));
  }
  return m;
}

void LazyRingRotorRouter::leap_window(std::uint64_t rounds) {
  RR_ASSERT(rounds >= 1 && rounds <= safe_window(), "unsafe leap window");
  for (Site& s : sites_) {
    std::uint64_t left = rounds;
    NodeId p = s.node;
    std::uint64_t t = time_;
    while (left > 0) {
      std::uint8_t e = 0;
      const std::uint64_t m = segment_from(p, &e);
      const std::uint64_t adv = std::min(left, m);
      flip_run_prefix(p, adv, e);
      sweep_visits(p, e, adv, t);
      p = e == kClockwise ? fwd(p, adv) : bwd(p, adv);
      t += adv;
      left -= adv;
    }
    s.node = p;
  }
  time_ += rounds;
  // Displacements are under half the minimum gap, so the cyclic order is
  // intact; a wrap past node 0 can still rotate the linear order.
  std::sort(sites_.begin(), sites_.end(),
            [](const Site& a, const Site& b) { return a.node < b.node; });
}

std::uint64_t LazyRingRotorRouter::linear_cover_round(
    std::uint64_t rounds) const {
  std::uint64_t newly = 0;
  std::uint64_t last = 0;
  for (const Site& s : sites_) {
    std::uint8_t e = 0;
    (void)segment_from(s.node, &e);
    const NodeId first = e == kClockwise ? fwd(s.node, 1) : bwd(s.node, rounds);
    const std::uint64_t tail = std::min<std::uint64_t>(rounds, n_ - first);
    const CoverScan c1 = scan_unvisited(
        first, static_cast<NodeId>(first + tail - 1), s.node, e, time_);
    newly += c1.newly;
    last = std::max(last, c1.last_round);
    if (rounds > tail) {
      const CoverScan c2 = scan_unvisited(
          0, static_cast<NodeId>(rounds - tail - 1), s.node, e, time_);
      newly += c2.newly;
      last = std::max(last, c2.last_round);
    }
  }
  if (newly > 0 && covered_ + newly == n_) return last;
  return 0;
}

// ---- drivers ----

void LazyRingRotorRouter::run(std::uint64_t rounds) {
  const std::uint64_t target = time() + rounds;
  while (time() < target) {
    if (dense_) {
      maybe_promote();
      if (dense_) {
        dense_->run(dense_chunk(target - time()));
        fire_auto_checkpoint_if_due();
        continue;
      }
    }
    if (!leap_eligible()) {
      step();
      fire_auto_checkpoint_if_due();
      continue;
    }
    // Leaps stop at the next auto-checkpoint mark so the sink fires on
    // the exact schedule even when thousands of rounds pass per leap.
    const std::uint64_t w = std::min(
        {safe_window(), target - time_, rounds_to_auto_checkpoint()});
    if (w == 0) {
      step();
      fire_auto_checkpoint_if_due();
      continue;
    }
    leap_window(w);
    fire_auto_checkpoint_if_due();
  }
}

std::uint64_t LazyRingRotorRouter::run_until_covered(std::uint64_t max_rounds) {
  if (all_covered()) return 0;
  while (time() < max_rounds) {
    if (dense_) {
      maybe_promote();
      if (dense_) {
        dense_->run_until_covered(time() + dense_chunk(max_rounds - time()));
        fire_auto_checkpoint_if_due();
        if (all_covered()) return time();
        continue;
      }
    }
    if (!leap_eligible()) {
      step();
      fire_auto_checkpoint_if_due();
      if (covered_ == n_) return time_;
      continue;
    }
    std::uint64_t leap = std::min({safe_window(), min_segment(),
                                   max_rounds - time_,
                                   rounds_to_auto_checkpoint()});
    if (leap == 0) {
      step();
      fire_auto_checkpoint_if_due();
      if (covered_ == n_) return time_;
      continue;
    }
    // Single-segment leaps have predictable trajectories, so coverage
    // completion can be located exactly and the leap clamped to land on the
    // cover round (matching the dense engine's stop-at-cover contract).
    const std::uint64_t cover = linear_cover_round(leap);
    if (cover > 0) leap = cover - time_;
    leap_window(leap);
    fire_auto_checkpoint_if_due();
    if (covered_ == n_) return time_;
  }
  return sim::kNotCovered;
}

// ---- observers ----

std::uint64_t LazyRingRotorRouter::visits(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  if (dense_) return dense_->visits(v);
  return static_cast<std::uint64_t>(visit_counts_.at(v));
}

std::uint64_t LazyRingRotorRouter::first_visit_time(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  if (dense_) return dense_->first_visit_time(v);
  return first_visit_[v];
}

std::uint32_t LazyRingRotorRouter::agents_at(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  if (dense_) return dense_->agents_at(v);
  const auto it = std::lower_bound(
      sites_.begin(), sites_.end(), v,
      [](const Site& s, NodeId node) { return s.node < node; });
  return it != sites_.end() && it->node == v ? it->count : 0;
}

std::uint8_t LazyRingRotorRouter::pointer(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  if (dense_) return dense_->pointer(v);
  return run_value(v);
}

std::uint64_t LazyRingRotorRouter::config_hash() const {
  if (dense_) return dense_->config_hash();
  // Byte-compatible with RingRotorRouter::config_hash: mix(pointer, count)
  // per node in node order.
  Fnv1a h;
  auto run = runs_.begin();
  auto next_run = std::next(run);
  std::size_t si = 0;
  for (NodeId v = 0; v < n_; ++v) {
    if (next_run != runs_.end() && next_run->first == v) {
      run = next_run;
      ++next_run;
    }
    std::uint32_t count = 0;
    if (si < sites_.size() && sites_[si].node == v) {
      count = sites_[si].count;
      ++si;
    }
    h.mix(run->second);
    h.mix(count);
  }
  return h.value();
}

// ---- state I/O ----

void LazyRingRotorRouter::serialize_state(sim::StateWriter& out) const {
  if (dense_) {
    out.field("phase", "dense");
    dense_->serialize_state(out);
    out.field_u64("next_promo", next_promo_);
    out.field_u64("promo_interval", promo_interval_);
    return;
  }
  out.field("phase", "lazy");
  out.field_u64("time", time_);
  out.field_pairs("runs", sim::PairList(runs_.begin(), runs_.end()));
  sim::PairList sites;
  sites.reserve(sites_.size());
  for (const Site& s : sites_) sites.emplace_back(s.node, s.count);
  out.field_pairs("agents", std::move(sites));
  std::vector<std::uint64_t> visits(n_);
  for (NodeId v = 0; v < n_; ++v) {
    visits[v] = static_cast<std::uint64_t>(visit_counts_.at(v));
  }
  out.field_list("visits", visits);
  out.field_list("first_visit", first_visit_);
}

bool LazyRingRotorRouter::deserialize_state(const sim::StateReader& in) {
  const auto phase = in.raw("phase");
  if (!phase) return false;
  if (*phase == "dense") {
    // Demote if the constructor already promoted this instance (compact
    // initial fields go lazy at round 0): the dense engine is rebuilt and
    // then overwritten field-by-field by its own deserialize.
    if (!dense_) {
      dense_ = std::make_unique<RingRotorRouter>(n_, std::vector<NodeId>{0});
    }
    if (!dense_->deserialize_state(in)) return false;
    const auto next_promo = in.u64("next_promo");
    const auto promo_interval = in.u64("promo_interval");
    if (!next_promo || !promo_interval || *promo_interval == 0) return false;
    k_ = dense_->num_agents();
    next_promo_ = *next_promo;
    promo_interval_ = *promo_interval;
    runs_.clear();
    sites_.clear();
    arrivals_.clear();
    merged_.clear();
    visit_counts_ = RangeAddFenwick();
    first_visit_.clear();
    unvisited_.clear();
    time_ = 0;
    covered_ = 0;
    return true;
  }
  if (*phase != "lazy") return false;

  const auto time = in.u64("time");
  const auto runs = in.pairs("runs");
  const auto sites = in.pairs("agents");
  const auto visits = in.u64_list("visits", n_);
  const auto first_visit = in.u64_list("first_visit", n_);
  if (!time || !runs || runs->empty() || !sites || sites->empty() || !visits ||
      !first_visit) {
    return false;
  }
  if ((*runs)[0].first != 0) return false;  // node 0 always starts a run
  for (const auto& [start, value] : *runs) {
    if (start >= n_ || value > 1) return false;
  }
  std::uint64_t total_agents = 0;
  for (const auto& [v, c] : *sites) {
    if (v >= n_ || c == 0 || c > ~std::uint32_t{0}) return false;
    total_agents += c;
  }
  if (total_agents > ~std::uint32_t{0}) return false;
  for (std::uint64_t x : *visits) {
    if (x > static_cast<std::uint64_t>(~std::uint64_t{0} >> 1)) return false;
  }

  time_ = *time;
  k_ = static_cast<std::uint32_t>(total_agents);
  runs_.clear();
  for (const auto& [start, value] : *runs) {
    // Merge redundant splits so segment_from sees maximal runs again.
    if (!runs_.empty() && std::prev(runs_.end())->second ==
                              static_cast<std::uint8_t>(value)) {
      continue;
    }
    runs_.emplace_hint(runs_.end(), static_cast<NodeId>(start),
                       static_cast<std::uint8_t>(value));
  }
  sites_.clear();
  for (const auto& [v, c] : *sites) {
    sites_.push_back({static_cast<NodeId>(v), static_cast<std::uint32_t>(c)});
  }
  arrivals_.clear();
  merged_.clear();
  std::vector<std::int64_t> values(n_);
  for (NodeId v = 0; v < n_; ++v) {
    values[v] = static_cast<std::int64_t>((*visits)[v]);
  }
  visit_counts_ = RangeAddFenwick(values);
  first_visit_ = *first_visit;
  rebuild_unvisited_from_first_visit();
  dense_.reset();
  return true;
}

}  // namespace rr::core
