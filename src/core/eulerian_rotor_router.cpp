#include "core/eulerian_rotor_router.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "core/rotor_router.hpp"

namespace rr::core {

using graph::Arc;
using graph::NodeId;

EulerianRotorRouter::EulerianRotorRouter(graph::CsrGraph g,
                                         const std::vector<NodeId>& agents)
    : csr_(std::move(g)) {
  RR_REQUIRE(!agents.empty(), "need at least one token");
  for (NodeId a : agents) {
    RR_REQUIRE(a < csr_.num_nodes(), "agent out of range");
  }
  circuit_ = graph::eulerian_circuit(csr_, agents.front());
  RR_REQUIRE(index_circuit(), "Hierholzer circuit failed verification");
  // A node of degree d is the tail of d circuit offsets; co-located
  // agents take *successive* occurrences (cycling if there are more
  // agents than ports), so stacked tokens leave along distinct arcs
  // instead of collapsing into one trajectory — mirroring how co-located
  // rotor agents exit through distinct ports.
  std::vector<std::uint32_t> slot(csr_.num_nodes(), ~std::uint32_t{0});
  std::uint32_t slots = 0;
  for (NodeId a : agents) {
    if (slot[a] == ~std::uint32_t{0}) slot[a] = slots++;
  }
  std::vector<std::vector<std::uint64_t>> occurrences(slots);
  for (std::uint64_t i = 0; i < circuit_.size(); ++i) {
    const NodeId tail = circuit_[i].tail;
    if (slot[tail] != ~std::uint32_t{0}) {
      occurrences[slot[tail]].push_back(i);
    }
  }
  std::vector<std::uint32_t> used(slots, 0);
  tokens_.reserve(agents.size());
  for (NodeId a : agents) {
    const auto& occ = occurrences[slot[a]];
    tokens_.push_back(occ[used[slot[a]]++ % occ.size()]);
  }
  reset_visits_from_tokens();
}

EulerianRotorRouter::EulerianRotorRouter(graph::CsrGraph g,
                                         std::vector<Arc> circuit,
                                         std::vector<std::uint64_t> tokens)
    : csr_(std::move(g)),
      circuit_(std::move(circuit)),
      tokens_(std::move(tokens)) {
  RR_REQUIRE(index_circuit(), "not an Eulerian circuit of this graph");
  RR_REQUIRE(!tokens_.empty(), "need at least one token");
  for (std::uint64_t o : tokens_) {
    RR_REQUIRE(o < circuit_.size(), "token offset out of range");
  }
  reset_visits_from_tokens();
}

bool EulerianRotorRouter::index_circuit() {
  const std::size_t arcs = csr_.num_arcs();
  if (arcs == 0 || circuit_.size() != arcs) return false;
  std::vector<std::size_t> offset(csr_.num_nodes() + 1, 0);
  for (NodeId v = 0; v < csr_.num_nodes(); ++v) {
    offset[v + 1] = offset[v] + csr_.degree(v);
  }
  std::vector<std::uint8_t> used(arcs, 0);
  for (std::size_t i = 0; i < circuit_.size(); ++i) {
    const Arc& a = circuit_[i];
    if (a.tail >= csr_.num_nodes() || a.port >= csr_.degree(a.tail)) {
      return false;
    }
    const std::size_t id = offset[a.tail] + a.port;
    if (used[id]) return false;
    used[id] = 1;
    const Arc& next = circuit_[(i + 1) % circuit_.size()];
    if (csr_.neighbor(a.tail, a.port) != next.tail) return false;
  }
  node_at_.resize(circuit_.size());
  for (std::size_t i = 0; i < circuit_.size(); ++i) {
    node_at_[i] = circuit_[i].tail;
  }
  return true;
}

void EulerianRotorRouter::reset_visits_from_tokens() {
  const NodeId n = csr_.num_nodes();
  visits_.assign(n, 0);
  first_visit_.assign(n, sim::kNotCovered);
  present_.assign(n, 0);
  hold_left_.assign(n, 0);
  touched_.clear();
  covered_ = 0;
  time_ = 0;
  for (std::uint64_t o : tokens_) {
    const NodeId v = node_at_[o];
    ++visits_[v];
    if (first_visit_[v] == sim::kNotCovered) {
      first_visit_[v] = 0;
      ++covered_;
    }
  }
}

void EulerianRotorRouter::arrive(NodeId u) {
  ++visits_[u];
  if (first_visit_[u] == sim::kNotCovered) {
    first_visit_[u] = time_;
    ++covered_;
  }
}

std::vector<NodeId> EulerianRotorRouter::agent_positions() const {
  std::vector<NodeId> out;
  out.reserve(tokens_.size());
  for (std::uint64_t o : tokens_) out.push_back(node_at_[o]);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t EulerianRotorRouter::config_hash() const {
  std::vector<std::uint64_t> sorted = tokens_;
  std::sort(sorted.begin(), sorted.end());
  Fnv1a h;
  h.mix(circuit_.size());
  for (std::uint64_t o : sorted) h.mix(o);
  return h.value();
}

void EulerianRotorRouter::serialize_state(sim::StateWriter& out) const {
  out.field_u64("time", time_);
  out.field_u64("circuit_start", circuit_.front().tail);
  std::vector<std::uint64_t> ports(circuit_.size());
  for (std::size_t i = 0; i < circuit_.size(); ++i) ports[i] = circuit_[i].port;
  out.field_list("circuit_ports", ports);
  out.field_list("tokens", tokens_);
  out.field_list("visits", visits_);
  out.field_list("first_visit", first_visit_);
}

bool EulerianRotorRouter::apply_cycle_leap(
    const std::vector<sim::AccumulatorDelta>& deltas, std::uint64_t cycles) {
  // Validate every delta before mutating anything (the hook is atomic):
  // only "time" (scalar) and "visits" (runs covering the node range) are
  // circulation accumulators; anything else falls back to the generic path.
  const sim::AccumulatorDelta* time_d = nullptr;
  const sim::AccumulatorDelta* visits_d = nullptr;
  for (const sim::AccumulatorDelta& d : deltas) {
    if (d.key == "time") {
      if (!d.scalar) return false;
      time_d = &d;
    } else if (d.key == "visits") {
      if (d.scalar) return false;
      std::uint64_t len = 0;
      for (const sim::DeltaRun& r : d.runs) len += r.len;
      if (len != visits_.size()) return false;
      visits_d = &d;
    } else {
      return false;
    }
  }
  if (time_d) time_ += cycles * time_d->scalar_delta;
  if (visits_d) {
    std::size_t v = 0;
    for (const sim::DeltaRun& r : visits_d->runs) {
      const std::uint64_t add = cycles * r.delta;
      for (std::uint64_t i = 0; i < r.len; ++i) visits_[v++] += add;
    }
  }
  return true;
}

bool EulerianRotorRouter::deserialize_state(const sim::StateReader& in) {
  const NodeId n = csr_.num_nodes();
  const std::size_t arcs = csr_.num_arcs();
  const auto time = in.u64("time");
  const auto start = in.u64("circuit_start");
  const auto ports = in.u64_list("circuit_ports", arcs);
  const auto tokens = in.u64_list("tokens");
  const auto visits = in.u64_list("visits", n);
  const auto first_visit = in.u64_list("first_visit", n);
  if (!time || !start || !ports || !tokens || !visits || !first_visit) {
    return false;
  }
  if (*start >= n || tokens->empty()) return false;
  // Re-chain the circuit tails from the start node through the ports.
  std::vector<Arc> circuit(arcs);
  NodeId tail = static_cast<NodeId>(*start);
  for (std::size_t i = 0; i < arcs; ++i) {
    const std::uint64_t port = (*ports)[i];
    if (port >= csr_.degree(tail)) return false;
    circuit[i] = Arc{tail, static_cast<std::uint32_t>(port)};
    tail = csr_.neighbor(tail, static_cast<std::uint32_t>(port));
  }
  if (tail != static_cast<NodeId>(*start)) return false;  // must close
  circuit_ = std::move(circuit);
  if (!index_circuit()) return false;
  for (std::uint64_t o : *tokens) {
    if (o >= circuit_.size()) return false;
  }
  // Visit-statistic consistency: a node is covered iff it was ever
  // visited, first visits never post-date the clock, and every token
  // stands on a covered node.
  NodeId covered = 0;
  for (NodeId v = 0; v < n; ++v) {
    const bool seen = (*first_visit)[v] != sim::kStateSentinel;
    if (seen != ((*visits)[v] > 0)) return false;
    if (seen) {
      if ((*first_visit)[v] > *time) return false;
      ++covered;
    }
  }
  for (std::uint64_t o : *tokens) {
    if ((*first_visit)[node_at_[o]] == sim::kStateSentinel) return false;
  }
  time_ = *time;
  tokens_ = *tokens;
  visits_ = *visits;
  first_visit_ = *first_visit;
  covered_ = covered;
  present_.assign(n, 0);
  hold_left_.assign(n, 0);
  touched_.clear();
  return true;
}

EulerianLockIn eulerian_from_lock_in(const graph::CsrGraph& g, NodeId start,
                                     std::vector<std::uint32_t> pointers,
                                     std::uint64_t max_steps) {
  RR_REQUIRE(g.num_edges() > 0, "lock-in needs at least one edge");
  RR_REQUIRE(g.is_connected(), "lock-in requires a connected graph");
  RR_REQUIRE(start < g.num_nodes(), "start out of range");
  const std::uint64_t lap = g.num_arcs();
  if (max_steps == 0) {
    max_steps = 4ULL * g.diameter() * g.num_edges() + 4ULL * lap + 64;
  }

  EulerianLockIn out;
  out.rotor = std::make_unique<RotorRouter>(
      g, std::vector<NodeId>{start}, std::move(pointers));
  // Hardened detection (full rigid-state confirmation, not hash trust):
  // the accumulator set is the rotor engine's, passed explicitly so the
  // core layer does not depend on the registry.
  static const std::vector<std::string> kRotorAccumulators = {
      "time", "visits", "exits", "last_visit"};
  const auto cycle =
      sim::detect_confirmed_cycle(*out.rotor, max_steps, &kRotorAccumulators);
  if (!cycle) return out;
  out.detected_at = cycle->at_time;
  out.period = cycle->period;

  // The rotor is provably inside its limit cycle; one lap of 2|E| rounds
  // reads off the locked-in circuit (the single agent's position is the
  // unique occupied node, its pointer the arc it traverses next), and by
  // periodicity leaves the rotor in the configuration it started the lap
  // with — i.e. standing on the circuit's first tail.
  std::vector<Arc> circuit;
  circuit.reserve(lap);
  for (std::uint64_t i = 0; i < lap; ++i) {
    const NodeId pos = out.rotor->occupied_nodes().front();
    circuit.push_back(Arc{pos, out.rotor->pointer(pos)});
    out.rotor->step();
  }
  if (!graph::is_eulerian_circuit(g, circuit)) return out;  // hash collision
  out.engine = std::make_unique<EulerianRotorRouter>(
      g, std::move(circuit), std::vector<std::uint64_t>{0});
  out.locked_in = true;
  return out;
}

LockInResult single_agent_lock_in(RotorRouter& rotor,
                                  std::uint64_t max_steps) {
  RR_REQUIRE(rotor.num_agents() == 1, "lock-in runs a single agent");
  const CsrGraph& g = rotor.graph();
  const std::size_t m2 = g.num_arcs();
  if (max_steps == 0) {
    max_steps = 4ULL * g.num_nodes() * g.num_edges() + 4ULL * m2 + 64;
  }

  // Sliding window of the last 2|E| traversed arcs (arc id: row offset +
  // port); lock-in when all distinct (each arc exactly once).
  std::vector<std::uint32_t> in_window(m2, 0);
  std::vector<std::size_t> window(m2, 0);
  std::size_t head = 0, filled = 0, distinct = 0;

  LockInResult result;
  for (std::uint64_t steps = 1; steps <= max_steps; ++steps) {
    const NodeId pos = rotor.occupied_nodes().front();
    const std::size_t arc = g.row_offset(pos) + rotor.pointer(pos);
    rotor.step();

    if (filled == m2) {
      const std::size_t old = window[head];
      if (--in_window[old] == 0) --distinct;
    } else {
      ++filled;
    }
    window[head] = arc;
    if (++in_window[arc] == 1) ++distinct;
    head = (head + 1 == m2) ? 0 : head + 1;

    if (filled == m2 && distinct == m2) {
      result.locked_in = true;
      result.lock_in_time = rotor.time() - m2 + 1;
      result.steps_simulated = steps;
      return result;
    }
  }
  result.steps_simulated = max_steps;
  return result;
}

}  // namespace rr::core
