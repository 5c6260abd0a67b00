#include "core/domains.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace rr::core {

namespace {

constexpr std::int64_t kUnvisitedMark = -2;

// o(v,t) for every node, encoded as the anchor node id, or kUnvisitedMark.
std::vector<std::int64_t> compute_o_values(const RingRotorRouter& rr) {
  const NodeId n = rr.num_nodes();
  // nearest_cw[v]: first occupied node reached from v walking clockwise
  // (v itself if occupied); nearest_acw analogously.
  std::vector<NodeId> nearest_cw(n), nearest_acw(n);
  NodeId seed = rr.occupied_nodes().front();
  // Clockwise: walk anticlockwise from seed, propagating the last occupied.
  {
    NodeId carry = seed;
    NodeId v = seed;
    for (NodeId i = 0; i < n; ++i) {
      if (rr.agents_at(v) > 0) carry = v;
      nearest_cw[v] = carry;
      v = rr.anticlockwise(v);
    }
  }
  {
    NodeId carry = seed;
    NodeId v = seed;
    for (NodeId i = 0; i < n; ++i) {
      if (rr.agents_at(v) > 0) carry = v;
      nearest_acw[v] = carry;
      v = rr.clockwise(v);
    }
  }
  std::vector<std::int64_t> o(n);
  for (NodeId v = 0; v < n; ++v) {
    if (rr.agents_at(v) > 0) {
      o[v] = v;
    } else if (!rr.visited(v)) {
      o[v] = kUnvisitedMark;
    } else {
      // Walk opposite to the pointer: pointer clockwise -> walk acw.
      o[v] = (rr.pointer(v) == kClockwise) ? nearest_acw[v] : nearest_cw[v];
    }
  }
  return o;
}

bool node_is_lazy(const RingRotorRouter& rr, NodeId v) {
  if (!rr.visited(v)) return false;
  const std::uint32_t c = rr.agents_at(v);
  // Occupied nodes: the most recent visit is not yet classified (its
  // propagation status is decided at departure). Per Lemma 6 the agent's
  // location belongs to its lazy domain except possibly at endpoints; we
  // count single-occupied nodes as lazy and multi-occupied as not.
  if (c == 1) return true;
  if (c >= 2) return false;
  return rr.last_visit_single_propagation(v);
}

}  // namespace

ONode o_of(const RingRotorRouter& rr, NodeId v) {
  RR_REQUIRE(v < rr.num_nodes(), "node out of range");
  if (rr.agents_at(v) > 0) return {true, v};
  if (!rr.visited(v)) return {false, 0};
  const int step_dir = (rr.pointer(v) == kClockwise) ? -1 : +1;
  NodeId u = v;
  for (NodeId i = 0; i < rr.num_nodes(); ++i) {
    u = (step_dir > 0) ? rr.clockwise(u) : rr.anticlockwise(u);
    if (rr.agents_at(u) > 0) return {true, u};
  }
  RR_REQUIRE(false, "no agent found on the ring");
}

DomainSnapshot compute_domains(const RingRotorRouter& rr) {
  const NodeId n = rr.num_nodes();
  const auto o = compute_o_values(rr);

  DomainSnapshot snap;
  snap.well_defined = true;
  for (NodeId v : rr.occupied_nodes()) {
    if (rr.agents_at(v) > 2) snap.well_defined = false;
  }

  // Find a run boundary to start the scan from; if none, the whole ring is
  // one domain (single agent, fully covered).
  NodeId start = 0;
  bool boundary_found = false;
  for (NodeId v = 0; v < n; ++v) {
    NodeId prev = (v == 0) ? n - 1 : v - 1;
    if (o[v] != o[prev]) {
      start = v;
      boundary_found = true;
      break;
    }
  }
  if (!boundary_found) {
    if (o[0] == kUnvisitedMark) {
      snap.unvisited = n;  // cannot happen: agents occupy nodes
      return snap;
    }
    Domain d{static_cast<NodeId>(o[0]), 0, n, 0};
    for (NodeId v = 0; v < n; ++v) {
      if (node_is_lazy(rr, v)) ++d.lazy_size;
    }
    snap.domains.push_back(d);
    return snap;
  }

  // Scan runs of equal o-value clockwise from `start`.
  struct Run {
    std::int64_t o;
    NodeId begin;
    std::uint32_t size;
  };
  std::vector<Run> runs;
  {
    NodeId v = start;
    for (NodeId i = 0; i < n; ++i) {
      if (runs.empty() || runs.back().o != o[v]) {
        runs.push_back({o[v], v, 1});
      } else {
        ++runs.back().size;
      }
      v = rr.clockwise(v);
    }
  }

  auto lazy_count = [&rr](NodeId begin, std::uint32_t size) {
    std::uint32_t c = 0;
    NodeId v = begin;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (node_is_lazy(rr, v)) ++c;
      v = rr.clockwise(v);
    }
    return c;
  };

  for (const Run& run : runs) {
    if (run.o == kUnvisitedMark) {
      snap.unvisited += run.size;
      continue;
    }
    const NodeId anchor = static_cast<NodeId>(run.o);
    const std::uint32_t offset = (anchor + n - run.begin) % n;
    if (rr.agents_at(anchor) >= 2 && offset < run.size) {
      // Split the run at the anchor between the two colocated agents:
      // pointer clockwise  -> anchor joins the anticlockwise part (Va);
      // pointer anticlockwise -> anchor joins the clockwise part (Vb).
      // (In transient many-agents-per-node states an o-class may not be
      // contiguous; runs not containing their anchor are kept whole.)
      const bool anchor_left = (rr.pointer(anchor) == kClockwise);
      const std::uint32_t left_size = offset + (anchor_left ? 1 : 0);
      const std::uint32_t right_size = run.size - left_size;
      const NodeId right_begin =
          static_cast<NodeId>((run.begin + left_size) % n);
      snap.domains.push_back(
          {anchor, run.begin, left_size, lazy_count(run.begin, left_size)});
      snap.domains.push_back(
          {anchor, right_begin, right_size, lazy_count(right_begin, right_size)});
    } else {
      snap.domains.push_back(
          {anchor, run.begin, run.size, lazy_count(run.begin, run.size)});
    }
  }
  return snap;
}

std::uint32_t DomainSnapshot::min_size() const {
  std::uint32_t m = ~std::uint32_t{0};
  for (const Domain& d : domains) m = std::min(m, d.size);
  return domains.empty() ? 0 : m;
}

std::uint32_t DomainSnapshot::max_size() const {
  std::uint32_t m = 0;
  for (const Domain& d : domains) m = std::max(m, d.size);
  return m;
}

namespace {

std::uint32_t max_cyclic_adjacent_diff(const std::vector<Domain>& ds,
                                       std::uint32_t unvisited, bool lazy) {
  if (ds.size() < 2) return 0;
  std::uint32_t m = 0;
  // With an unexplored region present, the first and last domains border
  // V_bot (an effectively infinite neighbor, cf. Lemma 12) and are not
  // compared with each other.
  const std::size_t pairs = (unvisited == 0) ? ds.size() : ds.size() - 1;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Domain& a = ds[i];
    const Domain& b = ds[(i + 1) % ds.size()];
    const std::int64_t sa = lazy ? a.lazy_size : a.size;
    const std::int64_t sb = lazy ? b.lazy_size : b.size;
    m = std::max<std::uint32_t>(m, static_cast<std::uint32_t>(std::llabs(sa - sb)));
  }
  return m;
}

}  // namespace

std::uint32_t DomainSnapshot::max_adjacent_diff() const {
  return max_cyclic_adjacent_diff(domains, unvisited, /*lazy=*/false);
}

std::uint32_t DomainSnapshot::max_adjacent_lazy_diff() const {
  return max_cyclic_adjacent_diff(domains, unvisited, /*lazy=*/true);
}

BorderCensus census_borders(const RingRotorRouter& rr,
                            const DomainSnapshot& snapshot) {
  BorderCensus census;
  const auto& ds = snapshot.domains;
  if (ds.size() < 2) return census;
  const NodeId n = rr.num_nodes();

  // Lazy sub-arc of a domain: first..last lazy node inside the arc.
  auto lazy_arc = [&](const Domain& d, NodeId& first, NodeId& last) -> bool {
    bool found = false;
    NodeId v = d.begin;
    for (std::uint32_t i = 0; i < d.size; ++i) {
      if (node_is_lazy(rr, v)) {
        if (!found) first = v;
        last = v;
        found = true;
      }
      v = rr.clockwise(v);
    }
    return found;
  };

  const std::size_t pairs = (snapshot.unvisited == 0) ? ds.size() : ds.size() - 1;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Domain& a = ds[i];
    const Domain& b = ds[(i + 1) % ds.size()];
    NodeId a_first = 0, a_last = 0, b_first = 0, b_last = 0;
    if (!lazy_arc(a, a_first, a_last) || !lazy_arc(b, b_first, b_last)) {
      ++census.wide;
      continue;
    }
    // Vertices strictly between a's last lazy node and b's first lazy node.
    const std::uint32_t gap = (b_first + n - a_last) % n;
    if (gap == 1) {
      ++census.edge_type;
    } else if (gap == 2) {
      ++census.vertex_type;
    } else {
      ++census.wide;
    }
  }
  return census;
}

std::optional<sim::CellPainter> ring_painter(const sim::Engine& engine,
                                             bool domains) {
  if (dynamic_cast<const RingRotorRouter*>(&engine) == nullptr) {
    return std::nullopt;
  }
  return [domains](const sim::Engine& e) {
    const auto& rr = static_cast<const RingRotorRouter&>(e);
    const NodeId n = rr.num_nodes();
    std::string cells(n, ' ');
    if (domains) {
      const auto snap = compute_domains(rr);
      for (std::size_t d = 0; d < snap.domains.size(); ++d) {
        const char label = static_cast<char>('a' + (d % 26));
        NodeId v = snap.domains[d].begin;
        for (std::uint32_t i = 0; i < snap.domains[d].size; ++i) {
          cells[v] = label;
          v = rr.clockwise(v);
        }
      }
    } else {
      for (NodeId v = 0; v < n; ++v) {
        if (rr.visited(v)) cells[v] = '.';
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t c = rr.agents_at(v);
      if (c > 0) cells[v] = c == 1 ? 'o' : c == 2 ? '8' : '*';
    }
    return cells;
  };
}

}  // namespace rr::core
