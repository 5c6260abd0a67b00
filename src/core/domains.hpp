#pragma once

// Agent domains on the ring (S6, paper Sec. 2.2).
//
// At any round t where every node hosts at most 2 agents, the visited nodes
// of the ring partition into contiguous *domains*, one per agent: v belongs
// to the agent that was the last to visit it. The paper formalizes this via
// o(v,t): the first agent-occupied node in the direction opposite to the
// pointer at v. A node v* hosting two agents splits its o-class between
// them according to the pointer at v* (Fig. 1's setting). Unvisited nodes
// form the dummy domain V_bot.
//
// *Lazy domains* (Definition 1) restrict a domain to nodes whose last
// completed visit was a single-agent propagation; adjacent lazy domains are
// separated by a vertex-type or edge-type border (Fig. 1).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ring_rotor_router.hpp"
#include "sim/trace.hpp"

namespace rr::core {

/// One agent's domain: a contiguous arc of the ring.
struct Domain {
  NodeId anchor;      ///< node hosting the owning agent (o(v,t) value)
  NodeId begin;       ///< first node of the arc (clockwise orientation)
  std::uint32_t size; ///< number of nodes in the arc
  std::uint32_t lazy_size; ///< nodes of the arc in the lazy domain
};

enum class BorderType : std::uint8_t {
  kVertex,   ///< one non-lazy vertex between adjacent lazy domains (Fig. 1a)
  kEdge,     ///< lazy domains directly adjacent (Fig. 1b)
  kWide,     ///< more than one vertex between them (transient states)
};

struct DomainSnapshot {
  std::vector<Domain> domains;  ///< in clockwise order around the ring
  std::uint32_t unvisited = 0;  ///< |V_bot|
  bool well_defined = false;    ///< every node hosted <= 2 agents

  std::uint32_t min_size() const;
  std::uint32_t max_size() const;
  /// max |size_i - size_{i+1}| over cyclically adjacent domains; domains
  /// adjacent across the unvisited region are not compared (Lemma 12's
  /// "infinite" domain). Returns 0 with fewer than 2 domains.
  std::uint32_t max_adjacent_diff() const;
  std::uint32_t max_adjacent_lazy_diff() const;
};

/// Computes the domain partition of the current configuration in O(n).
DomainSnapshot compute_domains(const RingRotorRouter& rr);

struct BorderCensus {
  std::uint32_t vertex_type = 0;
  std::uint32_t edge_type = 0;
  std::uint32_t wide = 0;  ///< transient / not yet stabilized gaps
};

/// Classifies the borders between cyclically adjacent lazy domains.
BorderCensus census_borders(const RingRotorRouter& rr,
                            const DomainSnapshot& snapshot);

/// o(v,t) for a single node: the occupied node found walking from v in the
/// direction opposite to v's pointer; v itself if occupied; kRingNotCovered
/// cast to NodeId is never used — unvisited nodes return `false` via the
/// `has_value` flag.
struct ONode {
  bool defined;
  NodeId value;
};
ONode o_of(const RingRotorRouter& rr, NodeId v);

/// Ring trace painter for sim::record_trace: 'o' one agent, '8' two
/// agents, '*' three or more, '.' visited, ' ' unvisited. With `domains`,
/// visited nodes show the letter of their owning agent's domain (a..z,
/// cycling) instead of '.'. It reads a RingRotorRouter: nullopt for any
/// other engine. Two agents on a 20-node ring, with domains:
///
///   t=0 |o         o         |
///   t=4 |ob       aoa       b|
std::optional<sim::CellPainter> ring_painter(const sim::Engine& engine,
                                             bool domains);

}  // namespace rr::core
