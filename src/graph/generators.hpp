#pragma once

// Topology generators (S2).
//
// The paper's main results are on the n-node ring; general-graph substrates
// (grid, torus, hypercube, clique, trees, random regular, ...) are needed for
// the Yanovski-style Eulerian lock-in baseline (Sec. 1.2), the Lemma 1
// monotonicity experiments, and the load-balancing example. Ring and torus
// stream their rows (graph/lattice_rows.hpp); every other kind lists its
// edges for CsrGraph::from_edges, whose insertion order sets the ports.

#include <cstdint>

#include "graph/csr_graph.hpp"

namespace rr::graph {

/// n-node cycle 0-1-...-(n-1)-0. Port convention: at every node, port 0 is
/// clockwise (v -> v+1 mod n) and port 1 anticlockwise, matching the
/// ring-specialized engine. Requires n >= 3.
CsrGraph ring(NodeId n);

/// Path 0-1-...-(n-1). Requires n >= 2. Port 0 points toward higher ids at
/// internal nodes.
CsrGraph path(NodeId n);

/// w x h grid with 4-neighborhood, node id = y*w + x.
CsrGraph grid(NodeId w, NodeId h);

/// w x h torus (grid with wraparound). Requires w,h >= 3.
CsrGraph torus(NodeId w, NodeId h);

/// Complete graph K_n.
CsrGraph clique(NodeId n);

/// Star with `n` nodes (center 0). Requires n >= 2.
CsrGraph star(NodeId n);

/// Complete binary tree with n nodes (heap layout: children 2i+1, 2i+2).
/// Requires n >= 2: every node needs a port.
CsrGraph binary_tree(NodeId n);

/// d-dimensional hypercube (2^d nodes); port i flips bit i.
CsrGraph hypercube(std::uint32_t d);

/// Lollipop: clique on m nodes glued to a path of n-m nodes (classic
/// worst-case random-walk topology). Requires 3 <= m <= n.
CsrGraph lollipop(NodeId n, NodeId m);

/// Random d-regular graph via pairing with rejection; deterministic given
/// `seed`. Requires n*d even, d < n. The result is simple (no parallel
/// edges) and connected (re-sampled until both hold).
CsrGraph random_regular(NodeId n, std::uint32_t d, std::uint64_t seed);

/// Erdos-Renyi G(n,p) conditioned on connectivity (re-sampled until
/// connected; use p comfortably above the connectivity threshold).
CsrGraph erdos_renyi(NodeId n, double p, std::uint64_t seed);

}  // namespace rr::graph
