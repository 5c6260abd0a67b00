#pragma once

// Self-describing graph descriptors (graph layer).
//
// A checkpoint (sim/checkpoint.hpp) must name the substrate it was taken
// on so a fresh process can rebuild the identical graph before restoring
// engine state. A descriptor is a short space-separated text form of a
// generator call — "ring 64", "torus 16 16", "random-regular 128 4 7" —
// that round-trips through parse()/text() and rebuilds the graph through
// build(), or straight into the flat CSR form the rotor engines step on
// through build_csr(). Every generator in graph/generators.hpp has a descriptor
// spelling; the arguments are kept verbatim as tokens so text forms are
// stable byte-for-byte across a round trip.
//
// Parsing and building are total: malformed kinds, wrong arity, or
// arguments violating a generator's preconditions yield nullopt (never
// abort — descriptors arrive from checkpoint files and CLI flags). That
// contract includes build *cost*: descriptors whose graphs would exceed
// ~2^28 arcs are rejected up front (bad_alloc would terminate), as are
// unsatisfiable randomized ones (e.g. erdos-renyi below the connectivity
// threshold, where resample-until-connected is a guaranteed give-up).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace rr::graph {

struct GraphDescriptor {
  std::string kind;               // generator name, e.g. "torus"
  std::vector<std::string> args;  // verbatim argument tokens

  /// Canonical text form: kind and arguments joined by single spaces.
  std::string text() const;

  /// Inverse of text(): splits on spaces; rejects empty input, empty
  /// tokens (double spaces), and unknown kinds / wrong arity.
  static std::optional<GraphDescriptor> parse(const std::string& text);

  /// Builds the graph; nullopt if any argument is malformed or violates
  /// the generator's preconditions (e.g. "ring 2").
  std::optional<Graph> build() const;

  /// CsrGraph(*build()) without the intermediate Graph for the lattice
  /// kinds: "ring" and "torus" stream their rows (graph/lattice_rows.hpp)
  /// into the owned arrays, every other kind snapshots build(). Total in
  /// exactly the way build() is: nullopt for the same descriptors. A
  /// pool writes the rows in per-thread ranges (CsrGraph::from_rows);
  /// the arrays are the same with or without one.
  std::optional<CsrGraph> build_csr(sim::ThreadPool* pool = nullptr) const;

  /// Number of nodes the built graph would have, without building it
  /// (checkpoint loaders size per-node arrays up front). nullopt on
  /// invalid parameters.
  std::optional<NodeId> num_nodes() const;

  bool operator==(const GraphDescriptor& other) const = default;

  // ---- factories for the common substrates ----
  static GraphDescriptor ring(NodeId n);
  static GraphDescriptor path(NodeId n);
  static GraphDescriptor grid(NodeId w, NodeId h);
  static GraphDescriptor torus(NodeId w, NodeId h);
  static GraphDescriptor clique(NodeId n);
  static GraphDescriptor star(NodeId n);
  static GraphDescriptor binary_tree(NodeId n);
  static GraphDescriptor hypercube(std::uint32_t d);
  static GraphDescriptor lollipop(NodeId n, NodeId m);
  static GraphDescriptor random_regular(NodeId n, std::uint32_t d,
                                        std::uint64_t seed);
  static GraphDescriptor erdos_renyi(NodeId n, double p, std::uint64_t seed);
};

/// parse + build in one call.
std::optional<Graph> graph_from_descriptor(const std::string& text);

}  // namespace rr::graph
