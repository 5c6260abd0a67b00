#pragma once

// Arithmetic row generators for the lattice descriptor kinds (graph layer).
//
// `ring N` and `torus W H` have a closed-form port order, so their CSR
// arrays are produced row by row. These are the one spelling of that
// port order: graph::ring/graph::torus and GraphDescriptor::build stream
// them into an owned CsrGraph (CsrGraph::from_rows), MappedSubstrate::build
// streams them into an `rr-graph` image. tests/csr_build_test.cpp pins
// them against the edge-insertion order they were first defined by.
//
// A row source has a fixed degree; `row(v, out)` writes v's neighbors in
// port order into out[0, kDegree).

#include <cstdint>

#include "graph/csr_graph.hpp"

namespace rr::graph {

/// The ring: port 0 clockwise (v+1), port 1 anticlockwise.
struct RingRows {
  static constexpr std::uint32_t kDegree = 2;
  std::uint64_t n;

  std::uint64_t num_nodes() const { return n; }
  void row(std::uint64_t v, NodeId* out) const {
    out[0] = static_cast<NodeId>(v + 1 == n ? 0 : v + 1);
    out[1] = static_cast<NodeId>(v == 0 ? n - 1 : v - 1);
  }
};

/// The torus: node id y*w + x; the port order is that of inserting each
/// cell's right then down edge, cells scanned in (y, x) order, which
/// wraps differently on the x=0 and y=0 borders.
struct TorusRows {
  static constexpr std::uint32_t kDegree = 4;
  std::uint64_t w, h;

  std::uint64_t num_nodes() const { return w * h; }
  void row(std::uint64_t v, NodeId* out) const {
    const std::uint64_t x = v % w;
    const std::uint64_t y = v / w;
    const auto id = [this](std::uint64_t xx, std::uint64_t yy) {
      return static_cast<NodeId>(yy * w + xx);
    };
    const NodeId up = id(x, y == 0 ? h - 1 : y - 1);
    const NodeId down = id(x, y + 1 == h ? 0 : y + 1);
    const NodeId left = id(x == 0 ? w - 1 : x - 1, y);
    const NodeId right = id(x + 1 == w ? 0 : x + 1, y);
    if (x > 0 && y > 0) {
      out[0] = up, out[1] = left, out[2] = right, out[3] = down;
    } else if (x == 0 && y > 0) {
      out[0] = up, out[1] = right, out[2] = down, out[3] = left;
    } else if (x > 0) {  // y == 0
      out[0] = left, out[1] = right, out[2] = down, out[3] = up;
    } else {  // origin
      out[0] = right, out[1] = down, out[2] = left, out[3] = up;
    }
  }
};

}  // namespace rr::graph
