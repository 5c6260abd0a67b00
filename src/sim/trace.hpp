#pragma once

// Engine-generic space-time tracing (sim layer).
//
// Renders the evolution of any sim::Engine as ASCII diagrams — one frame
// per sampled round — using only the Engine observer surface (visits,
// first_visit_time, coverage), so torus and random-graph runs draw the
// same way ring runs always have. Glyphs:
//
//   ' '  unvisited
//   '.'  visited in an earlier sampled interval
//   'o'  active: the node's visit count grew since the previous sample
//        (for the first frame: nodes first visited at the current round,
//        i.e. the initial hosts when tracing from round 0)
//
// 1-D substrates render one line per frame; for 2-D layouts (torus,
// grid) set TraceOptions::width to the row length and each frame becomes
// a stacked block of `width`-column lines in row-major node order.
//
// A CellPainter replaces these glyphs with a backend's own: the ring
// painter (core::ring_painter, core/domains.hpp) draws per-agent counts
// and domain letters.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace rr::sim {

struct TraceOptions {
  std::uint64_t rounds = 64;  ///< rounds to advance while recording
  std::uint64_t stride = 1;   ///< sample every `stride` rounds
  NodeId width = 0;           ///< 0 = one line; else 2-D rows of `width`
};

/// One sampled frame: the round it depicts plus one or more cell lines
/// (multiple for 2-D layouts).
struct TraceFrame {
  std::uint64_t round = 0;
  std::vector<std::string> lines;
};

/// Renders the engine's current coverage/activity state. `prev_visits`
/// (if non-null, length num_nodes()) marks 'o' where visits grew since
/// that snapshot; otherwise 'o' marks nodes first visited this round.
TraceFrame render_frame(const Engine& engine, NodeId width,
                        const std::vector<std::uint64_t>* prev_visits);

/// Paints one frame's num_nodes() cells from the engine's current state.
using CellPainter = std::function<std::string(const Engine&)>;

/// Advances `engine` options.rounds rounds, sampling a frame every
/// options.stride rounds (including the initial state). A non-empty
/// `painter` paints each frame in place of render_frame's glyphs.
std::vector<TraceFrame> record_trace(Engine& engine,
                                     const TraceOptions& options,
                                     const CellPainter& painter = {});

/// Joins frames into a printable diagram with aligned round labels.
/// Single-line frames print as `t=<round> |cells|`; multi-line frames as
/// a `t=<round>` header followed by the framed block.
std::string format_trace(const std::vector<TraceFrame>& frames);

}  // namespace rr::sim
