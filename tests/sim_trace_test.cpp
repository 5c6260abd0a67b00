// Tests for the engine-generic space-time renderer (sim/trace.hpp):
// observer-driven glyphs, 2-D layouts, and a golden torus diagram (the
// rr_cli / spacetime_diagram rendering path).

#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "core/ring_rotor_router.hpp"
#include "core/domains.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace {

TEST(SimTrace, InitialFrameMarksHostsActive) {
  core::RingRotorRouter rr(8, {2, 2, 5});
  const auto frame = render_frame(rr, /*width=*/0, nullptr);
  EXPECT_EQ(frame.round, 0u);
  ASSERT_EQ(frame.lines.size(), 1u);
  EXPECT_EQ(frame.lines[0], "  o  o  ");
}

TEST(SimTrace, ActivityFollowsVisitDeltas) {
  core::RingRotorRouter rr(8, {0});
  rr.run(3);  // single agent has swept 0..3 (all-clockwise pointers)
  std::vector<std::uint64_t> prev(8);
  for (NodeId v = 0; v < 8; ++v) prev[v] = rr.visits(v);
  rr.step();
  const auto frame = render_frame(rr, 0, &prev);
  // Only the node entered this round is active; earlier ones decay to '.'.
  EXPECT_EQ(frame.lines[0], "....o   ");
  // Without a previous snapshot, 'o' falls back to first-visits-now.
  const auto cold = render_frame(rr, 0, nullptr);
  EXPECT_EQ(cold.lines[0], "....o   ");
}

TEST(SimTrace, WidthSplitsFramesIntoRows) {
  graph::CsrGraph g = graph::grid(4, 3);
  core::RotorRouter rr(g, {0});
  const auto frame = render_frame(rr, /*width=*/4, nullptr);
  ASSERT_EQ(frame.lines.size(), 3u);
  for (const auto& line : frame.lines) EXPECT_EQ(line.size(), 4u);
  EXPECT_EQ(frame.lines[0], "o   ");
}

TEST(SimTrace, RecordTraceSamplesWithStride) {
  core::RingRotorRouter rr(10, {0});
  TraceOptions opt;
  opt.rounds = 10;
  opt.stride = 2;
  const auto frames = record_trace(rr, opt);
  ASSERT_EQ(frames.size(), 6u);  // initial + 5 samples
  EXPECT_EQ(frames[0].round, 0u);
  EXPECT_EQ(frames[1].round, 2u);
  EXPECT_EQ(frames.back().round, 10u);
}

TEST(SimTrace, WorksForStochasticEngines) {
  // Observer-only rendering imposes nothing beyond sim::Engine; the
  // random-walk backend traces too.
  graph::CsrGraph g = graph::torus(5, 5);
  walk::GraphRandomWalks walks(g, {0, 12}, 42);
  TraceOptions opt;
  opt.rounds = 20;
  opt.stride = 10;
  opt.width = 5;
  const auto frames = record_trace(walks, opt);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames.back().round, 20u);
  ASSERT_EQ(frames.back().lines.size(), 5u);
}

TEST(SimTrace, GoldenTorusDiagram) {
  // The exact rendering of the rr_cli/spacetime_diagram torus path:
  //   rr_cli trace --topo torus --size 6 --k 4 --rounds 12 --stride 6
  // (rotor-router, agents spread over the node-id range: 0, 9, 18, 27).
  graph::CsrGraph g = graph::torus(6, 6);
  core::RotorRouter rr(g, {0, 9, 18, 27});
  TraceOptions opt;
  opt.rounds = 12;
  opt.stride = 6;
  opt.width = 6;
  const std::string text = format_trace(record_trace(rr, opt));
  const std::string golden =
      "t= 0\n"
      "|o     |\n"
      "|   o  |\n"
      "|      |\n"
      "|o     |\n"
      "|   o  |\n"
      "|      |\n"
      "t= 6\n"
      "|oooooo|\n"
      "|oooo  |\n"
      "|o  o  |\n"
      "|.  o  |\n"
      "|   .  |\n"
      "|      |\n"
      "t=12\n"
      "|o..ooo|\n"
      "|ooooo |\n"
      "|oooo  |\n"
      "|oo .  |\n"
      "|o  .  |\n"
      "|o     |\n";
  EXPECT_EQ(text, golden);
}

TEST(SimTrace, RingShimFormatsIdentically) {
  // The ring painter's single-line frames keep the historical
  // "t=<round> |cells|" shape byte-for-byte.
  core::RingRotorRouter rr(6, {0});
  TraceOptions opt;
  opt.rounds = 12;
  opt.stride = 6;
  const auto rows = record_trace(rr, opt, *core::ring_painter(rr, false));
  const auto text = format_trace(rows);
  EXPECT_NE(text.find("t= 0 |"), std::string::npos);
  EXPECT_NE(text.find("t=12 |"), std::string::npos);
}

}  // namespace
}  // namespace rr::sim
