// Tests for the ring trace painter (core::ring_painter through
// sim::record_trace) and the arc-traversal identity added to the general
// engine.

#include <gtest/gtest.h>

#include "core/domains.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/trace.hpp"

namespace rr::core {
namespace {

struct Row {
  std::uint64_t round;
  std::string cells;
};

// The current configuration as the ring painter draws it (no stepping).
Row render_row(RingRotorRouter& rr, bool domains) {
  sim::TraceOptions opt;
  opt.rounds = 0;
  const auto frame =
      sim::record_trace(rr, opt, *ring_painter(rr, domains)).front();
  return {frame.round, frame.lines.front()};
}

TEST(Trace, InitialRowShowsAgentsAndUnvisited) {
  RingRotorRouter rr(8, {2, 2, 5});
  const auto row = render_row(rr, /*domains=*/false);
  EXPECT_EQ(row.round, 0u);
  ASSERT_EQ(row.cells.size(), 8u);
  EXPECT_EQ(row.cells[2], '8');  // two agents
  EXPECT_EQ(row.cells[5], 'o');  // one agent
  EXPECT_EQ(row.cells[0], ' ');  // unvisited
}

TEST(Trace, ManyAgentsRenderAsStar) {
  RingRotorRouter rr(6, {1, 1, 1});
  const auto row = render_row(rr, false);
  EXPECT_EQ(row.cells[1], '*');
}

TEST(Trace, VisitedNodesBecomeDots) {
  RingRotorRouter rr(8, {0});
  rr.run(3);
  const auto row = render_row(rr, false);
  EXPECT_EQ(row.cells[0], '.');
  EXPECT_EQ(row.cells[1], '.');
  EXPECT_EQ(row.cells[2], '.');
  EXPECT_EQ(row.cells[3], 'o');
  EXPECT_EQ(row.cells[4], ' ');
}

TEST(Trace, DomainsModeLabelsOwnedArcs) {
  RingRotorRouter rr(12, {0, 6});
  rr.run(2);
  const auto row = render_row(rr, /*domains=*/true);
  // Two domains: visited nodes carry 'a'/'b' labels or agent symbols.
  int letters = 0;
  for (char c : row.cells) {
    if (c == 'a' || c == 'b') ++letters;
  }
  EXPECT_GT(letters, 0);
}

TEST(Trace, RecordTraceSamplesWithStride) {
  RingRotorRouter rr(10, {0});
  sim::TraceOptions opt;
  opt.rounds = 10;
  opt.stride = 2;
  const auto rows = sim::record_trace(rr, opt, *ring_painter(rr, false));
  ASSERT_EQ(rows.size(), 6u);  // initial + 5 samples
  EXPECT_EQ(rows[0].round, 0u);
  EXPECT_EQ(rows[1].round, 2u);
  EXPECT_EQ(rows.back().round, 10u);
}

TEST(Trace, FormatAlignsRoundLabels) {
  RingRotorRouter rr(6, {0});
  sim::TraceOptions opt;
  opt.rounds = 12;
  opt.stride = 6;
  const auto rows = sim::record_trace(rr, opt, *ring_painter(rr, false));
  const auto text = sim::format_trace(rows);
  EXPECT_NE(text.find("t= 0 |"), std::string::npos);
  EXPECT_NE(text.find("t=12 |"), std::string::npos);
  // Every line ends with a closing frame.
  std::size_t lines = 0, framed = 0;
  for (std::size_t pos = 0; (pos = text.find('\n', pos)) != std::string::npos;
       ++pos) {
    ++lines;
    if (text[pos - 1] == '|') ++framed;
  }
  EXPECT_EQ(lines, framed);
}

TEST(ArcTraversals, MatchesExplicitCountingOnSmallGraphs) {
  for (const auto& g : {graph::ring(9), graph::star(5), graph::grid(3, 3),
                        graph::clique(5)}) {
    std::vector<std::uint32_t> init_ptrs(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      init_ptrs[v] = v % g.degree(v);
    }
    RotorRouter rr(g, {0, g.num_nodes() / 2}, init_ptrs);
    // Explicit reference counters.
    std::vector<std::vector<std::uint64_t>> ref(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ref[v].assign(g.degree(v), 0);
    }
    std::vector<std::uint32_t> ptr = init_ptrs;
    std::vector<std::uint32_t> cnt(g.num_nodes(), 0);
    cnt[0] += 1;
    cnt[g.num_nodes() / 2] += 1;
    for (int t = 0; t < 80; ++t) {
      std::vector<std::uint32_t> nxt(g.num_nodes(), 0);
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        for (std::uint32_t i = 0; i < cnt[v]; ++i) {
          const std::uint32_t p = (ptr[v] + i) % g.degree(v);
          ++ref[v][p];
          ++nxt[g.neighbor(v, p)];
        }
        ptr[v] = (ptr[v] + cnt[v]) % g.degree(v);
      }
      cnt = nxt;
      rr.step();
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        for (std::uint32_t p = 0; p < g.degree(v); ++p) {
          ASSERT_EQ(rr.arc_traversals(v, p), ref[v][p])
              << "t " << t << " v " << v << " p " << p;
        }
      }
    }
  }
}

TEST(ArcTraversals, SumOverPortsEqualsExits) {
  graph::Graph g = graph::torus(4, 4);
  RotorRouter rr(g, {0, 3, 9});
  rr.run(137);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::uint64_t sum = 0;
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      sum += rr.arc_traversals(v, p);
    }
    EXPECT_EQ(sum, rr.exits(v)) << "v " << v;
  }
}

}  // namespace
}  // namespace rr::core
