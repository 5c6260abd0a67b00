#include "sim/trace.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace rr::sim {

namespace {

TraceFrame frame_of(std::uint64_t round, std::string cells, NodeId width) {
  const NodeId n = static_cast<NodeId>(cells.size());
  RR_REQUIRE(width <= n, "trace width exceeds node count");
  TraceFrame frame;
  frame.round = round;
  if (width == 0) {
    frame.lines.push_back(std::move(cells));
  } else {
    for (NodeId row = 0; row < n; row += width) {
      frame.lines.push_back(
          cells.substr(row, std::min<std::size_t>(width, n - row)));
    }
  }
  return frame;
}

}  // namespace

TraceFrame render_frame(const Engine& engine, NodeId width,
                        const std::vector<std::uint64_t>* prev_visits) {
  const NodeId n = engine.num_nodes();
  std::string cells(n, ' ');
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t first = engine.first_visit_time(v);
    if (first == kNotCovered) continue;
    const bool active = prev_visits ? engine.visits(v) > (*prev_visits)[v]
                                    : first == engine.time();
    cells[v] = active ? 'o' : '.';
  }
  return frame_of(engine.time(), std::move(cells), width);
}

std::vector<TraceFrame> record_trace(Engine& engine,
                                     const TraceOptions& options,
                                     const CellPainter& painter) {
  RR_REQUIRE(options.stride > 0, "stride must be positive");
  const NodeId n = engine.num_nodes();
  std::vector<std::uint64_t> prev;  // visits at the last sample; none yet
  auto sample = [&]() {
    if (painter) {
      return frame_of(engine.time(), painter(engine), options.width);
    }
    TraceFrame frame =
        render_frame(engine, options.width, prev.empty() ? nullptr : &prev);
    prev.resize(n);
    for (NodeId v = 0; v < n; ++v) prev[v] = engine.visits(v);
    return frame;
  };
  std::vector<TraceFrame> frames;
  frames.push_back(sample());
  for (std::uint64_t t = 0; t < options.rounds; ++t) {
    engine.step();
    if ((t + 1) % options.stride == 0) frames.push_back(sample());
  }
  return frames;
}

std::string format_trace(const std::vector<TraceFrame>& frames) {
  std::uint64_t max_round = 0;
  for (const auto& f : frames) max_round = std::max(max_round, f.round);
  std::size_t width = 1;
  for (std::uint64_t x = max_round; x >= 10; x /= 10) ++width;

  std::string out;
  for (const auto& f : frames) {
    std::string label = std::to_string(f.round);
    if (f.lines.size() == 1) {
      out += "t=" + std::string(width - label.size(), ' ') + label + " |" +
             f.lines[0] + "|\n";
    } else {
      out += "t=" + std::string(width - label.size(), ' ') + label + "\n";
      for (const std::string& line : f.lines) {
        out += "|" + line + "|\n";
      }
    }
  }
  return out;
}

}  // namespace rr::sim
