#include "graph/descriptor.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/parse.hpp"
#include "graph/generators.hpp"
#include "graph/lattice_rows.hpp"

namespace rr::graph {

namespace {

// Descriptor grammar: kind name -> argument count. Arguments are numeric
// tokens; their per-generator preconditions are checked in build().
struct KindSpec {
  const char* kind;
  std::size_t arity;
};

constexpr KindSpec kKinds[] = {
    {"ring", 1},      {"path", 1},           {"grid", 2},
    {"torus", 2},     {"clique", 1},         {"star", 1},
    {"tree", 1},      {"hypercube", 1},      {"lollipop", 2},
    {"random-regular", 3},                   {"erdos-renyi", 3},
};

const KindSpec* find_kind(const std::string& kind) {
  for (const KindSpec& spec : kKinds) {
    if (kind == spec.kind) return &spec;
  }
  return nullptr;
}

std::optional<std::uint64_t> arg_u64(const std::string& token) {
  return parse_u64(token);
}

std::optional<double> arg_double(const std::string& token) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || token.empty()) return std::nullopt;
  return value;
}

std::optional<NodeId> arg_node(const std::string& token) {
  const auto v = arg_u64(token);
  if (!v || *v > (1ULL << 31)) return std::nullopt;
  return static_cast<NodeId>(*v);
}

GraphDescriptor make(const char* kind, std::vector<std::string> args) {
  GraphDescriptor d;
  d.kind = kind;
  d.args = std::move(args);
  return d;
}

std::string fmt_double(double p) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", p);
  return buf;
}

}  // namespace

std::string GraphDescriptor::text() const {
  std::string out = kind;
  for (const std::string& a : args) {
    out.push_back(' ');
    out += a;
  }
  return out;
}

std::optional<GraphDescriptor> GraphDescriptor::parse(const std::string& text) {
  GraphDescriptor d;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t space = text.find(' ', pos);
    if (space == std::string::npos) space = text.size();
    if (space == pos) return std::nullopt;  // empty token / stray space
    const std::string token = text.substr(pos, space - pos);
    if (d.kind.empty()) {
      d.kind = token;
    } else {
      d.args.push_back(token);
    }
    if (space == text.size()) break;
    pos = space + 1;
  }
  const KindSpec* spec = find_kind(d.kind);
  if (!spec || d.args.size() != spec->arity) return std::nullopt;
  return d;
}

// Descriptors are external input (checkpoint headers, CLI flags), so
// validation must also bound the *cost* of building: a grammatical
// document may neither exhaust memory (bad_alloc terminates) nor drive a
// randomized generator into its give-up abort. kMaxArcs caps the built
// graph at ~1 GiB of adjacency.
constexpr std::uint64_t kMaxArcs = 1ULL << 28;

std::optional<NodeId> GraphDescriptor::num_nodes() const {
  const KindSpec* spec = find_kind(kind);
  if (!spec || args.size() != spec->arity) return std::nullopt;
  if (kind == "grid" || kind == "torus") {
    const auto w = arg_node(args[0]);
    const auto h = arg_node(args[1]);
    const NodeId min_side = kind == "torus" ? 3 : 2;
    if (!w || !h || *w < min_side || *h < min_side) return std::nullopt;
    const std::uint64_t n = static_cast<std::uint64_t>(*w) * *h;
    if (4 * n > kMaxArcs) return std::nullopt;
    return static_cast<NodeId>(n);
  }
  if (kind == "hypercube") {
    const auto d = arg_u64(args[0]);
    if (!d || *d < 1 || *d >= 25) return std::nullopt;
    if (*d * (1ULL << *d) > kMaxArcs) return std::nullopt;
    return static_cast<NodeId>(1u << *d);
  }
  // All remaining kinds lead with their node count.
  const auto n = arg_node(args[0]);
  if (!n || 4 * static_cast<std::uint64_t>(*n) > kMaxArcs) return std::nullopt;
  if (kind == "ring" && *n < 3) return std::nullopt;
  // Every node needs a port: the two-node minimum of the kinds below.
  if ((kind == "path" || kind == "clique" || kind == "star" ||
       kind == "tree" || kind == "erdos-renyi") && *n < 2) {
    return std::nullopt;
  }
  if (kind == "clique" &&
      static_cast<std::uint64_t>(*n) * (*n - 1) > kMaxArcs) {
    return std::nullopt;
  }
  if (kind == "lollipop") {
    const auto m = arg_node(args[1]);
    if (!m || *m < 3 || *m > *n) return std::nullopt;
    if (static_cast<std::uint64_t>(*m) * (*m - 1) + 2ULL * *n > kMaxArcs) {
      return std::nullopt;
    }
  }
  if (kind == "random-regular") {
    const auto d = arg_u64(args[1]);
    if (!d || *d < 2 || *d >= *n) return std::nullopt;
    if ((static_cast<std::uint64_t>(*n) * *d) % 2 != 0) return std::nullopt;
    if (static_cast<std::uint64_t>(*n) * *d > kMaxArcs) return std::nullopt;
    if (!arg_u64(args[2])) return std::nullopt;
  }
  if (kind == "erdos-renyi") {
    const auto p = arg_double(args[1]);
    // NaN-safe: both comparisons are false for NaN, which must be rejected.
    if (!p || !(*p > 0.0) || !(*p <= 1.0)) return std::nullopt;
    // Below the connectivity threshold (expected degree < ln n) the
    // generator's resample-until-connected loop is a guaranteed give-up
    // abort; such descriptors are unsatisfiable, not merely unlucky.
    if (!(*p * (*n - 1) >= std::log(static_cast<double>(*n)))) {
      return std::nullopt;
    }
    // Each connectivity attempt scans all O(n^2) pairs.
    if (static_cast<std::uint64_t>(*n) * (*n - 1) > kMaxArcs) {
      return std::nullopt;
    }
    if (!arg_u64(args[2])) return std::nullopt;
  }
  return *n;
}

std::optional<CsrGraph> GraphDescriptor::build(sim::ThreadPool* pool) const {
  if (!num_nodes()) return std::nullopt;  // full precondition check
  if (kind == "ring") {
    return CsrGraph::from_rows(RingRows{*arg_node(args[0])}, pool);
  }
  if (kind == "torus") {
    return CsrGraph::from_rows(
        TorusRows{*arg_node(args[0]), *arg_node(args[1])}, pool);
  }
  if (kind == "path") return graph::path(*arg_node(args[0]));
  if (kind == "grid") return graph::grid(*arg_node(args[0]), *arg_node(args[1]));
  if (kind == "clique") return graph::clique(*arg_node(args[0]));
  if (kind == "star") return graph::star(*arg_node(args[0]));
  if (kind == "tree") return graph::binary_tree(*arg_node(args[0]));
  if (kind == "hypercube") {
    return graph::hypercube(static_cast<std::uint32_t>(*arg_u64(args[0])));
  }
  if (kind == "lollipop") {
    return graph::lollipop(*arg_node(args[0]), *arg_node(args[1]));
  }
  if (kind == "random-regular") {
    return graph::random_regular(*arg_node(args[0]),
                                 static_cast<std::uint32_t>(*arg_u64(args[1])),
                                 *arg_u64(args[2]));
  }
  if (kind == "erdos-renyi") {
    return graph::erdos_renyi(*arg_node(args[0]), *arg_double(args[1]),
                              *arg_u64(args[2]));
  }
  return std::nullopt;
}

GraphDescriptor GraphDescriptor::ring(NodeId n) {
  return make("ring", {std::to_string(n)});
}
GraphDescriptor GraphDescriptor::path(NodeId n) {
  return make("path", {std::to_string(n)});
}
GraphDescriptor GraphDescriptor::grid(NodeId w, NodeId h) {
  return make("grid", {std::to_string(w), std::to_string(h)});
}
GraphDescriptor GraphDescriptor::torus(NodeId w, NodeId h) {
  return make("torus", {std::to_string(w), std::to_string(h)});
}
GraphDescriptor GraphDescriptor::clique(NodeId n) {
  return make("clique", {std::to_string(n)});
}
GraphDescriptor GraphDescriptor::star(NodeId n) {
  return make("star", {std::to_string(n)});
}
GraphDescriptor GraphDescriptor::binary_tree(NodeId n) {
  return make("tree", {std::to_string(n)});
}
GraphDescriptor GraphDescriptor::hypercube(std::uint32_t d) {
  return make("hypercube", {std::to_string(d)});
}
GraphDescriptor GraphDescriptor::lollipop(NodeId n, NodeId m) {
  return make("lollipop", {std::to_string(n), std::to_string(m)});
}
GraphDescriptor GraphDescriptor::random_regular(NodeId n, std::uint32_t d,
                                                std::uint64_t seed) {
  return make("random-regular",
              {std::to_string(n), std::to_string(d), std::to_string(seed)});
}
GraphDescriptor GraphDescriptor::erdos_renyi(NodeId n, double p,
                                             std::uint64_t seed) {
  return make("erdos-renyi",
              {std::to_string(n), fmt_double(p), std::to_string(seed)});
}

}  // namespace rr::graph
