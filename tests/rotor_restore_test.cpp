// core::RotorRouter::restore: an engine built straight from a
// rotor-router document, in one pooled batch (connectivity BFS plus one
// job per v2 segment window). Every window writes every element of its
// rows into unfilled arrays, so a row no window wrote would read back as
// garbage — in the re-serialized bytes or in the trajectory. Segment
// counts 3 and 8 do not line up with the 4-shard partition, so windows
// and shards cut the rows at different places.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/rotor_router.hpp"
#include "differential.hpp"
#include "graph/descriptor.hpp"
#include "graph/mmap_substrate.hpp"
#include "pool_matrix.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/thread_pool.hpp"
#include "temp_path.hpp"

namespace rr::testing {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using Lists = std::vector<std::vector<std::uint64_t>>;

std::string v2_doc(const sim::Engine& e, const std::string& descriptor,
                   std::uint32_t segments) {
  return sim::write_checkpoint(e, descriptor, sim::CkptFormat::kV2, segments);
}

/// A rotor-router engine on `csr`, stepped `rounds` rounds; the same
/// arguments give the same engine. `crowded`: a third of n agents on
/// random nodes over a random pointer field. Otherwise one agent on
/// node 0 over all-zero pointers, so most rows still hold constant
/// default runs — the runs the image restore may skip and the in-RAM
/// restore must write.
std::unique_ptr<core::RotorRouter> evolved(const CsrGraph& csr, bool crowded,
                                           std::uint64_t rounds) {
  const NodeId n = csr.num_nodes();
  Rng rng(0xC0FFEE + n);
  std::vector<NodeId> agents(crowded ? 1 + n / 3 : 1, 0);
  std::vector<std::uint32_t> pointers;
  if (crowded) {
    for (NodeId& a : agents) a = static_cast<NodeId>(rng.bounded(n));
    pointers.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      pointers[v] = static_cast<std::uint32_t>(rng.bounded(csr.degree(v)));
    }
  }
  auto e = std::make_unique<core::RotorRouter>(csr, agents, pointers);
  e->run(rounds);
  return e;
}

/// CsrKindGolden's instances (one per descriptor kind) and the 256^2
/// torus, whose 65536 nodes put the batch on the pool's threads.
constexpr const char* kInstances[] = {
    "ring 12",       "path 9",        "grid 5 4",
    "torus 5 4",     "clique 6",      "star 7",
    "tree 10",       "hypercube 4",   "lollipop 10 4",
    "random-regular 20 3 7",          "erdos-renyi 16 0.3 5",
    "torus 256 256"};

/// Restores `source`'s document (in `segments` frames) over `csr` at
/// every pool width and shard count: each restore must re-serialize to
/// the same bytes and step in lockstep with a twin of the source.
void expect_restores(const CsrGraph& csr, const std::string& text,
                     bool crowded, std::uint64_t rounds,
                     std::uint32_t segments, std::uint64_t lockstep) {
  const std::string doc =
      v2_doc(*evolved(csr, crowded, rounds), text, segments);
  const auto parsed = sim::parse_checkpoint(doc);
  ASSERT_TRUE(parsed.has_value());
  for (const unsigned threads : pool_widths()) {
    sim::ThreadPool pool(threads);
    for (const std::uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " shards=" << shards);
      const auto restored =
          core::RotorRouter::restore(csr, parsed->state, shards, &pool);
      ASSERT_NE(restored, nullptr);
      EXPECT_EQ(restored->num_shards(),
                std::min<NodeId>(shards, csr.num_nodes()));
      ASSERT_EQ(v2_doc(*restored, text, segments), doc);
      const auto source = evolved(csr, crowded, rounds);
      const Mismatch m = run_lockstep(*source, *restored, lockstep);
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      EXPECT_EQ(v2_doc(*restored, text, segments),
                v2_doc(*source, text, segments));
    }
  }
}

TEST(RotorRestore, EveryKindRestoresItsBytesAndSteps) {
  for (const char* text : kInstances) {
    const auto d = graph::GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value()) << text;
    const CsrGraph csr = *d->build();
    const bool small = csr.num_nodes() < 1000;
    for (const bool crowded : {true, false}) {
      for (const std::uint32_t segments : {3u, 8u}) {
        SCOPED_TRACE(::testing::Message() << text << " crowded=" << crowded
                                          << " segments=" << segments);
        expect_restores(csr, text, crowded, !crowded ? 3 : small ? 37 : 75,
                        segments, small ? 40 : 8);
      }
    }
  }
}

/// A rotor-router document over `csr` with one agent on node 0, every
/// per-node field written out in three frames; `patch` edits the
/// lists and `agents` replaces the agent sites.
std::string hand_doc(const CsrGraph& csr, const std::string& descriptor,
                     const std::function<void(Lists&)>& patch,
                     sim::PairList agents = {{0, 1}}, bool with_time = true) {
  const std::uint64_t n = csr.num_nodes();
  Lists lists(6, std::vector<std::uint64_t>(n, 0));
  lists[2][0] = 1;                       // visits
  lists[4].assign(n, sim::kNotCovered);  // first_visit
  lists[4][0] = 0;
  patch(lists);
  sim::StateWriter state;
  if (with_time) state.field_u64("time", 0);
  state.field_pairs("agents", std::move(agents));
  const char* const names[6] = {"pointers", "initial_pointers", "visits",
                                "exits",    "first_visit",      "last_visit"};
  for (int f = 0; f < 6; ++f) state.field_list(names[f], lists[f]);
  return sim::encode_checkpoint_v2("rotor-router", descriptor, state, n,
                                   /*segments=*/3, nullptr);
}

/// Restores `doc` over `csr` at every pool width and shard count;
/// `expect_engine` says whether an engine must come back.
void expect_restore(const CsrGraph& csr, const std::string& doc,
                    bool expect_engine, const std::string& what) {
  const auto parsed = sim::parse_checkpoint(doc);
  ASSERT_TRUE(parsed.has_value()) << what;
  for (const unsigned threads : pool_widths()) {
    sim::ThreadPool pool(threads);
    for (const std::uint32_t shards : {1u, 4u}) {
      const auto e =
          core::RotorRouter::restore(csr, parsed->state, shards, &pool);
      EXPECT_EQ(e != nullptr, expect_engine)
          << what << " threads=" << threads << " shards=" << shards;
    }
  }
}

/// Restores `doc` as the first engine over a fresh open of the image
/// at `path`, which claims the image's defaults and so steps over the
/// document's default runs.
std::unique_ptr<core::RotorRouter> image_restore(const std::string& path,
                                                 const std::string& doc) {
  const auto parsed = sim::parse_checkpoint(doc);
  auto substrate = graph::MappedSubstrate::open(path);
  if (!parsed || !substrate) {
    ADD_FAILURE() << "unparsable document or image";
    return nullptr;
  }
  return core::RotorRouter::restore(substrate, parsed->state);
}

TEST(RotorRestore, MalformedDocumentsReturnNull) {
  const std::string text = "torus 16 16";
  const CsrGraph csr = *graph::GraphDescriptor::parse(text)->build();
  const std::uint64_t n = csr.num_nodes();
  const std::string image = test_temp_path("rotor_restore_malformed.rrg");
  ASSERT_TRUE(graph::MappedSubstrate::build(text, image));
  // In RAM and over the image: each bad row sits past a long default run.
  const auto expect_both = [&](const std::string& doc, bool expect_engine,
                               const std::string& what) {
    expect_restore(csr, doc, expect_engine, what);
    EXPECT_EQ(image_restore(image, doc) != nullptr, expect_engine)
        << what << " over the image";
  };
  const auto none = [](Lists&) {};
  expect_both(hand_doc(csr, text, none), true, "valid document");
  const struct {
    const char* what;
    std::function<void(Lists&)> patch;
  } lists[] = {
      {"pointer == degree", [n](Lists& l) { l[0][n - 1] = 4; }},
      {"initial pointer > degree", [n](Lists& l) { l[1][n / 2] = 9; }},
      {"exits one node short", [](Lists& l) { l[3].pop_back(); }},
      {"last_visit one node long", [](Lists& l) { l[5].push_back(0); }},
  };
  for (const auto& c : lists) {
    expect_both(hand_doc(csr, text, c.patch), false, c.what);
  }
  const struct {
    const char* what;
    sim::PairList agents;
  } sites[] = {
      {"no agents", {}},
      {"agent past the last node", {{n, 1}}},
      {"empty agent site", {{0, 0}}},
      {"agent count past 32 bits", {{0, std::uint64_t{1} << 32}}},
      {"agent total past 32 bits", {{0, ~std::uint32_t{0}}, {1, 1}}},
  };
  for (const auto& c : sites) {
    expect_both(hand_doc(csr, text, none, c.agents), false, c.what);
  }
  expect_both(hand_doc(csr, text, none, {{0, 1}}, /*with_time=*/false), false,
              "no time field");
  std::remove(image.c_str());
}

TEST(RotorRestore, DisconnectedGraphReturnsNull) {
  // Two rings of 2^15 nodes: every degree is 2, so the document is valid
  // node by node and only the BFS (on the pool: 2^16 nodes) rejects it.
  const NodeId half = NodeId{1} << 15;
  std::vector<std::pair<NodeId, NodeId>> split, joined;
  for (NodeId i = 0; i < half; ++i) {
    split.emplace_back(i, (i + 1) % half);
    split.emplace_back(half + i, half + (i + 1) % half);
    joined.emplace_back(i, i + 1);
    joined.emplace_back(half + i, (half + i + 1) % (2 * half));
  }
  const CsrGraph two_rings = CsrGraph::from_edges(2 * half, split);
  const CsrGraph one_ring = CsrGraph::from_edges(2 * half, joined);
  const auto none = [](Lists&) {};
  expect_restore(one_ring, hand_doc(one_ring, "ring 65536", none), true,
                 "connected");
  expect_restore(two_rings, hand_doc(two_rings, "ring 65536", none), false,
                 "disconnected");
}

}  // namespace
}  // namespace rr::testing
