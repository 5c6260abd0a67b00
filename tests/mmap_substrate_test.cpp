// Tests for the rr-graph v1 on-disk image (graph/mmap_substrate.hpp):
// streamed builder vs in-RAM construction, mmap'd engine equivalence,
// copy-on-write isolation, and corrupt-image rejection.

#include "graph/mmap_substrate.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rotor_router.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
#include "temp_path.hpp"

#if defined(__unix__) || defined(__APPLE__)

namespace rr::graph {
namespace {

std::string tmp_path(const std::string& name) {
  return rr::testing::test_temp_path(name);
}

// Builds an image for `descriptor`, opens it, and requires the mapped CSR
// to agree with the in-RAM CsrGraph row for row, port for port.
void expect_image_matches_graph(const std::string& descriptor) {
  SCOPED_TRACE(descriptor);
  const auto d = GraphDescriptor::parse(descriptor);
  ASSERT_TRUE(d.has_value());
  const auto g = d->build();
  ASSERT_TRUE(g.has_value());
  const CsrGraph expected(*g);

  const std::string path = tmp_path("rr_image_match.rrg");
  std::string error;
  ASSERT_TRUE(MappedSubstrate::build(descriptor, path, &error)) << error;
  auto substrate = MappedSubstrate::open(path);
  ASSERT_TRUE(substrate != nullptr);
  EXPECT_EQ(substrate->descriptor(), descriptor);
  ASSERT_EQ(substrate->num_nodes(), expected.num_nodes());
  EXPECT_EQ(substrate->num_arcs(), expected.num_arcs());

  const CsrGraph csr = substrate->csr();
  ASSERT_EQ(csr.num_nodes(), expected.num_nodes());
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    ASSERT_EQ(csr.degree(v), expected.degree(v)) << "v=" << v;
    for (std::uint32_t p = 0; p < expected.degree(v); ++p) {
      ASSERT_EQ(csr.neighbor(v, p), expected.neighbor(v, p))
          << "v=" << v << " p=" << p;
    }
    // The sorted-port index must answer identically too (smallest port
    // wins on parallel edges).
    for (const NodeId u : expected.neighbors(v)) {
      ASSERT_EQ(csr.port_to(v, u), expected.port_to(v, u))
          << "v=" << v << " u=" << u;
      ASSERT_TRUE(csr.has_edge(v, u));
    }
  }
  auto node = substrate->node_state();
  ASSERT_EQ(node.size(), expected.num_nodes());
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    EXPECT_EQ(node[v].count, 0u);
    EXPECT_EQ(node[v].pointer, 0u);
    EXPECT_EQ(node[v].degree, expected.degree(v));
    EXPECT_EQ(node[v].row_begin, expected.row_offset(v));
  }
  std::remove(path.c_str());
}

TEST(MmapSubstrate, StreamedRingMatchesGraphBuilder) {
  // Includes the smallest rings, where the generator's port order ("+1"
  // then "-1") must be reproduced exactly by the streaming source.
  for (const char* d : {"ring 3", "ring 4", "ring 5", "ring 48"}) {
    expect_image_matches_graph(d);
  }
}

TEST(MmapSubstrate, StreamedTorusMatchesGraphBuilder) {
  // Covers the border cases the generator's port rotation produces:
  // corner (0,0), x==0 column, y==0 row, interior, and non-square shapes.
  for (const char* d :
       {"torus 3 3", "torus 3 5", "torus 5 3", "torus 4 4", "torus 8 6"}) {
    expect_image_matches_graph(d);
  }
}

TEST(MmapSubstrate, BuiltKindsGoThroughGraphDescriptor) {
  for (const char* d : {"clique 9", "hypercube 4", "tree 15",
                        "grid 5 4", "lollipop 12 5"}) {
    expect_image_matches_graph(d);
  }
}

TEST(MmapSubstrate, RejectsMalformedDescriptors) {
  const std::string path = tmp_path("rr_image_bad.rrg");
  for (const char* d : {"", "ring", "ring 2", "ring x", "torus 2 8",
                        "moebius 8", "clique 200000"}) {
    SCOPED_TRACE(d);
    std::string error;
    EXPECT_FALSE(MappedSubstrate::build(d, path, &error));
    EXPECT_FALSE(error.empty());
    // A failed build must leave no image (and no tmp residue) behind.
    EXPECT_TRUE(MappedSubstrate::open(path) == nullptr);
    std::remove((path + ".tmp").c_str());
  }
}

TEST(MmapSubstrate, ImageBackedEngineMatchesInRamEngine) {
  for (const char* descriptor : {"ring 64", "torus 8 8"}) {
    SCOPED_TRACE(descriptor);
    const auto g = GraphDescriptor::parse(descriptor)->build();
    ASSERT_TRUE(g.has_value());
    const std::vector<NodeId> agents{0, 7, 7, 30};
    std::vector<std::uint32_t> pointers(g->num_nodes());
    for (NodeId v = 0; v < g->num_nodes(); ++v) pointers[v] = v % g->degree(v);

    const std::string path = tmp_path("rr_image_engine.rrg");
    ASSERT_TRUE(MappedSubstrate::build(descriptor, path));
    auto substrate = MappedSubstrate::open(path);
    ASSERT_TRUE(substrate != nullptr);

    core::RotorRouter in_ram(*g, agents, pointers);
    core::RotorRouter mapped(substrate, agents, pointers);
    for (std::uint64_t t = 0; t < 300; ++t) {
      ASSERT_EQ(mapped.config_hash(), in_ram.config_hash()) << "t=" << t;
      ASSERT_EQ(mapped.covered_count(), in_ram.covered_count());
      for (NodeId v = 0; v < in_ram.num_nodes(); ++v) {
        ASSERT_EQ(mapped.visits(v), in_ram.visits(v)) << "v=" << v;
        ASSERT_EQ(mapped.exits(v), in_ram.exits(v)) << "v=" << v;
        ASSERT_EQ(mapped.first_visit_time(v), in_ram.first_visit_time(v));
      }
      in_ram.step();
      mapped.step();
    }
    // Serialized state — both formats — must be byte-identical: the
    // substrate is invisible to the checkpoint layer.
    EXPECT_EQ(sim::write_checkpoint(mapped, descriptor),
              sim::write_checkpoint(in_ram, descriptor));
    EXPECT_EQ(
        sim::write_checkpoint(mapped, descriptor, sim::CkptFormat::kV2),
        sim::write_checkpoint(in_ram, descriptor, sim::CkptFormat::kV2));
    std::remove(path.c_str());
  }
}

TEST(MmapSubstrate, MappingIsCopyOnWrite) {
  // Two engines over two opens of the same image evolve independently,
  // and a fresh open always starts from the image's pristine state.
  const std::string path = tmp_path("rr_image_cow.rrg");
  ASSERT_TRUE(MappedSubstrate::build("ring 32", path));
  auto first = MappedSubstrate::open(path);
  ASSERT_TRUE(first != nullptr);
  core::RotorRouter a(first, {0, 16});
  a.run(500);
  EXPECT_GT(a.covered_count(), 2u);

  auto second = MappedSubstrate::open(path);
  ASSERT_TRUE(second != nullptr);
  auto node = second->node_state();
  for (NodeId v = 0; v < second->num_nodes(); ++v) {
    ASSERT_EQ(node[v].count, 0u) << "v=" << v;
    ASSERT_EQ(node[v].pointer, 0u) << "v=" << v;
  }
  std::remove(path.c_str());
}

TEST(MmapSubstrate, ViewsKeepTheMappingAlive) {
  // Engine state outlives the caller's substrate handle: the views hold
  // shared ownership of the mapping.
  const std::string path = tmp_path("rr_image_alive.rrg");
  ASSERT_TRUE(MappedSubstrate::build("torus 6 6", path));
  std::unique_ptr<core::RotorRouter> engine;
  {
    auto substrate = MappedSubstrate::open(path);
    ASSERT_TRUE(substrate != nullptr);
    engine = std::make_unique<core::RotorRouter>(
        substrate, std::vector<NodeId>{0, 18});
  }  // handle dropped; mapping must survive
  engine->run(200);
  EXPECT_GT(engine->covered_count(), 10u);
  std::remove(path.c_str());
}

TEST(MmapSubstrate, AdviseHintsAreSafeNoOps) {
  const std::string path = tmp_path("rr_image_advise.rrg");
  ASSERT_TRUE(MappedSubstrate::build("ring 16", path));
  auto substrate = MappedSubstrate::open(path);
  ASSERT_TRUE(substrate != nullptr);
  substrate->advise_random();
  substrate->advise_sequential();
  substrate->advise_random();
  EXPECT_EQ(substrate->csr().num_nodes(), 16u);
  std::remove(path.c_str());
}

TEST(MmapSubstrate, RejectsCorruptImages) {
  const std::string path = tmp_path("rr_image_corrupt.rrg");
  ASSERT_TRUE(MappedSubstrate::build("ring 24", path));
  ASSERT_TRUE(MappedSubstrate::open(path) != nullptr);

  // Read the pristine image.
  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_TRUE(f != nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.append(buf, got);
    }
    std::fclose(f);
  }
  const auto write_variant = [&](const std::string& data) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_TRUE(f != nullptr);
    if (!data.empty()) {
      ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    }
    std::fclose(f);
  };

  // Every header-page corruption must be rejected: magic, version,
  // geometry fields, descriptor text — all are covered by the stamp (or
  // by direct validation).
  for (const std::size_t at : {0u, 8u, 12u, 16u, 24u, 32u, 40u, 80u, 96u}) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    write_variant(mutated);
    EXPECT_TRUE(MappedSubstrate::open(path) == nullptr) << "at=" << at;
  }
  // Truncations (including mid-section) must be rejected via file_size.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{100}, std::size_t{4096},
        bytes.size() - 1}) {
    write_variant(bytes.substr(0, keep));
    EXPECT_TRUE(MappedSubstrate::open(path) == nullptr) << "keep=" << keep;
  }
  // Nonexistent path.
  EXPECT_TRUE(MappedSubstrate::open(path + ".missing") == nullptr);

  // And the unmutated bytes still open (the harness above is sound).
  write_variant(bytes);
  EXPECT_TRUE(MappedSubstrate::open(path) != nullptr);
  std::remove(path.c_str());
}

TEST(MappedArray, OwnedCopiesAreIndependentViewsShare) {
  MappedArray<std::uint32_t> owned(4);
  owned[2] = 7;
  MappedArray<std::uint32_t> copy = owned;
  copy[2] = 9;
  EXPECT_EQ(owned[2], 7u);
  EXPECT_EQ(copy[2], 9u);

  auto backing = std::make_shared<std::vector<std::uint32_t>>(4, 1);
  MappedArray<std::uint32_t> view(backing->data(), backing->size(), backing);
  MappedArray<std::uint32_t> view_copy = view;
  view_copy[1] = 42;
  EXPECT_EQ(view[1], 42u);  // shared storage
  backing.reset();          // the views keep it alive
  EXPECT_EQ(view[1], 42u);

  MappedArray<std::uint32_t> moved = std::move(owned);
  EXPECT_EQ(moved[2], 7u);
  EXPECT_EQ(moved.size(), 4u);
}

}  // namespace
}  // namespace rr::graph

#endif  // POSIX
