// Golden v2 checkpoint bytes for the `rotor-router` engine. The frame
// encoder sizes every field before it writes it and writes frames from
// pool threads into disjoint slices of one buffer; these digests pin the
// documents it must produce — sequential and sharded engines, mid-cover
// and post-cover, on a torus and a ring — for every segment count and
// pool width, so a change to sizing, tag choice (delta-RLE only when
// strictly smaller) or slice placement cannot silently change a file.
// RR_TEST_POOL_THREADS=t narrows the pool widths to one value (the ASan
// CI job sweeps t = 1, 2, 4); the inline encode always runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/thread_pool.hpp"
#include "sim/wire.hpp"

namespace rr::core {
namespace {

std::uint64_t digest(const std::string& bytes) {
  Fnv1a h;
  for (const unsigned char c : bytes) h.mix(c);
  return h.value();
}

/// Field tags of every record in a v2 document's frames, read by walking
/// the footer table and each frame's records.
std::set<std::uint8_t> field_tags(const std::string& doc) {
  namespace wire = sim::wire;
  std::set<std::uint8_t> tags;
  const auto* data = reinterpret_cast<const std::uint8_t*>(doc.data());
  const std::size_t body = doc.find('\n') + 1;
  const std::uint32_t num_frames = wire::get_u32le(data + doc.size() - 16);
  const std::uint8_t* table = data + doc.size() - 16 - 40ull * num_frames;
  for (std::uint32_t j = 0; j < num_frames; ++j) {
    const std::uint8_t* frame = data + body + wire::get_u64le(table + 40 * j);
    const std::size_t size = wire::get_u64le(table + 40 * j + 8);
    std::size_t pos = 0;
    const auto varint = [&] { return *wire::get_varint(frame, size, &pos); };
    while (pos < size) {
      pos += varint();  // key
      const std::uint8_t tag = frame[pos++];
      tags.insert(tag);
      const std::uint64_t count = varint();
      switch (tag) {
        case 0: pos += count; break;  // raw: count is the byte length
        case 1: break;                // u64: count was the value
        case 2:
          for (std::uint64_t i = 0; i < count; ++i) varint();
          break;
        case 3:
        case 4: pos += (count + 7) / 8; break;
        case 5:
          for (std::uint64_t i = 0; i < 2 * count; ++i) varint();
          break;
        case 6:
          for (std::uint64_t done = 0; done < count; varint()) done += varint();
          break;
        default: ADD_FAILURE() << "unknown tag " << int{tag}; return tags;
      }
    }
  }
  return tags;
}

constexpr std::uint32_t kSegments[] = {1, 4, 7};
constexpr std::size_t kNumSegments = std::size(kSegments);

struct Golden {
  const char* graph;
  std::uint32_t agents;
  std::uint32_t shards;
  bool post_cover;
  std::uint64_t digests[kNumSegments];  ///< one per kSegments entry
};

// FNV-1a of the v2 document for each segment count. Mid-cover documents
// are taken at half the cover round, post-cover ones 300 rounds after
// cover. Any change to the dynamics, to a serialized field or to its
// encoding changes them.
constexpr Golden kGolden[] = {
    {"torus 64 64", 48, 1, false,
     {0x26a1d7009c3aafbbULL, 0x6e75c1ec38ac09fcULL,
      0x5547810313c50f8fULL}},
    {"torus 64 64", 48, 1, true,
     {0xed4d15967c8b574aULL, 0xf36305bc5cfd9c98ULL,
      0x7485548c3f6f6953ULL}},
    {"torus 64 64", 48, 4, false,
     {0x26a1d7009c3aafbbULL, 0x6e75c1ec38ac09fcULL,
      0x5547810313c50f8fULL}},
    {"torus 64 64", 48, 4, true,
     {0xed4d15967c8b574aULL, 0xf36305bc5cfd9c98ULL,
      0x7485548c3f6f6953ULL}},
    {"ring 257", 5, 1, false,
     {0xd19ecd57b2ce8b67ULL, 0x60e96f94b0424109ULL,
      0xb2a5dbb101e1a7e2ULL}},
    {"ring 257", 5, 1, true,
     {0xa4c52657a0f49e6aULL, 0xe3e7c3f237688c18ULL,
      0x4101c8287314b43eULL}},
    {"ring 257", 5, 4, false,
     {0xd19ecd57b2ce8b67ULL, 0x60e96f94b0424109ULL,
      0xb2a5dbb101e1a7e2ULL}},
    {"ring 257", 5, 4, true,
     {0xa4c52657a0f49e6aULL, 0xe3e7c3f237688c18ULL,
      0x4101c8287314b43eULL}},
    // 2^16 nodes: the smallest document the encoder sizes and writes in
    // pool jobs. It encodes the smaller ones above inline, pool or not.
    {"torus 256 256", 1024, 4, false,
     {0x7713187a428ecfffULL, 0xd1e4f9a4ada5f015ULL,
      0x12e706cad4aa5fbbULL}},
};

RotorRouter make_engine(const Golden& g) {
  const auto desc = graph::GraphDescriptor::parse(g.graph);
  EXPECT_TRUE(desc.has_value());
  auto csr = desc->build();
  EXPECT_TRUE(csr.has_value());
  Rng rng(0x60DE0000u + g.agents);
  std::vector<NodeId> agents(g.agents);
  for (NodeId& a : agents) a = rng.bounded(csr->num_nodes());
  // The ring starts from random rotors, the torus from all ports 0 (so
  // its initial_pointers column is one delta-RLE run).
  std::vector<std::uint32_t> pointers;
  if (std::string_view(g.graph).starts_with("ring")) {
    pointers.resize(csr->num_nodes());
    for (std::uint32_t& p : pointers) p = rng.bounded(2);
  }
  return RotorRouter(std::move(*csr), agents, std::move(pointers), g.shards);
}

std::vector<unsigned> pool_widths() {
  if (const char* env = std::getenv("RR_TEST_POOL_THREADS")) {
    const unsigned t = static_cast<unsigned>(std::atoi(env));
    if (t > 0) return {t};
  }
  return {1, 2, 4};
}

TEST(RotorCheckpointGolden, BytesAreUnchangedForEverySegmentAndPoolChoice) {
  std::vector<std::unique_ptr<sim::ThreadPool>> pools;
  for (const unsigned t : pool_widths()) {
    pools.push_back(std::make_unique<sim::ThreadPool>(t));
  }
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(::testing::Message() << g.graph << " shards " << g.shards
                                      << (g.post_cover ? " post" : " mid"));
    std::uint64_t cover = 0;
    {
      RotorRouter twin = make_engine(g);
      cover = twin.run_until_covered(1u << 20);
      ASSERT_TRUE(twin.all_covered());
    }
    RotorRouter engine = make_engine(g);
    engine.run(g.post_cover ? cover + 300 : cover / 2);
    ASSERT_EQ(engine.all_covered(), g.post_cover);
    for (std::size_t s = 0; s < kNumSegments; ++s) {
      SCOPED_TRACE(::testing::Message() << "segments " << kSegments[s]);
      const std::string doc = sim::write_checkpoint(
          engine, g.graph, sim::CkptFormat::kV2, kSegments[s]);
      EXPECT_EQ(digest(doc), g.digests[s]);
      const std::set<std::uint8_t> tags = field_tags(doc);
      EXPECT_TRUE(tags.count(2)) << "no plain-delta list field";
      EXPECT_TRUE(tags.count(6)) << "no delta-RLE list field";
      for (const auto& pool : pools) {
        SCOPED_TRACE(::testing::Message() << "pool " << pool->num_threads());
        EXPECT_EQ(sim::write_checkpoint(engine, g.graph, sim::CkptFormat::kV2,
                                        kSegments[s], pool.get()),
                  doc);
      }
    }
  }
}

}  // namespace
}  // namespace rr::core
