// Tests for the rr-ckpt v2 binary codec (sim/ckpt_v2.hpp + sim/wire.hpp):
// wire primitives, per-backend round-trips in both formats, transcoding
// equality, and adversarial robustness (every corruption must be
// detected and rejected — never an abort, never a giant allocation).

#include "sim/ckpt_v2.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/continuous_engine.hpp"
#include "common/rng.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "core/sharded_rotor_router.hpp"
#include "graph/generators.hpp"
#include "graph/mmap_substrate.hpp"
#include "sim/checkpoint.hpp"
#include "sim/wire.hpp"
#include "temp_path.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace {

using core::NodeId;

// ---- wire primitives ----

TEST(Wire, VarintRoundTripsBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  129,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63) - 1,
                                  1ull << 63,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t v : values) {
    SCOPED_TRACE(v);
    std::string buf;
    wire::put_varint(buf, v);
    EXPECT_EQ(buf.size(), wire::varint_size(v));
    std::size_t pos = 0;
    const auto back = wire::get_varint(
        reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size(), &pos);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Wire, VarintRejectsTruncatedOverlongAndOverflowing) {
  const auto decode = [](std::initializer_list<std::uint8_t> bytes) {
    const std::vector<std::uint8_t> buf(bytes);
    std::size_t pos = 0;
    return wire::get_varint(buf.data(), buf.size(), &pos);
  };
  // Truncated: continuation bit set on the final byte.
  EXPECT_FALSE(decode({0x80}).has_value());
  EXPECT_FALSE(decode({0xFF, 0xFF}).has_value());
  // Overlong: non-minimal encodings of 0 and 1.
  EXPECT_FALSE(decode({0x80, 0x00}).has_value());
  EXPECT_FALSE(decode({0x81, 0x00}).has_value());
  EXPECT_FALSE(decode({0x80, 0x80, 0x00}).has_value());
  // Overflow: 10th byte may only carry the u64's single remaining bit.
  EXPECT_FALSE(
      decode({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02})
          .has_value());
  // ~0 is exactly ten bytes with a final 0x01: valid.
  EXPECT_EQ(
      decode({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}),
      ~std::uint64_t{0});
  // Longer than ten bytes: rejected even if it would fit.
  EXPECT_FALSE(decode({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                       0x80, 0x01})
                   .has_value());
}

TEST(Wire, ZigzagRoundTripsIncludingSentinel) {
  const std::uint64_t deltas[] = {0, 1, ~std::uint64_t{0} /* -1 */, 2,
                                  ~std::uint64_t{0} - 1 /* -2 */,
                                  1ull << 63, kNotCovered};
  for (const std::uint64_t d : deltas) {
    SCOPED_TRACE(d);
    EXPECT_EQ(wire::unzigzag(wire::zigzag(d)), d);
  }
  // Small magnitudes of either sign stay one byte.
  EXPECT_LT(wire::zigzag(~std::uint64_t{0}), 0x80u);
  EXPECT_LT(wire::zigzag(1), 0x80u);
}

TEST(Wire, Crc32MatchesIeeeCheckValue) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(wire::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(wire::crc32("", 0), 0u);
  // Seeded continuation equals one-shot over the concatenation.
  const std::uint32_t first = wire::crc32("12345", 5);
  EXPECT_EQ(wire::crc32("6789", 4, first), 0xCBF43926u);
}

// ---- every backend round-trips through v2 ----

// All seven engine backends mid-run, paired with their descriptors. The
// lazy ring engine appears in both of its phases.
struct BackendCase {
  std::unique_ptr<Engine> engine;
  std::string descriptor;
};

std::vector<BackendCase> all_backends_mid_run(std::uint64_t rounds) {
  graph::Graph torus = graph::torus(8, 8);
  const std::vector<NodeId> spread{0, 12, 24, 36};
  std::vector<BackendCase> cases;
  cases.push_back(
      {std::make_unique<core::RotorRouter>(torus, spread), "torus 8 8"});
  cases.push_back(
      {std::make_unique<core::ShardedRotorRouter>(torus, spread,
                                                  std::vector<std::uint32_t>{},
                                                  /*shards=*/3),
       "torus 8 8"});
  cases.push_back(
      {std::make_unique<core::RingRotorRouter>(48, spread), "ring 48"});
  // Ring 48 is too crowded for four agents to promote on their own
  // (LazyRingRotorRouter::leaps_pay), so one lazy engine stays dense and
  // its twin is forced onto the sparse representation.
  cases.push_back({std::make_unique<core::LazyRingRotorRouter>(
                       48, spread, core::pointers_negative(48, spread)),
                   "ring 48"});
  auto sparse = std::make_unique<core::LazyRingRotorRouter>(
      48, spread, core::pointers_negative(48, spread));
  EXPECT_TRUE(sparse->try_promote(/*force=*/true));
  cases.push_back({std::move(sparse), "ring 48"});
  cases.push_back(
      {std::make_unique<walk::GraphRandomWalks>(torus, spread, 77),
       "torus 8 8"});
  cases.push_back(
      {std::make_unique<core::EulerianRotorRouter>(torus, spread),
       "torus 8 8"});
  cases.push_back(
      {std::make_unique<analysis::ContinuousDomainEngine>(48, spread),
       "ring 48"});
  for (auto& c : cases) c.engine->run(rounds);
  return cases;
}

void expect_lockstep(Engine& a, Engine& b, std::uint64_t rounds) {
  for (std::uint64_t t = 0; t <= rounds; ++t) {
    ASSERT_EQ(a.time(), b.time());
    ASSERT_EQ(a.config_hash(), b.config_hash()) << "t=" << a.time();
    ASSERT_EQ(a.covered_count(), b.covered_count());
    for (NodeId v = 0; v < a.num_nodes(); ++v) {
      ASSERT_EQ(a.visits(v), b.visits(v)) << "t=" << a.time() << " v=" << v;
      ASSERT_EQ(a.first_visit_time(v), b.first_visit_time(v)) << "v=" << v;
    }
    if (t < rounds) {
      a.step();
      b.step();
    }
  }
}

TEST(CkptV2, RoundTripsEveryBackendMidRun) {
  for (auto& c : all_backends_mid_run(137)) {
    SCOPED_TRACE(c.engine->engine_name());
    const std::string text =
        write_checkpoint(*c.engine, c.descriptor, CkptFormat::kV2);
    ASSERT_EQ(text.compare(0, std::strlen(kCheckpointMagicV2),
                           kCheckpointMagicV2),
              0);
    const auto parsed = parse_checkpoint(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->engine, c.engine->engine_name());
    EXPECT_EQ(parsed->graph_descriptor, c.descriptor);
    auto restored = restore_checkpoint(text);
    ASSERT_TRUE(restored != nullptr);
    EXPECT_EQ(restored->num_agents(), c.engine->num_agents());
    expect_lockstep(*c.engine, *restored, 100);
  }
}

TEST(CkptV2, SegmentsAndPoolChoicesEncodeIdentically) {
  // The frame count is an execution choice, not state: different segment
  // splits must decode to the same engine (and the same split must be
  // byte-identical with and without a pool).
  graph::Graph torus = graph::torus(8, 8);
  core::RotorRouter engine(torus, {0, 17, 40});
  engine.run(91);
  ThreadPool pool(3);
  const std::string one =
      write_checkpoint(engine, "torus 8 8", CkptFormat::kV2, 1);
  const std::string four =
      write_checkpoint(engine, "torus 8 8", CkptFormat::kV2, 4);
  const std::string four_pooled =
      write_checkpoint(engine, "torus 8 8", CkptFormat::kV2, 4, &pool);
  EXPECT_EQ(four, four_pooled);
  EXPECT_NE(one, four);  // different framing...
  auto a = restore_checkpoint(one);
  auto b = restore_checkpoint(four);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  expect_lockstep(*a, *b, 50);  // ...same state
}

// ---- default-skipping restore (the pristine fast path) ----

// deserialize skips rewriting spans where every field sits in a
// constant default-valued run, but only when the target engine still
// holds construction defaults. Restores into a pristine target, an
// evolved target (which must be fully overwritten), and a
// pointer-overridden target (constructed non-pristine) must all
// reproduce the source state exactly, in both formats.
TEST(CkptV2, RestoreIntoPristineAndEvolvedEnginesMatchesSource) {
  const std::string path =
      rr::testing::test_temp_path("ckpt_v2_pristine.rrg");
  ASSERT_TRUE(graph::MappedSubstrate::build("ring 4096", path));
  auto substrate = graph::MappedSubstrate::open(path);
  ASSERT_TRUE(substrate != nullptr);
  graph::Graph ring = graph::ring(4096);
  // Each sink gets its own open: engines over one handle share the COW
  // mapping (a second engine would find — and further dirty — the first
  // one's state).
  const auto reopen = [&path] {
    auto s = graph::MappedSubstrate::open(path);
    EXPECT_TRUE(s != nullptr);
    return s;
  };

  core::RotorRouter source(substrate, {0, 1000, 1000, 3000});
  source.run(257);  // touches a small region; most spans stay default
  for (const CkptFormat format : {CkptFormat::kV1, CkptFormat::kV2}) {
    SCOPED_TRACE(static_cast<int>(format));
    const std::string text = write_checkpoint(source, "ring 4096", format);

    core::RotorRouter mapped_fresh(reopen(), {5});
    core::RotorRouter ram_fresh(ring, {5});
    core::RotorRouter evolved(reopen(), {7, 9});
    evolved.run(400);
    core::RotorRouter pinned(reopen(), {11},
                             std::vector<std::uint32_t>(4096, 1));
    // A second engine over a shared handle must not claim pristine:
    // restoring it would otherwise skip spans the first engine dirtied.
    auto shared_open = reopen();
    core::RotorRouter first_on_shared(shared_open, {20, 40});
    first_on_shared.run(300);
    core::RotorRouter second_on_shared(shared_open, {60});

    for (core::RotorRouter* sink : {&mapped_fresh, &ram_fresh, &evolved,
                                    &pinned, &second_on_shared}) {
      const auto parsed = parse_checkpoint(text);
      ASSERT_TRUE(parsed.has_value());
      ASSERT_TRUE(sink->deserialize_state(parsed->state));
      ASSERT_EQ(sink->config_hash(), source.config_hash());
      ASSERT_EQ(sink->time(), source.time());
      ASSERT_EQ(sink->num_agents(), source.num_agents());
      ASSERT_EQ(sink->covered_count(), source.covered_count());
      for (NodeId v = 0; v < source.num_nodes(); ++v) {
        ASSERT_EQ(sink->visits(v), source.visits(v)) << "v=" << v;
        ASSERT_EQ(sink->exits(v), source.exits(v)) << "v=" << v;
        ASSERT_EQ(sink->first_visit_time(v), source.first_visit_time(v));
        ASSERT_EQ(sink->last_visit_time(v), source.last_visit_time(v));
        ASSERT_EQ(sink->pointer(v), source.pointer(v)) << "v=" << v;
        ASSERT_EQ(sink->agents_at(v), source.agents_at(v)) << "v=" << v;
        // arc_traversals reads initial_pointers, covering its restore.
        ASSERT_EQ(sink->arc_traversals(v, 0), source.arc_traversals(v, 0));
      }
    }
    // Restored engines must also continue identically.
    expect_lockstep(mapped_fresh, ram_fresh, 150);
  }
  std::remove(path.c_str());
}

// ---- transcoding: v1 -> v2 -> v1 is the identity ----

TEST(CkptV2, ConvertRoundTripIsIdentityForEveryBackend) {
  for (auto& c : all_backends_mid_run(83)) {
    SCOPED_TRACE(c.engine->engine_name());
    const std::string v1 = write_checkpoint(*c.engine, c.descriptor,
                                            CkptFormat::kV1);
    // v1 -> engine -> v2.
    auto from_v1 = restore_checkpoint(v1);
    ASSERT_TRUE(from_v1 != nullptr);
    const std::string v2 =
        write_checkpoint(*from_v1, c.descriptor, CkptFormat::kV2);
    // v2 -> engine -> v1 must reproduce the original document exactly:
    // the codec preserves every field bit, and v1 rendering is canonical.
    auto from_v2 = restore_checkpoint(v2);
    ASSERT_TRUE(from_v2 != nullptr);
    EXPECT_EQ(write_checkpoint(*from_v2, c.descriptor, CkptFormat::kV1), v1);
    // And a second v2 rendering is byte-stable too.
    EXPECT_EQ(write_checkpoint(*from_v2, c.descriptor, CkptFormat::kV2), v2);
  }
}

// ---- adversarial documents ----

std::string v2_seed_document() {
  graph::Graph torus = graph::torus(6, 6);
  core::RotorRouter engine(torus, {0, 18});
  engine.run(57);
  return write_checkpoint(engine, "torus 6 6", CkptFormat::kV2);
}

TEST(CkptV2, EveryTruncationIsRejected) {
  const std::string seed = v2_seed_document();
  ASSERT_TRUE(restore_checkpoint(seed) != nullptr);
  for (std::size_t cut = 0; cut < seed.size(); ++cut) {
    EXPECT_FALSE(parse_checkpoint(seed.substr(0, cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(CkptV2, EveryPostHeaderByteFlipIsRejected) {
  // Every byte after the header line is covered by a frame CRC, the
  // footer CRC, or the trailer magic: any single-byte corruption must be
  // detected, not silently decoded into different state.
  const std::string seed = v2_seed_document();
  const std::size_t body_start = seed.find('\n') + 1;
  ASSERT_GT(body_start, 0u);
  for (std::size_t at = body_start; at < seed.size(); ++at) {
    std::string mutated = seed;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x20);
    EXPECT_FALSE(parse_checkpoint(mutated).has_value()) << "at=" << at;
  }
}

TEST(CkptV2, FuzzedDocumentsNeverAbort) {
  // Random mutations (flips, deletions, duplications) over real v2
  // documents of several backends: reject or restore-and-step, never
  // abort. Mirrors the v1 fuzz lane in checkpoint_test.cpp.
  std::vector<std::string> seeds;
  for (auto& c : all_backends_mid_run(41)) {
    seeds.push_back(write_checkpoint(*c.engine, c.descriptor,
                                     CkptFormat::kV2));
  }
  Rng rng(0xF0CC);
  for (const std::string& seed : seeds) {
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutated = seed;
      const int op = static_cast<int>(rng.bounded(3));
      if (op == 0) {
        mutated[rng.bounded(static_cast<std::uint32_t>(mutated.size()))] =
            static_cast<char>(rng.bounded(256));
      } else if (op == 1) {
        mutated.erase(rng.bounded(static_cast<std::uint32_t>(mutated.size())),
                      1 + rng.bounded(16));
      } else {
        const std::size_t at =
            rng.bounded(static_cast<std::uint32_t>(mutated.size()));
        mutated.insert(at, mutated.substr(at, 1 + rng.bounded(8)));
      }
      auto engine = restore_checkpoint(mutated);
      if (engine) {
        engine->step();  // header-line mutations can stay benign
      }
    }
  }
}

TEST(CkptV2, OutOfBoundsFooterEntriesAreRejected) {
  // Corrupt footer geometry with a *recomputed* CRC, so the bounds checks
  // themselves are what reject the document (not the checksum).
  const std::string seed = v2_seed_document();
  const std::size_t body_start = seed.find('\n') + 1;
  const std::size_t body_plus_footer = seed.size() - body_start;
  const std::uint32_t num_frames = wire::get_u32le(
      reinterpret_cast<const std::uint8_t*>(seed.data()) + seed.size() - 16);
  ASSERT_GT(num_frames, 0u);
  const std::size_t table_bytes = static_cast<std::size_t>(num_frames) * 40;
  ASSERT_LT(table_bytes + 16, body_plus_footer);
  const std::size_t table_at = seed.size() - 16 - table_bytes;

  const auto corrupted = [&](std::size_t field_off, std::uint64_t value) {
    std::string doc = seed;
    std::string enc;
    wire::put_u64le(enc, value);
    doc.replace(table_at + field_off, 8, enc);
    // Re-stamp the footer CRC over (table || num_frames).
    const std::uint32_t crc = wire::crc32(doc.data() + table_at,
                                          table_bytes + 4);
    std::string crc_enc;
    wire::put_u32le(crc_enc, crc);
    doc.replace(doc.size() - 12, 4, crc_enc);
    return doc;
  };
  // Frame 0 offset pushed past the body; length overflowing the body;
  // length with offset+length wrapping.
  EXPECT_FALSE(parse_checkpoint(corrupted(0, 1u << 20)).has_value());
  EXPECT_FALSE(parse_checkpoint(corrupted(8, body_plus_footer)).has_value());
  EXPECT_FALSE(
      parse_checkpoint(corrupted(8, ~std::uint64_t{0} - 7)).has_value());
  // Reserved field must be zero.
  {
    std::string doc = seed;
    doc[table_at + 36] = 1;
    const std::uint32_t crc = wire::crc32(doc.data() + table_at,
                                          table_bytes + 4);
    std::string crc_enc;
    wire::put_u32le(crc_enc, crc);
    doc.replace(doc.size() - 12, 4, crc_enc);
    EXPECT_FALSE(parse_checkpoint(doc).has_value());
  }
  // Sanity: the re-stamping helper itself produces a valid document when
  // it writes back the original value.
  const std::uint64_t orig_len = wire::get_u64le(
      reinterpret_cast<const std::uint8_t*>(seed.data()) + table_at + 8);
  EXPECT_TRUE(parse_checkpoint(corrupted(8, orig_len)).has_value());
}

TEST(CkptV2, CraftedListCountCannotForceAllocation) {
  // A hand-assembled document whose single list field claims 2^40
  // elements in a four-byte frame: the decoder's fail-fast count bound
  // must reject it outright (long before any allocation could happen).
  std::string frame;
  wire::put_varint(frame, 4);
  frame += "bomb";
  frame.push_back(2);  // tag: list (delta)
  wire::put_varint(frame, 1ull << 40);

  std::string tail;
  wire::put_u64le(tail, 0);             // offset
  wire::put_u64le(tail, frame.size());  // length
  wire::put_u64le(tail, 0);             // begin_node (frame 0: zero)
  wire::put_u64le(tail, 0);             // end_node
  wire::put_u32le(tail, wire::crc32(frame.data(), frame.size()));
  wire::put_u32le(tail, 0);  // reserved
  wire::put_u32le(tail, 1);  // num_frames
  wire::put_u32le(tail, wire::crc32(tail.data(), tail.size()));
  wire::put_u64le(tail, kV2TrailerMagic);

  const std::string doc =
      "rr-ckpt v2 engine=rotor-router graph=torus 6 6\n" + frame + tail;
  EXPECT_FALSE(parse_checkpoint(doc).has_value());

  // The accessor-level guard: a well-formed document read with the wrong
  // expected element count returns nullopt from the accessor instead of
  // materializing anything.
  const auto parsed = parse_checkpoint(v2_seed_document());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->state.u64_list("visits", 36).has_value());
  EXPECT_FALSE(parsed->state.u64_list("visits", 35).has_value());
  EXPECT_FALSE(parsed->state.u64_list("visits", 1u << 30).has_value());
}

// ---- streaming file parse matches in-memory parse ----

TEST(CkptV2, StreamingFileParseMatchesInMemory) {
  for (const CkptFormat format : {CkptFormat::kV1, CkptFormat::kV2}) {
    SCOPED_TRACE(format == CkptFormat::kV1 ? "v1" : "v2");
    graph::Graph torus = graph::torus(8, 8);
    core::RotorRouter engine(torus, {0, 17, 40});
    engine.run(123);
    const std::string text = write_checkpoint(engine, "torus 8 8", format);
    const std::string path =
        rr::testing::test_temp_path("rr_ckpt_v2_stream.ckpt");
    ASSERT_TRUE(save_checkpoint_file(path, text));

    auto restored = restore_checkpoint_file(path);
    ASSERT_TRUE(restored != nullptr);
    expect_lockstep(engine, *restored, 60);
    std::remove(path.c_str());
  }
}

// ---- pool-parallel load ----

TEST(CkptV2, PoolParallelLoadIsBitIdenticalToSequential) {
  // v2 per-node frames decode independently (delta baselines restart at
  // every segment boundary), so parse_checkpoint and the rotor restore
  // both take a pool — the result must be indistinguishable from the
  // sequential load, for any segment split.
  graph::Graph torus = graph::torus(16, 16);
  core::RotorRouter engine(torus, {0, 17, 40, 200});
  engine.run(313);
  ThreadPool pool(3);
  for (const std::uint32_t segments : {1u, 4u, 8u}) {
    SCOPED_TRACE(segments);
    const std::string text =
        write_checkpoint(engine, "torus 16 16", CkptFormat::kV2, segments);

    const auto seq = parse_checkpoint(text);
    ASSERT_TRUE(seq.has_value());
    core::RotorRouter a(torus, {0});
    ASSERT_TRUE(a.deserialize_state(seq->state));

    const auto par = parse_checkpoint(text, &pool);
    ASSERT_TRUE(par.has_value());
    core::RotorRouter b(torus, {0});
    ASSERT_TRUE(b.deserialize_state(par->state, &pool));

    EXPECT_EQ(a.config_hash(), engine.config_hash());
    EXPECT_EQ(b.config_hash(), engine.config_hash());
    // Bit-identical down to a re-serialized document.
    EXPECT_EQ(
        write_checkpoint(a, "torus 16 16", CkptFormat::kV2, segments),
        write_checkpoint(b, "torus 16 16", CkptFormat::kV2, segments));
    expect_lockstep(a, b, 50);
  }
}

TEST(CkptV2, PooledFileRestoreMatchesSequential) {
  // The streaming path: restore_checkpoint_file with a pool batches
  // frame reads and decodes them in parallel; same engine either way.
  graph::Graph ring = graph::ring(4096);
  core::RotorRouter engine(ring, {0, 1000, 3000});
  engine.run(517);
  const std::string text =
      write_checkpoint(engine, "ring 4096", CkptFormat::kV2, 8);
  const std::string path =
      rr::testing::test_temp_path("rr_ckpt_v2_pooled.ckpt");
  ASSERT_TRUE(save_checkpoint_file(path, text));
  ThreadPool pool(3);
  auto seq = restore_checkpoint_file(path);
  auto par = restore_checkpoint_file(path, /*shards=*/1, &pool);
  ASSERT_TRUE(seq != nullptr && par != nullptr);
  EXPECT_EQ(seq->config_hash(), engine.config_hash());
  EXPECT_EQ(par->config_hash(), engine.config_hash());
  expect_lockstep(*seq, *par, 50);
  std::remove(path.c_str());
}

TEST(CkptV2, PooledLoadOfV1DocumentsFallsBackToSequential) {
  // v1 text bodies have no independently decodable segments: the pool
  // overloads must quietly take the sequential path and still restore
  // exactly.
  graph::Graph torus = graph::torus(8, 8);
  core::RotorRouter engine(torus, {0, 17});
  engine.run(99);
  const std::string text = write_checkpoint(engine, "torus 8 8",
                                            CkptFormat::kV1);
  ThreadPool pool(3);
  const auto parsed = parse_checkpoint(text, &pool);
  ASSERT_TRUE(parsed.has_value());
  core::RotorRouter sink(torus, {0});
  ASSERT_TRUE(sink.deserialize_state(parsed->state, &pool));
  EXPECT_EQ(sink.config_hash(), engine.config_hash());
  expect_lockstep(engine, sink, 50);
}

}  // namespace
}  // namespace rr::sim
