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
  // Both sides of every 7-bit group boundary, 2^(7j) - 1 and 2^(7j), plus
  // the ends of the range and a few interior values.
  std::vector<std::uint64_t> values{0,
                                    1,
                                    129,
                                    (1ull << 32) - 1,
                                    1ull << 32,
                                    (1ull << 63) - 1,
                                    1ull << 63,
                                    ~std::uint64_t{0}};
  for (int j = 1; j <= 9; ++j) {
    values.push_back((1ull << (7 * j)) - 1);
    values.push_back(1ull << (7 * j));
  }
  for (const std::uint64_t v : values) {
    SCOPED_TRACE(v);
    std::string buf;
    wire::put_varint(buf, v);
    EXPECT_EQ(wire::varint_size(v), buf.size());
    // The pointer store writes the same bytes and returns their end.
    std::uint8_t raw[wire::kMaxVarintBytes];
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(raw),
                          wire::put_varint(raw, v) - raw),
              buf);
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

// ---- the list codec sizes exactly what it writes ----

/// Both list encodings built the obvious way, one append at a time.
struct NaiveList {
  std::string delta;
  std::string rle;
};

NaiveList naive_encode(const std::vector<std::uint64_t>& values) {
  NaiveList out;
  std::uint64_t prev = 0;
  std::uint64_t run_delta = 0;
  std::uint64_t run_len = 0;
  for (const std::uint64_t v : values) {
    const std::uint64_t d = v - prev;
    prev = v;
    wire::put_varint(out.delta, wire::zigzag(d));
    if (run_len > 0 && d == run_delta) {
      ++run_len;
      continue;
    }
    if (run_len > 0) {
      wire::put_varint(out.rle, run_len);
      wire::put_varint(out.rle, wire::zigzag(run_delta));
    }
    run_delta = d;
    run_len = 1;
  }
  if (run_len > 0) {
    wire::put_varint(out.rle, run_len);
    wire::put_varint(out.rle, wire::zigzag(run_delta));
  }
  return out;
}

/// Encodes `values` as the only field of a document, in frame 0
/// (`per_node` false) or as a one-segment per-node field, and returns the
/// field's record: the frame bytes between the header line and the
/// footer.
std::string single_list_record(const std::vector<std::uint64_t>& values,
                               bool per_node) {
  StateWriter w;
  w.field_list("x", values);
  const std::string doc =
      encode_checkpoint_v2("e", "g", w, per_node ? values.size() : 0, 1);
  const std::size_t body = doc.find('\n') + 1;
  const std::size_t frames = per_node ? 2 : 1;  // frame 0 is empty if per-node
  const std::size_t footer = frames * 40 + 16;
  EXPECT_GE(doc.size(), body + footer);
  const auto state = decode_checkpoint_v2_body(
      reinterpret_cast<const std::uint8_t*>(doc.data()) + body,
      doc.size() - body);
  EXPECT_TRUE(state.has_value());
  if (state) {
    EXPECT_EQ(state->u64_list("x", values.size()), values);
  }
  return doc.substr(body, doc.size() - body - footer);
}

/// The encoder's sizing pass must predict exactly what its write pass
/// stores (write_frame RR_REQUIREs every list payload to end where its
/// plan put it), pick RLE only when strictly smaller, and write the same
/// payload a naive encoder does; the document must decode back.
void expect_exact_list(const std::vector<std::uint64_t>& values) {
  const NaiveList naive = naive_encode(values);
  const bool rle = naive.rle.size() < naive.delta.size();
  std::string expected = "\x01x";
  expected += static_cast<char>(rle ? 6 : 2);
  wire::put_varint(expected, values.size());
  expected += rle ? naive.rle : naive.delta;
  for (const bool per_node : {false, true}) {
    if (per_node && values.empty()) continue;  // no per-node frame to hold it
    SCOPED_TRACE(per_node ? "per-node frame" : "frame 0");
    EXPECT_EQ(single_list_record(values, per_node), expected);
  }
  // Both payloads decode back, the one the encoder did not pick included.
  for (const bool enc_rle : {false, true}) {
    PackedSegment seg;
    seg.count = values.size();
    seg.enc = enc_rle ? 1 : 0;
    seg.bytes = enc_rle ? naive.rle : naive.delta;
    std::vector<std::uint64_t> back;
    std::uint64_t index = 0;
    ASSERT_TRUE(detail::decode_packed_list(
        seg, &index, [&back](std::uint64_t, std::uint64_t v) {
          back.push_back(v);
          return true;
        }));
    EXPECT_EQ(back, values);
  }
}

TEST(CkptV2, ListCodecPredictsItsExactSize) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::vector<std::vector<std::uint64_t>> lists;
  lists.push_back({});
  lists.push_back({kMax});  // the sentinel alone, then sprinkled
  lists.push_back({kMax, 0, kMax, kMax, 5, kMax, 0, 0, kMax});
  // Values and deltas on both sides of every 7-bit varint boundary. A
  // delta d zigzags to 2d or 2|d| - 1, so +-2^(7j-1) straddle 2^(7j).
  for (int j = 1; j <= 9; ++j) {
    const std::uint64_t b = 1ull << (7 * j);
    lists.push_back({b - 1, b, b - 1, b, b});
    std::vector<std::uint64_t> ramp{0};
    for (const std::uint64_t d : {b / 2 - 1, b / 2, b - 1, b, -(b / 2),
                                  -(b / 2 - 1), -b, -(b - 1), b / 2}) {
      ramp.push_back(ramp.back() + d);
    }
    lists.push_back(ramp);
  }
  // Runs of equal deltas whose length crosses a varint boundary, alone
  // and closed by a different delta.
  for (const std::uint64_t len : {127u, 128u, 16383u, 16384u}) {
    std::vector<std::uint64_t> run(len);
    for (std::uint64_t i = 0; i < len; ++i) run[i] = 3 * (i + 1);
    lists.push_back(run);
    run.push_back(run.back() + 200);
    run.push_back(run.back() + 200);
    lists.push_back(run);
  }
  // Alternating deltas: no run longer than one.
  for (const std::uint64_t step : {1ull, 64ull, 1ull << 40}) {
    std::vector<std::uint64_t> alt;
    for (int i = 0; i < 300; ++i) alt.push_back(i % 2 == 0 ? 0 : step);
    lists.push_back(alt);
  }
  // All-equal lists.
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7},
                                 std::uint64_t{1} << 35, kMax}) {
    for (const std::size_t n : {1u, 2u, 127u, 128u, 129u, 5000u}) {
      lists.push_back(std::vector<std::uint64_t>(n, v));
    }
  }
  // Random lists mixing short runs, small steps, wide values and the
  // sentinel.
  Rng rng(0x517E5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> list;
    const std::uint32_t n = rng.bounded(400);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t prev = list.empty() ? 0 : list.back();
      switch (rng.bounded(5)) {
        case 0: list.push_back(prev); break;
        case 1: list.push_back(prev + rng.bounded(200) - 100); break;
        case 2: list.push_back(rng()); break;
        case 3: list.push_back(kMax); break;
        default: list.push_back(prev + (list.size() % 7)); break;
      }
    }
    lists.push_back(list);
  }
  for (std::size_t i = 0; i < lists.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "list " << i << " of length "
                                      << lists[i].size());
    expect_exact_list(lists[i]);
  }
}

TEST(CkptV2, ListTagTieGoesToDelta) {
  // [0, 0]: plain deltas are two bytes, one run (2, 0) is two bytes too;
  // the encoder writes tag 2, in frame 0 and in a per-node frame alike.
  const std::vector<std::uint64_t> tie{0, 0};
  ASSERT_EQ(naive_encode(tie).delta.size(), 2u);
  ASSERT_EQ(naive_encode(tie).rle.size(), 2u);
  for (const bool per_node : {false, true}) {
    SCOPED_TRACE(per_node);
    EXPECT_EQ(single_list_record(tie, per_node),
              std::string("\x01x\x02\x02\0\0", 6));
    // One byte smaller RLE wins: [0, 0, 0] is three bytes against two.
    EXPECT_EQ(single_list_record({0, 0, 0}, per_node),
              std::string("\x01x\x06\x03\x03\0", 6));
  }
}

// ---- every backend round-trips through v2 ----

// All seven engine backends mid-run, paired with their descriptors. The
// lazy ring engine appears in both of its phases.
struct BackendCase {
  std::unique_ptr<Engine> engine;
  std::string descriptor;
};

std::vector<BackendCase> all_backends_mid_run(std::uint64_t rounds) {
  graph::CsrGraph torus = graph::torus(8, 8);
  const std::vector<NodeId> spread{0, 12, 24, 36};
  std::vector<BackendCase> cases;
  cases.push_back(
      {std::make_unique<core::RotorRouter>(torus, spread), "torus 8 8"});
  cases.push_back(
      {std::make_unique<core::RotorRouter>(
           torus, spread, std::vector<std::uint32_t>{}, /*shards=*/3),
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
  graph::CsrGraph torus = graph::torus(8, 8);
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
// reproduce the source state exactly, from one segment or several.
TEST(CkptV2, RestoreIntoPristineAndEvolvedEnginesMatchesSource) {
  const std::string path =
      rr::testing::test_temp_path("ckpt_v2_pristine.rrg");
  ASSERT_TRUE(graph::MappedSubstrate::build("ring 4096", path));
  auto substrate = graph::MappedSubstrate::open(path);
  ASSERT_TRUE(substrate != nullptr);
  graph::CsrGraph ring = graph::ring(4096);
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
  for (const std::uint32_t segments : {1u, kV2DefaultSegments}) {
    SCOPED_TRACE(segments);
    const std::string text =
        write_checkpoint(source, "ring 4096", CkptFormat::kV2, segments);

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

// ---- adversarial documents ----

std::string v2_seed_document() {
  graph::CsrGraph torus = graph::torus(6, 6);
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
  // abort. Mirrors the fuzz lane in checkpoint_test.cpp.
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
  for (const std::uint32_t segments : {1u, kV2DefaultSegments}) {
    SCOPED_TRACE(segments);
    graph::CsrGraph torus = graph::torus(8, 8);
    core::RotorRouter engine(torus, {0, 17, 40});
    engine.run(123);
    const std::string text =
        write_checkpoint(engine, "torus 8 8", CkptFormat::kV2, segments);
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
  graph::CsrGraph torus = graph::torus(16, 16);
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
  graph::CsrGraph ring = graph::ring(4096);
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

}  // namespace
}  // namespace rr::sim
