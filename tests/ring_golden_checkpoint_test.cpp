// Golden checkpoint bytes for the ring-family engines (`ring`, and `lazy`
// as built, which steps the ring engine as its dense delegate on these
// crowded rings). config_hash and the differential harness only see
// pointers and agent counts; these digests also pin the Sec. 2.2
// visit-classification fields (travel_dir, last_arrival,
// last_single_prop) and the visit statistics, in both wire formats, so a
// change to the engines' state layout cannot silently change a
// checkpoint.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"

namespace rr::core {
namespace {

constexpr NodeId kN = 257;
constexpr int kLegs = 6;

std::uint64_t digest(const std::string& bytes) {
  Fnv1a h;
  for (const unsigned char c : bytes) h.mix(c);
  return h.value();
}

/// Pure delay schedule D(v, t, present).
std::uint32_t hold(NodeId v, std::uint64_t t, std::uint32_t present) {
  return static_cast<std::uint32_t>((v * 7 + t) % (present + 1));
}

struct Golden {
  std::uint32_t k;
  std::uint64_t v1[kLegs];
  std::uint64_t v2[kLegs];
};

// FNV-1a of the v1 text and of the v2 bytes after each leg (one delayed
// round, then 1000 plain rounds). Any change to the dynamics, to a
// serialized field or to its encoding changes them.
constexpr Golden kRingGolden[] = {
    {2,
     {0xd033dc0e7ffa330eULL, 0x2f5289cf47251776ULL, 0x6d8ec8e11f49f092ULL,
      0x638cf5f1cdaf55e4ULL, 0x32cec055c0957cfbULL, 0x20a2edcb8020f703ULL},
     {0x5b025eb72c9c9cbcULL, 0x8c81d4fb72a0609aULL, 0x9250ea67a7de984fULL,
      0x90ab775fe8806f59ULL, 0x98e056a0fbde8016ULL, 0x92fdd555a47955e1ULL}},
    {9,
     {0xb0ae3aeb45173a69ULL, 0xb32688b3b8ae6975ULL, 0xdf9901fc464e07ecULL,
      0x60183a9add7d015cULL, 0x155e3304e7c3b52bULL, 0x378b52325508c251ULL},
     {0xdea9549ca6746078ULL, 0x57b03ed2fba57ca5ULL, 0x114e712c9825cde8ULL,
      0xd99fe3cdfef4731cULL, 0x5b5053acf0399380ULL, 0x61dc33545c97a2eaULL}},
    {64,
     {0x0fb2e6e146d133b8ULL, 0x57c20b667c3faff9ULL, 0x5418ade365dfcb51ULL,
      0x6ef115791583f871ULL, 0x68d6b0f7406f847eULL, 0x50198e3724a47f56ULL},
     {0xa224954cce54cf37ULL, 0xd14a933926d87c78ULL, 0xd7bc91a02393a35cULL,
      0x985f2f80e1420548ULL, 0x197e4641cce35986ULL, 0x120c9c1e3b424bbaULL}},
};
constexpr Golden kLazyGolden[] = {
    {2,
     {0x4948e58290efd040ULL, 0x25470b432cdd18d4ULL, 0x98274ceaa6092640ULL,
      0xabe2d98b174da2d6ULL, 0xcafd50e28190b5c1ULL, 0x8c7946a81154aef9ULL},
     {0x171541277cc88d21ULL, 0xfff0713c6807da20ULL, 0x515525833b5aebe0ULL,
      0x4a2ddea85bb9e5d3ULL, 0x467a4375337aa8e1ULL, 0x952d8f584baeb855ULL}},
    {9,
     {0xf6259bd35b1b1bbbULL, 0xa5b85fe3310a61f3ULL, 0x343380d76e7fccf2ULL,
      0x673e2132e6519216ULL, 0x688c5012d54abcfdULL, 0x163ff8cffc58e01fULL},
     {0xa6f3d35094d058a8ULL, 0x82768950dd1b6b80ULL, 0x039d18e659564dd4ULL,
      0x8a52c3c82e396e46ULL, 0x9f3ab27d40504dbdULL, 0x39cdad6d8645d639ULL}},
    {64,
     {0x59d0855dba46ed42ULL, 0x4b411a7dcd8f3dcbULL, 0x43419166e9b3924bULL,
      0x4d7b7364f32fb75bULL, 0xbd9a2a7570e6e8f0ULL, 0x9f58d334cf5c2ed8ULL},
     {0x80ee953de81dff64ULL, 0x2568bb13ef6dfe81ULL, 0xd99847a1a8389aaaULL,
      0x25aa5080f483db9bULL, 0xfbe8597f84db4353ULL, 0x54bac80e533e87e3ULL}},
};

template <typename Engine>
void expect_golden(const Golden& g) {
  Rng rng(0x5eed0000u + g.k);
  std::vector<NodeId> agents = place_random(kN, g.k, rng);
  agents.insert(agents.end(), 6, NodeId{kN / 2});  // a 6-agent pile-up
  Engine engine(kN, agents, pointers_random(kN, rng));
  for (int leg = 0; leg < kLegs; ++leg) {
    SCOPED_TRACE(::testing::Message() << "leg " << leg);
    engine.step_delayed(hold);
    engine.run(1000);
    const std::string desc = "ring " + std::to_string(kN);
    EXPECT_EQ(digest(sim::write_checkpoint(engine, desc)), g.v1[leg]);
    EXPECT_EQ(digest(sim::write_checkpoint(engine, desc, sim::CkptFormat::kV2,
                                           sim::kV2DefaultSegments)),
              g.v2[leg]);
  }
}

TEST(RingCheckpointGolden, RingBytesAreUnchanged) {
  for (const Golden& g : kRingGolden) {
    SCOPED_TRACE(::testing::Message() << "k " << g.k);
    expect_golden<RingRotorRouter>(g);
  }
}

TEST(RingCheckpointGolden, LazyBytesAreUnchanged) {
  for (const Golden& g : kLazyGolden) {
    SCOPED_TRACE(::testing::Message() << "k " << g.k);
    expect_golden<LazyRingRotorRouter>(g);
  }
}

}  // namespace
}  // namespace rr::core
