// Tests for sim::EngineRegistry: the sole engine-construction path.
// Lookups and construction are total — unknown names, duplicate
// registrations, substrate mismatches, and malformed configs all fail as
// values (nullptr/false + diagnostic), never as aborts.

#include "sim/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/rotor_router.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"

namespace rr::sim {
namespace {

TEST(EngineRegistry, ListsAllSevenBackendSpecs) {
  const auto specs = EngineRegistry::instance().list();
  ASSERT_EQ(specs.size(), 7u);  // sharded rides on "rotor" via --shards
  std::set<std::string> names, engine_names;
  bool any_shards = false;
  for (const auto* spec : specs) {
    EXPECT_FALSE(spec->summary.empty()) << spec->name;
    EXPECT_FALSE(spec->substrate.empty()) << spec->name;
    names.insert(spec->name);
    engine_names.insert(spec->engine_name);
    any_shards = any_shards || spec->supports_shards;
  }
  EXPECT_EQ(names.size(), 7u);
  // "dist" deliberately shares "rotor-router" (interchangeable
  // checkpoints), so unique engine_names stay one behind the spec count.
  EXPECT_EQ(engine_names.size(), 6u);
  EXPECT_TRUE(any_shards);
  for (const char* name : {"rotor", "ring", "lazy", "walks", "eulerian",
                           "ode", "dist"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

TEST(EngineRegistry, SharedEngineNameResolvesToTheFirstRegistration) {
  // find() is first-match over both key spaces: "rotor-router" must keep
  // resolving to the sequential "rotor" spec (which owns checkpoint
  // restores), while the distributed spec stays reachable by CLI key.
  const auto& r = EngineRegistry::instance();
  ASSERT_NE(r.find("dist"), nullptr);
  EXPECT_EQ(r.find("dist")->engine_name, "rotor-router");
  EXPECT_TRUE(r.find("dist")->shares_engine_name);
  EXPECT_TRUE(r.find("dist")->deterministic);
  EXPECT_EQ(r.find("rotor-router"), r.find("rotor"));
  EXPECT_NE(r.find("rotor-router"), r.find("dist"));
}

TEST(EngineRegistry, FindMatchesCliKeyAndEngineName) {
  const auto& r = EngineRegistry::instance();
  EXPECT_EQ(r.find("rotor"), r.find("rotor-router"));
  EXPECT_EQ(r.find("ode"), r.find("continuous-domain"));
  EXPECT_EQ(r.find("eulerian"), r.find("eulerian-circulation"));
  EXPECT_EQ(r.find("warp-drive"), nullptr);
}

TEST(EngineRegistry, UnknownNameFailsCleanly) {
  std::string error;
  EngineConfig config;
  config.agents = {0};
  auto engine = EngineRegistry::instance().create("warp-drive", "ring 16",
                                                  config, &error);
  EXPECT_EQ(engine, nullptr);
  EXPECT_NE(error.find("unknown engine"), std::string::npos) << error;
}

TEST(EngineRegistry, DuplicateRegistrationIsRejected) {
  // A fresh registry: second add under either colliding key fails and
  // leaves the table unchanged.
  EngineRegistry r;
  EngineSpec spec;
  spec.name = "toy";
  spec.engine_name = "toy-engine";
  spec.factory = [](const graph::GraphDescriptor&, const EngineConfig&,
                    std::string*) -> std::unique_ptr<Engine> {
    return nullptr;
  };
  spec.restore = [](const graph::GraphDescriptor&, const StateReader&,
                    const EngineConfig&) -> std::unique_ptr<Engine> {
    return nullptr;
  };
  EXPECT_TRUE(r.add(spec));
  EXPECT_FALSE(r.add(spec));  // same name
  EngineSpec cross = spec;
  cross.name = "toy-engine";  // collides with the other key space
  cross.engine_name = "toy2";
  EXPECT_FALSE(r.add(cross));
  EXPECT_EQ(r.list().size(), 1u);

  // The global instance rejects re-registration of a built-in the same way.
  EngineSpec rotor_again = spec;
  rotor_again.name = "rotor";
  rotor_again.engine_name = "rotor-router-2";
  EXPECT_FALSE(EngineRegistry::instance().add(rotor_again));
}

TEST(EngineRegistry, IncompleteSpecIsRejected) {
  EngineRegistry r;
  EngineSpec no_factory;
  no_factory.name = "x";
  no_factory.engine_name = "x-engine";
  EXPECT_FALSE(r.add(no_factory));
  EXPECT_TRUE(r.list().empty());
}

TEST(EngineRegistry, SubstrateMismatchFailsCleanly) {
  const auto& r = EngineRegistry::instance();
  EngineConfig config;
  config.agents = {0};
  for (const char* ring_only : {"ring", "lazy", "ode"}) {
    std::string error;
    auto engine = r.create(ring_only, "torus 4 4", config, &error);
    EXPECT_EQ(engine, nullptr) << ring_only;
    EXPECT_NE(error.find("needs"), std::string::npos) << error;
  }
  // Restore checks the same requirement (a crafted checkpoint header must
  // not push a ring engine onto a torus), before the state is looked at.
  auto ode = r.create("ode", "ring 16", config);
  ASSERT_NE(ode, nullptr);
  StateWriter state;
  dynamic_cast<const StateIO&>(*ode).serialize_state(state);
  const auto reader = round_trip_v2(state, ode->num_nodes());
  ASSERT_TRUE(reader.has_value());
  std::string error;
  EXPECT_EQ(r.restore("continuous-domain", *graph::GraphDescriptor::parse(
                                               "torus 4 4"),
                      *reader, {}, &error),
            nullptr);
  EXPECT_NE(error.find("needs"), std::string::npos) << error;
  EXPECT_NE(r.restore("continuous-domain",
                      *graph::GraphDescriptor::parse("ring 16"), *reader),
            nullptr);
}

TEST(EngineRegistry, MalformedConfigFailsCleanly) {
  const auto& r = EngineRegistry::instance();
  std::string error;
  EngineConfig config;  // no agents
  EXPECT_EQ(r.create("rotor", "ring 16", config, &error), nullptr);
  EXPECT_NE(error.find("agents"), std::string::npos) << error;

  config.agents = {99};  // out of range
  EXPECT_EQ(r.create("rotor", "ring 16", config, &error), nullptr);

  config.agents = {0};
  EXPECT_EQ(r.create("rotor", "moebius 16", config, &error), nullptr);
  EXPECT_EQ(r.create("rotor", "ring 2", config, &error), nullptr);

  config.pointers = {0, 1, 2};  // not a ring port field of size n
  EXPECT_EQ(r.create("ring", "ring 16", config, &error), nullptr);
  config.pointers.assign(16, 2);  // right size, bad direction values
  EXPECT_EQ(r.create("ring", "ring 16", config, &error), nullptr);
}

TEST(EngineRegistry, CreatesEveryBackendOnItsSubstrate) {
  const auto& r = EngineRegistry::instance();
  struct Case {
    const char* name;
    const char* descriptor;
  };
  const Case cases[] = {
      {"rotor", "torus 6 6"},   {"ring", "ring 24"}, {"lazy", "ring 24"},
      {"walks", "torus 6 6"},   {"eulerian", "clique 8"},
      {"ode", "ring 24"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EngineConfig config;
    config.agents = {0, 3};
    std::string error;
    auto engine = r.create(c.name, c.descriptor, config, &error);
    ASSERT_NE(engine, nullptr) << error;
    EXPECT_EQ(std::string(engine->engine_name()),
              r.find(c.name)->engine_name);
    EXPECT_EQ(engine->num_agents(), 2u);
    engine->run(10);
    EXPECT_EQ(engine->time(), 10u);
  }
}

TEST(EngineRegistry, ShardRequestSelectsShardParallelStepper) {
  const auto& r = EngineRegistry::instance();
  EngineConfig config;
  config.agents = {0, 7};
  config.shards = 4;
  std::string error;
  auto engine = r.create("rotor", "torus 6 6", config, &error);
  ASSERT_NE(engine, nullptr) << error;
  // Interchangeable checkpoints: the sharded stepper reports the same
  // engine_name, and steps the requested shard count underneath.
  EXPECT_EQ(std::string(engine->engine_name()), "rotor-router");
  auto* rotor = dynamic_cast<core::RotorRouter*>(engine.get());
  ASSERT_NE(rotor, nullptr);
  EXPECT_EQ(rotor->num_shards(), 4u);

  // Non-shard-capable engines ignore the request (callers warn).
  auto ring = r.create("ring", "ring 16", config, &error);
  ASSERT_NE(ring, nullptr) << error;
  EXPECT_EQ(std::string(ring->engine_name()), "ring-rotor-router");
}

TEST(EngineRegistry, RestoreResolvesByEngineName) {
  const auto& r = EngineRegistry::instance();
  EngineConfig config;
  config.agents = {0, 5};
  auto engine = r.create("eulerian", "torus 5 5", config);
  ASSERT_NE(engine, nullptr);
  engine->run(37);
  const std::string text = write_checkpoint(*engine, "torus 5 5");
  auto restored = restore_checkpoint(text);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(std::string(restored->engine_name()), "eulerian-circulation");
  EXPECT_EQ(restored->time(), 37u);
  EXPECT_EQ(restored->config_hash(), engine->config_hash());
}

}  // namespace
}  // namespace rr::sim
