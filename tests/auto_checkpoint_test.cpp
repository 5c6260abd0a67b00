// Periodic auto-checkpointing inside Engine::run()/run_until_covered():
// the sink must fire on the exact round schedule for every backend —
// including the lazy ring engine, whose ballistic leaps must stop at
// checkpoint marks — never perturb the trajectory, and the file sink must
// persist atomically (tmp + rename) so a crash mid-write cannot corrupt
// the previous checkpoint.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
#include "temp_path.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace {

std::string temp_path(const char* name) {
  return rr::testing::test_temp_path(name);
}

// checkpoint_file_sink writes behind the stepping loop; dropping the
// engine's sink joins its last write, after which the file and the
// sink's stats are final.
void drain(Engine& engine) { engine.set_auto_checkpoint(0, {}); }

TEST(AutoCheckpoint, FiresOnTheExactRoundSchedule) {
  const graph::Graph g = graph::torus(6, 6);
  core::RotorRouter rr(g, {0, 9});
  std::vector<std::uint64_t> fired;
  rr.set_auto_checkpoint(8, [&](const Engine& e) { fired.push_back(e.time()); });
  rr.run(50);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{8, 16, 24, 32, 40, 48}));
  // Re-arming starts a fresh schedule from the current round.
  fired.clear();
  rr.set_auto_checkpoint(10, [&](const Engine& e) { fired.push_back(e.time()); });
  rr.run(20);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{60, 70}));
}

TEST(AutoCheckpoint, LazyEngineLeapsStopAtCheckpointMarks) {
  // n large, k tiny: run() fast-forwards thousands of rounds per leap
  // once promoted; the schedule must still be hit exactly, and the final
  // configuration must match an unobserved twin bit for bit.
  const core::NodeId n = 1 << 12;
  const std::vector<core::NodeId> agents{0, n / 2};
  core::LazyRingRotorRouter observed(n, agents);
  core::LazyRingRotorRouter twin(n, agents);
  std::vector<std::uint64_t> fired;
  observed.set_auto_checkpoint(1000,
                               [&](const Engine& e) { fired.push_back(e.time()); });
  observed.run(10500);
  twin.run(10500);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1000, 2000, 3000, 4000, 5000,
                                               6000, 7000, 8000, 9000, 10000}));
  EXPECT_EQ(observed.time(), twin.time());
  EXPECT_EQ(observed.config_hash(), twin.config_hash());
}

TEST(AutoCheckpoint, CoverRunsCheckpointAndStopAtCoverage) {
  const graph::Graph g = graph::ring(64);
  core::RotorRouter rr(g, {0});
  std::vector<std::uint64_t> fired;
  rr.set_auto_checkpoint(16, [&](const Engine& e) { fired.push_back(e.time()); });
  const std::uint64_t cover = rr.run_until_covered(1 << 20);
  ASSERT_NE(cover, kNotCovered);
  ASSERT_FALSE(fired.empty());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 16 * (i + 1));
  }
  EXPECT_LE(fired.back(), cover);
}

TEST(AutoCheckpoint, FileSinkPersistsARestorableCheckpoint) {
  const auto descriptor = graph::GraphDescriptor::torus(8, 8);
  const graph::Graph g = *descriptor.build();
  const std::string path = temp_path("auto_ckpt.txt");
  std::remove(path.c_str());

  core::RotorRouter rr(g, {0, 17, 40}, {}, /*shards=*/4);
  rr.set_auto_checkpoint(32, checkpoint_file_sink(path, descriptor.text()));
  rr.run(100);  // fires at 32, 64, 96; file holds the t=96 state
  drain(rr);

  const auto text = read_text_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(std::optional<std::string>{std::nullopt},
            read_text_file(path + ".tmp"));  // no tmp residue
  auto restored = restore_checkpoint(*text);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->time(), 96u);

  // The restored run continues exactly like the original.
  restored->run(4);
  EXPECT_EQ(restored->time(), rr.time());
  EXPECT_EQ(restored->config_hash(), rr.config_hash());
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, StochasticEngineResumesItsRngStream) {
  const auto descriptor = graph::GraphDescriptor::torus(6, 6);
  const graph::Graph g = *descriptor.build();
  const std::string path = temp_path("auto_ckpt_walks.txt");
  std::remove(path.c_str());

  walk::GraphRandomWalks walks(g, {0, 5}, /*seed=*/99);
  walks.set_auto_checkpoint(25, checkpoint_file_sink(path, descriptor.text()));
  walks.run(60);  // file holds t=50
  drain(walks);

  const auto text = read_text_file(path);
  ASSERT_TRUE(text.has_value());
  auto restored = restore_checkpoint(*text);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->time(), 50u);
  restored->run(10);
  EXPECT_EQ(restored->config_hash(), walks.config_hash());
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, EveryBackendFiresDuringRunAndRunUntilCovered) {
  // Structural enforcement for the whole backend registry: an engine (or
  // a future run()/run_until_covered() override) that forgets
  // fire_auto_checkpoint_if_due fails here instead of silently dropping
  // crash tolerance in production sweeps.
  const graph::Graph torus = graph::torus(8, 8);
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(
      std::make_unique<core::RotorRouter>(torus, std::vector<graph::NodeId>{0}));
  engines.push_back(std::make_unique<core::RotorRouter>(
      torus, std::vector<graph::NodeId>{0}, std::vector<std::uint32_t>{}, 4));
  engines.push_back(std::make_unique<core::RingRotorRouter>(
      64, std::vector<core::NodeId>{0}));
  engines.push_back(std::make_unique<core::LazyRingRotorRouter>(
      64, std::vector<core::NodeId>{0}));
  engines.push_back(std::make_unique<walk::GraphRandomWalks>(
      torus, std::vector<graph::NodeId>{0}, /*seed=*/7));
  for (auto& engine : engines) {
    SCOPED_TRACE(engine->engine_name());
    std::vector<std::uint64_t> fired;
    engine->set_auto_checkpoint(
        8, [&](const Engine& e) { fired.push_back(e.time()); });
    engine->run(20);
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{8, 16}));
    fired.clear();
    engine->set_auto_checkpoint(
        8, [&](const Engine& e) { fired.push_back(e.time()); });
    (void)engine->run_until_covered(engine->time() + 64);
    ASSERT_FALSE(fired.empty());
    for (std::size_t i = 0; i < fired.size(); ++i) {
      EXPECT_EQ(fired[i], 20 + 8 * (i + 1));
    }
  }
}

TEST(AutoCheckpoint, TruncatedWriteLeavesPreviousCheckpointIntact) {
  // Fault injection for save_checkpoint_file_atomic: cap the bytes that
  // reach the tmp file (simulating ENOSPC mid-frame) and verify the save
  // reports failure, the previous checkpoint at `path` survives byte for
  // byte, and no .tmp residue is left behind. Exercised through the v2
  // binary sink — a torn binary frame is the case the tmp + rename
  // protocol exists for.
  const auto descriptor = graph::GraphDescriptor::torus(8, 8);
  const graph::Graph g = *descriptor.build();
  const std::string path = temp_path("auto_ckpt_fault.rrc");
  std::remove(path.c_str());

  core::RotorRouter rr(g, {0, 17});
  rr.run(64);
  const std::string good =
      write_checkpoint(rr, descriptor.text(), CkptFormat::kV2);
  ASSERT_TRUE(save_checkpoint_file_atomic(path, good));

  rr.run(64);
  const std::string next =
      write_checkpoint(rr, descriptor.text(), CkptFormat::kV2);
  ASSERT_GT(next.size(), 100u);
  detail::g_atomic_write_cap = next.size() / 2;  // torn mid-frame
  EXPECT_FALSE(save_checkpoint_file_atomic(path, next));
  detail::g_atomic_write_cap = ~std::size_t{0};

  // The previous checkpoint is untouched and still restores.
  const auto survived = read_text_file(path);
  ASSERT_TRUE(survived.has_value());
  EXPECT_EQ(*survived, good);
  EXPECT_EQ(std::optional<std::string>{std::nullopt},
            read_text_file(path + ".tmp"));
  auto restored = restore_checkpoint(*survived);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->time(), 64u);

  // With the fault cleared the same payload lands atomically.
  ASSERT_TRUE(save_checkpoint_file_atomic(path, next));
  EXPECT_EQ(read_text_file(path), std::optional<std::string>{next});
  EXPECT_EQ(std::optional<std::string>{std::nullopt},
            read_text_file(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, SinkSurvivesWriteFaultsAndRecovers) {
  // The auto-checkpoint file sink is best-effort: a disk that fills for
  // a few fires must not kill the run, and once the fault clears the
  // sink overwrites the stale checkpoint on the next fire.
  const auto descriptor = graph::GraphDescriptor::torus(6, 6);
  const graph::Graph g = *descriptor.build();
  const std::string path = temp_path("auto_ckpt_fault_sink.rrc");
  std::remove(path.c_str());

  core::RotorRouter rr(g, {0});
  // Each phase re-arms the sink (the schedule stays on multiples of 10)
  // and drains it, so the fault is set while that phase's writes run.
  const auto arm = [&] {
    rr.set_auto_checkpoint(10, checkpoint_file_sink(path, descriptor.text()));
  };
  arm();
  rr.run(10);  // good checkpoint at t=10
  drain(rr);
  const auto good = read_text_file(path);
  ASSERT_TRUE(good.has_value());

  detail::g_atomic_write_cap = 16;
  arm();
  rr.run(20);  // fires at 20 and 30 both fail short
  drain(rr);
  detail::g_atomic_write_cap = ~std::size_t{0};
  EXPECT_EQ(read_text_file(path), good);  // t=10 state survives the faults

  arm();
  rr.run(10);  // fire at t=40 succeeds again
  drain(rr);
  auto restored = restore_checkpoint_file(path);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->time(), 40u);
  EXPECT_EQ(restored->config_hash(), rr.config_hash());
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, SinkCountsFailuresAndWarnsOnceNamingThePath) {
  const auto descriptor = graph::GraphDescriptor::ring(32);
  const std::string path = temp_path("auto_ckpt_fail_count.rrc");
  std::remove(path.c_str());
  auto stats = std::make_shared<CheckpointSinkStats>();

  core::RotorRouter rr(*descriptor.build_csr(), {0, 9});
  // Re-armed per phase and drained before the stats are read; the
  // shared stats carry the warn-once across sinks.
  const auto arm = [&] {
    rr.set_auto_checkpoint(10, checkpoint_file_sink(path, descriptor.text(),
                                                    CkptFormat::kV2, nullptr,
                                                    stats));
  };
  arm();
  rr.run(10);
  drain(rr);
  EXPECT_EQ(stats->saves, 1u);
  EXPECT_FALSE(stats->last_failed);

  ::testing::internal::CaptureStderr();
  detail::g_atomic_write_cap = 16;
  arm();
  rr.run(30);  // fires at 20, 30 and 40 all fail short
  drain(rr);
  detail::g_atomic_write_cap = ~std::size_t{0};
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats->failures, 3u);
  EXPECT_TRUE(stats->last_failed);
  // One warning for three failures, naming the path.
  EXPECT_NE(err.find("periodic checkpoint to " + path + " failed"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("periodic checkpoint", err.find("periodic") + 1),
            std::string::npos)
      << err;

  arm();
  rr.run(10);  // the fire at t=50 succeeds again
  drain(rr);
  EXPECT_EQ(stats->saves, 2u);
  EXPECT_EQ(stats->failures, 3u);
  EXPECT_FALSE(stats->last_failed);
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, DestroyingTheEngineJoinsTheWriteInFlight) {
  // The engine is destroyed right after its last fire, while that
  // fire's write may still be running: destruction joins it, so the file
  // on disk is the last fire's document, complete, with no tmp residue.
  const auto descriptor = graph::GraphDescriptor::torus(128, 128);
  const std::string path = temp_path("auto_ckpt_destroy.rrc");
  std::remove(path.c_str());
  std::vector<graph::NodeId> agents;
  for (graph::NodeId v = 0; v < 128 * 128; v += 37) agents.push_back(v);

  std::string last;
  {
    core::RotorRouter rr(*descriptor.build_csr(), agents, {}, /*shards=*/2);
    rr.set_auto_checkpoint(
        10, [&, sink = checkpoint_file_sink(path, descriptor.text())](
                const Engine& e) {
          last = write_checkpoint(e, descriptor.text());
          sink(e);
        });
    rr.run(30);  // fires at 10, 20 and 30
  }
  EXPECT_EQ(read_text_file(path), std::optional<std::string>{last});
  EXPECT_EQ(std::optional<std::string>{std::nullopt},
            read_text_file(path + ".tmp"));
  auto restored = restore_checkpoint_file(path);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->time(), 30u);
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, FailedBackgroundWriteIsReportedAtTheDrain) {
  // A write is counted when it is joined, on the joining thread: the
  // last fire's failure is not in the stats until the sink is dropped,
  // and then it is, with the one warning naming the path and the round.
  const auto descriptor = graph::GraphDescriptor::ring(32);
  const std::string path = temp_path("auto_ckpt_fail_drain.rrc");
  std::remove(path.c_str());
  auto stats = std::make_shared<CheckpointSinkStats>();

  core::RotorRouter rr(*descriptor.build_csr(), {0, 9});
  rr.set_auto_checkpoint(10, checkpoint_file_sink(path, descriptor.text(),
                                                  CkptFormat::kV2, nullptr,
                                                  stats));
  ::testing::internal::CaptureStderr();
  detail::g_atomic_write_cap = 16;
  rr.run(10);  // one fire, its write behind the loop
  EXPECT_EQ(stats->saves + stats->failures, 0u);
  drain(rr);
  detail::g_atomic_write_cap = ~std::size_t{0};
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats->saves, 0u);
  EXPECT_EQ(stats->failures, 1u);
  EXPECT_TRUE(stats->last_failed);
  EXPECT_NE(err.find("periodic checkpoint to " + path + " failed at t=10"),
            std::string::npos)
      << err;
  EXPECT_EQ(std::optional<std::string>{std::nullopt}, read_text_file(path));
  EXPECT_EQ(std::optional<std::string>{std::nullopt},
            read_text_file(path + ".tmp"));
}

TEST(AutoCheckpoint, DirFsyncFailureWarnsOncePerProcess) {
  // The directory fsync after the rename is durability-only: its failure
  // must not fail the save, but it must be observable — exactly one
  // stderr warning per process (auto-checkpoint sinks fire thousands of
  // times), exercised via the fault-injection hook.
  const std::string path = temp_path("auto_ckpt_dirsync.rrc");
  std::remove(path.c_str());
  detail::g_dir_fsync_warned = false;
  detail::g_dir_fsync_fail = true;
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(save_checkpoint_file_atomic(path, "payload one"));
  EXPECT_TRUE(save_checkpoint_file_atomic(path, "payload two"));
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  detail::g_dir_fsync_fail = false;
  EXPECT_TRUE(detail::g_dir_fsync_warned);
  // Warned exactly once, naming the directory.
  const std::size_t first = warnings.find("cannot fsync directory");
  ASSERT_NE(first, std::string::npos) << warnings;
  EXPECT_EQ(warnings.find("cannot fsync directory", first + 1),
            std::string::npos);
  // Both saves landed despite the failed fsync.
  EXPECT_EQ(read_text_file(path), std::optional<std::string>{"payload two"});
  std::remove(path.c_str());
  detail::g_dir_fsync_warned = false;
}

TEST(AutoCheckpoint, SlashlessPathSyncsTheWorkingDirectory) {
  // A bare filename has its parent at "." — before the fix this case
  // skipped the directory fsync silently (find_last_of('/') == npos was
  // treated as "nothing to sync"). The save must succeed and not warn.
  detail::g_dir_fsync_warned = false;
  const std::string name = "auto_ckpt_noslash_test_file.rrc";
  std::remove(name.c_str());
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(save_checkpoint_file_atomic(name, "cwd payload"));
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(warnings.find("cannot fsync directory"), std::string::npos)
      << warnings;
  EXPECT_FALSE(detail::g_dir_fsync_warned);
  EXPECT_EQ(read_text_file(name), std::optional<std::string>{"cwd payload"});
  std::remove(name.c_str());
}

TEST(AutoCheckpoint, UnwritableTargetsFailCleanly) {
  // Nonexistent parent: the tmp file cannot even open.
  EXPECT_FALSE(save_checkpoint_file_atomic(
      "/nonexistent-rr-dir-47291/ckpt.rrc", "payload"));
  // Trailing slash (a directory, not a file): the tmp write or the
  // rename fails; either way the call reports failure, leaves no
  // residue, and does not crash.
  const std::string dir_path = ::testing::TempDir() + "/";
  EXPECT_FALSE(save_checkpoint_file_atomic(dir_path, "payload"));
  EXPECT_EQ(std::optional<std::string>{std::nullopt},
            read_text_file(dir_path + ".tmp"));
}

TEST(AutoCheckpoint, DisablingStopsFiring) {
  const graph::Graph g = graph::ring(16);
  core::RotorRouter rr(g, {0});
  int fires = 0;
  rr.set_auto_checkpoint(4, [&](const Engine&) { ++fires; });
  rr.run(8);
  EXPECT_EQ(fires, 2);
  rr.set_auto_checkpoint(0, nullptr);
  rr.run(32);
  EXPECT_EQ(fires, 2);
}

}  // namespace
}  // namespace rr::sim
