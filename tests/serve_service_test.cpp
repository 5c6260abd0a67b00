// serve::SessionService: the session-multiplexing state machine behind
// rr_serverd, driven in-process through the real wire codecs.
//
// The load-bearing lane is differential: a session created and stepped
// through the service — across eviction/rehydration cycles — must be
// *bit-identical* (config_hash and full v2 snapshot bytes) to the same
// engine driven directly through sim::EngineRegistry, for every
// registered deterministic backend. That is the server's whole
// correctness claim: serving a simulation changes nothing about it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lazy_ring_rotor_router.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"
#include "temp_path.hpp"

namespace rr::serve {
namespace {

// Per-test checkpoint directory: session ids restart at 1 in every
// service, so tests running in parallel ctest processes would otherwise
// collide on each other's rr-session-<id>.ckpt eviction files.
std::string test_dir() {
  const std::string dir = rr::testing::test_temp_path("rr-serve");
  std::filesystem::create_directories(dir);
  return dir;
}

/// In-process driver: requests through the real codecs, replies decoded
/// off the Outgoing frames and indexed by request id.
struct Driver {
  SessionService service;
  std::vector<SessionService::Outgoing> out;
  std::unordered_map<std::uint64_t, Reply> replies;
  std::vector<Reply> traces;
  std::uint64_t next_id = 1;

  explicit Driver(ServiceOptions opt) : service(std::move(opt)) {}

  std::uint64_t send(Request req, std::uint64_t conn = 1) {
    req.id = next_id++;
    const std::string payload = encode_request(req);
    service.handle(conn,
                   reinterpret_cast<const std::uint8_t*>(payload.data()),
                   payload.size(), out);
    drain();
    return req.id;
  }

  void drain() {
    for (const auto& o : out) {
      const auto rep = decode_reply(
          reinterpret_cast<const std::uint8_t*>(o.frame.data()) + 4,
          o.frame.size() - 8);
      ASSERT_TRUE(rep.has_value());
      if (rep->status == Status::kTrace) {
        traces.push_back(*rep);
      } else {
        replies.emplace(rep->id, *rep);
      }
    }
    out.clear();
  }

  /// Pumps until the reply for `id` lands (bounded; fails the test on a
  /// stalled scheduler).
  const Reply& await(std::uint64_t id) {
    for (int spin = 0; spin < 100000 && !replies.count(id); ++spin) {
      service.pump(out);
      drain();
    }
    EXPECT_TRUE(replies.count(id)) << "no reply for id " << id;
    return replies.at(id);
  }

  const Reply& call(Request req, std::uint64_t conn = 1) {
    return await(send(std::move(req), conn));
  }
};

Request create_req(const std::string& engine, const std::string& graph,
                   std::uint64_t k) {
  Request req;
  req.op = Op::kCreate;
  req.engine = engine;
  req.graph = graph;
  req.k = k;
  return req;
}

Request step_req(std::uint64_t session, std::uint64_t rounds) {
  Request req;
  req.op = Op::kStep;
  req.session = session;
  req.rounds = rounds;
  return req;
}

/// The reference: same (engine, graph, k) driven directly through the
/// registry, with rr_cli's agent spread.
std::unique_ptr<sim::Engine> direct_engine(const std::string& engine,
                                           const std::string& graph,
                                           std::uint64_t k) {
  const auto d = graph::GraphDescriptor::parse(graph);
  EXPECT_TRUE(d.has_value());
  const auto n = d->num_nodes();
  sim::EngineConfig config;
  for (std::uint64_t i = 0; i < k; ++i) {
    config.agents.push_back(static_cast<sim::NodeId>(i * *n / k));
  }
  std::string error;
  auto e = sim::EngineRegistry::instance().create(engine, *d, config, &error);
  EXPECT_NE(e, nullptr) << error;
  return e;
}

TEST(ServeService, ServedRunsAreBitIdenticalToDirectRuns) {
  // Every deterministic backend, 257 rounds in three unequal chunks
  // through the wire, against one uninterrupted direct run. Hash AND
  // snapshot bytes must match (segments pinned, so byte equality is
  // well-defined).
  // The lazy engine runs dense on ring 96 and sparse on ring 256
  // (n >= 16 k^2 promotes at construction).
  struct Lane {
    std::string engine;
    std::string graph;
  };
  for (const Lane& lane : {Lane{"rotor", "ring 96"}, Lane{"ring", "ring 96"},
                           Lane{"lazy", "ring 96"}, Lane{"lazy", "ring 256"},
                           Lane{"eulerian", "ring 96"}}) {
    const std::string& engine = lane.engine;
    const std::string& graph = lane.graph;
    SCOPED_TRACE(engine + " on " + graph);
    const std::uint64_t k = 4;

    ServiceOptions opt;
    opt.ckpt_dir = test_dir();
    opt.quantum = 32;  // several pumps per chunk
    Driver drv(opt);
    const Reply& created = drv.call(create_req(engine, graph, k));
    ASSERT_EQ(created.status, Status::kOk);
    const std::uint64_t session = created.session;
    for (const std::uint64_t rounds : {100ull, 156ull, 1ull}) {
      const Reply& stepped = drv.call(step_req(session, rounds));
      ASSERT_EQ(stepped.status, Status::kOk);
    }

    auto direct = direct_engine(engine, graph, k);
    if (const auto* lazy =
            dynamic_cast<const core::LazyRingRotorRouter*>(direct.get())) {
      ASSERT_EQ(lazy->lazy(), graph == "ring 256");
    }
    direct->run(257);

    Request snap;
    snap.op = Op::kSnapshot;
    snap.session = session;
    const Reply& snapped = drv.call(snap);
    ASSERT_EQ(snapped.status, Status::kOk);
    EXPECT_EQ(snapped.time, 257u);
    EXPECT_EQ(snapped.config_hash, direct->config_hash());
    EXPECT_EQ(snapped.covered, direct->covered_count());
    const std::string direct_doc = sim::write_checkpoint(
        *direct, graph, sim::CkptFormat::kV2, sim::kV2DefaultSegments);
    EXPECT_EQ(snapped.blob, direct_doc);
  }
}

TEST(ServeService, EvictionAndRehydrationPreserveStateBitForBit) {
  // Six sessions over a two-slot live table: every step forces churn
  // through rr-ckpt v2 files. Final states must match six direct runs.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 2;
  opt.quantum = 64;
  opt.evict_after = 1;  // evict aggressively
  Driver drv(opt);

  const std::string graph = "ring 96";
  std::vector<std::uint64_t> sessions;
  for (int i = 0; i < 6; ++i) {
    const Reply& created = drv.call(create_req("rotor", graph, 4));
    ASSERT_EQ(created.status, Status::kOk);
    sessions.push_back(created.session);
  }
  EXPECT_LE(drv.service.live_sessions(), 2u);

  for (int chunk = 0; chunk < 3; ++chunk) {
    std::vector<std::uint64_t> ids;
    for (const std::uint64_t s : sessions) ids.push_back(drv.send(step_req(s, 85)));
    for (const std::uint64_t id : ids) {
      ASSERT_EQ(drv.await(id).status, Status::kOk);
    }
    EXPECT_LE(drv.service.live_sessions(), 2u);
  }
  EXPECT_GT(drv.service.stats().evictions, 0u);
  EXPECT_GT(drv.service.stats().rehydrations, 0u);

  auto direct = direct_engine("rotor", graph, 4);
  direct->run(255);
  for (const std::uint64_t s : sessions) {
    Request obs;
    obs.op = Op::kObserve;
    obs.session = s;
    const Reply& rep = drv.call(obs);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.time, 255u);
    EXPECT_EQ(rep.config_hash, direct->config_hash());
  }
}

TEST(ServeService, SnapshotOfAnEvictedSessionServesTheFileBytes) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 1;
  opt.evict_after = 1;
  Driver drv(opt);
  const Reply& a = drv.call(create_req("rotor", "ring 96", 4));
  drv.call(step_req(a.session, 64));
  // Creating a second session pressure-evicts the first.
  const Reply& b = drv.call(create_req("rotor", "ring 96", 4));
  ASSERT_EQ(b.status, Status::kOk);
  Request obs;
  obs.op = Op::kObserve;
  obs.session = a.session;
  EXPECT_FALSE(drv.call(obs).resident);

  Request snap;
  snap.op = Op::kSnapshot;
  snap.session = a.session;
  const Reply& snapped = drv.call(snap);
  ASSERT_EQ(snapped.status, Status::kOk);
  EXPECT_FALSE(snapped.resident);
  auto direct = direct_engine("rotor", "ring 96", 4);
  direct->run(64);
  EXPECT_EQ(snapped.blob,
            sim::write_checkpoint(*direct, "ring 96", sim::CkptFormat::kV2,
                                  sim::kV2DefaultSegments));
}

TEST(ServeService, ResumeRoundTripsASnapshot) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  Driver drv(opt);
  const Reply& created = drv.call(create_req("rotor", "torus 8 8", 3));
  drv.call(step_req(created.session, 123));
  Request snap;
  snap.op = Op::kSnapshot;
  snap.session = created.session;
  const Reply& snapped = drv.call(snap);
  ASSERT_EQ(snapped.status, Status::kOk);

  Request resume;
  resume.op = Op::kResume;
  resume.blob = snapped.blob;
  const Reply& resumed = drv.call(resume);
  ASSERT_EQ(resumed.status, Status::kOk);
  EXPECT_NE(resumed.session, created.session);
  EXPECT_EQ(resumed.time, 123u);
  EXPECT_EQ(resumed.config_hash, snapped.config_hash);

  // Both copies continue identically.
  const Reply& s1 = drv.call(step_req(created.session, 50));
  const Reply& s2 = drv.call(step_req(resumed.session, 50));
  EXPECT_EQ(s1.config_hash, s2.config_hash);
  EXPECT_EQ(s1.time, 173u);

  Request bad;
  bad.op = Op::kResume;
  bad.blob = "not a checkpoint";
  EXPECT_EQ(drv.call(bad).status, Status::kError);
}

TEST(ServeService, ResumeRejectsAV1TextCheckpoint) {
  // rr-ckpt v1 text is not a checkpoint format. The committed document
  // (written by rr_cli run --ckpt-format v1 before v1 was removed) gets
  // an error reply, and no session is created.
  const auto v1 =
      sim::read_text_file(RR_TEST_DATA_DIR "/ring16_k2_t10.v1.ckpt");
  ASSERT_TRUE(v1.has_value());
  ASSERT_EQ(v1->rfind("rr-ckpt v1 ", 0), 0u);
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  Driver drv(opt);
  Request resume;
  resume.op = Op::kResume;
  resume.blob = *v1;
  const Reply& rep = drv.call(resume);
  EXPECT_EQ(rep.status, Status::kError);
  EXPECT_NE(rep.message.find("malformed checkpoint"), std::string::npos)
      << rep.message;
  EXPECT_EQ(drv.service.total_sessions(), 0u);
  EXPECT_EQ(drv.service.live_sessions(), 0u);
}

TEST(ServeService, EvictionWriteFailuresAreCountedOncePerIdlePeriod) {
  // The eviction directory does not exist, so every eviction write
  // fails. Each failure is counted, warned about once, and restarts the
  // idle count: one attempt per evict_after pumps, and the session stays
  // resident and keeps serving.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir() + "/no-such-dir";
  opt.evict_after = 2;
  Driver drv(opt);
  const Reply& created = drv.call(create_req("rotor", "ring 96", 4));
  ASSERT_EQ(created.status, Status::kOk);
  const std::uint64_t session = created.session;

  constexpr std::uint64_t kPumps = 9;
  ::testing::internal::CaptureStderr();
  for (std::uint64_t i = 0; i < kPumps; ++i) {
    drv.service.pump(drv.out);
    drv.drain();
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(drv.service.stats().evict_failures, kPumps / 2);
  EXPECT_EQ(drv.service.stats().evictions, 0u);
  EXPECT_EQ(drv.service.live_sessions(), 1u);
  const std::size_t warned = err.find("eviction write to " + opt.ckpt_dir);
  EXPECT_NE(warned, std::string::npos) << err;
  EXPECT_EQ(err.find("eviction write", warned + 1), std::string::npos) << err;

  const Reply& stepped = drv.call(step_req(session, 10));
  EXPECT_EQ(stepped.status, Status::kOk);
  EXPECT_EQ(stepped.time, 10u);
  Request info;
  info.op = Op::kInfo;
  const Reply& rep = drv.call(info);
  EXPECT_NE(rep.message.find(
                " evict_failures=" +
                std::to_string(drv.service.stats().evict_failures) + " "),
            std::string::npos)
      << rep.message;
}

TEST(ServeService, AdmissionBusyAndPipelinedStepsCoalesce) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_sessions = 2;
  opt.max_live = 2;
  opt.max_queued_steps = 2;
  Driver drv(opt);
  const Reply& a = drv.call(create_req("rotor", "ring 96", 4));
  const Reply& b = drv.call(create_req("rotor", "ring 96", 4));
  ASSERT_EQ(a.status, Status::kOk);
  ASSERT_EQ(b.status, Status::kOk);
  // Table full: third create refused, retryable.
  EXPECT_EQ(drv.call(create_req("rotor", "ring 96", 4)).status,
            Status::kBusy);
  // Pipelined steps on one session coalesce into one stream of quanta;
  // replies fire in request order as their cumulative targets are
  // crossed (a coalesced reply may report a later time than its own
  // target — the session kept running toward the merged backlog).
  const std::uint64_t first = drv.send(step_req(a.session, 1000));
  const std::uint64_t second = drv.send(step_req(a.session, 24));
  // The queue sits at max_queued_steps: one more concurrent step refuses.
  EXPECT_EQ(drv.call(step_req(a.session, 1)).status, Status::kBusy);
  const Reply& r1 = drv.await(first);
  EXPECT_EQ(r1.status, Status::kOk);
  EXPECT_GE(r1.time, 1000u);
  const Reply& r2 = drv.await(second);
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r2.time, 1024u);  // the merged backlog ends exactly on target
  // After the queue drains, stepping works again and stays exact.
  EXPECT_EQ(drv.call(step_req(a.session, 1)).time, 1025u);
  EXPECT_GT(drv.service.stats().busy_replies, 1u);
}

TEST(ServeService, SchedulingPolicyNeverChangesTheTrajectory) {
  // Mixed-class sessions, pipelined odd-sized steps, both policies with a
  // deliberately tight budget: scheduling may change only the order and
  // latency of rounds, so the final snapshot bytes must equal a direct
  // uninterrupted run for every class under every policy.
  for (const SchedPolicy policy : {SchedPolicy::kFifo, SchedPolicy::kQos}) {
    SCOPED_TRACE(policy == SchedPolicy::kFifo ? "fifo" : "qos");
    ServiceOptions opt;
    opt.ckpt_dir = test_dir();
    opt.policy = policy;
    opt.quantum = 16;
    opt.quantum_batch = 48;
    opt.quantum_background = 32;
    opt.pump_rounds = 64;
    Driver drv(opt);
    std::vector<std::uint64_t> ids;
    for (const QosClass qos : {QosClass::kInteractive, QosClass::kBatch,
                               QosClass::kBackground}) {
      Request req = create_req("rotor", "ring 96", 4);
      req.qos = qos;
      const Reply& created = drv.call(req);
      ASSERT_EQ(created.status, Status::kOk);
      ids.push_back(created.session);
    }
    std::vector<std::uint64_t> reqs;
    for (const std::uint64_t s : ids) {
      reqs.push_back(drv.send(step_req(s, 201)));
      reqs.push_back(drv.send(step_req(s, 56)));
    }
    for (const std::uint64_t r : reqs) {
      ASSERT_EQ(drv.await(r).status, Status::kOk);
    }
    auto direct = direct_engine("rotor", "ring 96", 4);
    direct->run(257);
    const std::string direct_doc = sim::write_checkpoint(
        *direct, "ring 96", sim::CkptFormat::kV2, sim::kV2DefaultSegments);
    for (const std::uint64_t s : ids) {
      Request snap;
      snap.op = Op::kSnapshot;
      snap.session = s;
      const Reply& snapped = drv.call(snap);
      ASSERT_EQ(snapped.status, Status::kOk);
      EXPECT_EQ(snapped.time, 257u);
      EXPECT_EQ(snapped.blob, direct_doc);
    }
  }
}

TEST(ServeService, InteractiveGrantsPreemptBatchBacklogWithinTheBudget) {
  // One interactive session issuing a small step under two saturating
  // batch sessions: the interactive reply lands on the very next pump,
  // the pump's round volume is bounded by budget + interactive grants,
  // and the batch class logs wait pumps whenever credit runs dry before
  // its queue does.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.quantum = 8;
  opt.quantum_batch = 32;
  opt.pump_rounds = 32;
  Driver drv(opt);
  std::vector<std::uint64_t> batch_ids;
  for (int i = 0; i < 2; ++i) {
    Request req = create_req("rotor", "ring 96", 4);
    req.qos = QosClass::kBatch;
    const Reply& created = drv.call(req);
    ASSERT_EQ(created.status, Status::kOk);
    batch_ids.push_back(created.session);
  }
  const Reply& inter = drv.call(create_req("rotor", "ring 96", 4));
  ASSERT_EQ(inter.status, Status::kOk);

  std::vector<std::uint64_t> batch_reqs;
  for (const std::uint64_t s : batch_ids) {
    batch_reqs.push_back(drv.send(step_req(s, 1000)));
  }
  const std::uint64_t int_req = drv.send(step_req(inter.session, 8));
  const std::uint64_t before = drv.service.stats().rounds_stepped;
  drv.service.pump(drv.out);
  drv.drain();
  // One pump: the interactive step is done, and the pump stepped at most
  // budget + interactive rounds despite 2000 queued batch rounds.
  ASSERT_TRUE(drv.replies.count(int_req));
  EXPECT_EQ(drv.replies.at(int_req).time, 8u);
  EXPECT_LE(drv.service.stats().rounds_stepped - before,
            opt.pump_rounds + opt.quantum);
  for (const std::uint64_t r : batch_reqs) {
    ASSERT_EQ(drv.await(r).status, Status::kOk);
  }
  const ServiceStats& st = drv.service.stats();
  EXPECT_GT(st.qos[static_cast<std::size_t>(QosClass::kBatch)].wait_pumps, 0u);
  EXPECT_EQ(st.qos[static_cast<std::size_t>(QosClass::kInteractive)].wait_pumps,
            0u);
}

TEST(ServeService, EvictionPressurePrefersBackgroundSessions) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 2;
  opt.evict_after = 0;  // pressure evictions only
  Driver drv(opt);
  Request interactive = create_req("rotor", "ring 96", 4);
  interactive.qos = QosClass::kInteractive;
  const Reply& a = drv.call(interactive);
  ASSERT_EQ(a.status, Status::kOk);
  Request background = create_req("rotor", "ring 96", 4);
  background.qos = QosClass::kBackground;
  const Reply& b = drv.call(background);
  ASSERT_EQ(b.status, Status::kOk);
  // A third create needs a slot: the background session is the victim
  // even though the interactive one is just as idle (and older).
  Request batch = create_req("rotor", "ring 96", 4);
  batch.qos = QosClass::kBatch;
  ASSERT_EQ(drv.call(batch).status, Status::kOk);
  Request obs;
  obs.op = Op::kObserve;
  obs.session = a.session;
  EXPECT_TRUE(drv.call(obs).resident);
  obs.session = b.session;
  EXPECT_FALSE(drv.call(obs).resident);
  const ServiceStats& st = drv.service.stats();
  EXPECT_EQ(st.qos[static_cast<std::size_t>(QosClass::kBackground)].evictions,
            1u);
  EXPECT_EQ(st.qos[static_cast<std::size_t>(QosClass::kInteractive)].evictions,
            0u);
}

TEST(ServeService, PerClassStatsCountUnderLiveTablePressure) {
  // One session per class over a single live slot: every class churns
  // through eviction, deferred rehydration, and queue-cap busy replies,
  // and both the stats struct and the kInfo message carry the per-class
  // counters.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 1;
  opt.evict_after = 1;
  opt.max_queued_steps = 1;
  Driver drv(opt);
  std::uint64_t ids[kNumQosClasses];
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    Request req = create_req("rotor", "ring 96", 4);
    req.qos = static_cast<QosClass>(c);
    const Reply& created = drv.call(req);
    ASSERT_EQ(created.status, Status::kOk);
    ids[c] = created.session;
  }
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t c = 0; c < kNumQosClasses; ++c) {
      ASSERT_EQ(drv.call(step_req(ids[c], 10)).status, Status::kOk);
    }
  }
  // Queue cap is 1: a second concurrent step refuses, per class.
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    const std::uint64_t first = drv.send(step_req(ids[c], 500));
    EXPECT_EQ(drv.call(step_req(ids[c], 1)).status, Status::kBusy);
    ASSERT_EQ(drv.await(first).status, Status::kOk);
  }
  const ServiceStats& st = drv.service.stats();
  std::uint64_t evictions = 0, rehydrations = 0;
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    SCOPED_TRACE(c);
    EXPECT_GT(st.qos[c].step_requests, 0u);
    EXPECT_GT(st.qos[c].rounds_scheduled, 0u);
    EXPECT_GT(st.qos[c].busy_replies, 0u);
    EXPECT_GT(st.qos[c].evictions, 0u);
    EXPECT_GT(st.qos[c].rehydrations, 0u);
    EXPECT_GT(st.qos[c].rehydrations_deferred, 0u);
    evictions += st.qos[c].evictions;
    rehydrations += st.qos[c].rehydrations;
  }
  // Aggregates equal the per-class sums.
  EXPECT_EQ(st.evictions, evictions);
  EXPECT_EQ(st.rehydrations, rehydrations);
  Request info;
  info.op = Op::kInfo;
  const Reply& rep = drv.call(info);
  EXPECT_NE(rep.message.find("qos[interactive]={"), std::string::npos);
  EXPECT_NE(rep.message.find("qos[batch]={"), std::string::npos);
  EXPECT_NE(rep.message.find("qos[background]={"), std::string::npos);
  EXPECT_NE(rep.message.find("deferred="), std::string::npos);
}

TEST(ServeService, LostCheckpointAnswersEvictedAndDestroys) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 1;
  opt.evict_after = 1;
  Driver drv(opt);
  const Reply& a = drv.call(create_req("rotor", "ring 96", 4));
  drv.call(step_req(a.session, 10));
  const Reply& b = drv.call(create_req("rotor", "ring 96", 4));  // evicts a
  ASSERT_EQ(b.status, Status::kOk);
  ASSERT_EQ(drv.service.live_sessions(), 1u);

  // Sabotage: the eviction file disappears (disk cleanup, tmp reaper).
  std::remove((test_dir() + "/rr-session-" + std::to_string(a.session) +
               ".ckpt")
                  .c_str());
  const Reply& rep = drv.call(step_req(a.session, 10));
  EXPECT_EQ(rep.status, Status::kEvicted);
  // The session is gone; further requests see an unknown session.
  EXPECT_EQ(drv.call(step_req(a.session, 1)).status, Status::kError);
  EXPECT_EQ(drv.service.total_sessions(), 1u);
}

TEST(ServeService, TraceSubscriptionPushesPeriodicEvents) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.quantum = 16;
  Driver drv(opt);
  const Reply& created = drv.call(create_req("rotor", "ring 96", 4));
  Request sub;
  sub.op = Op::kSubscribeTrace;
  sub.session = created.session;
  sub.every = 32;
  const std::uint64_t sub_id = drv.send(sub, /*conn=*/9);
  ASSERT_EQ(drv.await(sub_id).status, Status::kOk);

  drv.call(step_req(created.session, 128));
  ASSERT_FALSE(drv.traces.empty());
  std::uint64_t last = 0;
  for (const Reply& tr : drv.traces) {
    EXPECT_EQ(tr.status, Status::kTrace);
    EXPECT_EQ(tr.id, sub_id);  // events carry the subscribe id
    EXPECT_GE(tr.time, last + 32);
    last = tr.time;
  }

  // Dropping the subscriber's connection cancels the stream.
  const std::size_t before = drv.traces.size();
  drv.service.drop_connection(9);
  drv.call(step_req(created.session, 128));
  EXPECT_EQ(drv.traces.size(), before);

  // Unsubscribe via every=0 is also honored (resubscribe then cancel).
  sub.every = 0;
  ASSERT_EQ(drv.call(sub).status, Status::kOk);
  drv.call(step_req(created.session, 64));
  EXPECT_EQ(drv.traces.size(), before);
}

TEST(ServeService, MalformedPayloadAndUnknownSessionsAnswerErrors) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  Driver drv(opt);
  const std::uint8_t junk[] = {0xff, 0xff, 0xff};
  drv.service.handle(1, junk, sizeof junk, drv.out);
  drv.drain();
  ASSERT_TRUE(drv.replies.count(0));
  EXPECT_EQ(drv.replies.at(0).status, Status::kError);

  EXPECT_EQ(drv.call(step_req(12345, 1)).status, Status::kError);
  EXPECT_EQ(drv.call(create_req("no-such-engine", "ring 96", 4)).status,
            Status::kError);
  EXPECT_EQ(drv.call(create_req("rotor", "ring", 4)).status, Status::kError);
  EXPECT_EQ(drv.call(create_req("rotor", "ring 96", 0)).status,
            Status::kError);
  // ODE engine requires a ring; substrate mismatch surfaces as an error.
  EXPECT_EQ(drv.call(create_req("ode", "torus 4 4", 2)).status,
            Status::kError);
}

TEST(ServeService, DestroyRemovesTheSessionAndItsFile) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 1;
  opt.evict_after = 1;
  Driver drv(opt);
  const Reply& a = drv.call(create_req("rotor", "ring 96", 4));
  drv.call(step_req(a.session, 5));
  const Reply& b = drv.call(create_req("rotor", "ring 96", 4));  // evicts a
  ASSERT_EQ(b.status, Status::kOk);
  const std::string path =
      test_dir() + "/rr-session-" + std::to_string(a.session) + ".ckpt";
  EXPECT_TRUE(sim::read_text_file(path).has_value());

  Request destroy;
  destroy.op = Op::kDestroy;
  destroy.session = a.session;
  const Reply& rep = drv.call(destroy);
  EXPECT_EQ(rep.status, Status::kOk);
  EXPECT_EQ(rep.time, 5u);
  EXPECT_FALSE(sim::read_text_file(path).has_value());
  EXPECT_EQ(drv.service.total_sessions(), 1u);
  EXPECT_EQ(drv.call(destroy).status, Status::kError);  // already gone
}

TEST(ServeService, PeriodicSinkJoinsBeforeEvictionAndDestroy) {
  // A session's periodic sink writes its eviction file behind the
  // stepping loop. Eviction drops the sink first, so the eviction write
  // lands last (the file holds t=64, not the last fire's t=60); destroy
  // drops it before removing the file, so no late write brings it back.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.max_live = 1;
  opt.evict_after = 1;
  opt.auto_checkpoint_every = 10;
  Driver drv(opt);
  const Reply& a = drv.call(create_req("rotor", "ring 96", 4));
  ASSERT_EQ(drv.call(step_req(a.session, 64)).status, Status::kOk);
  const Reply& b = drv.call(create_req("rotor", "ring 96", 4));  // evicts a
  ASSERT_EQ(b.status, Status::kOk);
  auto direct = direct_engine("rotor", "ring 96", 4);
  direct->run(64);
  const std::string dir = opt.ckpt_dir + "/rr-session-";
  EXPECT_EQ(sim::read_text_file(dir + std::to_string(a.session) + ".ckpt"),
            std::optional<std::string>{sim::write_checkpoint(
                *direct, "ring 96", sim::CkptFormat::kV2,
                sim::kV2DefaultSegments)});

  ASSERT_EQ(drv.call(step_req(b.session, 25)).status, Status::kOk);
  Request destroy;
  destroy.op = Op::kDestroy;
  destroy.session = b.session;
  ASSERT_EQ(drv.call(destroy).status, Status::kOk);
  EXPECT_FALSE(
      sim::read_text_file(dir + std::to_string(b.session) + ".ckpt").has_value());
}

TEST(ServeService, ShutdownAndInfoAnswer) {
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  Driver drv(opt);
  drv.call(create_req("rotor", "ring 96", 4));
  Request info;
  info.op = Op::kInfo;
  const Reply& rep = drv.call(info);
  EXPECT_EQ(rep.status, Status::kOk);
  EXPECT_NE(rep.message.find("sessions=1"), std::string::npos);
  EXPECT_NE(rep.message.find("created=1"), std::string::npos);

  EXPECT_FALSE(drv.service.shutdown_requested());
  Request down;
  down.op = Op::kShutdown;
  EXPECT_EQ(drv.call(down).status, Status::kOk);
  EXPECT_TRUE(drv.service.shutdown_requested());
}

TEST(ServeService, CycleLeapingNeverChangesServedResults) {
  // A leaping server changes cost, never results: a session under
  // --cycle-jump on, a per-session wire opt-out pinning dense stepping,
  // and a direct dense run must all land on one config hash. kOn on a
  // stochastic backend is refused with a reason, not silently ignored.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.quantum = 8192;
  opt.cycle_jump = sim::CycleJumpMode::kOn;
  Driver drv(opt);
  const std::uint64_t rounds = 500000;

  const Reply& leaping = drv.call(create_req("rotor", "ring 96", 4));
  ASSERT_EQ(leaping.status, Status::kOk);
  const Reply& leaped = drv.call(step_req(leaping.session, rounds));
  ASSERT_EQ(leaped.status, Status::kOk);
  EXPECT_EQ(leaped.time, rounds);

  Request opted = create_req("rotor", "ring 96", 4);
  opted.no_cycle_jump = true;
  const Reply& pinned = drv.call(opted);
  ASSERT_EQ(pinned.status, Status::kOk);
  const Reply& dense = drv.call(step_req(pinned.session, rounds));
  ASSERT_EQ(dense.status, Status::kOk);
  EXPECT_EQ(dense.time, rounds);

  auto direct = direct_engine("rotor", "ring 96", 4);
  direct->run(rounds);
  EXPECT_EQ(leaped.config_hash, direct->config_hash());
  EXPECT_EQ(dense.config_hash, direct->config_hash());

  const Reply& refused = drv.call(create_req("walks", "ring 96", 4));
  EXPECT_EQ(refused.status, Status::kError);
  EXPECT_NE(refused.message.find("not deterministic"), std::string::npos)
      << refused.message;
}

TEST(ServeService, PerClassCycleJumpOverridesResolveAndCountWraps) {
  // Class-level overrides layer under the wire opt-out: a kOn override on
  // the background class makes background creates strict (stochastic
  // backends refused, deterministic ones wrapped and counted in
  // cj_wrapped) while other classes keep the service-wide default, and
  // no_cycle_jump still pins any session dense. Results stay bit-equal.
  ServiceOptions opt;
  opt.ckpt_dir = test_dir();
  opt.quantum = 8192;
  opt.cycle_jump = sim::CycleJumpMode::kOff;
  opt.cycle_jump_class[static_cast<std::size_t>(QosClass::kBackground)] =
      sim::CycleJumpMode::kOn;
  Driver drv(opt);
  const auto cls = [](QosClass qos) { return static_cast<std::size_t>(qos); };

  // Background is strict: stochastic creates are refused with a reason.
  Request bg_walks = create_req("walks", "ring 96", 4);
  bg_walks.qos = QosClass::kBackground;
  const Reply& refused = drv.call(bg_walks);
  EXPECT_EQ(refused.status, Status::kError);
  EXPECT_NE(refused.message.find("not deterministic"), std::string::npos);

  // ...but the wire opt-out outranks the class override.
  Request bg_opted = create_req("walks", "ring 96", 4);
  bg_opted.qos = QosClass::kBackground;
  bg_opted.no_cycle_jump = true;
  EXPECT_EQ(drv.call(bg_opted).status, Status::kOk);

  // Other classes keep the service-wide kOff default.
  Request batch_walks = create_req("walks", "ring 96", 4);
  batch_walks.qos = QosClass::kBatch;
  EXPECT_EQ(drv.call(batch_walks).status, Status::kOk);

  // A deterministic background session is wrapped (counted) and leaps to
  // the same configuration a direct dense run reaches.
  Request bg_rotor = create_req("rotor", "ring 96", 4);
  bg_rotor.qos = QosClass::kBackground;
  const Reply& wrapped = drv.call(bg_rotor);
  ASSERT_EQ(wrapped.status, Status::kOk);
  const std::uint64_t rounds = 500000;
  const Reply& leaped = drv.call(step_req(wrapped.session, rounds));
  ASSERT_EQ(leaped.status, Status::kOk);
  auto direct = direct_engine("rotor", "ring 96", 4);
  direct->run(rounds);
  EXPECT_EQ(leaped.config_hash, direct->config_hash());

  const ServiceStats& st = drv.service.stats();
  EXPECT_EQ(st.qos[cls(QosClass::kBackground)].cj_wrapped, 1u);
  EXPECT_EQ(st.qos[cls(QosClass::kBatch)].cj_wrapped, 0u);
  EXPECT_EQ(st.qos[cls(QosClass::kInteractive)].cj_wrapped, 0u);

  Request info;
  info.op = Op::kInfo;
  const Reply& rep = drv.call(info);
  EXPECT_EQ(rep.status, Status::kOk);
  EXPECT_NE(rep.message.find("cj=1"), std::string::npos) << rep.message;
}

}  // namespace
}  // namespace rr::serve
