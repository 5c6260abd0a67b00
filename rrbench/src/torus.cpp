// torus-explore: one large torus instance stepped through the registry
// exactly as `rr_cli run` does, shard-parallel in this process. The same
// instance also runs through `--engine dist` on rr_noded worker processes,
// checked against the sequential reference on every run and timed for the
// dist layer's metrics on traced runs. The dist engine has no workload of
// its own: its rounds wait on five processes that each sleep and wake
// every round, and on a shared VM bursts of steal time of 5 to 15 s cut
// its speed by up to 6x; over five seeds its throughput and latency
// figures spread by 0.27 to 0.66 (IQR / median).

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/shard_step.hpp"
#include "dist/coordinator.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/partition.hpp"
#include "sim/checkpoint.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace rrbench {
namespace {

using rr::sim::Engine;
using Span = Tracer::Span;

// A 512x512 torus (2^18 nodes, 2^20 arcs) with 2^16 seeded agents: the
// stepping working set (~28 MB) is far above L2. 600 rounds cover the
// torus and stay far below the detect budget, so cycle-jump only probes.
// A checkpoint every 50 rounds puts 2% of the rounds behind a save, which
// is what step_p99_ms sees on this workload.
constexpr std::uint32_t kSide = 512;
constexpr std::uint32_t kAgents = 1u << 16;
constexpr std::uint64_t kRounds = 600;
constexpr std::uint64_t kCkptEvery = 50;
constexpr std::uint64_t kContinue = 100;
// Dist repetitions on a traced run: the faster half (see faster_half)
// then holds 1200 timed rounds, enough for dist.round_ms_p99.
constexpr std::size_t kDistReps = 4;

struct Instance {
  rr::graph::GraphDescriptor descriptor;
  std::vector<rr::graph::NodeId> agents;
};

Instance make_instance(std::uint64_t seed) {
  Instance in;
  in.descriptor = rr::graph::GraphDescriptor::torus(kSide, kSide);
  rr::Rng rng(rr::sim::derive_seed(seed, 1));
  in.agents.resize(kAgents);
  for (auto& a : in.agents) a = rng.bounded(kSide * kSide);
  return in;
}

/// One repetition: descriptor to verified final state.
struct Rep {
  bool ok = false;
  bool traced = false;
  double setup_s = 0.0;
  double step_s = 0.0;
  double save_s = 0.0;
  double resume_s = 0.0;
  double wall_s = 0.0;
  double cycle_s = 0.0;  // wall_s plus tearing the engine down
  std::vector<double> round_s;
  std::vector<double> round_core_s;  // round_s minus periodic checkpoint time
  std::uint64_t cover = rr::sim::kNotCovered;
  std::uint64_t hash_final = 0;
  std::uint64_t hash_resumed = 0;
  rr::sim::CycleJumpStats cj;
  std::size_t ckpt_bytes = 0;
  std::uint64_t auto_fires = 0;
  double auto_s = 0.0;
  // dist repetitions only
  rr::core::DistCommsStats comms;
  double workers_rss_mb = 0.0;
  std::size_t workers = 0;
};

/// The graph layer's share of engine construction, measured by calling
/// it directly (the registry factory repeats this work inside
/// registry.create). Traced repetitions only.
void trace_graph_layer(const Instance& in, unsigned shards) {
  std::optional<rr::graph::Graph> g;
  std::optional<rr::graph::CsrGraph> csr;
  {
    Span s("graph.build");
    g = in.descriptor.build();
    if (g) csr.emplace(*g);
  }
  if (!csr) return;
  Span s("graph.partition");
  rr::graph::Partition part(*csr, shards);
}

/// Steps one round per run(1) call, timing each call with and without
/// the periodic checkpoint it may have written, and notes the round the
/// engine covered the graph.
double step_rounds(Engine& e, std::uint64_t rounds, const char* span, Rep& r) {
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const double a = now_s();
    const double auto_before = r.auto_s;
    {
      Span s(span);
      e.run(1);
    }
    const double d = now_s() - a;
    r.round_s.push_back(d);
    r.round_core_s.push_back(d - (r.auto_s - auto_before));
    if (r.cover == rr::sim::kNotCovered && e.all_covered()) r.cover = e.time();
  }
  return now_s() - t0;
}

std::unique_ptr<Engine> wrap(std::unique_ptr<Engine> e, Result& result,
                             const char* what) {
  std::string error;
  {
    Span s("cycle_jump.wrap");
    e = rr::sim::wrap_cycle_jump(std::move(e), rr::sim::CycleJumpMode::kAuto,
                                 {}, &error);
  }
  result.check(e != nullptr, std::string(what) + ": wrap_cycle_jump: " + error);
  return e;
}

Rep explore_rep(const Instance& in, const RunContext& ctx,
                rr::sim::ThreadPool& pool, const ScratchDir& dir,
                Result& result) {
  Rep r;
  r.traced = Tracer::instance().on();
  if (r.traced) trace_graph_layer(in, ctx.nproc);
  const std::string descriptor = in.descriptor.text();

  const double t0 = now_s();
  rr::sim::EngineConfig config;
  config.agents = in.agents;
  config.shards = ctx.nproc;
  config.pool = &pool;
  std::string error;
  std::unique_ptr<Engine> engine;
  {
    Span s("registry.create");
    engine = rr::sim::EngineRegistry::instance().create("rotor", in.descriptor,
                                                        config, &error);
  }
  if (!result.check(engine != nullptr, "torus-explore: registry create: " + error)) {
    return r;
  }
  engine = wrap(std::move(engine), result, "torus-explore");
  if (!engine) return r;
  r.setup_s = now_s() - t0;

  engine->set_auto_checkpoint(
      kCkptEvery,
      [&r, sink = rr::sim::checkpoint_file_sink(dir.file("auto.ckpt"), descriptor,
                                                rr::sim::CkptFormat::kV2, &pool)](
          const Engine& e) {
        const double a = now_s();
        {
          Span s("ckpt.auto");
          sink(e);
        }
        r.auto_s += now_s() - a;
        ++r.auto_fires;
      });
  r.step_s = step_rounds(*engine, kRounds, "core.step", r);
  result.attempt(kRounds);
  r.hash_final = engine->config_hash();
  if (const auto* cj = dynamic_cast<const rr::sim::CycleJumpEngine*>(engine.get())) {
    r.cj = cj->stats();
  }

  const double s0 = now_s();
  std::string text;
  {
    Span s("ckpt.encode");
    text = rr::sim::write_checkpoint(*engine, descriptor, rr::sim::CkptFormat::kV2,
                                     0, &pool);
  }
  bool saved = false;
  {
    Span s("ckpt.write");
    saved = rr::sim::save_checkpoint_file_atomic(dir.file("final.ckpt"), text);
  }
  r.save_s = now_s() - s0;
  r.ckpt_bytes = text.size();
  if (!result.check(saved, "torus-explore: final checkpoint save")) return r;
  // The resume starts from the file alone, as a new rr_cli process would.
  engine.reset();
  text.clear();
  text.shrink_to_fit();

  const double p0 = now_s();
  std::optional<rr::sim::ParsedCheckpoint> parsed;
  {
    Span s("ckpt.parse");
    parsed = rr::sim::parse_checkpoint_file(dir.file("final.ckpt"), &pool);
  }
  if (!result.check(parsed.has_value(), "torus-explore: parse final checkpoint")) {
    return r;
  }
  std::unique_ptr<Engine> resumed;
  {
    Span s("ckpt.restore");
    resumed = rr::sim::restore_checkpoint_sharded(*parsed, ctx.nproc, &pool);
  }
  parsed.reset();
  if (!result.check(resumed != nullptr, "torus-explore: restore final checkpoint")) {
    return r;
  }
  resumed = wrap(std::move(resumed), result, "torus-explore resume");
  if (!resumed) return r;
  r.resume_s = now_s() - p0;
  {
    Span s("core.continue");
    resumed->run(kContinue);
  }
  result.attempt(kContinue);
  r.hash_resumed = resumed->config_hash();
  r.wall_s = now_s() - t0;
  r.ok = true;
  return r;
}

Rep dist_rep(const Instance& in, const RunContext& ctx, Result& result) {
  Rep r;
  r.traced = Tracer::instance().on();

  const double t0 = now_s();
  rr::sim::EngineConfig config;
  config.agents = in.agents;
  config.dist_workers = ctx.nproc;
  config.dist_noded = ctx.noded;
  std::string error;
  std::unique_ptr<Engine> engine;
  {
    Span s("dist.create");
    engine = rr::sim::EngineRegistry::instance().create("dist", in.descriptor,
                                                        config, &error);
  }
  if (!result.check(engine != nullptr, "dist: dist create: " + error)) {
    return r;
  }
  engine = wrap(std::move(engine), result, "dist");
  if (!engine) return r;
  r.setup_s = now_s() - t0;
  auto* cj = dynamic_cast<rr::sim::CycleJumpEngine*>(engine.get());
  auto* dist = dynamic_cast<rr::core::DistributedRotorRouter*>(
      cj != nullptr ? &cj->inner() : engine.get());
  if (!result.check(dist != nullptr, "dist: engine is not distributed")) {
    return r;
  }

  r.step_s = step_rounds(*engine, kRounds, "dist.round", r);
  result.attempt(kRounds);
  if (!result.check(!dist->halted(), "dist: coordinator halted (a worker died)")) {
    return r;
  }
  r.hash_final = engine->config_hash();
  r.wall_s = now_s() - t0;
  if (cj != nullptr) r.cj = cj->stats();
  r.comms = dist->comms_stats();
  for (const pid_t pid : child_pids()) {
    r.workers_rss_mb += vm_hwm_mb(pid);
    ++r.workers;
  }
  result.check(r.workers == ctx.nproc, "dist: expected one rr_noded per worker");
  r.ok = true;
  return r;  // the engine's destructor shuts down and reaps the workers
}

/// Repeats `rep` until the measuring time is spent and the faster half of
/// the repetitions timed enough rounds for a p99 (on each side of the
/// traced/untraced split when tracing). Traced runs trace every other
/// repetition, so the two halves give trace.overhead_share. One
/// unmeasured repetition runs first: the first one in a fresh process ran
/// up to 3x slower per round.
template <typename RepFn>
std::vector<Rep> repeat(const RunContext& ctx, RepFn&& rep) {
  if (!rep().ok) return {};
  std::vector<Rep> reps;
  const std::size_t need = 2 * samples_for_percentile(0.99);
  std::size_t timed[2] = {0, 0};
  const double t0 = now_s();
  for (;;) {
    const bool enough_time = now_s() - t0 >= ctx.seconds;
    const bool enough_rounds =
        timed[0] >= need && (!ctx.trace || timed[1] >= need);
    if (!reps.empty() && enough_time && enough_rounds) break;
    const bool traced = ctx.trace && reps.size() % 2 == 1;
    Tracer::instance().set_on(traced);
    const double c0 = now_s();
    reps.push_back(rep());
    reps.back().cycle_s = now_s() - c0;
    Tracer::instance().set_on(false);
    if (!reps.back().ok) break;
    timed[traced ? 1 : 0] += reps.back().round_s.size();
  }
  return reps;
}

/// The faster half (by wall_s, rounded up) of the finished traced or
/// untraced repetitions. Every metric of this workload is taken from it.
/// On a shared VM, bursts of steal time of 5 to 15 s (up to a fifth of
/// each vCPU) stretched every round of a repetition they hit: each round
/// waits for all shards, so a stall of any one of them stalls the round.
/// Stalls only ever add time; a slower program slows every repetition,
/// the faster half included.
std::vector<const Rep*> faster_half(const std::vector<Rep>& reps, bool traced) {
  std::vector<const Rep*> out;
  for (const Rep& r : reps) {
    if (r.ok && r.traced == traced) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(),
            [](const Rep* a, const Rep* b) { return a->wall_s < b->wall_s; });
  out.resize((out.size() + 1) / 2);
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<const Rep*>& reps, F&& f) {
  std::vector<double> out;
  for (const Rep* r : reps) out.push_back(f(*r));
  return out;
}

std::vector<double> rounds_ms(const std::vector<const Rep*>& reps,
                              std::vector<double> Rep::*times) {
  std::vector<double> out;
  for (const Rep* r : reps) {
    for (double s : r->*times) out.push_back(s * 1e3);
  }
  return out;
}

/// Stepping time without the periodic checkpoints written during it.
double core_step_s(const Rep& r) { return r.step_s - r.auto_s; }

/// The end-to-end metrics, from untraced repetitions.
void emit_end_to_end(const std::vector<Rep>& reps, double rss_mb, Result& result) {
  std::vector<double> walls;
  for (const Rep& r : reps) {
    if (r.ok && !r.traced) walls.push_back(r.wall_s);
  }
  print_spread("wall_s (all untraced repetitions)", walls);
  const auto plain = faster_half(reps, false);
  if (plain.empty()) return;
  result.set("setup_s", median(collect(plain, [](const Rep& r) { return r.setup_s; })));
  result.set("wall_s", median(collect(plain, [](const Rep& r) { return r.wall_s; })));
  result.set("agent_steps_per_s",
             median(collect(plain, [](const Rep& r) {
               return static_cast<double>(kAgents) * kRounds / r.step_s;
             })));
  result.set("trials_per_s",
             1.0 / median(collect(plain, [](const Rep& r) { return r.cycle_s; })));
  const auto ms = rounds_ms(plain, &Rep::round_s);
  const auto p99 = percentile(ms, 0.99);
  if (result.check(p99.has_value(), "too few round samples for step_p99_ms")) {
    result.set("step_p50_ms", median(ms));
    result.set("step_p99_ms", *p99);
  }
  result.set("peak_rss_mb", rss_mb);
}

/// Per-layer metrics of the sharded engine, from traced repetitions.
void emit_layers(const std::vector<Rep>& reps, std::uint64_t cover, Result& result) {
  const auto traced = faster_half(reps, true);
  const auto plain = faster_half(reps, false);
  if (traced.empty() || plain.empty()) return;
  Tracer& t = Tracer::instance();
  result.set("graph.build_s", median(t.durations("graph.build")));
  result.set("graph.partition_s", median(t.durations("graph.partition")));
  const double n = static_cast<double>(kSide) * kSide;
  const double arcs = 4.0 * n;
  // Stepping working set of the sharded kernel: packed node state, visit
  // counters, initial pointers, CSR offsets and arcs, arc slots.
  const double ws = n * (sizeof(rr::graph::NodeState) + sizeof(rr::core::VisitStats) + 4 + 8) +
                    arcs * (4 + 4);
  result.set("graph.working_set_mb", ws / (1 << 20));
  result.set("graph.llc_mb", static_cast<double>(llc_bytes()) / (1 << 20));
  result.set("core.step_s", median(collect(traced, core_step_s)));
  const auto ms = rounds_ms(traced, &Rep::round_core_s);
  result.set("core.round_ms_p50", median(ms));
  if (const auto p99 = percentile(ms, 0.99)) result.set("core.round_ms_p99", *p99);
  result.set("core.agent_steps", static_cast<double>(kAgents) * kRounds);
  result.set("core.cover_rounds", static_cast<double>(cover));
  double samples = 0, laps = 0, rejects = 0, abandoned = 0, leaped = 0;
  for (const Rep* r : traced) {
    samples += static_cast<double>(r->cj.samples);
    laps += static_cast<double>(r->cj.confirm_laps);
    rejects += static_cast<double>(r->cj.rejects);
    abandoned += r->cj.abandoned ? 1.0 : 0.0;
    leaped += static_cast<double>(r->cj.leaped_rounds);
  }
  const double count = static_cast<double>(traced.size());
  result.set("cycle_jump.samples", samples / count);
  result.set("cycle_jump.confirm_laps", laps / count);
  result.set("cycle_jump.rejects", rejects / count);
  result.set("cycle_jump.abandoned_share", abandoned / count);
  result.set("cycle_jump.leaped_share", leaped / (count * kRounds));
  const double wall_traced = median(collect(traced, [](const Rep& r) { return r.wall_s; }));
  const double wall_plain = median(collect(plain, [](const Rep& r) { return r.wall_s; }));
  result.set("trace.overhead_share", wall_traced / wall_plain - 1.0);
}

/// The dist engine on the same instance: one checked repetition, or on a
/// traced run kDistReps timed ones for the dist layer's metrics.
void run_dist(const Instance& in, const RunContext& ctx, std::uint64_t ref_final,
              std::uint64_t cover, Result& result) {
  std::vector<Rep> reps;
  Tracer::instance().set_on(ctx.trace);
  for (std::size_t i = 0; i < (ctx.trace ? kDistReps : 1); ++i) {
    reps.push_back(dist_rep(in, ctx, result));
    if (!reps.back().ok) break;
  }
  Tracer::instance().set_on(false);
  result.check(child_pids().empty(), "dist: rr_noded workers left running");
  for (const Rep& r : reps) {
    if (!r.ok) continue;
    result.check(r.hash_final == ref_final, "dist: dist hash vs sequential reference");
    result.check(r.cover == cover, "dist: cover round vs sequential reference");
  }
  if (!ctx.trace) return;
  const auto traced = faster_half(reps, true);
  if (traced.empty()) return;
  result.set("dist.create_s", median(collect(traced, [](const Rep& r) { return r.setup_s; })));
  const auto ms = rounds_ms(traced, &Rep::round_s);
  result.set("dist.round_ms_p50", median(ms));
  if (const auto p99 = percentile(ms, 0.99)) result.set("dist.round_ms_p99", *p99);
  double spill = 0, batches = 0, mid = 0, rounds = 0, rss = 0, workers = 0;
  for (const Rep* r : traced) {
    spill += static_cast<double>(r->comms.spill_bytes);
    batches += static_cast<double>(r->comms.batches);
    mid += static_cast<double>(r->comms.mid_scan_batches);
    rounds += static_cast<double>(r->comms.rounds);
    rss += r->workers_rss_mb;
    workers += static_cast<double>(r->workers);
  }
  if (rounds > 0) {
    result.set("dist.spill_bytes_per_round", spill / rounds);
    result.set("dist.batches_per_round", batches / rounds);
  }
  if (batches > 0) result.set("dist.mid_scan_share", mid / batches);
  if (workers > 0) result.set("dist.worker_rss_mb", rss / workers);
}

}  // namespace

void run_torus_explore(const RunContext& ctx, Result& result) {
  ScratchDir dir("torus");
  if (!result.check(dir.ok(), "torus-explore: create scratch directory")) return;
  const Instance in = make_instance(ctx.seed);
  rr::sim::ThreadPool pool(ctx.nproc);

  const auto reps = repeat(ctx, [&] { return explore_rep(in, ctx, pool, dir, result); });
  // Peak RSS of the system under test: read before the reference runs.
  const double rss_mb = vm_hwm_mb(::getpid());

  // Untimed sequential reference over the same instance.
  rr::sim::EngineConfig seq;
  seq.agents = in.agents;
  auto ref = rr::sim::EngineRegistry::instance().create("rotor", in.descriptor, seq);
  if (!result.check(ref != nullptr, "torus-explore: reference create")) return;
  const double a = now_s();
  const std::uint64_t cover = ref->run_until_covered(kRounds);
  ref->run(kRounds - ref->time());
  const double seq_step_s = now_s() - a;
  const std::uint64_t ref_final = ref->config_hash();
  ref->run(kContinue);
  const std::uint64_t ref_resumed = ref->config_hash();
  for (const Rep& r : reps) {
    if (!r.ok) continue;
    result.check(r.hash_final == ref_final,
                 "torus-explore: sharded final hash vs sequential reference");
    result.check(r.hash_resumed == ref_resumed,
                 "torus-explore: resumed vs uninterrupted hash");
    result.check(r.cover == cover, "torus-explore: cover round vs sequential reference");
    result.check(r.auto_fires == kRounds / kCkptEvery,
                 "torus-explore: periodic checkpoint count");
  }
  // The last periodic checkpoint (round kRounds) restores to the reference.
  const auto last_auto = rr::sim::restore_checkpoint_file(dir.file("auto.ckpt"));
  result.check(last_auto != nullptr && last_auto->time() == kRounds &&
                   last_auto->config_hash() == ref_final,
               "torus-explore: periodic checkpoint vs sequential reference");

  emit_end_to_end(reps, rss_mb, result);
  run_dist(in, ctx, ref_final, cover, result);
  if (!ctx.trace) return;
  emit_layers(reps, cover, result);
  const auto traced = faster_half(reps, true);
  if (traced.empty()) return;
  Tracer& t = Tracer::instance();
  result.set("registry.create_s", median(t.durations("registry.create")));
  // Both sides step the same 600 rounds without checkpoints; the sharded
  // side comes from untraced repetitions.
  result.set("shard.wall_speedup",
             seq_step_s / median(collect(faster_half(reps, false), core_step_s)));
  result.set("ckpt.encode_s", median(t.durations("ckpt.encode")));
  result.set("ckpt.write_s", median(t.durations("ckpt.write")));
  result.set("ckpt.parse_s", median(t.durations("ckpt.parse")));
  result.set("ckpt.restore_s", median(t.durations("ckpt.restore")));
  result.set("ckpt.save_s", median(collect(traced, [](const Rep& r) { return r.save_s; })));
  result.set("ckpt.resume_s", median(collect(traced, [](const Rep& r) { return r.resume_s; })));
  result.set("ckpt.auto_fires", static_cast<double>(traced.front()->auto_fires));
  result.set("ckpt.auto_s", median(collect(traced, [](const Rep& r) { return r.auto_s; })));
  const double bytes = static_cast<double>(traced.front()->ckpt_bytes);
  result.set("ckpt.bytes", bytes);
  result.set("ckpt.bytes_per_node", bytes / (static_cast<double>(kSide) * kSide));
}

}  // namespace rrbench
