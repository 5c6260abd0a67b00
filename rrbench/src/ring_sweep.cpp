// ring-sweep: the paper's Table-1 workload. Many small random ring trials
// fan out through sim::Runner; each trial runs the ring, rotor and lazy
// backends to cover and then over a fixed post-cover horizon through
// wrap_cycle_jump(auto), and all three must agree.

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/initializers.hpp"
#include "graph/descriptor.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace rrbench {
namespace {

using rr::sim::Engine;
using Span = Tracer::Span;

struct Combo {
  rr::graph::NodeId n;
  std::uint32_t k;
};

// Trials cycle through these (n, k) pairs, so every batch has the same
// mix. The post-cover horizon is stepped as 16 calls of 2^17 / k rounds
// (2^17 agent steps each), the "step requests" whose latency this
// workload reports; equal work per call keeps their median from falling
// between the clusters of six differently sized trials.
constexpr Combo kCombos[] = {{1024, 2}, {1024, 8}, {1024, 32},
                             {4096, 2}, {4096, 8}, {4096, 32}};
constexpr std::size_t kNumCombos = sizeof kCombos / sizeof kCombos[0];
constexpr std::uint64_t kChunkAgentSteps = std::uint64_t{1} << 17;
constexpr std::uint64_t kChunks = 16;
constexpr std::uint64_t kCoverCap = std::uint64_t{1} << 32;
constexpr std::uint64_t kBatch = 4 * kNumCombos;

constexpr const char* kEngines[] = {"ring", "rotor", "lazy"};
constexpr const char* kStepSpans[] = {"core.ring.step", "core.rotor.step",
                                      "core.lazy.step"};
constexpr std::size_t kNumEngines = 3;

struct EngineRun {
  std::uint64_t cover = rr::sim::kNotCovered;
  std::uint64_t rounds = 0;
  std::uint64_t hash = 0;
  double step_s = 0.0;
  rr::sim::CycleJumpStats cj;
};

struct Trial {
  std::string error;  // empty when every engine ran
  std::uint32_t k = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t thread = 0;
  EngineRun runs[kNumEngines];
  std::vector<double> chunk_s;
};

struct Batch {
  bool traced = false;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<Trial> trials;
};

rr::sim::EngineConfig trial_config(std::uint64_t seed, std::uint64_t index,
                                   rr::graph::NodeId* n) {
  const Combo& c = kCombos[index % kNumCombos];
  rr::Rng rng(rr::sim::derive_seed(seed, index));
  rr::sim::EngineConfig config;
  config.agents = rr::core::place_random(c.n, c.k, rng);
  const auto ptrs = rr::core::pointers_random(c.n, rng);
  config.pointers.assign(ptrs.begin(), ptrs.end());
  *n = c.n;
  return config;
}

std::unique_ptr<Engine> create(const char* engine, rr::graph::NodeId n,
                               const rr::sim::EngineConfig& config,
                               std::string* error) {
  std::unique_ptr<Engine> e;
  {
    Span s("registry.create");
    e = rr::sim::EngineRegistry::instance().create(
        engine, rr::graph::GraphDescriptor::ring(n), config, error);
  }
  if (!e) return e;
  Span s("cycle_jump.wrap");
  return rr::sim::wrap_cycle_jump(std::move(e), rr::sim::CycleJumpMode::kAuto, {},
                                  error);
}

Trial run_trial(std::uint64_t seed, std::uint64_t index) {
  Trial t;
  t.start_s = now_s();
  t.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  rr::graph::NodeId n = 0;
  const rr::sim::EngineConfig config = trial_config(seed, index, &n);
  t.k = static_cast<std::uint32_t>(config.agents.size());
  t.chunk_s.reserve(kNumEngines * kChunks);
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    std::string error;
    auto engine = create(kEngines[e], n, config, &error);
    if (!engine) {
      t.error = std::string(kEngines[e]) + ": " + error;
      return t;
    }
    EngineRun& run = t.runs[e];
    const double s0 = now_s();
    {
      Span s(kStepSpans[e]);
      run.cover = engine->run_until_covered(kCoverCap);
      for (std::uint64_t c = 0; c < kChunks; ++c) {
        const double a = now_s();
        engine->run(kChunkAgentSteps / t.k);
        t.chunk_s.push_back(now_s() - a);
      }
    }
    run.step_s = now_s() - s0;
    run.rounds = engine->time();
    run.hash = engine->config_hash();
    if (const auto* cj = dynamic_cast<const rr::sim::CycleJumpEngine*>(engine.get())) {
      run.cj = cj->stats();
    }
  }
  t.end_s = now_s();
  return t;
}

/// Time from the first worker running out of trials to the batch's end.
double batch_tail_s(const Batch& b) {
  std::unordered_map<std::size_t, double> last_end;
  for (const Trial& t : b.trials) {
    double& end = last_end[t.thread];
    end = std::max(end, t.end_s);
  }
  double first_idle = b.end_s;
  for (const auto& [thread, end] : last_end) first_idle = std::min(first_idle, end);
  return b.end_s - first_idle;
}

}  // namespace

void run_ring_sweep(const RunContext& ctx, Result& result) {
  // Setup: the Runner's pool plus every engine of the first batch, built
  // from their descriptors; repeated for a stable median.
  std::vector<double> setups;
  for (int i = 0; i < 11; ++i) {
    const double t0 = now_s();
    rr::sim::Runner runner(ctx.nproc);
    std::vector<std::unique_ptr<Engine>> engines;
    for (std::uint64_t trial = 0; trial < kBatch; ++trial) {
      rr::graph::NodeId n = 0;
      const auto config = trial_config(ctx.seed, trial, &n);
      for (const char* name : kEngines) {
        std::string error;
        engines.push_back(create(name, n, config, &error));
        if (!result.check(engines.back() != nullptr, "ring-sweep: setup create: " + error)) {
          return;
        }
      }
    }
    setups.push_back(now_s() - t0);
  }

  rr::sim::Runner runner(ctx.nproc);
  std::vector<Batch> batches;
  const std::size_t need = samples_for_percentile(0.99);
  std::size_t chunks[2] = {0, 0};
  std::uint64_t next_index = 0;
  const double t0 = now_s();
  for (;;) {
    const bool enough_time = now_s() - t0 >= ctx.seconds;
    const bool enough_samples = chunks[0] >= need && (!ctx.trace || chunks[1] >= need);
    if (!batches.empty() && enough_time && enough_samples) break;
    Batch b;
    b.traced = ctx.trace && batches.size() % 2 == 1;
    b.trials.resize(kBatch);
    Tracer::instance().set_on(b.traced);
    b.start_s = now_s();
    runner.for_each(
        kBatch,
        [&](std::uint64_t i) { b.trials[i] = run_trial(ctx.seed, next_index + i); },
        /*chunk=*/1);
    b.end_s = now_s();
    Tracer::instance().set_on(false);
    next_index += kBatch;
    for (const Trial& t : b.trials) chunks[b.traced ? 1 : 0] += t.chunk_s.size();
    batches.push_back(std::move(b));
  }
  const double rss_mb = vm_hwm_mb(::getpid());

  // Output checks: every backend ran, covered, and agrees with the others.
  for (const Batch& b : batches) {
    for (const Trial& t : b.trials) {
      result.attempt(kNumEngines * (1 + kChunks) - 1);
      if (!result.check(t.error.empty(), "ring-sweep: engine create: " + t.error)) continue;
      result.check(t.runs[0].cover != rr::sim::kNotCovered, "ring-sweep: trial covered");
      bool same = true;
      for (std::size_t e = 1; e < kNumEngines; ++e) {
        same = same && t.runs[e].cover == t.runs[0].cover &&
               t.runs[e].hash == t.runs[0].hash && t.runs[e].rounds == t.runs[0].rounds;
      }
      result.check(same, "ring-sweep: ring == rotor == lazy cover times and horizon hashes");
    }
  }

  struct Totals {
    double batch_s = 0.0;
    double trial_s = 0.0;
    double trials = 0.0;
    double agent_steps = 0.0;
    double cover_rounds = 0.0;
    double tail_s = 0.0;
    double batches = 0.0;
    std::vector<double> chunk_ms;
  } tot[2];
  for (const Batch& b : batches) {
    Totals& x = tot[b.traced ? 1 : 0];
    x.batch_s += b.end_s - b.start_s;
    x.tail_s += batch_tail_s(b);
    x.batches += 1.0;
    for (const Trial& t : b.trials) {
      x.trials += 1.0;
      x.trial_s += t.end_s - t.start_s;
      x.cover_rounds += static_cast<double>(t.runs[0].cover);
      for (const EngineRun& r : t.runs) {
        x.agent_steps += static_cast<double>(t.k) * static_cast<double>(r.rounds);
      }
      for (double s : t.chunk_s) x.chunk_ms.push_back(s * 1e3);
    }
  }

  const Totals& plain = tot[0];
  std::vector<double> batch_rates;
  for (const Batch& b : batches) {
    if (!b.traced) batch_rates.push_back(static_cast<double>(b.trials.size()) / (b.end_s - b.start_s));
  }
  print_spread("trials_per_s (per batch)", batch_rates);
  result.set("setup_s", median(setups));
  // A trial's time to its verified result, averaged: trials come in a
  // fixed mix of six sizes, and the median of such a mixture jumps
  // between clusters.
  result.set("wall_s", plain.trial_s / plain.trials);
  result.set("agent_steps_per_s", plain.agent_steps / plain.batch_s);
  result.set("trials_per_s", plain.trials / plain.batch_s);
  const auto p99 = percentile(plain.chunk_ms, 0.99);
  if (result.check(p99.has_value(), "too few step samples for step_p99_ms")) {
    result.set("step_p50_ms", median(plain.chunk_ms));
    result.set("step_p99_ms", *p99);
  }
  result.set("peak_rss_mb", rss_mb);
  if (!ctx.trace) return;

  const Totals& traced = tot[1];
  if (traced.trials == 0) return;
  Tracer& tr = Tracer::instance();
  result.set("registry.create_us_p50", median(tr.durations("registry.create")) * 1e6);
  double steps[kNumEngines] = {};
  double rounds[kNumEngines] = {};
  double seconds[kNumEngines] = {};
  double samples = 0, laps = 0, rejects = 0, abandoned = 0, leaped = 0, advanced = 0,
         instances = 0, step_s = 0;
  for (const Batch& b : batches) {
    if (!b.traced) continue;
    for (const Trial& t : b.trials) {
      for (std::size_t e = 0; e < kNumEngines; ++e) {
        const EngineRun& r = t.runs[e];
        steps[e] += static_cast<double>(t.k) * static_cast<double>(r.rounds);
        rounds[e] += static_cast<double>(r.rounds);
        seconds[e] += r.step_s;
        step_s += r.step_s;
        samples += static_cast<double>(r.cj.samples);
        laps += static_cast<double>(r.cj.confirm_laps);
        rejects += static_cast<double>(r.cj.rejects);
        abandoned += r.cj.abandoned ? 1.0 : 0.0;
        leaped += static_cast<double>(r.cj.leaped_rounds);
        advanced += static_cast<double>(r.rounds);
        instances += 1.0;
      }
    }
  }
  result.set("core.ring.agent_steps_per_s", steps[0] / seconds[0]);
  result.set("core.rotor.agent_steps_per_s", steps[1] / seconds[1]);
  result.set("core.lazy.rounds_per_s", rounds[2] / seconds[2]);
  result.set("core.step_s", step_s / traced.trials);
  result.set("core.agent_steps", traced.agent_steps / traced.trials);
  result.set("core.cover_rounds", traced.cover_rounds / traced.trials);
  result.set("runner.busy_share",
             traced.trial_s / (static_cast<double>(runner.num_threads()) * traced.batch_s));
  result.set("runner.tail_s", traced.tail_s / traced.batches);
  result.set("cycle_jump.samples", samples / instances);
  result.set("cycle_jump.confirm_laps", laps / instances);
  result.set("cycle_jump.rejects", rejects / instances);
  result.set("cycle_jump.abandoned_share", abandoned / instances);
  result.set("cycle_jump.leaped_share", leaped / advanced);
  result.set("trace.overhead_share",
             (traced.trial_s / traced.trials) / (plain.trial_s / plain.trials) - 1.0);
}

}  // namespace rrbench
