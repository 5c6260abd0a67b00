// rrbench: the repository benchmark.
//
//   rrbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (torus-explore, ring-sweep, serve-mixed)
// for S seconds of measurement with inputs derived from N, checks the
// program's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). Every time is steady-clock wall time. A failed
// check is named on stderr and the exit code is 1; usage errors exit 2.

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using rrbench::Result;
using rrbench::RunContext;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; every workload reports all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},         {"agent_steps_per_s", "1/s"},
    {"trials_per_s", "1/s"},   {"step_p50_ms", "ms"},   {"step_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics of a traced run. A layer a workload does not exercise
// reports 0 (see rrbench/README.md for which workload moves which).
constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.partition_s", "s"},
    {"graph.working_set_mb", "MB"},
    {"graph.llc_mb", "MB"},
    {"registry.create_s", "s"},
    {"registry.create_us_p50", "us"},
    {"core.step_s", "s"},
    {"core.round_ms_p50", "ms"},
    {"core.round_ms_p99", "ms"},
    {"core.agent_steps", "count"},
    {"core.cover_rounds", "count"},
    {"core.ring.agent_steps_per_s", "1/s"},
    {"core.rotor.agent_steps_per_s", "1/s"},
    {"core.lazy.rounds_per_s", "1/s"},
    {"shard.wall_speedup", "x"},
    {"runner.busy_share", "ratio"},
    {"runner.tail_s", "s"},
    {"cycle_jump.samples", "count"},
    {"cycle_jump.confirm_laps", "count"},
    {"cycle_jump.rejects", "count"},
    {"cycle_jump.abandoned_share", "ratio"},
    {"cycle_jump.leaped_share", "ratio"},
    {"ckpt.encode_s", "s"},
    {"ckpt.write_s", "s"},
    {"ckpt.parse_s", "s"},
    {"ckpt.restore_s", "s"},
    {"ckpt.save_s", "s"},
    {"ckpt.resume_s", "s"},
    {"ckpt.auto_fires", "count"},
    {"ckpt.auto_s", "s"},
    {"ckpt.bytes", "B"},
    {"ckpt.bytes_per_node", "B"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.create_ms_p50", "ms"},
    {"serve.batch_step_ms_p99", "ms"},
    {"serve.snapshot_ms_p50", "ms"},
    {"serve.rounds_per_s", "1/s"},
    {"serve.step_samples", "count"},
    {"serve.evictions", "count"},
    {"serve.rehydrations", "count"},
    {"serve.rehydrations_deferred", "count"},
    {"serve.busy_replies", "count"},
    {"serve.wait_pumps.interactive", "count"},
    {"serve.cj_wrapped", "count"},
    {"gen.lag_ms_p99", "ms"},
    {"dist.create_s", "s"},
    {"dist.round_ms_p50", "ms"},
    {"dist.round_ms_p99", "ms"},
    {"dist.spill_bytes_per_round", "B"},
    {"dist.batches_per_round", "count"},
    {"dist.mid_scan_share", "ratio"},
    {"dist.worker_rss_mb", "MB"},
    {"trace.overhead_share", "ratio"},
};

struct Workload {
  const char* name;
  void (*run)(const RunContext&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"torus-explore", rrbench::run_torus_explore},
    {"ring-sweep", rrbench::run_ring_sweep},
    {"serve-mixed", rrbench::run_serve_mixed},
};

int usage() {
  std::fprintf(stderr,
               "usage: rrbench --workload torus-explore|ring-sweep|serve-mixed\n"
               "               --seed N --seconds S --trace 0|1\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

unsigned online_cpus() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, seed)) return usage();
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, seconds) || seconds == 0 || seconds > 3600) return usage();
    } else if (a == "--trace") {
      if (!parse_u64(v, trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || !have_seed || seconds == 0 || trace > 1) return usage();

  RunContext ctx;
  ctx.seed = seed;
  ctx.seconds = static_cast<double>(seconds);
  ctx.trace = trace == 1;
  ctx.nproc = online_cpus();
  ctx.serverd = RRBENCH_SERVERD;
  ctx.noded = RRBENCH_NODED;

  std::printf("# rrbench workload=%s seed=%llu seconds=%llu trace=%d\n", w->name,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds), ctx.trace ? 1 : 0);
  std::printf("# machine nproc=%u cpu=\"%s\" llc_mb=%.1f compiler=\"%s\" build=%s commit=%s\n",
              ctx.nproc, rrbench::cpu_model().c_str(),
              static_cast<double>(rrbench::llc_bytes()) / (1 << 20), RRBENCH_COMPILER,
              RRBENCH_BUILD_TYPE, rrbench::git_commit().c_str());
  std::fflush(stdout);

  Result result;
  const rrbench::CpuTicks ticks = rrbench::cpu_ticks();
  w->run(ctx, result);
  std::printf("# host steal share during the run: %.3f\n",
              rrbench::steal_share(ticks, rrbench::cpu_ticks()));

  std::string metrics;
  const auto emit = [&](const MetricSpec& spec, double value) {
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + spec.name + " is not a finite number");
      return;
    }
    char buf[160];
    std::printf("%-32s %.9g %s\n", spec.name, value, spec.unit);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (!ctx.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = result.metrics().find(spec.name);
      if (it == result.metrics().end()) {
        result.fail(std::string("end-to-end metric ") + spec.name + " was not measured");
        continue;
      }
      emit(spec, it->second);
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.metrics().find(spec.name);
      emit(spec, it == result.metrics().end() ? 0.0 : it->second);
    }
    auto& tracer = rrbench::Tracer::instance();
    std::error_code ec;
    std::filesystem::create_directories(".bench_build/traces", ec);
    const std::string path = ".bench_build/traces/" + std::string(w->name) + "-seed" +
                             std::to_string(seed) + ".jsonl";
    if (tracer.write_jsonl(path)) std::fprintf(stderr, "# spans written to %s\n", path.c_str());
  }

  const double failed_share =
      result.attempted() == 0
          ? 1.0
          : static_cast<double>(result.failed()) / static_cast<double>(result.attempted());
  std::printf("# failed_share=%.9g (failed %llu of %llu operations)\n", failed_share,
              static_cast<unsigned long long>(result.failed()),
              static_cast<unsigned long long>(result.attempted()));
  for (const std::string& f : result.failures()) {
    std::fprintf(stderr, "rrbench: check failed: %s\n", f.c_str());
  }
  const bool correct = result.failed() == 0 && result.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted() > 0 ? result.attempted() : 1),
              static_cast<unsigned long long>(result.failed()), metrics.c_str());
  return correct ? 0 : 1;
}
