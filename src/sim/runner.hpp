#pragma once

// Batched engine runner (sim layer).
//
// Every bench/example driver used to hand-roll its trial loop: spawn
// threads, derive seeds, fold statistics. `Runner` is the single batched
// implementation: a persistent thread pool that fans *any* job — engine
// trials across seeds, sweeps across graph sizes, Monte-Carlo estimates —
// over hardware threads with deterministic results (job i always computes
// the same value regardless of scheduling; results come back in job order).
//
// Engine-aware conveniences (`cover_times`, `cover_stats`) build a fresh
// sim::Engine per trial through a factory and run it to coverage, so the
// same driver line serves rotor-routers and random walks alike.
//
// The bench-scale knobs (RR_BENCH_SCALE) live here too, alongside the
// pool they parameterize. The worker threads themselves are a
// sim::ThreadPool (sim/thread_pool.hpp), shared with shard-parallel
// engines via pool().

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "common/hash.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"

namespace rr::sim {

// ---- per-trial RNG derivation ----
//
// Batched drivers run `trials` independent jobs from one master seed. Seeds
// must be (a) deterministic in (master, trial) regardless of scheduling and
// (b) statistically independent across trials — `seed + 31 * i` arithmetic
// fails (b) for counter-seeded generators. These helpers are the sanctioned
// derivation (SplitMix64-style, common/hash.hpp).

/// Seed for trial/stream `trial` under `master`.
constexpr std::uint64_t derive_seed(std::uint64_t master, std::uint64_t trial) {
  return mix_seed(master, trial);
}

/// Ready-to-use per-trial generator.
inline Rng trial_rng(std::uint64_t master, std::uint64_t trial) {
  return Rng(derive_seed(master, trial));
}

// ---- bench-harness knobs ----
//
// Every bench binary reads RR_BENCH_SCALE (a positive float, default 1.0)
// and scales its instance sizes / trial counts by it, so the same binaries
// serve both a quick smoke run and a high-fidelity overnight run
// (RR_BENCH_SCALE=4+).

inline double bench_scale() {
  if (const char* env = std::getenv("RR_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

/// base * scale, rounded, at least `min_value`.
inline std::uint64_t scaled(std::uint64_t base, std::uint64_t min_value = 1) {
  const double v = static_cast<double>(base) * bench_scale();
  const auto r = static_cast<std::uint64_t>(v + 0.5);
  return r < min_value ? min_value : r;
}

/// Scales and rounds to the next power of two (ring sizes sweep cleanly).
inline std::uint64_t scaled_pow2(std::uint64_t base) {
  std::uint64_t v = scaled(base, 4);
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

inline void print_bench_header(const std::string& title,
                               const std::string& paper_ref) {
  std::printf("\n## %s\n\n", title.c_str());
  std::printf("Paper reference: %s | RR_BENCH_SCALE=%.2f\n\n",
              paper_ref.c_str(), bench_scale());
}

// ---- bench JSON artifact ----
//
// Plain printf bench drivers can publish throughput samples into the
// per-commit CI artifact next to the google-benchmark JSONs: add()
// records google-benchmark-shaped entries ({"name", "items_per_second",
// "run_type": "iteration"}) and the destructor writes the file named by
// the RR_BENCH_JSON environment variable (no-op when unset), so
// tools/bench_diff.py folds repetitions into medians and flags
// regressions for these benches exactly like for bench_perf.

class BenchJsonWriter {
 public:
  BenchJsonWriter() {
    if (const char* env = std::getenv("RR_BENCH_JSON")) path_ = env;
  }
  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// One repetition's throughput sample (items per second).
  void add(const std::string& name, double items_per_second) {
    add_metric(name, "items_per_second", items_per_second);
  }

  /// One repetition's sample under an arbitrary metric key (e.g.
  /// "bytes_per_node", "rss_bytes"); tools/bench_diff.py knows each key's
  /// regression direction.
  void add_metric(const std::string& name, const std::string& key,
                  double value) {
    if (!enabled()) return;
    if (!entries_.empty()) entries_ += ",\n";
    entries_ += "    {\"name\": \"" + name + "\", \"run_type\": " +
                "\"iteration\", \"" + key + "\": " + std::to_string(value) +
                "}";
  }

  ~BenchJsonWriter() {
    if (!enabled()) return;
    if (std::FILE* f = std::fopen(path_.c_str(), "w")) {
      std::fprintf(f, "{\n  \"benchmarks\": [\n%s\n  ]\n}\n",
                   entries_.c_str());
      std::fclose(f);
    }
  }

 private:
  std::string path_;
  std::string entries_;
};

// ---- sweep checkpointing ----
//
// Long sweeps (millions of trials) need the same resumability as single
// runs (sim/checkpoint.hpp): a SweepCheckpoint records which trials have
// finished and their results, round-trips through a one-line text form
// ("rr-sweep v1 trials=<N> done=<i>:<v>,..."), and feeds the resumable
// cover_times overload, which only runs the missing trials. Trials are
// deterministic in their index (derive_seed), so a resumed sweep fills in
// exactly the values the uninterrupted sweep would have produced.

struct SweepCheckpoint {
  std::uint64_t trials = 0;
  std::vector<std::uint8_t> done;        ///< 1 = results[i] is valid
  std::vector<std::uint64_t> results;    ///< per-trial cover times

  static SweepCheckpoint fresh(std::uint64_t trials) {
    SweepCheckpoint ck;
    ck.trials = trials;
    ck.done.assign(trials, 0);
    ck.results.assign(trials, 0);
    return ck;
  }

  std::uint64_t completed() const {
    std::uint64_t c = 0;
    for (std::uint8_t d : done) c += d;
    return c;
  }
  bool complete() const { return completed() == trials; }

  std::string to_text() const;
  /// nullopt on malformed input (never aborts: checkpoints are external).
  static std::optional<SweepCheckpoint> from_text(const std::string& text);
};

// ---- the batched runner ----

class Runner {
 public:
  /// `max_threads` 0 = hardware concurrency. The calling thread always
  /// participates, so a Runner on a single-core machine runs jobs inline.
  explicit Runner(unsigned max_threads = 0) : pool_(max_threads) {}

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Worker threads plus the participating caller.
  unsigned num_threads() const { return pool_.num_threads(); }

  /// The underlying fork-join pool; share it with shard-parallel engines
  /// (core::RotorRouter with shards > 1) so trial-level and shard-level
  /// parallelism draw from one set of threads instead of oversubscribing.
  ThreadPool& pool() { return pool_; }

  /// Runs fn(i) for i in [0, jobs) across the pool; blocks until all jobs
  /// finished. Jobs are claimed dynamically in contiguous chunks: one
  /// atomic fetch-add claims `chunk` jobs, so a sweep of ~1e6 tiny trials
  /// does not serialize on the shared counter. `chunk` 0 picks a size
  /// automatically (~jobs/8 per thread, capped at 64 — small enough to
  /// keep skewed runtimes balanced, large enough to amortize contention).
  void for_each(std::uint64_t jobs,
                const std::function<void(std::uint64_t)>& fn,
                std::uint64_t chunk = 0) {
    pool_.for_each(jobs, fn, chunk);
  }

  /// for_each with per-job cost estimates (arbitrary positive units, only
  /// relative magnitudes matter): jobs run largest-estimate-first, so a
  /// strongly skewed sweep does not strand its big jobs at the tail of
  /// the schedule (longest-processing-time-first); the pool's work
  /// stealing covers the residual case of a heavy job leading a chunk.
  /// Results are identical to for_each — job i still receives index i —
  /// only the execution order changes. `cost_hint` must have one entry
  /// per job.
  void for_each_hinted(std::uint64_t jobs,
                       const std::function<void(std::uint64_t)>& fn,
                       const std::vector<double>& cost_hint);

  /// Runs fn over [0, jobs); returns the results in job order.
  std::vector<double> map(std::uint64_t jobs,
                          const std::function<double(std::uint64_t)>& fn);

  /// map + fold into RunningStats (mean/stddev/ci95/min/max).
  analysis::RunningStats stats(std::uint64_t jobs,
                               const std::function<double(std::uint64_t)>& fn);

  /// Builds an engine per trial and runs it to coverage. Returns per-trial
  /// cover times (kNotCovered entries where `max_rounds` elapsed first).
  using EngineFactory =
      std::function<std::unique_ptr<Engine>(std::uint64_t trial)>;
  std::vector<std::uint64_t> cover_times(std::uint64_t trials,
                                         const EngineFactory& factory,
                                         std::uint64_t max_rounds);

  /// cover_times with per-trial cost estimates (see for_each_hinted):
  /// skewed sweeps — mixed instance sizes, worst-case vs random starts —
  /// schedule their expensive trials first. Results are identical to the
  /// unhinted overload.
  std::vector<std::uint64_t> cover_times(std::uint64_t trials,
                                         const EngineFactory& factory,
                                         std::uint64_t max_rounds,
                                         const std::vector<double>& cost_hint);

  /// Resumable cover_times: only trials not marked done in `ck` run; their
  /// results and done flags are filled in. `ck.trials` must match `trials`
  /// (pass SweepCheckpoint::fresh(trials) to start). Returns the complete
  /// result vector in trial order.
  std::vector<std::uint64_t> cover_times(std::uint64_t trials,
                                         const EngineFactory& factory,
                                         std::uint64_t max_rounds,
                                         SweepCheckpoint& ck);

  /// cover_times folded into stats; requires every trial to cover within
  /// `max_rounds` (aborts otherwise — raise the cap).
  analysis::RunningStats cover_stats(std::uint64_t trials,
                                     const EngineFactory& factory,
                                     std::uint64_t max_rounds);

 private:
  ThreadPool pool_;
};

}  // namespace rr::sim
