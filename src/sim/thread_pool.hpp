#pragma once

// Shared fork-join thread pool (sim layer).
//
// Extracted from sim::Runner so that *both* parallelism levels in the
// repository — trial-level (Runner fanning independent engine trials) and
// shard-level (core::RotorRouter stepping partition shards every round)
// — draw from one set of worker threads instead of each layer spawning
// its own and oversubscribing the machine.
//
// Three design points differ from a generic task queue:
//
//  * Low-latency dispatch. A sharded engine dispatches twice per
//    simulation round (scan, then merge), and rounds on medium instances
//    take ~1 microsecond, so workers spin briefly on an atomic batch
//    generation before parking on a condition variable. A pool that is
//    stepped continuously stays on the spin path and never touches the
//    mutex; an idle pool parks and costs nothing. Batches that cannot
//    parallelize at all (one job, or all jobs inside one claim chunk) run
//    inline on the caller without waking or parking anything.
//
//  * Nested dispatch runs inline. for_each() called from inside a pool
//    job (any pool — e.g. a sharded engine stepped inside a Runner trial)
//    executes its jobs sequentially on the calling thread. The outer
//    batch already owns the hardware, so inlining is both the deadlock-
//    free and the oversubscription-free choice; shard parallelism simply
//    collapses to sequential stepping inside parallel sweeps.
//
//  * Priority lanes + work stealing. A batch is one or more *lanes*
//    (for_each is the one-lane special case). Threads claim chunks from
//    the lowest-numbered lane that still has unclaimed jobs, so lane 0 is
//    strictly higher priority than lane 1: the serving layer dispatches
//    interactive session quanta ahead of batch quanta within a single
//    fork-join batch. When every lane's claim counter is dry, a thread
//    steals the back half of a sibling's already-claimed chunk instead of
//    idling — a pathologically skewed sweep (one 10k-round job leading a
//    chunk of 64 tiny ones) no longer strands the chunk's tail behind the
//    heavy job.
//
// Determinism contract (inherited by Runner and the sharded engine):
// job i always receives index i; which thread runs it is unspecified.
// Lanes and stealing change only claim *order*, never the index→job
// mapping, so results stay bit-equal to sequential by construction.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace rr::sim {

class ThreadPool {
 public:
  /// One priority class of a batch. Lane 0 is claimed before lane 1, and
  /// so on. `chunk` 0 picks a claim granularity automatically (~8 claims
  /// per thread, capped at 64).
  struct LaneSpec {
    std::uint64_t jobs = 0;
    std::uint64_t chunk = 0;
  };

  /// Upper bound on lanes per batch (serving uses 3 QoS classes).
  static constexpr std::size_t kMaxLanes = 4;

  /// `max_threads` 0 = hardware concurrency. The calling thread always
  /// participates in every batch, so a pool on a single-core machine (or
  /// with max_threads = 1) runs all jobs inline with zero dispatch cost.
  explicit ThreadPool(unsigned max_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads plus the participating caller.
  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(i) for i in [0, jobs) across the pool; blocks until all jobs
  /// finished. Jobs are claimed dynamically in contiguous chunks: one
  /// atomic fetch-add claims `chunk` jobs, so a sweep of ~1e6 tiny trials
  /// does not serialize on the shared counter. `chunk` 0 picks a size
  /// automatically (~jobs/8 per thread, capped at 64 — small enough to
  /// keep skewed runtimes balanced, large enough to amortize contention).
  /// `jobs` 0 is a no-op; a batch that fits in one claim chunk runs
  /// inline on the caller without touching the workers. Called from
  /// inside any pool job, runs the jobs inline sequentially.
  ///
  /// Single-dispatcher contract: one pool supports one *top-level*
  /// dispatch at a time. Jobs dispatching nested work run inline (safe,
  /// see above), but two unrelated threads must not drive the same pool
  /// concurrently — the second publish would clobber the first batch's
  /// parameters (asserted in debug builds). Sharing a pool between a
  /// Runner and sharded engines is safe exactly because the engines are
  /// stepped either from the dispatching thread between batches or from
  /// inside the Runner's own jobs.
  void for_each(std::uint64_t jobs,
                const std::function<void(std::uint64_t)>& fn,
                std::uint64_t chunk = 0);

  /// Multi-lane dispatch: runs fn(lane, i) for every lane in `lanes` and
  /// every i in [0, lanes[lane].jobs) across the pool; blocks until all
  /// lanes finished. Threads claim from the lowest-numbered lane with
  /// unclaimed jobs first, so earlier lanes complete with strict priority
  /// over later ones (modulo chunks already in flight). Zero-job lanes
  /// are allowed. Same single-dispatcher and inline-nesting rules as
  /// for_each.
  void for_each_lanes(const std::vector<LaneSpec>& lanes,
                      const std::function<void(std::size_t, std::uint64_t)>& fn);

  /// True while the calling thread is executing a pool job (any pool);
  /// for_each() calls in this state run inline.
  static bool in_pool_job();

 private:
  struct Shared;  // worker state (atomics, mutex, condvars, claim slots)

  // Publishes one batch (lanes already validated, total > 1) and blocks
  // until complete. `flat` receives flat indices in [0, total).
  void run_batch(const LaneSpec* lanes, std::size_t num_lanes,
                 const std::function<void(std::uint64_t)>& flat);

  std::unique_ptr<Shared> shared_;
  std::vector<std::unique_ptr<std::jthread>> workers_;
};

}  // namespace rr::sim
