#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/require.hpp"

namespace rr::sim {

namespace {

// One flag across all pools: a job of pool A that steps a sharded engine
// holding pool B must still inline B's dispatch (the hardware is already
// owned by A's batch).
thread_local bool tls_in_pool_job = false;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Spin budget before parking (workers) or blocking (caller), in `pause`
// instructions. A pause costs tens to ~140 cycles depending on the core:
// on a 4-vCPU Xeon VM 4096 of them took 69-124 us (median 83 us). That
// bridges the gap between per-round dispatches of a continuously stepped
// sharded engine and between back-to-back batches; an idle pool parks
// about 0.1 ms after its last batch, and the next batch then pays the
// wake-up (bench_shard's BM_PoolBatches with a gap measures it).
constexpr int kSpinLimit = 1 << 12;

// Owner take granularity inside a published claim range. Small enough
// that a thief stealing the back half of a range gets useful work, large
// enough that tiny jobs don't pay one CAS each.
constexpr std::uint64_t kOwnerBlock = 8;

// A claim range packs (next, limit) flat indices into one u64 so that the
// owner advancing `next` and a thief lowering `limit` linearize through a
// single CAS — no interleaving can run a job twice or drop one. Flat
// indices fit in u32 whenever stealing is enabled (see Shared::steal).
constexpr std::uint64_t pack_range(std::uint64_t next, std::uint64_t limit) {
  return (next << 32) | limit;
}
constexpr std::uint64_t range_next(std::uint64_t r) { return r >> 32; }
constexpr std::uint64_t range_limit(std::uint64_t r) { return r & 0xffffffffULL; }
constexpr std::uint64_t range_size(std::uint64_t r) {
  const std::uint64_t n = range_next(r), l = range_limit(r);
  return n < l ? l - n : 0;
}

}  // namespace

// Batch protocol: run_batch publishes the lane table and bumps the atomic
// `generation` under the mutex, then wakes the workers. Workers spin on
// `generation` (lock-free fast path) and fall back to a condvar wait;
// either way they *enter* a batch under the mutex, re-checking that the
// batch is still published (`fn != nullptr`) — a straggler that wakes
// after the batch completed goes back to sleep instead of reading stale
// parameters. A batch is complete when every lane's claim counter is
// exhausted, no claim range has jobs left to steal, AND no worker is
// still active; run_batch unpublishes fn before returning, so no worker
// can touch it afterwards.
struct ThreadPool::Shared {
  struct Lane {
    std::uint64_t base = 0;   // flat-index offset of this lane
    std::uint64_t count = 0;  // jobs in this lane
    std::uint64_t chunk = 1;  // claim granularity
    std::atomic<std::uint64_t> next{0};
  };

  // One per participating thread (workers + the caller), cache-line
  // separated: the owner hammers its own slot with CAS while thieves only
  // read until they commit a steal.
  struct alignas(64) ClaimSlot {
    std::atomic<std::uint64_t> range{0};
  };

  std::mutex mu;
  std::condition_variable work_ready;
  std::condition_variable batch_done;
  const std::function<void(std::uint64_t)>* fn = nullptr;  // guarded by mu
  Lane lanes[kMaxLanes];             // fixed fields guarded by mu
  std::size_t num_lanes = 0;         // guarded by mu
  bool steal = false;                // guarded by mu; true iff total fits u32
  std::unique_ptr<ClaimSlot[]> slots;
  std::size_t num_slots = 0;
  std::atomic<std::uint64_t> generation{0};
  std::atomic<unsigned> active{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> dispatching{false};  // single-dispatcher contract check

  // Runs one claimed flat range [lo, hi). With stealing enabled the range
  // is published in this thread's claim slot and consumed in blocks of
  // kOwnerBlock via CAS, so a sibling can steal the back half while the
  // front runs; tiny ranges skip the slot entirely (nothing worth
  // stealing, and the direct loop costs zero extra atomics).
  static void run_range(Shared& s, const std::function<void(std::uint64_t)>& f,
                        std::size_t self, std::uint64_t lo, std::uint64_t hi) {
    if (!s.steal || hi - lo <= kOwnerBlock) {
      for (std::uint64_t i = lo; i < hi; ++i) f(i);
      return;
    }
    auto& slot = s.slots[self].range;
    slot.store(pack_range(lo, hi), std::memory_order_release);
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t next = range_next(cur), limit = range_limit(cur);
      if (next >= limit) break;
      const std::uint64_t take = std::min(kOwnerBlock, limit - next);
      if (slot.compare_exchange_weak(cur, pack_range(next + take, limit),
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
        for (std::uint64_t i = next; i < next + take; ++i) f(i);
        cur = slot.load(std::memory_order_relaxed);
      }
      // CAS failure: a thief lowered `limit` (or the weak CAS failed
      // spuriously); `cur` holds the fresh value either way.
    }
  }

  // Steals the back half of the largest outstanding sibling claim range.
  // Returns false when no sibling holds >= 2 unrun jobs. A failed CAS
  // means the victim (or another thief) made progress, so the rescan loop
  // is lock-free in aggregate.
  static bool steal_range(Shared& s, std::size_t self, std::uint64_t* lo,
                          std::uint64_t* hi) {
    for (;;) {
      std::size_t victim = s.num_slots;
      std::uint64_t victim_range = 0;
      std::uint64_t best = 1;  // require >= 2 so both halves stay non-empty
      for (std::size_t j = 0; j < s.num_slots; ++j) {
        if (j == self) continue;
        const std::uint64_t r = s.slots[j].range.load(std::memory_order_relaxed);
        const std::uint64_t size = range_size(r);
        if (size > best) {
          best = size;
          victim = j;
          victim_range = r;
        }
      }
      if (victim == s.num_slots) return false;
      const std::uint64_t next = range_next(victim_range);
      const std::uint64_t limit = range_limit(victim_range);
      const std::uint64_t mid = next + (limit - next) / 2;  // victim keeps front
      std::uint64_t expected = victim_range;
      if (s.slots[victim].range.compare_exchange_weak(
              expected, pack_range(next, mid), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        *lo = mid;
        *hi = limit;
        return true;
      }
    }
  }

  // Claims and runs jobs of the current batch until no lane has unclaimed
  // chunks and no sibling range can be stolen. Lanes are tried in order,
  // so lane 0 drains with strict priority; `self` is this thread's claim
  // slot index.
  static void drain(Shared& s, const std::function<void(std::uint64_t)>& f,
                    std::size_t self) {
    tls_in_pool_job = true;
    for (;;) {
      std::uint64_t lo = 0, hi = 0;
      for (std::size_t l = 0; l < s.num_lanes; ++l) {
        Lane& lane = s.lanes[l];
        // Cheap pre-check bounds counter overshoot on exhausted lanes.
        if (lane.next.load(std::memory_order_relaxed) >= lane.count) continue;
        const std::uint64_t base =
            lane.next.fetch_add(lane.chunk, std::memory_order_relaxed);
        if (base >= lane.count) continue;
        lo = lane.base + base;
        hi = lane.base + std::min(lane.count, base + lane.chunk);
        break;
      }
      if (lo == hi && s.steal && !steal_range(s, self, &lo, &hi)) break;
      if (lo == hi) break;
      run_range(s, f, self, lo, hi);
    }
    tls_in_pool_job = false;
  }
};

bool ThreadPool::in_pool_job() { return tls_in_pool_job; }

ThreadPool::ThreadPool(unsigned max_threads) : shared_(std::make_unique<Shared>()) {
  unsigned threads =
      max_threads ? max_threads : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  // The caller participates in every batch, so spawn threads-1 workers;
  // claim slots cover every participant (slot threads-1 is the caller's).
  shared_->slots = std::make_unique<Shared::ClaimSlot[]>(threads);
  shared_->num_slots = threads;
  for (unsigned t = 1; t < threads; ++t) {
    workers_.push_back(std::make_unique<std::jthread>([this, t] {
      Shared& s = *shared_;
      const std::size_t self = t - 1;
      std::uint64_t seen = 0;
      for (;;) {
        // Lock-free fast path: spin on the batch generation.
        int spins = 0;
        while (s.generation.load(std::memory_order_acquire) == seen &&
               !s.stop.load(std::memory_order_acquire)) {
          if (++spins > kSpinLimit) break;
          cpu_relax();
        }
        const std::function<void(std::uint64_t)>* fn = nullptr;
        {
          std::unique_lock<std::mutex> lock(s.mu);
          s.work_ready.wait(lock, [&] {
            return s.stop.load(std::memory_order_relaxed) ||
                   (s.generation.load(std::memory_order_relaxed) != seen &&
                    s.fn != nullptr);
          });
          if (s.stop.load(std::memory_order_relaxed)) return;
          seen = s.generation.load(std::memory_order_relaxed);
          fn = s.fn;
          s.active.fetch_add(1, std::memory_order_relaxed);
        }
        Shared::drain(s, *fn, self);
        if (s.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(s.mu);
          s.batch_done.notify_all();
        }
      }
    }));
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stop.store(true, std::memory_order_release);
  }
  shared_->work_ready.notify_all();
  workers_.clear();  // jthread joins on destruction
}

void ThreadPool::for_each(std::uint64_t jobs,
                          const std::function<void(std::uint64_t)>& fn,
                          std::uint64_t chunk) {
  if (jobs == 0) return;
  // Inline paths, cheapest first: nested dispatch and 1-thread pools must
  // run on the caller; a batch that cannot split across two claim chunks
  // would wake workers only to have the caller's first claim take
  // everything, so it runs inline too (no wake, no park, no atomics).
  if (tls_in_pool_job || workers_.empty() || jobs == 1 ||
      (chunk != 0 && jobs <= chunk)) {
    for (std::uint64_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  const LaneSpec lane{jobs, chunk};
  run_batch(&lane, 1, fn);
}

void ThreadPool::for_each_lanes(
    const std::vector<LaneSpec>& lanes,
    const std::function<void(std::size_t, std::uint64_t)>& fn) {
  RR_REQUIRE(lanes.size() <= kMaxLanes, "too many priority lanes");
  std::uint64_t total = 0;
  for (const LaneSpec& l : lanes) total += l.jobs;
  if (total == 0) return;
  if (tls_in_pool_job || workers_.empty() || total == 1) {
    for (std::size_t l = 0; l < lanes.size(); ++l)
      for (std::uint64_t i = 0; i < lanes[l].jobs; ++i) fn(l, i);
    return;
  }
  // Map flat indices back to (lane, local): lane count is <= kMaxLanes,
  // so a linear scan over prefix offsets beats anything fancier.
  std::uint64_t offsets[kMaxLanes + 1] = {0};
  for (std::size_t l = 0; l < lanes.size(); ++l)
    offsets[l + 1] = offsets[l] + lanes[l].jobs;
  const std::function<void(std::uint64_t)> flat = [&](std::uint64_t i) {
    std::size_t lane = 0;
    while (i >= offsets[lane + 1]) ++lane;
    fn(lane, i - offsets[lane]);
  };
  run_batch(lanes.data(), lanes.size(), flat);
}

void ThreadPool::run_batch(const LaneSpec* lanes, std::size_t num_lanes,
                           const std::function<void(std::uint64_t)>& flat) {
  Shared& s = *shared_;
  RR_ASSERT(!s.dispatching.exchange(true, std::memory_order_acq_rel),
            "concurrent top-level ThreadPool dispatch from two threads");
  {
    std::lock_guard<std::mutex> lock(s.mu);
    std::uint64_t base = 0;
    for (std::size_t l = 0; l < num_lanes; ++l) {
      Shared::Lane& lane = s.lanes[l];
      lane.base = base;
      lane.count = lanes[l].jobs;
      // Auto-size: ~8 claims per thread keeps skewed runtimes balanced;
      // the 64 cap bounds the tail (last chunk) of very large lanes.
      lane.chunk = lanes[l].chunk
                       ? lanes[l].chunk
                       : std::clamp<std::uint64_t>(
                             lanes[l].jobs / (8ULL * num_threads()), 1, 64);
      lane.next.store(0, std::memory_order_relaxed);
      base += lanes[l].jobs;
    }
    s.num_lanes = num_lanes;
    // Claim slots pack flat indices into u32 halves; a (pathological)
    // batch beyond 2^32 jobs falls back to plain chunk claiming.
    s.steal = base <= 0xffffffffULL;
    for (std::size_t i = 0; i < s.num_slots; ++i)
      s.slots[i].range.store(0, std::memory_order_relaxed);
    s.fn = &flat;
    s.generation.fetch_add(1, std::memory_order_release);
  }
  s.work_ready.notify_all();
  Shared::drain(s, flat, s.num_slots - 1);  // the caller is a worker too
  // Completion: spin briefly (per-round dispatches finish in well under
  // the spin budget), then block on the condvar.
  int spins = 0;
  while (s.active.load(std::memory_order_acquire) != 0) {
    if (++spins > kSpinLimit) break;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(s.mu);
  // acquire: the last worker decrements `active` outside the mutex, so a
  // spurious wakeup observing 0 through this load must still establish
  // the happens-before edge to that worker's job writes.
  s.batch_done.wait(lock, [&] {
    return s.active.load(std::memory_order_acquire) == 0;
  });
  s.fn = nullptr;
  s.dispatching.store(false, std::memory_order_release);
}

}  // namespace rr::sim
