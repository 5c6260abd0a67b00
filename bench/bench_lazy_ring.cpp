// E-LAZY (Sec. 2.2): throughput of the lazy domain-dynamics ring engine
// vs the dense ring engine in the post-transient regime.
//
// Once domains are established, the whole configuration is O(k) structure
// and the lazy engine advances run() by ballistic leaps between interaction
// events; the dense engine still pays O(k) array work *per round*. This
// driver measures rounds/s for both on a million-node ring, checks the
// engines agree on the final config_hash (the lazy engine is exact, not
// approximate), and prints the speed-up. Acceptance gate: >= 5x at
// n = 2^20, k <= 64 post-transient.
//
// The second table measures both sides of the promotion rule
// (LazyRingRotorRouter::leaps_pay) on crowded post-cover rings, with random
// placement and pointers and with equally spaced agents on default
// pointers: the lazy engine as the rule leaves it, and a twin forced onto
// the sparse representation. Where the forced twin loses to
// the dense engine, leaps are too short to pay and the rule must keep the
// engine dense; kWideLeapFactor (random rows) and kSpreadGap (spaced rows)
// are set from these rows.

#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/runner.hpp"

namespace {

using rr::core::LazyRingRotorRouter;
using rr::core::NodeId;
using rr::core::RingRotorRouter;

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Lazy O(k)-per-round ring engine vs dense ring engine",
      "Sec. 2.2 domain dynamics (Definition 1, Fig. 1)");

  const auto n = static_cast<NodeId>(rr::sim::scaled_pow2(1 << 20));
  const std::uint64_t transient = 4ULL * n;
  const std::uint64_t measured = rr::sim::scaled(1ULL << 22);

  rr::analysis::Table t({"k", "engine", "rounds/s", "speed-up", "hash match"});
  for (std::uint32_t k : {1u, 8u, 64u}) {
    const auto agents = rr::core::place_equally_spaced(n, k);
    RingRotorRouter dense(n, agents);
    LazyRingRotorRouter lazy(n, agents);

    // Burn through the transient so the measurement is the post-transient
    // regime (the lazy engine promotes itself along the way).
    dense.run(transient);
    lazy.run(transient);

    const double dense_s = seconds_of([&] { dense.run(measured); });
    const double lazy_s = seconds_of([&] { lazy.run(measured); });
    const bool match = dense.config_hash() == lazy.config_hash() &&
                       dense.time() == lazy.time();

    const double dense_rps = static_cast<double>(measured) / dense_s;
    const double lazy_rps = static_cast<double>(measured) / lazy_s;
    t.add_row({rr::analysis::Table::integer(k), "ring-rotor-router",
               rr::analysis::Table::num(dense_rps, 0), "1.0",
               match ? "yes" : "NO"});
    t.add_row({rr::analysis::Table::integer(k), "lazy-ring-rotor-router",
               rr::analysis::Table::num(lazy_rps, 0),
               rr::analysis::Table::num(lazy_rps / dense_rps, 1),
               match ? "yes" : "NO"});
  }
  t.print();
  std::printf(
      "\nBoth engines advance the same %llu rounds from the same"
      " post-transient state (n = %u); `hash match` certifies bit-equal"
      " final configurations. The lazy engine's advantage is leap length:"
      " between interaction events it advances every agent through half the"
      " minimum inter-agent gap in O(k log k) work.\n\n",
      static_cast<unsigned long long>(measured), n);

  struct Crowd {
    NodeId n;
    std::uint32_t k;
    bool spaced;  // equally spaced on default pointers, else random
  };
  const std::uint64_t post = rr::sim::scaled(1ULL << 18);
  rr::analysis::Table c({"n", "k", "n/k^2", "start", "engine", "promoted",
                         "rounds/s", "vs dense", "hash match"});
  for (const Crowd& crowd :
       {Crowd{1024, 32, false}, Crowd{4096, 32, false}, Crowd{4096, 16, false},
        Crowd{4096, 8, false}, Crowd{1024, 32, true}, Crowd{2048, 32, true},
        Crowd{4096, 32, true}}) {
    rr::Rng rng(0x1A2CULL + crowd.n + crowd.k);
    const auto agents =
        crowd.spaced ? rr::core::place_equally_spaced(crowd.n, crowd.k)
                     : rr::core::place_random(crowd.n, crowd.k, rng);
    const auto ptrs = crowd.spaced ? std::vector<std::uint8_t>{}
                                   : rr::core::pointers_random(crowd.n, rng);
    RingRotorRouter dense(crowd.n, agents, ptrs);
    LazyRingRotorRouter lazy(crowd.n, agents, ptrs);
    LazyRingRotorRouter forced(crowd.n, agents, ptrs);
    const std::uint64_t cover = dense.run_until_covered(~0ULL >> 1);
    lazy.run(cover);
    forced.run(cover);
    forced.try_promote(/*force=*/true);

    const double dense_rps =
        static_cast<double>(post) / seconds_of([&] { dense.run(post); });
    const auto add = [&](const char* name, const LazyRingRotorRouter& e,
                         double rps) {
      const bool match = dense.config_hash() == e.config_hash() &&
                         dense.time() == e.time();
      c.add_row({rr::analysis::Table::integer(crowd.n),
                 rr::analysis::Table::integer(crowd.k),
                 rr::analysis::Table::integer(crowd.n / (crowd.k * crowd.k)),
                 crowd.spaced ? "spaced" : "random", name, e.lazy() ? "yes" : "no",
                 rr::analysis::Table::num(rps, 0),
                 rr::analysis::Table::num(rps / dense_rps, 2),
                 match ? "yes" : "NO"});
    };
    const double lazy_rps =
        static_cast<double>(post) / seconds_of([&] { lazy.run(post); });
    const double forced_rps =
        static_cast<double>(post) / seconds_of([&] { forced.run(post); });
    add("lazy (rule)", lazy, lazy_rps);
    add("lazy (forced)", forced, forced_rps);
  }
  c.print();
  std::printf(
      "\nCrowded rings, %llu rounds after cover. `lazy (forced)` is the"
      " sparse representation the rule would promote to; once it beats the"
      " dense engine (vs dense > 1) promotion pays. The rule schedules"
      " promotion checks from n/k^2 >= %llu on, and below that promotes only"
      " a compact start whose agents are at least %llu nodes apart.\n",
      static_cast<unsigned long long>(post),
      static_cast<unsigned long long>(LazyRingRotorRouter::kWideLeapFactor),
      static_cast<unsigned long long>(LazyRingRotorRouter::kSpreadGap));
  return 0;
}
