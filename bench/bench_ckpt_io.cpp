// Sustained checkpoint I/O and out-of-core stepping (rr-ckpt v2 +
// rr-graph images).
//
// Three measurements back the out-of-core scale work:
//
//   1. Checkpoint codec throughput across 2^20..2^24-node rings: save
//      (serialize + encode) and load (parse + deserialize into a live
//      engine) in nodes/s, plus bytes/node.
//   2. The paper-scale density point: 256^2 torus, k = 64 — v2 must
//      stay at <= 6 bytes/node.
//   3. Out-of-core stepping: a ~1e8-node ring image (8.8 GB on disk at
//      scale 1) stepped through the mmap substrate, reporting rounds/s
//      and the process peak RSS (VmHWM) against the image size — the
//      run must not fault the whole image into memory.
//   4. Frame-parallel v2 load on a pool versus the sequential load.
//   5. The periodic save of a long sharded run (rrbench's torus-explore
//      shape: 512^2 torus, 2^16 agents, 4 shards on a 4-thread pool,
//      after 600 rounds), split into its layers — serialize, encode,
//      atomic write with fsync — as medians of interleaved repetitions,
//      next to the same state saved by the 1-shard engine.
//   6. Sustained periodic saves: the same state steps for a fixed wall
//      time with checkpoint_file_sink armed, reporting each fire's
//      caller-side pause and whether the background writer kept up.
//   7. Construction on the same shape, layer by layer: the graph build, the
//      partition, the engine constructor, the registry create and the
//      resume's parse + restore, each on a 1-thread pool (every job on
//      the caller) against a 4-thread pool, interleaved, with how many
//      threads ran the pooled jobs.
//
// Engines here are built over rr-graph images rather than in-RAM
// Graphs, so instance construction is O(agents) and the bench itself
// stays out-of-core honest. Samples publish through
// sim::BenchJsonWriter (RR_BENCH_JSON) for tools/bench_diff.py:
// *_per_s keys are higher-is-better, bytes_per_node lower-is-better.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#include <time.h>
#endif

#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/mmap_substrate.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"

namespace {

using rr::analysis::Table;
using rr::core::RotorRouter;
using rr::graph::MappedSubstrate;
using rr::graph::NodeId;

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

std::string tmp_dir() {
  if (const char* env = std::getenv("TMPDIR")) return env;
  return "/tmp";
}

// Peak resident set size of this process (bytes); 0 where unavailable.
// Linux-only (VmHWM in /proc/self/status) — the out-of-core RSS check
// degrades to informational elsewhere.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

std::vector<NodeId> spread_agents(std::uint64_t n, std::uint32_t k) {
  std::vector<NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<NodeId>(i * n / k);
  }
  return agents;
}

struct IoSample {
  double save_s = 0;
  double load_s = 0;
  std::size_t bytes = 0;
};

// One save + load measurement of `engine` (which must be a RotorRouter
// over an image at `image_path`). Load goes through
// parse_checkpoint and deserialize_state on an engine over a *fresh
// open* of the image — the exact resume path minus the disk: engines
// sharing one open share the COW mapping, so resuming always starts
// from its own pristine mapping (which is also what lets the restore
// skip pages that match the image).
IoSample measure_io(const std::string& image_path,
                    const std::shared_ptr<MappedSubstrate>& substrate,
                    const rr::sim::Engine& engine) {
  IoSample s;
  substrate->advise_sequential();
  auto t0 = std::chrono::steady_clock::now();
  const std::string text =
      rr::sim::write_checkpoint(engine, substrate->descriptor());
  s.save_s = now_minus(t0);
  s.bytes = text.size();

  auto resume = MappedSubstrate::open(image_path);
  RR_REQUIRE(resume != nullptr, "bench image failed to re-open");
  RotorRouter sink(resume, {0});
  t0 = std::chrono::steady_clock::now();
  const auto parsed = rr::sim::parse_checkpoint(text);
  const bool ok = parsed && sink.deserialize_state(parsed->state);
  s.load_s = now_minus(t0);
  RR_REQUIRE(ok, "bench checkpoint failed to round-trip");
  RR_REQUIRE(sink.config_hash() == engine.config_hash(),
             "bench round-trip changed the configuration");
  return s;
}

/// CPU seconds each thread of this process has used so far, by thread
/// id: the kernel's per-thread CPU clock of every /proc/self/task entry
/// (the clock id pthread_getcpuclockid would return for it). Empty
/// where unavailable; section 7 then prints no thread counts.
std::vector<std::pair<long, double>> thread_cpu_s() {
  std::vector<std::pair<long, double>> out;
#if defined(__linux__)
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid <= 0) continue;
    const auto clock = static_cast<clockid_t>(
        (~static_cast<std::uint32_t>(tid) << 3) | 6u);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {
      out.emplace_back(tid, static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec);
    }
  }
  closedir(dir);
#endif
  return out;
}

/// Threads whose CPU time grew by at least `min_s` between two
/// thread_cpu_s() snapshots, and the total growth.
std::pair<int, double> busy_threads(
    const std::vector<std::pair<long, double>>& before,
    const std::vector<std::pair<long, double>>& after, double min_s) {
  int busy = 0;
  double total = 0;
  for (const auto& [tid, cpu] : after) {
    double start = 0;  // a thread started in between counts from zero
    for (const auto& [t0, c0] : before) {
      if (t0 == tid) start = c0;
    }
    total += cpu - start;
    busy += cpu - start >= min_s;
  }
  return {busy, total};
}

/// One layer of section 7: wall time and, for the pooled side, the
/// threads that ran its jobs, per repetition.
struct LedgerRow {
  const char* layer;
  std::vector<double> inline_ms, pooled_ms, threads, cpu_per_wall;
};

/// One sustained-save run (section 6).
struct Sustained {
  std::uint64_t fires = 0;
  std::uint64_t waits = 0;  // fires that found the previous write running
  double p50_ms = 0, p99_ms = 0;
  double rounds_per_s = 0;
};

/// Steps `engine` for `seconds` of wall time with a periodic save every
/// `every` rounds to `path`, timing each fire on the stepping thread.
/// `behind` saves through checkpoint_file_sink (write-behind); otherwise
/// the fire encodes and writes inline, fsync included.
Sustained sustained_saves(rr::sim::Engine& engine, const std::string& path,
                          const std::string& descriptor,
                          rr::sim::ThreadPool* pool, std::uint64_t every,
                          double seconds, bool behind) {
  auto stats = std::make_shared<rr::sim::CheckpointSinkStats>();
  std::function<void(const rr::sim::Engine&)> save;
  if (behind) {
    save = rr::sim::checkpoint_file_sink(path, descriptor,
                                         rr::sim::CkptFormat::kV2, pool, stats);
  } else {
    save = [&](const rr::sim::Engine& e) {
      const bool ok = rr::sim::save_checkpoint_file_atomic(
          path, rr::sim::write_checkpoint(e, descriptor,
                                          rr::sim::CkptFormat::kV2, 0, pool));
      if (ok) ++stats->saves;
    };
  }
  std::vector<double> pause_ms;
  engine.set_auto_checkpoint(
      every, [&pause_ms, save = std::move(save)](const rr::sim::Engine& e) {
        const auto t0 = std::chrono::steady_clock::now();
        save(e);
        pause_ms.push_back(1e3 * now_minus(t0));
      });
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rounds = 0;
  while (now_minus(t0) < seconds) {
    engine.run(every);
    rounds += every;
  }
  engine.set_auto_checkpoint(0, {});  // joins the last write
  const double wall = now_minus(t0);
  std::remove(path.c_str());
  RR_REQUIRE(stats->saves == pause_ms.size(), "sustained saves failed");
  std::sort(pause_ms.begin(), pause_ms.end());
  Sustained out;
  out.fires = pause_ms.size();
  out.waits = stats->waits;
  out.p50_ms = pause_ms[pause_ms.size() / 2];
  out.p99_ms = pause_ms[std::min(pause_ms.size() - 1,
                                 (pause_ms.size() * 99 + 99) / 100 - 1)];
  out.rounds_per_s = static_cast<double>(rounds) / wall;
  return out;
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Checkpoint codec throughput (rr-ckpt v2) and out-of-core stepping",
      "observation layer; Sec. 1.3 state (pointers, counts, n_v/e_v)");
  rr::sim::BenchJsonWriter json;
  const std::string dir = tmp_dir();
  constexpr std::uint32_t kAgents = 64;
  constexpr int kReps = 3;

  // --- 1. v2 save/load across sizes. ---
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t base : {1ull << 20, 1ull << 22, 1ull << 24}) {
    const std::uint64_t n = rr::sim::scaled_pow2(base);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  {
    Table t({"n", "save s", "load s", "MB", "bytes/node",
             "save+load Mnodes/s"});
    for (const std::uint64_t n : sizes) {
      const std::string image = dir + "/bench_ckpt_io_ring.rrg";
      std::string error;
      RR_REQUIRE(MappedSubstrate::build("ring " + std::to_string(n), image,
                                        &error),
                 "bench image build failed");
      auto substrate = MappedSubstrate::open(image);
      RR_REQUIRE(substrate != nullptr, "bench image failed validation");
      RotorRouter engine(substrate, spread_agents(n, kAgents));
      substrate->advise_random();
      engine.run(rr::sim::scaled(1000));

      const std::string tag = "CkptIO/v2/ring_n" + std::to_string(n);
      double best_rate = 0;
      IoSample last;
      for (int rep = 0; rep < kReps; ++rep) {
        const IoSample s = measure_io(image, substrate, engine);
        const double rate = static_cast<double>(n) / (s.save_s + s.load_s);
        best_rate = std::max(best_rate, rate);
        last = s;
        json.add(tag + "/save_nodes_per_s", static_cast<double>(n) / s.save_s);
        json.add(tag + "/load_nodes_per_s", static_cast<double>(n) / s.load_s);
        json.add_metric(tag, "bytes_per_node",
                        static_cast<double>(s.bytes) / n);
      }
      t.add_row({Table::integer(n), Table::num(last.save_s, 3),
                 Table::num(last.load_s, 3),
                 Table::num(static_cast<double>(last.bytes) / (1u << 20), 1),
                 Table::num(static_cast<double>(last.bytes) / n, 2),
                 Table::num(best_rate / 1e6, 1)});
      std::remove(image.c_str());
    }
    t.print();
    std::printf("\n");
  }

  // --- 2. Density at the paper-scale torus point. ---
  {
    const std::string image = dir + "/bench_ckpt_io_torus.rrg";
    std::string error;
    RR_REQUIRE(MappedSubstrate::build("torus 256 256", image, &error),
               "torus image build failed");
    auto substrate = MappedSubstrate::open(image);
    RR_REQUIRE(substrate != nullptr, "torus image failed validation");
    const std::uint64_t n = substrate->num_nodes();
    RotorRouter engine(substrate, spread_agents(n, kAgents));
    engine.run(rr::sim::scaled(20000));
    Table t({"bytes", "bytes/node"});
    const std::string text =
        rr::sim::write_checkpoint(engine, substrate->descriptor());
    const double v2_density = static_cast<double>(text.size()) / n;
    json.add_metric("CkptIO/v2/torus256_k64", "bytes_per_node", v2_density);
    t.add_row({Table::integer(text.size()), Table::num(v2_density, 2)});
    t.print();
    std::printf("\nv2 density on torus 256^2, k=64: %.2f bytes/node"
                " (acceptance: <= 6) %s\n\n",
                v2_density, v2_density <= 6.0 ? "PASS" : "WARN");
    std::remove(image.c_str());
  }

  // --- 3. Out-of-core stepping through the mmap substrate. ---
  {
    const std::uint64_t n = rr::sim::scaled(100000000, 1u << 16);
    const std::string image = dir + "/bench_ckpt_io_ooc.rrg";
    std::string error;
    auto t0 = std::chrono::steady_clock::now();
    RR_REQUIRE(MappedSubstrate::build("ring " + std::to_string(n), image,
                                      &error),
               "out-of-core image build failed");
    const double build_s = now_minus(t0);
    auto substrate = MappedSubstrate::open(image);
    RR_REQUIRE(substrate != nullptr, "out-of-core image failed validation");
    const double image_gb =
        static_cast<double>(substrate->image_bytes()) / (1u << 30);

    t0 = std::chrono::steady_clock::now();
    RotorRouter engine(substrate, spread_agents(n, kAgents));
    substrate->advise_random();
    const double construct_s = now_minus(t0);

    const std::uint64_t rounds = rr::sim::scaled(20000);
    t0 = std::chrono::steady_clock::now();
    engine.run(rounds);
    const double step_s = now_minus(t0);
    const double rounds_per_s = static_cast<double>(rounds) / step_s;
    const std::uint64_t rss = peak_rss_bytes();

    Table t({"n", "image GB", "build s", "construct s", "rounds",
             "rounds/s", "peak RSS GB"});
    t.add_row({Table::integer(n), Table::num(image_gb, 2),
               Table::num(build_s, 1), Table::num(construct_s, 3),
               Table::integer(rounds), Table::sci(rounds_per_s),
               rss ? Table::num(static_cast<double>(rss) / (1u << 30), 2)
                   : "-"});
    t.print();
    json.add("CkptIO/ooc/rounds_per_s", rounds_per_s);
    if (rss > 0) {
      json.add_metric("CkptIO/ooc/peak_rss", "rss_bytes",
                      static_cast<double>(rss));
      std::printf("\npeak RSS %.2f GB vs %.2f GB image (acceptance: RSS"
                  " well below a resident image) %s\n",
                  static_cast<double>(rss) / (1u << 30), image_gb,
                  static_cast<double>(rss) < 0.5 * substrate->image_bytes()
                      ? "PASS"
                      : "WARN");
    }
    std::remove(image.c_str());
  }

  // --- 4. Frame-parallel v2 load on a shared pool. ---
  //
  // v2 per-node frames are independently decodable (delta baselines
  // restart per segment), so parse_checkpoint + deserialize_state can
  // fan frame decode and per-segment state application across a
  // ThreadPool. The result must be bit-identical to the sequential
  // load; the speedup assertion only arms on multi-core hosts (a
  // 1-core pool runs the same code inline).
  {
    const std::uint64_t n = rr::sim::scaled_pow2(1ull << 22);
    const std::string image = dir + "/bench_ckpt_io_parload.rrg";
    std::string error;
    RR_REQUIRE(MappedSubstrate::build("ring " + std::to_string(n), image,
                                      &error),
               "parallel-load image build failed");
    auto substrate = MappedSubstrate::open(image);
    RR_REQUIRE(substrate != nullptr, "parallel-load image failed validation");
    RotorRouter engine(substrate, spread_agents(n, kAgents));
    substrate->advise_random();
    engine.run(rr::sim::scaled(1000));
    const std::string text = rr::sim::write_checkpoint(
        engine, substrate->descriptor());

    rr::sim::ThreadPool pool;  // hardware width
    double seq_s = 1e300, par_s = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const bool parallel : {false, true}) {
        rr::sim::ThreadPool* p = parallel ? &pool : nullptr;
        auto resume = MappedSubstrate::open(image);
        RR_REQUIRE(resume != nullptr, "parallel-load image re-open failed");
        RotorRouter sink(resume, {0});
        const auto t0 = std::chrono::steady_clock::now();
        const auto parsed = rr::sim::parse_checkpoint(text, p);
        const bool ok = parsed && sink.deserialize_state(parsed->state, p);
        const double dt = now_minus(t0);
        RR_REQUIRE(ok, "parallel load failed to round-trip");
        RR_REQUIRE(sink.config_hash() == engine.config_hash(),
                   "parallel load changed the configuration");
        (parallel ? par_s : seq_s) =
            std::min(parallel ? par_s : seq_s, dt);
      }
    }
    Table t({"n", "threads", "seq load s", "pool load s", "speedup"});
    const double speedup = seq_s / par_s;
    t.add_row({Table::integer(n), Table::integer(pool.num_threads()),
               Table::num(seq_s, 3), Table::num(par_s, 3),
               Table::num(speedup, 2)});
    t.print();
    json.add("CkptIO/v2/parallel_load_nodes_per_s",
             static_cast<double>(n) / par_s);
    json.add("CkptIO/v2/sequential_load_nodes_per_s",
             static_cast<double>(n) / seq_s);
    if (pool.num_threads() >= 2) {
      std::printf("\npool load speedup at n=%llu: %.2fx (acceptance: >= 1.2x"
                  " with >= 2 threads) %s\n",
                  static_cast<unsigned long long>(n), speedup,
                  speedup >= 1.2 ? "PASS" : "WARN");
    } else {
      std::printf("\npool load speedup: SKIP (1 thread — pool runs inline;"
                  " bit-equality still asserted)\n");
    }
    std::remove(image.c_str());
  }

  // --- 5. Periodic save of a long sharded run, layer by layer. ---
  //
  // What one `rr_cli run --shards --checkpoint-every` save costs on the
  // torus-explore shape. The layers run in sequence once per repetition,
  // so host noise spreads over all three, and each reports its median.
  // The 4-shard row collects agent sites shard-parallel and encodes on
  // the pool; the 1-shard row is the same state restored into the
  // sequential engine, which collects inline and encodes on the same
  // pool (`rr_cli run --shards 1 --checkpoint-every`, whose saves get a
  // pool of their own). Both rows run in one interleaved loop, and each
  // save follows a round of its engine, as a periodic save does.
  {
    const auto desc = rr::graph::GraphDescriptor::torus(512, 512);
    auto csr = desc.build();
    RR_REQUIRE(csr.has_value(), "periodic-save torus build failed");
    const std::uint64_t n = csr->num_nodes();
    rr::Rng rng(0x5A7E);
    std::vector<NodeId> agents(1u << 16);
    for (NodeId& a : agents) a = rng.bounded(static_cast<std::uint32_t>(n));
    rr::sim::ThreadPool pool(4);
    RotorRouter sharded(std::move(*csr), agents, {}, /*shards=*/4, &pool);
    sharded.run(600);
    const std::string descriptor = desc.text();
    const auto sequential = rr::sim::restore_checkpoint(
        rr::sim::write_checkpoint(sharded, descriptor));
    RR_REQUIRE(sequential != nullptr, "periodic-save restore failed");
    const std::string path = dir + "/bench_ckpt_io_periodic.ckpt";

    struct Row {
      rr::sim::Engine* engine;
      const char* shards;
      std::vector<double> ser_ms, enc_ms, write_ms, save_ms;
      std::string doc;
    };
    Row rows[] = {{&sharded, "4", {}, {}, {}, {}, {}},
                  {sequential.get(), "1", {}, {}, {}, {}, {}}};
    constexpr int kSaveReps = 15;
    for (int rep = 0; rep < kSaveReps; ++rep) {
      for (Row& row : rows) {
        row.engine->step();
        auto t0 = std::chrono::steady_clock::now();
        rr::sim::StateWriter state;
        dynamic_cast<const rr::sim::StateIO&>(*row.engine)
            .serialize_state(state);
        const double ser = now_minus(t0);
        t0 = std::chrono::steady_clock::now();
        row.doc = rr::sim::encode_checkpoint_v2(
            row.engine->engine_name(), descriptor, state, n,
            pool.num_threads(), &pool);
        const double enc = now_minus(t0);
        t0 = std::chrono::steady_clock::now();
        RR_REQUIRE(rr::sim::save_checkpoint_file_atomic(path, row.doc),
                   "periodic-save atomic write failed");
        const double wr = now_minus(t0);
        row.ser_ms.push_back(1e3 * ser);
        row.enc_ms.push_back(1e3 * enc);
        row.write_ms.push_back(1e3 * wr);
        row.save_ms.push_back(1e3 * (ser + enc + wr));
      }
    }
    std::remove(path.c_str());
    RR_REQUIRE(rows[0].doc == rows[1].doc,
               "1-shard and 4-shard saves must be byte-identical");
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    Table t({"shards", "n", "agents", "bytes", "serialize ms", "encode ms",
             "write+fsync ms", "save ms"});
    for (const Row& row : rows) {
      t.add_row({row.shards, Table::integer(n),
                 Table::integer(agents.size()),
                 Table::integer(row.doc.size()),
                 Table::num(median(row.ser_ms), 2),
                 Table::num(median(row.enc_ms), 2),
                 Table::num(median(row.write_ms), 2),
                 Table::num(median(row.save_ms), 2)});
    }
    t.print();
    std::printf("\nperiodic save: median of %d interleaved repetitions; "
                "both rows encode on one %u-thread pool\n",
                kSaveReps, pool.num_threads());
    json.add("CkptIO/periodic/save_nodes_per_s",
             static_cast<double>(n) / (1e-3 * median(rows[0].save_ms)));
    json.add("CkptIO/periodic/sequential_save_nodes_per_s",
             static_cast<double>(n) / (1e-3 * median(rows[1].save_ms)));

    // --- 6. Sustained periodic saves while the engine steps. ---
    //
    // A sustained I/O run in the usual sense, one save size and a fixed
    // duration: the 4-shard engine above steps for kSustainSeconds with
    // a save every `every` rounds. The pause is what a fire costs the
    // stepping loop. Write-behind pays serialize + encode there and
    // hands the write to the background thread; `waited` counts fires
    // that found the previous write still running, i.e. the writer not
    // keeping up. The inline rows write on the stepping thread, fsync
    // included. Every 50 rounds is torus-explore's schedule; every 2
    // rounds keeps a write in flight almost all the time. Not scaled.
    constexpr double kSustainSeconds = 2.0;
    Table st({"every", "save", "fires", "pause p50 ms", "pause p99 ms",
              "waited", "rounds/s"});
    for (const std::uint64_t every : {50, 2}) {
      for (const bool behind : {true, false}) {
        const Sustained r = sustained_saves(sharded, path, descriptor, &pool,
                                            every, kSustainSeconds, behind);
        st.add_row({Table::integer(every), behind ? "behind" : "inline",
                    Table::integer(r.fires), Table::num(r.p50_ms, 2),
                    Table::num(r.p99_ms, 2),
                    behind ? Table::integer(r.waits) : "-",
                    Table::num(r.rounds_per_s, 0)});
        if (behind) {
          const std::string tag =
              "CkptIO/sustained/every" + std::to_string(every);
          json.add_metric(tag, "p99_seconds", 1e-3 * r.p99_ms);
          json.add(tag + "/rounds_per_s", r.rounds_per_s);
        }
      }
    }
    std::printf("\n");
    st.print();
    std::printf("\nsustained saves: %.0f s per row on the 4-shard engine; "
                "waited = fires that joined a write still running\n",
                kSustainSeconds);

    // --- 7. Construction, layer by layer. ---
    //
    // What torus-explore's registry create and resume cost before the
    // first round, on the pool they are given. The inline side passes a
    // 1-thread pool, so every per-range job runs on the caller, as a
    // graph under sim::kPoolMinNodes does; the pooled side passes a
    // 4-thread pool. Each layer runs after a 2 ms idle gap, so the
    // workers are parked when it starts, as they are before a create or
    // a resume. `threads` counts the threads (caller included) that used
    // at least 0.5 ms of CPU during the layer; a worker that wakes and
    // finds every job claimed spins for about 0.1 ms and parks again.
    // cpu/wall is the CPU time of all threads over the layer's wall time.
    // Not scaled.
    const std::string doc = rr::sim::write_checkpoint(
        sharded, descriptor, rr::sim::CkptFormat::kV2, 0, &pool);
    rr::sim::ThreadPool one(1);
    LedgerRow ledger[] = {{"GraphDescriptor::build", {}, {}, {}, {}},
                          {"Partition (4 shards)", {}, {}, {}, {}},
                          {"RotorRouter ctor (4 shards)", {}, {}, {}, {}},
                          {"EngineRegistry::create", {}, {}, {}, {}},
                          {"parse + restore", {}, {}, {}, {}}};
    constexpr int kLedgerReps = 11;
    for (int rep = 0; rep < kLedgerReps; ++rep) {
      std::uint64_t hashes[2] = {0, 0};
      for (int side = 0; side < 2; ++side) {
        rr::sim::ThreadPool* p = side == 0 ? &one : &pool;
        std::size_t layer = 0;
        // Times fn after the idle gap and files it under the next layer.
        const auto timed = [&](const auto& fn) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          const auto cpu0 = thread_cpu_s();
          const auto t0 = std::chrono::steady_clock::now();
          fn();
          const double wall = now_minus(t0);
          LedgerRow& row = ledger[layer++];
          (side == 0 ? row.inline_ms : row.pooled_ms).push_back(1e3 * wall);
          if (side == 1 && !cpu0.empty()) {
            const auto [busy, cpu] = busy_threads(cpu0, thread_cpu_s(), 5e-4);
            row.threads.push_back(busy);
            row.cpu_per_wall.push_back(cpu / wall);
          }
        };
        std::optional<rr::graph::CsrGraph> built;
        timed([&] { built = desc.build(p); });
        RR_REQUIRE(built.has_value(), "ledger build failed");
        timed([&] { rr::graph::Partition part(*built, 4, p); });
        rr::graph::CsrGraph copy = *built;
        timed([&] { RotorRouter e(std::move(copy), agents, {}, 4, p); });
        rr::sim::EngineConfig config;
        config.agents = agents;
        config.shards = 4;
        config.pool = p;
        std::unique_ptr<rr::sim::Engine> created;
        timed([&] {
          created = rr::sim::EngineRegistry::instance().create(
              "rotor", desc, config, nullptr);
        });
        RR_REQUIRE(created != nullptr, "ledger create failed");
        created.reset();
        std::unique_ptr<rr::sim::Engine> restored;
        timed([&] {
          const auto parsed = rr::sim::parse_checkpoint(doc, p);
          if (parsed) {
            restored = rr::sim::restore_checkpoint_sharded(*parsed, 4, p);
          }
        });
        RR_REQUIRE(restored != nullptr &&
                       restored->config_hash() == sharded.config_hash(),
                   "ledger restore must reproduce the saved configuration");
        hashes[side] = restored->config_hash();
      }
      RR_REQUIRE(hashes[0] == hashes[1],
                 "inline and pooled restores must agree");
    }
    Table lt({"layer", "inline ms", "pooled ms", "speedup", "threads",
              "cpu/wall"});
    for (const LedgerRow& row : ledger) {
      const double in = median(row.inline_ms);
      const double po = median(row.pooled_ms);
      lt.add_row({row.layer, Table::num(in, 2), Table::num(po, 2),
                  Table::num(in / po, 2),
                  row.threads.empty() ? "-" : Table::num(median(row.threads), 0),
                  row.cpu_per_wall.empty() ? "-"
                                           : Table::num(median(row.cpu_per_wall), 2)});
    }
    std::printf("\n");
    lt.print();
    std::printf("\nconstruction: median of %d interleaved repetitions; "
                "inline = 1-thread pool, pooled = %u-thread pool, each "
                "layer after a 2 ms idle gap\n",
                kLedgerReps, pool.num_threads());
    json.add("CkptIO/construct/create_nodes_per_s",
             static_cast<double>(n) / (1e-3 * median(ledger[3].pooled_ms)));
    json.add("CkptIO/construct/resume_nodes_per_s",
             static_cast<double>(n) / (1e-3 * median(ledger[4].pooled_ms)));
  }
  return 0;
}
