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
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/mmap_substrate.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
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
  // sequential engine, which collects inline and encodes without a pool
  // (`rr_cli run --shards 1`). Both rows run in one interleaved loop, and
  // each save follows a round of its engine, as a periodic save does
  // (the pool's workers are still awake from the round).
  {
    const auto desc = rr::graph::GraphDescriptor::torus(512, 512);
    auto csr = desc.build_csr();
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
      rr::sim::ThreadPool* pool;
      std::vector<double> ser_ms, enc_ms, write_ms, save_ms;
      std::string doc;
    };
    Row rows[] = {{&sharded, &pool, {}, {}, {}, {}, {}},
                  {sequential.get(), nullptr, {}, {}, {}, {}, {}}};
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
            pool.num_threads(), row.pool);
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
      t.add_row({row.pool ? "4" : "1", Table::integer(n),
                 Table::integer(agents.size()),
                 Table::integer(row.doc.size()),
                 Table::num(median(row.ser_ms), 2),
                 Table::num(median(row.enc_ms), 2),
                 Table::num(median(row.write_ms), 2),
                 Table::num(median(row.save_ms), 2)});
    }
    t.print();
    std::printf("\nperiodic save: median of %d interleaved repetitions; "
                "4 shards on a %u-thread pool, 1 shard inline\n",
                kSaveReps, pool.num_threads());
    json.add("CkptIO/periodic/save_nodes_per_s",
             static_cast<double>(n) / (1e-3 * median(rows[0].save_ms)));
    json.add("CkptIO/periodic/sequential_save_nodes_per_s",
             static_cast<double>(n) / (1e-3 * median(rows[1].save_ms)));
  }
  return 0;
}
