// rr_cli: command-line driver for one-off rotor-ring experiments.
//
//   rr_cli cover   --n 1024 --k 8 --place one|spaced|random --ptr toward|negative|uniform|random [--seed S]
//   rr_cli return  (same flags)                       measure the limit refresh time
//   rr_cli trace   --n 72 --k 4 --rounds 200 --stride 8 [--domains]   ASCII space-time diagram
//   rr_cli trace   --topo torus --size 12 --k 4 --rounds 200 --stride 20   2-D space-time blocks
//   rr_cli run     --topo torus --size 16 --k 8 --rounds 400 --checkpoint state.ckpt
//   rr_cli run     --resume state.ckpt --rounds 400 [--checkpoint state.ckpt]
//   rr_cli run     --topo torus --size 256 --k 64 --shards 8 --rounds 4000
//   rr_cli run     --graph-image big.rrg --k 64 --rounds 1000   out-of-core stepping
//   rr_cli config  "ring n=12 agents=0,6 pointers=cccccccccccc" [--rounds R]
//   rr_cli lockin  --topo ring|grid|torus|clique|hypercube|tree --size 64
//   rr_cli engines                                     list registered backends
//   rr_cli build-graph --graph "ring 100000000" --out big.rrg   stream an image
//   rr_cli convert old.ckpt new.ckpt --ckpt-format v1|v2        transcode a checkpoint
//
// `run` drives any registered engine (--engine NAME; `rr_cli engines` or
// `--engine help` lists them) on any substrate (--topo/--size sugar or a
// raw --graph "torus 16 16" descriptor) through the engine-generic
// checkpoint layer: --checkpoint serializes the full state after the run,
// --resume restores one and continues bit-exactly. Engines are built
// exclusively through sim::EngineRegistry — this driver knows no backend
// by name. --shards N steps shard-capable engines shard-parallel
// (bit-equal to sequential; also applies when resuming their
// checkpoints), and --checkpoint-every N rewrites --checkpoint atomically
// every N rounds while the run is in flight (crash-tolerant sweeps).
// --ckpt-format picks the checkpoint wire format (v2 binary by default;
// v1 is the interop text form — readers sniff, so either resumes).
//
// Out-of-core: `build-graph` streams a descriptor into an `rr-graph v1`
// image (graph/mmap_substrate.hpp) without materializing the graph, and
// `run --graph-image FILE` steps the rotor-router over the mmap'd image,
// so instances far beyond RAM run from the page cache. --resume works
// with --graph-image when the checkpoint's engine and descriptor match
// the image.
//
// Exit code 0 on success, 2 on usage errors (so scripts can distinguish).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/cover_time.hpp"
#include "core/initializers.hpp"
#include "core/limit_cycle.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "core/snapshot.hpp"
#include "core/trace.hpp"
#include "dist/coordinator.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "graph/mmap_substrate.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/registry.hpp"
#include "sim/trace.hpp"

namespace {

struct Flags {
  rr::core::NodeId n = 1024;
  std::uint32_t k = 8;
  std::string place = "spaced";
  std::string ptr = "negative";
  std::uint64_t seed = 1;
  std::uint64_t rounds = 0;
  std::uint64_t stride = 1;
  bool domains = false;
  std::string topo = "ring";
  rr::graph::NodeId size = 64;
  std::string engine = "rotor";
  std::string graph;       // raw descriptor; overrides --topo/--size
  std::string checkpoint;  // write the engine state here after the run
  std::string resume;      // restore the engine state from here first
  std::uint32_t shards = 1;          // > 1: shard-parallel rotor stepping
  std::uint64_t checkpoint_every = 0;  // auto-checkpoint period (rounds)
  std::string ckpt_format = "v2";  // checkpoint wire format: v1 | v2
  std::string graph_image;  // rr-graph image to step out-of-core (run)
  std::string out;          // output path (build-graph)
  // Steady-state cycle leaping (sim/cycle_jump.hpp): auto wraps
  // deterministic engines, on requires one, off steps densely.
  std::string cycle_jump = "auto";
  // "on": persist a confirmed period as the checkpoint's cycle.hint
  // field and adopt the hint when resuming (confirmation still re-runs,
  // so resumed leaps stay exact). Off by default to keep checkpoint
  // bytes identical to hint-unaware builds.
  std::string cycle_hint = "off";
  // Distributed stepping (--engine dist): worker count, spill batch, how
  // to obtain workers (rr_noded path, "threads", or default sibling
  // binary) and an optional AF_UNIX listen path for external workers.
  std::uint32_t workers = 2;
  std::uint64_t spill_batch = 256;
  std::string noded;
  std::string dist_socket;
};

bool parse_ckpt_format(const std::string& s, rr::sim::CkptFormat& format) {
  if (s == "v1") {
    format = rr::sim::CkptFormat::kV1;
  } else if (s == "v2") {
    format = rr::sim::CkptFormat::kV2;
  } else {
    std::fprintf(stderr, "rr_cli: --ckpt-format must be v1 or v2 (got %s)\n",
                 s.c_str());
    return false;
  }
  return true;
}

// Lists the registered backends straight from the registry, so the help
// text can never drift from what `run` actually accepts.
void print_engine_list(std::FILE* out) {
  std::fprintf(out, "registered engine backends (sim::EngineRegistry):\n");
  for (const auto* spec : rr::sim::EngineRegistry::instance().list()) {
    std::fprintf(out, "  %-9s %-22s substrate: %-20s %s\n",
                 spec->name.c_str(), spec->engine_name.c_str(),
                 spec->substrate.c_str(),
                 spec->supports_shards ? "[--shards]" : "");
    std::fprintf(out, "            %s\n", spec->summary.c_str());
  }
}

std::string engine_names() {
  std::string names;
  for (const auto* spec : rr::sim::EngineRegistry::instance().list()) {
    if (!names.empty()) names += "|";
    names += spec->name;
  }
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: rr_cli <cover|return|trace|run|config|lockin|engines>"
               " [flags]\n"
               "  common flags: --n N --k K --place one|spaced|random"
               " --ptr toward|negative|uniform|random --seed S\n"
               "  trace: --rounds R --stride S --domains"
               " [--topo ... --size N | --graph DESC]\n"
               "  run: --engine %s --rounds R\n"
               "       [--topo ... --size N | --graph DESC |"
               " --graph-image FILE]\n"
               "       --checkpoint FILE --resume FILE\n"
               "       --checkpoint-every N --shards N --ckpt-format v1|v2\n"
               "       --cycle-jump on|off|auto (leap confirmed steady-state"
               " cycles; default auto)\n"
               "       --cycle-hint on|off (persist/adopt confirmed periods"
               " via checkpoint cycle.hint; default off)\n"
               "       --engine dist: --workers N --spill-batch N"
               " [--noded PATH|threads | --dist-socket PATH]\n"
               "  lockin: --topo ring|grid|torus|clique|hypercube|tree"
               " --size N\n"
               "  engines: list registered backends with substrate"
               " requirements (also: --engine help)\n"
               "  build-graph: [--graph DESC | --topo ... --size N]"
               " --out FILE\n"
               "  convert: <in.ckpt> <out.ckpt> [--ckpt-format v1|v2]\n",
               engine_names().c_str());
  return 2;
}

// True if `v` is one of `allowed`; otherwise prints the error naming the
// flag and its values.
bool one_of(const char* flag, const std::string& v,
            std::initializer_list<const char*> allowed) {
  std::string list;
  for (const char* a : allowed) {
    if (v == a) return true;
    list += list.empty() ? a : std::string(", ") + a;
  }
  std::fprintf(stderr, "rr_cli: %s must be one of %s (got %s)\n", flag,
               list.c_str(), v.c_str());
  return false;
}

bool parse_flags(int argc, char** argv, int start, Flags& f) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rr_cli: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--domains") {
      f.domains = true;
    } else if (a == "--n") {
      const char* v = next("--n");
      if (!v || !rr::parse_flag_u32("rr_cli", "--n", v, f.n)) return false;
    } else if (a == "--k") {
      const char* v = next("--k");
      if (!v || !rr::parse_flag_u32("rr_cli", "--k", v, f.k)) return false;
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (!v || !rr::parse_flag_u64("rr_cli", "--seed", v, f.seed)) {
        return false;
      }
    } else if (a == "--rounds") {
      const char* v = next("--rounds");
      if (!v || !rr::parse_flag_u64("rr_cli", "--rounds", v, f.rounds)) {
        return false;
      }
    } else if (a == "--stride") {
      const char* v = next("--stride");
      if (!v || !rr::parse_flag_u64("rr_cli", "--stride", v, f.stride)) {
        return false;
      }
    } else if (a == "--place") {
      const char* v = next("--place");
      if (!v || !one_of("--place", v, {"one", "spaced", "random"})) {
        return false;
      }
      f.place = v;
    } else if (a == "--ptr") {
      const char* v = next("--ptr");
      if (!v || !one_of("--ptr", v,
                        {"toward", "negative", "uniform", "random"})) {
        return false;
      }
      f.ptr = v;
    } else if (a == "--topo") {
      const char* v = next("--topo");
      if (!v) return false;
      f.topo = v;
    } else if (a == "--size") {
      const char* v = next("--size");
      if (!v || !rr::parse_flag_u32("rr_cli", "--size", v, f.size)) {
        return false;
      }
    } else if (a == "--engine") {
      const char* v = next("--engine");
      if (!v) return false;
      f.engine = v;
    } else if (a == "--graph") {
      const char* v = next("--graph");
      if (!v) return false;
      f.graph = v;
    } else if (a == "--checkpoint") {
      const char* v = next("--checkpoint");
      if (!v) return false;
      f.checkpoint = v;
    } else if (a == "--checkpoint-every") {
      const char* v = next("--checkpoint-every");
      if (!v || !rr::parse_flag_u64("rr_cli", "--checkpoint-every", v,
                                    f.checkpoint_every)) {
        return false;
      }
    } else if (a == "--shards") {
      const char* v = next("--shards");
      if (!v || !rr::parse_flag_u32("rr_cli", "--shards", v, f.shards)) {
        return false;
      }
      if (f.shards == 0) f.shards = 1;
    } else if (a == "--resume") {
      const char* v = next("--resume");
      if (!v) return false;
      f.resume = v;
    } else if (a == "--ckpt-format") {
      const char* v = next("--ckpt-format");
      if (!v) return false;
      f.ckpt_format = v;
    } else if (a == "--graph-image") {
      const char* v = next("--graph-image");
      if (!v) return false;
      f.graph_image = v;
    } else if (a == "--out") {
      const char* v = next("--out");
      if (!v) return false;
      f.out = v;
    } else if (a == "--workers") {
      std::uint64_t v64 = 0;
      const char* v = next("--workers");
      if (!v || !rr::parse_flag_u64_range("rr_cli", "--workers", v, 1,
                                          ~std::uint32_t{0}, v64)) {
        return false;
      }
      f.workers = static_cast<std::uint32_t>(v64);
    } else if (a == "--spill-batch") {
      const char* v = next("--spill-batch");
      if (!v || !rr::parse_flag_u64_range("rr_cli", "--spill-batch", v, 1,
                                          1u << 24, f.spill_batch)) {
        return false;
      }
    } else if (a == "--noded") {
      const char* v = next("--noded");
      if (!v) return false;
      f.noded = v;
    } else if (a == "--dist-socket") {
      const char* v = next("--dist-socket");
      if (!v) return false;
      f.dist_socket = v;
    } else if (a == "--cycle-jump") {
      const char* v = next("--cycle-jump");
      if (!v) return false;
      if (!rr::sim::cycle_jump_mode_from_name(v)) {
        std::fprintf(stderr,
                     "rr_cli: --cycle-jump must be one of on, off, auto "
                     "(got %s)\n",
                     v);
        return false;
      }
      f.cycle_jump = v;
    } else if (a == "--cycle-hint") {
      const char* v = next("--cycle-hint");
      if (!v) return false;
      if (std::string(v) != "on" && std::string(v) != "off") {
        std::fprintf(stderr,
                     "rr_cli: --cycle-hint must be on or off (got %s)\n", v);
        return false;
      }
      f.cycle_hint = v;
    } else {
      std::fprintf(stderr, "rr_cli: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

// --place and --ptr were checked against their value lists when parsed.
rr::core::RingConfig build_config(const Flags& f) {
  rr::Rng rng(f.seed);
  rr::core::RingConfig config;
  config.n = f.n;
  if (f.place == "one") {
    config.agents = rr::core::place_all_on_one(f.k, 0);
  } else if (f.place == "spaced") {
    config.agents = rr::core::place_equally_spaced(f.n, f.k);
  } else {
    config.agents = rr::core::place_random(f.n, f.k, rng);
  }
  if (f.ptr == "toward") {
    config.pointers = rr::core::pointers_toward(f.n, config.agents.front());
  } else if (f.ptr == "negative") {
    config.pointers = rr::core::pointers_negative(f.n, config.agents);
  } else if (f.ptr == "uniform") {
    config.pointers = rr::core::pointers_uniform(f.n, rr::core::kClockwise);
  } else {
    config.pointers = rr::core::pointers_random(f.n, rng);
  }
  return config;
}

// Smallest d with 2^d >= size, clamped so the shift never overflows.
std::uint32_t hypercube_dim(rr::graph::NodeId size) {
  std::uint32_t d = 1;
  while (d < 31 && (1u << d) < size) ++d;
  return d;
}

// Descriptor text for the --topo/--size sugar; --graph passes through.
// The one list of --topo values: an unknown one prints an error and
// returns "" (callers exit 2).
std::string topo_descriptor(const Flags& f) {
  using rr::graph::GraphDescriptor;
  if (!f.graph.empty()) return f.graph;
  if (f.topo == "grid") return GraphDescriptor::grid(f.size, f.size).text();
  if (f.topo == "torus") return GraphDescriptor::torus(f.size, f.size).text();
  if (f.topo == "clique") return GraphDescriptor::clique(f.size).text();
  if (f.topo == "hypercube") {
    return GraphDescriptor::hypercube(hypercube_dim(f.size)).text();
  }
  if (f.topo == "tree") return GraphDescriptor::binary_tree(f.size).text();
  if (f.topo == "ring") return GraphDescriptor::ring(f.size).text();
  std::fprintf(stderr,
               "rr_cli: --topo must be one of ring, grid, torus, clique, "
               "hypercube, tree (got %s)\n",
               f.topo.c_str());
  return {};
}

// k agents spread evenly over the node-id range.
std::vector<rr::graph::NodeId> spread_agents(rr::graph::NodeId n,
                                             std::uint32_t k) {
  std::vector<rr::graph::NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<rr::graph::NodeId>(
        static_cast<std::uint64_t>(i) * n / k);
  }
  return agents;
}

// Fills the dist-backend fields of an EngineConfig. For --engine dist
// without --noded/--dist-socket, workers default to a fork/exec'd
// rr_noded sitting next to this binary; --noded threads forces the
// in-process transport instead (same protocol, zero setup).
bool fill_dist_config(const Flags& f, rr::sim::EngineConfig& config) {
  config.dist_workers = f.workers;
  config.dist_spill_batch = f.spill_batch;
  config.dist_socket = f.dist_socket;
  if (f.engine != "dist" || !f.dist_socket.empty()) return true;
  if (f.noded == "threads") return true;
  if (!f.noded.empty()) {
    config.dist_noded = f.noded;
    return true;
  }
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len > 0) {
    buf[len] = '\0';
    std::string path(buf);
    const auto slash = path.rfind('/');
    path.resize(slash == std::string::npos ? 0 : slash + 1);
    path += "rr_noded";
    if (::access(path.c_str(), X_OK) == 0) {
      config.dist_noded = path;
      return true;
    }
  }
  std::fprintf(stderr,
               "rr_cli: cannot find rr_noded next to rr_cli; use "
               "--noded PATH or --noded threads\n");
  return false;
}

std::unique_ptr<rr::sim::Engine> build_engine(
    const Flags& f, const std::string& descriptor,
    rr::sim::ThreadPool* pool = nullptr) {
  const auto& registry = rr::sim::EngineRegistry::instance();
  const auto d = rr::graph::GraphDescriptor::parse(descriptor);
  if (!d) {
    std::fprintf(stderr, "rr_cli: malformed graph descriptor '%s'\n",
                 descriptor.c_str());
    return nullptr;
  }
  const auto n = d->num_nodes();
  if (!n) {
    std::fprintf(stderr, "rr_cli: invalid graph parameters '%s'\n",
                 descriptor.c_str());
    return nullptr;
  }
  const auto* spec = registry.find(f.engine);
  if (spec && f.shards > 1 && !spec->supports_shards) {
    std::fprintf(stderr,
                 "rr_cli: --shards only applies to shard-capable engines; "
                 "stepping %s sequentially\n",
                 spec->name.c_str());
  }
  rr::sim::EngineConfig config;
  config.agents = spread_agents(*n, f.k);
  config.seed = f.seed;
  config.shards = f.shards;
  config.pool = pool;
  if (!fill_dist_config(f, config)) return nullptr;
  std::string error;
  auto engine = registry.create(f.engine, *d, config, &error);
  if (!engine) std::fprintf(stderr, "rr_cli: %s\n", error.c_str());
  return engine;
}

int cmd_engines() {
  print_engine_list(stdout);
  return 0;
}

int cmd_run(const Flags& f) {
  rr::sim::CkptFormat format;
  if (!parse_ckpt_format(f.ckpt_format, format)) return 2;
  // One pool for the whole run, sized like a sharded engine's own: it
  // steps the shards, decodes the resumed document's segments and
  // encodes every save. The saves name their segment count, so a
  // checkpoint's bytes do not depend on the pool's width.
  std::unique_ptr<rr::sim::ThreadPool> pool;
  if (f.shards > 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    pool = std::make_unique<rr::sim::ThreadPool>(
        std::min<unsigned>(f.shards, hw ? hw : 1));
  }

  std::shared_ptr<rr::graph::MappedSubstrate> substrate;
  if (!f.graph_image.empty()) {
    substrate = rr::graph::MappedSubstrate::open(f.graph_image);
    if (!substrate) {
      std::fprintf(stderr, "rr_cli: cannot open graph image %s\n",
                   f.graph_image.c_str());
      return 2;
    }
    if (f.shards > 1) {
      std::fprintf(stderr,
                   "rr_cli: --shards does not apply to --graph-image runs; "
                   "stepping sequentially\n");
    }
  }

  std::unique_ptr<rr::sim::Engine> engine;
  std::string descriptor;
  rr::sim::CycleJumpOptions cj_options;
  cj_options.persist_hint = f.cycle_hint == "on";
  if (!f.resume.empty()) {
    // Streaming parse: peak memory is one frame/field, so resuming an
    // out-of-core-sized checkpoint does not buffer the whole document.
    const auto parsed = rr::sim::parse_checkpoint_file(f.resume);
    if (!parsed) {
      std::fprintf(stderr, "rr_cli: malformed checkpoint %s\n",
                   f.resume.c_str());
      return 2;
    }
    if (cj_options.persist_hint) {
      // Adopt a persisted period: the wrapper skips probing and goes
      // straight to confirmation, which re-proves the cycle before any
      // leap (a stale hint is just a few wasted compare laps).
      if (const auto hint_text = parsed->state.raw("cycle.hint")) {
        if (const auto hint = rr::sim::decode_cycle_hint(*hint_text)) {
          cj_options.hint_period = hint->period;
        }
      }
    }
    if (substrate) {
      if (parsed->engine != std::string("rotor-router")) {
        std::fprintf(stderr,
                     "rr_cli: --graph-image resumes rotor-router checkpoints "
                     "only (checkpoint engine: %s)\n",
                     parsed->engine.c_str());
        return 2;
      }
      if (parsed->graph_descriptor != substrate->descriptor()) {
        std::fprintf(stderr,
                     "rr_cli: checkpoint graph '%s' does not match image "
                     "graph '%s'\n",
                     parsed->graph_descriptor.c_str(),
                     substrate->descriptor().c_str());
        return 2;
      }
      // Construct over the image with a placeholder agent, then restore;
      // deserialize_state rewrites every per-node field.
      auto rotor = std::make_unique<rr::core::RotorRouter>(
          substrate, std::vector<rr::graph::NodeId>{0});
      substrate->advise_sequential();
      if (!rotor->deserialize_state(parsed->state)) {
        std::fprintf(stderr, "rr_cli: checkpoint state does not fit image %s\n",
                     f.graph_image.c_str());
        return 2;
      }
      substrate->advise_random();
      engine = std::move(rotor);
    } else if (f.engine == "dist") {
      // Resume *distributed*: the checkpoint is a plain rotor-router
      // document (the field sets are interchangeable), restored through
      // the dist spec so the workers come up scattered at the saved
      // round — including with a different worker count than the run
      // that wrote it.
      const auto d = rr::graph::GraphDescriptor::parse(parsed->graph_descriptor);
      rr::sim::EngineConfig config;
      if (!d || !fill_dist_config(f, config)) return 2;
      std::string error;
      engine = rr::sim::EngineRegistry::instance().restore(
          "dist", *d, parsed->state, config, &error);
      if (!engine) {
        std::fprintf(stderr, "rr_cli: %s\n", error.c_str());
        return 2;
      }
    } else {
      const auto* spec =
          rr::sim::EngineRegistry::instance().find(parsed->engine);
      if (f.shards > 1 && (!spec || !spec->supports_shards)) {
        std::fprintf(stderr,
                     "rr_cli: --shards only applies to shard-capable "
                     "engines; resuming %s sequentially\n",
                     parsed->engine.c_str());
      }
      engine =
          rr::sim::restore_checkpoint_sharded(*parsed, f.shards, pool.get());
      if (!engine) {
        std::fprintf(stderr, "rr_cli: malformed checkpoint %s\n",
                     f.resume.c_str());
        return 2;
      }
    }
    descriptor = parsed->graph_descriptor;
    std::printf("resumed %s on '%s' at t=%llu\n", engine->engine_name(),
                descriptor.c_str(),
                static_cast<unsigned long long>(engine->time()));
  } else if (substrate) {
    if (f.engine != "rotor") {
      std::fprintf(stderr,
                   "rr_cli: --graph-image drives the rotor engine "
                   "(got --engine %s)\n",
                   f.engine.c_str());
      return 2;
    }
    descriptor = substrate->descriptor();
    engine = std::make_unique<rr::core::RotorRouter>(
        substrate, spread_agents(substrate->num_nodes(), f.k));
    substrate->advise_random();
    std::printf("image %s: '%s' %llu nodes, %.2f GB mapped\n",
                f.graph_image.c_str(), descriptor.c_str(),
                static_cast<unsigned long long>(substrate->num_nodes()),
                static_cast<double>(substrate->image_bytes()) / (1u << 30));
  } else {
    descriptor = topo_descriptor(f);
    if (descriptor.empty()) return 2;
    engine = build_engine(f, descriptor, pool.get());
    if (!engine) return 2;
  }
  // Kept across the cycle-jump wrap so the halt check below still reaches
  // the coordinator.
  auto* dist_engine =
      dynamic_cast<rr::core::DistributedRotorRouter*>(engine.get());
  // Wrap before arming auto-checkpoints: the wrapper schedules leaps and
  // dense chunks against its own checkpoint marks, so marks fire at the
  // exact rounds (and with the exact bytes) a dense run would produce.
  const auto cj_mode = rr::sim::cycle_jump_mode_from_name(f.cycle_jump);
  std::string cj_error;
  engine = rr::sim::wrap_cycle_jump(std::move(engine), *cj_mode, cj_options,
                                    &cj_error);
  if (!engine) {
    std::fprintf(stderr, "rr_cli: %s\n", cj_error.c_str());
    return 2;
  }
  const auto sink_stats = std::make_shared<rr::sim::CheckpointSinkStats>();
  if (f.checkpoint_every > 0) {
    if (f.checkpoint.empty()) {
      std::fprintf(stderr, "rr_cli: --checkpoint-every needs --checkpoint\n");
      return 2;
    }
    engine->set_auto_checkpoint(
        f.checkpoint_every,
        rr::sim::checkpoint_file_sink(f.checkpoint, descriptor, format,
                                      pool.get(), sink_stats,
                                      rr::sim::kV2DefaultSegments));
  }
  const std::uint64_t rounds = f.rounds ? f.rounds : engine->num_nodes();
  engine->run(rounds);
  if (dist_engine != nullptr && dist_engine->halted()) {
    std::fprintf(stderr,
                 "rr_cli: distributed run halted at t=%llu (a worker died); "
                 "resume from the last periodic checkpoint with "
                 "`rr_cli run --engine dist --resume FILE`\n",
                 static_cast<unsigned long long>(dist_engine->time()));
    return 1;
  }
  std::printf("engine=%s graph='%s' t=%llu covered=%u/%u hash=%016llx\n",
              engine->engine_name(), descriptor.c_str(),
              static_cast<unsigned long long>(engine->time()),
              engine->covered_count(), engine->num_nodes(),
              static_cast<unsigned long long>(engine->config_hash()));
  // A failed periodic checkpoint leaves nothing to resume from at the
  // round it was due: report it and exit non-zero (after still trying
  // the final save below).
  int status = 0;
  if (sink_stats->last_failed) {
    std::fprintf(stderr,
                 "rr_cli: periodic checkpoint to %s failed (%llu of %llu "
                 "saves failed, the last one included)\n",
                 f.checkpoint.c_str(),
                 static_cast<unsigned long long>(sink_stats->failures),
                 static_cast<unsigned long long>(sink_stats->failures +
                                                 sink_stats->saves));
    status = 1;
  }
  if (!f.checkpoint.empty()) {
    if (substrate) substrate->advise_sequential();
    const std::string text = rr::sim::write_checkpoint(
        *engine, descriptor, format, rr::sim::kV2DefaultSegments, pool.get());
    // Atomic like the auto-checkpoint sink: a crash mid-write must not
    // destroy the last good checkpoint at the same path.
    if (!rr::sim::save_checkpoint_file_atomic(f.checkpoint, text)) {
      std::fprintf(stderr, "rr_cli: cannot write %s\n", f.checkpoint.c_str());
      return 2;
    }
    std::printf("checkpoint: %s (%zu bytes)\n", f.checkpoint.c_str(),
                text.size());
  }
  return status;
}

int cmd_build_graph(const Flags& f) {
  if (f.out.empty()) {
    std::fprintf(stderr, "rr_cli: build-graph needs --out FILE\n");
    return 2;
  }
  const std::string descriptor = topo_descriptor(f);
  if (descriptor.empty()) return 2;
  std::string error;
  if (!rr::graph::MappedSubstrate::build(descriptor, f.out, &error)) {
    std::fprintf(stderr, "rr_cli: build-graph: %s\n", error.c_str());
    return 2;
  }
  const auto s = rr::graph::MappedSubstrate::open(f.out);
  if (!s) {
    std::fprintf(stderr, "rr_cli: built image fails validation: %s\n",
                 f.out.c_str());
    return 2;
  }
  std::printf("image %s: '%s' nodes=%llu arcs=%llu bytes=%llu\n",
              f.out.c_str(), s->descriptor().c_str(),
              static_cast<unsigned long long>(s->num_nodes()),
              static_cast<unsigned long long>(s->num_arcs()),
              static_cast<unsigned long long>(s->image_bytes()));
  return 0;
}

int cmd_convert(int argc, char** argv) {
  if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-') return usage();
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  Flags f;
  if (!parse_flags(argc, argv, 4, f)) return 2;
  rr::sim::CkptFormat format;
  if (!parse_ckpt_format(f.ckpt_format, format)) return 2;
  const auto parsed = rr::sim::parse_checkpoint_file(in_path);
  if (!parsed) {
    std::fprintf(stderr, "rr_cli: malformed checkpoint %s\n", in_path.c_str());
    return 2;
  }
  // Transcode through a restored engine rather than field-by-field: the
  // engine re-serializes its canonical field set, so the output is
  // byte-identical to a checkpoint written directly in the target format.
  auto engine = rr::sim::restore_checkpoint(*parsed);
  if (!engine) {
    std::fprintf(stderr, "rr_cli: cannot restore %s (engine %s)\n",
                 in_path.c_str(), parsed->engine.c_str());
    return 2;
  }
  const std::string text =
      rr::sim::write_checkpoint(*engine, parsed->graph_descriptor, format);
  if (!rr::sim::save_checkpoint_file_atomic(out_path, text)) {
    std::fprintf(stderr, "rr_cli: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("converted %s -> %s (%s, %zu bytes)\n", in_path.c_str(),
              out_path.c_str(), f.ckpt_format.c_str(), text.size());
  return 0;
}

int cmd_cover(const Flags& f) {
  const rr::core::RingConfig config = build_config(f);
  const auto cover = rr::core::ring_cover_time(config);
  std::printf("config: %s\n", rr::core::to_text(config).substr(0, 96).c_str());
  if (cover == rr::core::kRingNotCovered) {
    std::printf("cover: not covered within the default cap\n");
    return 1;
  }
  std::printf("cover: %llu rounds (n^2/log2k = %.0f, (n/k)^2 = %.0f)\n",
              static_cast<unsigned long long>(cover),
              static_cast<double>(f.n) * f.n /
                  (f.k > 1 ? std::log2(static_cast<double>(f.k)) : 1.0),
              static_cast<double>(f.n) / f.k * f.n / f.k);
  return 0;
}

int cmd_return(const Flags& f) {
  const rr::core::RingConfig config = build_config(f);
  const auto ret = rr::core::ring_return_time(config);
  std::printf("return: max gap %llu, mean gap %.1f (n/k = %u); covered=%s\n",
              static_cast<unsigned long long>(ret.max_gap), ret.mean_gap,
              f.n / f.k, ret.covered ? "yes" : "no");
  return 0;
}

int cmd_trace(Flags f) {
  if (!f.graph.empty() || f.topo != "ring") {
    // Non-ring substrates draw through the engine-generic renderer; torus
    // and grid runs lay out as 2-D blocks (one line per row).
    const std::string descriptor = topo_descriptor(f);
    if (descriptor.empty()) return 2;
    auto engine = build_engine(f, descriptor);
    if (!engine) return 2;
    const auto d = rr::graph::GraphDescriptor::parse(descriptor);
    rr::sim::TraceOptions opt;
    opt.rounds = f.rounds ? f.rounds : 4ULL * engine->num_nodes();
    opt.stride = f.stride ? f.stride : 1;
    if (d->kind == "torus" || d->kind == "grid") {
      // Descriptor args were validated by GraphDescriptor::parse; the
      // strict parse keeps this from silently drawing width-0 layouts
      // if that ever changes.
      opt.width = static_cast<rr::graph::NodeId>(
          rr::parse_u64(d->args[0]).value_or(0));
    }
    std::fputs(
        rr::sim::format_trace(rr::sim::record_trace(*engine, opt)).c_str(),
        stdout);
    return 0;
  }
  const rr::core::RingConfig config = build_config(f);
  if (f.rounds == 0) f.rounds = 4ULL * f.n;
  rr::core::RingRotorRouter engine = config.make();
  rr::core::TraceOptions opt;
  opt.rounds = f.rounds;
  opt.stride = f.stride ? f.stride : 1;
  opt.domains = f.domains;
  std::fputs(rr::core::format_trace(rr::core::record_trace(engine, opt)).c_str(),
             stdout);
  return 0;
}

int cmd_config(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto config = rr::core::ring_config_from_text(argv[2]);
  if (!config) {
    std::fprintf(stderr, "rr_cli: malformed config text\n");
    return 2;
  }
  Flags f;
  if (!parse_flags(argc, argv, 3, f)) return 2;
  rr::core::RingRotorRouter engine = config->make();
  const std::uint64_t rounds = f.rounds ? f.rounds : 1;
  engine.run(rounds);
  std::printf("after %llu rounds: %s\n",
              static_cast<unsigned long long>(rounds),
              rr::core::to_text(rr::core::checkpoint(engine)).c_str());
  std::printf("covered %u/%u nodes\n", engine.covered_count(),
              engine.num_nodes());
  return 0;
}

int cmd_lockin(const Flags& f) {
  const std::string descriptor = topo_descriptor(f);
  if (descriptor.empty()) return 2;
  const auto built = rr::graph::graph_from_descriptor(descriptor);
  if (!built) {
    std::fprintf(stderr, "rr_cli: cannot build graph '%s'\n",
                 descriptor.c_str());
    return 2;
  }
  const rr::graph::Graph& g = *built;
  const auto res = rr::core::single_agent_lock_in(g, 0);
  if (!res.locked_in) {
    std::printf("lockin: not found within cap (%llu steps)\n",
                static_cast<unsigned long long>(res.steps_simulated));
    return 1;
  }
  std::printf("lockin: t=%llu, bound 2D|E|=%llu (%s, %u nodes, %zu edges)\n",
              static_cast<unsigned long long>(res.lock_in_time),
              static_cast<unsigned long long>(2ULL * g.diameter() *
                                              g.num_edges()),
              descriptor.c_str(), g.num_nodes(), g.num_edges());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "engines") return cmd_engines();
  if (cmd == "config") return cmd_config(argc, argv);
  if (cmd == "convert") return cmd_convert(argc, argv);
  Flags f;
  if (!parse_flags(argc, argv, 2, f)) return 2;
  if (f.engine == "help" || f.engine == "list") return cmd_engines();
  if (cmd == "run") return cmd_run(f);  // validates against its substrate
  if (cmd == "build-graph") return cmd_build_graph(f);
  if (f.n < 3 || f.k < 1 || f.k > f.n) {
    std::fprintf(stderr, "rr_cli: need n >= 3 and 1 <= k <= n\n");
    return 2;
  }
  if (cmd == "cover") return cmd_cover(f);
  if (cmd == "return") return cmd_return(f);
  if (cmd == "trace") return cmd_trace(f);
  if (cmd == "lockin") return cmd_lockin(f);
  return usage();
}
