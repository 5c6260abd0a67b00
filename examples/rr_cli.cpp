// rr_cli: command-line driver for one-off rotor-ring experiments.
//
//   rr_cli cover   --size 1024 --k 8 --place one|spaced|random --ptr toward|negative|uniform|random [--seed S]
//   rr_cli return  (same flags)                       measure the limit refresh time
//   rr_cli trace   --size 72 --k 4 --rounds 200 --stride 8 [--domains]   ASCII space-time diagram
//   rr_cli trace   --topo torus --size 12 --k 4 --rounds 200 --stride 20   2-D space-time blocks
//   rr_cli run     --topo torus --size 16 --k 8 --rounds 400 --checkpoint state.ckpt
//   rr_cli run     --resume state.ckpt --rounds 400 [--checkpoint state.ckpt]
//   rr_cli run     --topo torus --size 256 --k 64 --shards 8 --rounds 4000
//   rr_cli run     --graph-image big.rrg --k 64 --rounds 1000   out-of-core stepping
//   rr_cli lockin  --topo ring|grid|torus|clique|hypercube|tree --size 64
//   rr_cli engines                                     list registered backends
//   rr_cli build-graph --graph "ring 100000000" --out big.rrg   stream an image
//
// Every subcommand that steps an engine builds it through
// sim::EngineRegistry — rr_cli knows no backend by name — on the
// substrate of --topo/--size (or a raw --graph "torus 16 16" descriptor),
// with the agents of --k/--place and the rotor field of --ptr. A flag a
// subcommand does not read, or a --ptr or --domains its
// substrate or engine cannot take, is an error, never silently ignored.
//
// `run` drives any registered engine (--engine NAME; `rr_cli engines` or
// `--engine help` lists them) through the engine-generic checkpoint
// layer: --checkpoint serializes the full state after the run, --resume
// restores one and continues bit-exactly. --shards N steps shard-capable
// engines shard-parallel (bit-equal to sequential; also applies when
// resuming their checkpoints), and --checkpoint-every N rewrites
// --checkpoint atomically every N rounds while the run is in flight
// (crash-tolerant sweeps).
// Checkpoints are rr-ckpt v2, the one format (sim/checkpoint.hpp), so
// there is no format flag; a document with any other header, the retired
// v1 text format included, is rejected as malformed.
//
// Out-of-core: `build-graph` streams a descriptor into an `rr-graph v1`
// image (graph/mmap_substrate.hpp) without materializing the graph, and
// `run --graph-image FILE` steps the rotor-router over the mmap'd image,
// so instances far beyond RAM run from the page cache. --resume works
// with --graph-image when the checkpoint's engine and descriptor match
// the image. An image engine steps one shard: --shards N > 1 with
// --graph-image exits 2.
//
// Exit code 0 on success, 2 on usage errors (so scripts can distinguish).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/domains.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/initializers.hpp"
#include "core/rotor_router.hpp"
#include "dist/coordinator.hpp"
#include "graph/descriptor.hpp"
#include "graph/mmap_substrate.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/measure.hpp"
#include "sim/registry.hpp"
#include "sim/trace.hpp"

namespace {

struct Flags {
  std::uint32_t k = 8;
  std::string place = "spaced";
  std::string ptr;  // empty: the subcommand's default (see usage)
  std::uint64_t seed = 1;
  std::uint64_t rounds = 0;
  std::uint64_t stride = 1;
  bool domains = false;
  std::string topo = "ring";
  rr::graph::NodeId size = 64;
  std::string engine;  // empty: the subcommand's default (see usage)
  std::string graph;       // raw descriptor; overrides --topo/--size
  std::string checkpoint;  // write the engine state here after the run
  std::string resume;      // restore the engine state from here first
  std::uint32_t shards = 1;          // > 1: shard-parallel rotor stepping
  std::uint64_t checkpoint_every = 0;  // auto-checkpoint period (rounds)
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
  std::set<std::string> given;  // every flag on the command line
};

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
               "usage: rr_cli <cover|return|trace|run|lockin|engines|"
               "build-graph> [flags]\n"
               "  substrate: --topo ring|grid|torus|clique|hypercube|tree"
               " --size N (default ring 64) | --graph DESC\n"
               "  engine: --engine %s --k K --seed S\n"
               "          --place one|spaced|random (default spaced)\n"
               "          --ptr toward|negative|uniform|random (toward,"
               " negative and random need a ring)\n"
               "          --shards N; --engine dist: --workers N"
               " --spill-batch N [--noded PATH|threads | --dist-socket PATH]\n"
               "  cover, return: engine flags (default --engine ring and"
               " --ptr negative on a ring, else rotor and uniform)\n"
               "  trace: cover's flags plus --rounds R (default 4n)"
               " --stride S --domains (ring engine only)\n"
               "  run: engine flags (default --engine rotor, --ptr uniform)"
               " --rounds R (default n)\n"
               "       [--graph-image FILE] --checkpoint FILE --resume FILE\n"
               "       --checkpoint-every N\n"
               "       --cycle-jump on|off|auto (leap confirmed steady-state"
               " cycles; default auto)\n"
               "       --cycle-hint on|off (persist/adopt confirmed periods"
               " via checkpoint cycle.hint; default off)\n"
               "  lockin: one agent; substrate flags, --engine (rotor only),"
               " --place, --ptr (default uniform), --seed\n"
               "  engines: list registered backends with substrate"
               " requirements (also: --engine help)\n"
               "  build-graph: substrate flags --out FILE\n",
               engine_names().c_str());
  return 2;
}

bool parse_flags(int argc, char** argv, int start, Flags& f) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    f.given.insert(a);
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rr_cli: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--domains") {
      f.domains = true;
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
      if (!v || !rr::parse_flag_enum("rr_cli", "--place", v,
                                     {"one", "spaced", "random"})) {
        return false;
      }
      f.place = v;
    } else if (a == "--ptr") {
      const char* v = next("--ptr");
      if (!v || !rr::parse_flag_enum("rr_cli", "--ptr", v,
                                     {"toward", "negative", "uniform",
                                      "random"})) {
        return false;
      }
      f.ptr = v;
    } else if (a == "--topo") {
      const char* v = next("--topo");
      if (!v || !rr::parse_flag_enum("rr_cli", "--topo", v,
                                     {"ring", "grid", "torus", "clique",
                                      "hypercube", "tree"})) {
        return false;
      }
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
      if (!v || !rr::parse_flag_enum("rr_cli", "--cycle-jump", v,
                                     {"on", "off", "auto"})) {
        return false;
      }
      f.cycle_jump = v;
    } else if (a == "--cycle-hint") {
      const char* v = next("--cycle-hint");
      if (!v || !rr::parse_flag_enum("rr_cli", "--cycle-hint", v,
                                     {"on", "off"})) {
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

// Smallest d with 2^d >= size, clamped so the shift never overflows.
std::uint32_t hypercube_dim(rr::graph::NodeId size) {
  std::uint32_t d = 1;
  while (d < 31 && (1u << d) < size) ++d;
  return d;
}

// Descriptor text for the --topo/--size sugar; --graph passes through.
// --topo was checked against its value list when parsed.
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
  return GraphDescriptor::ring(f.size).text();
}

// Fills config.agents with k agents placed by --place over the node ids
// ("spaced": agent i on i*n/k; "one": all on node 0; "random": uniform)
// and config.pointers with --ptr, or `default_ptr` when not given
// ("uniform" is every port 0, the engine default). toward, negative and
// random pointers are ring arrangements: false, with a message naming the
// flag, on any other substrate. Both values were checked when parsed.
bool fill_agents(const Flags& f, const rr::graph::GraphDescriptor& d,
                 std::uint32_t k, const std::string& default_ptr,
                 rr::sim::EngineConfig& config) {
  const auto n = static_cast<rr::graph::NodeId>(*d.num_nodes());
  rr::Rng rng(f.seed);
  if (f.place == "one") {
    config.agents = rr::core::place_all_on_one(k, 0);
  } else if (f.place == "random") {
    config.agents = rr::core::place_random(n, k, rng);
  } else {
    for (std::uint32_t i = 0; i < k; ++i) {
      config.agents.push_back(static_cast<rr::graph::NodeId>(
          static_cast<std::uint64_t>(i) * n / k));
    }
  }
  const std::string& ptr = f.ptr.empty() ? default_ptr : f.ptr;
  if (ptr == "uniform") return true;
  if (d.kind != "ring") {
    std::fprintf(stderr, "rr_cli: --ptr %s needs a ring substrate (got '%s')\n",
                 ptr.c_str(), d.text().c_str());
    return false;
  }
  std::vector<std::uint8_t> dirs;
  if (ptr == "toward") {
    dirs = rr::core::pointers_toward(n, config.agents.front());
  } else if (ptr == "negative") {
    dirs = rr::core::pointers_negative(n, config.agents);
  } else {
    dirs = rr::core::pointers_random(n, rng);
  }
  config.pointers.assign(dirs.begin(), dirs.end());
  return true;
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

// The engine of --engine (or `default_engine`) on `descriptor`, with k
// agents placed by --place and the rotor field of --ptr (or
// `default_ptr`). nullptr after printing why.
std::unique_ptr<rr::sim::Engine> build_engine(
    const Flags& f, const std::string& descriptor, std::uint32_t k,
    const std::string& default_engine, const std::string& default_ptr,
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
  const std::string& engine = f.engine.empty() ? default_engine : f.engine;
  const auto* spec = registry.find(engine);
  if (spec && !spec->takes_pointers && f.given.count("--ptr")) {
    std::fprintf(stderr, "rr_cli: --ptr does not apply: %s has no rotor field\n",
                 spec->name.c_str());
    return nullptr;
  }
  if (spec && f.shards > 1 && !spec->supports_shards) {
    std::fprintf(stderr,
                 "rr_cli: --shards only applies to shard-capable engines; "
                 "stepping %s sequentially\n",
                 spec->name.c_str());
  }
  rr::sim::EngineConfig config;
  if (!fill_agents(f, *d, k, default_ptr, config)) return nullptr;
  config.seed = f.seed;
  config.shards = f.shards;
  config.pool = pool;
  if (!fill_dist_config(f, config)) return nullptr;
  std::string error;
  auto built = registry.create(engine, *d, config, &error);
  if (!built) std::fprintf(stderr, "rr_cli: %s\n", error.c_str());
  return built;
}

// cover, return and trace measure the paper's ring: on a ring they default
// to the ring engine and negative pointers, elsewhere to the rotor engine
// with every port 0.
std::unique_ptr<rr::sim::Engine> build_measured_engine(
    const Flags& f, const std::string& descriptor) {
  const auto d = rr::graph::GraphDescriptor::parse(descriptor);
  const bool ring = d && d->kind == "ring";
  return build_engine(f, descriptor, f.k, ring ? "ring" : "rotor",
                      ring ? "negative" : "uniform");
}

int cmd_engines() {
  print_engine_list(stdout);
  return 0;
}

// False, naming the first of `flags` that was given, with `why` it cannot
// apply.
bool reject_given(const Flags& f, std::initializer_list<const char*> flags,
                  const char* why) {
  for (const char* flag : flags) {
    if (f.given.count(flag)) {
      std::fprintf(stderr, "rr_cli: %s does not apply: %s\n", flag, why);
      return false;
    }
  }
  return true;
}

int cmd_run(const Flags& f) {
  if (!f.resume.empty() &&
      !reject_given(f, {"--topo", "--size", "--graph", "--k", "--place",
                        "--ptr", "--seed"},
                    "--resume restores the checkpoint's configuration")) {
    return 2;
  }
  if (!f.graph_image.empty() &&
      !reject_given(f, {"--topo", "--size", "--graph"},
                    "--graph-image steps the image's graph")) {
    return 2;
  }
  if (!f.graph_image.empty() && f.shards > 1) {
    std::fprintf(stderr,
                 "rr_cli: --shards does not apply to --graph-image runs "
                 "(an image engine steps one shard)\n");
    return 2;
  }
  // One pool for the whole run, sized like a sharded engine's own: it
  // builds the engine, steps the shards, decodes the resumed document's
  // segments and encodes every save. A sequential run that saves gets
  // one too, as wide as a save has segments, so its saves stay off the
  // single stepping thread. The saves name their segment count, so a
  // checkpoint's bytes do not depend on the pool's width.
  std::unique_ptr<rr::sim::ThreadPool> pool;
  const bool saves = !f.checkpoint.empty() || f.checkpoint_every > 0;
  if (f.shards > 1 || saves) {
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned width =
        f.shards > 1 ? f.shards : rr::sim::kV2DefaultSegments;
    pool = std::make_unique<rr::sim::ThreadPool>(
        std::min<unsigned>(width, hw ? hw : 1));
  }

  std::shared_ptr<rr::graph::MappedSubstrate> substrate;
  if (!f.graph_image.empty()) {
    substrate = rr::graph::MappedSubstrate::open(f.graph_image);
    if (!substrate) {
      std::fprintf(stderr, "rr_cli: cannot open graph image %s\n",
                   f.graph_image.c_str());
      return 2;
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
      // Built straight from the document over this fresh open, so the
      // restore rewrites only the runs that differ from the image.
      substrate->advise_sequential();
      auto rotor = rr::core::RotorRouter::restore(substrate, parsed->state,
                                                  pool.get());
      if (!rotor) {
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
    const auto d = rr::graph::GraphDescriptor::parse(descriptor);
    rr::sim::EngineConfig config;
    if (!d || !fill_agents(f, *d, f.k, "uniform", config)) return 2;
    engine = std::make_unique<rr::core::RotorRouter>(
        substrate, config.agents, std::move(config.pointers));
    substrate->advise_random();
    std::printf("image %s: '%s' %llu nodes, %.2f GB mapped\n",
                f.graph_image.c_str(), descriptor.c_str(),
                static_cast<unsigned long long>(substrate->num_nodes()),
                static_cast<double>(substrate->image_bytes()) / (1u << 30));
  } else {
    descriptor = topo_descriptor(f);
    engine = build_engine(f, descriptor, f.k, "rotor", "uniform", pool.get());
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
        rr::sim::checkpoint_file_sink(f.checkpoint, descriptor,
                                      rr::sim::CkptFormat::kV2, pool.get(),
                                      sink_stats,
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
  // Dropping the sink joins its last background write: after this the
  // stats are final and the final save below cannot race it on the same
  // path. A failed periodic checkpoint leaves nothing to resume from at
  // the round it was due: report it and exit non-zero (after still
  // trying the final save below).
  engine->set_auto_checkpoint(0, {});
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
        *engine, descriptor, rr::sim::CkptFormat::kV2,
        rr::sim::kV2DefaultSegments, pool.get());
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

int cmd_cover(const Flags& f) {
  const auto engine = build_measured_engine(f, topo_descriptor(f));
  if (!engine) return 2;
  const auto cover = rr::sim::cover_time(*engine);
  if (cover == rr::sim::kNotCovered) {
    std::printf("cover: not covered within the default cap\n");
    return 1;
  }
  const double n = engine->num_nodes();
  const double k = engine->num_agents();
  std::printf("cover: %llu rounds (n^2/log2k = %.0f, (n/k)^2 = %.0f)\n",
              static_cast<unsigned long long>(cover),
              n * n / (k > 1 ? std::log2(k) : 1.0), n / k * n / k);
  return 0;
}

int cmd_return(const Flags& f) {
  const auto engine = build_measured_engine(f, topo_descriptor(f));
  if (!engine) return 2;
  const auto ret = rr::sim::windowed_return_time(*engine);
  std::printf("return: max gap %llu, mean gap %.1f (n/k = %u); covered=%s\n",
              static_cast<unsigned long long>(ret.max_gap), ret.mean_gap,
              engine->num_nodes() / engine->num_agents(),
              ret.covered ? "yes" : "no");
  return 0;
}

int cmd_trace(const Flags& f) {
  const std::string descriptor = topo_descriptor(f);
  const auto engine = build_measured_engine(f, descriptor);
  if (!engine) return 2;
  // The ring engine draws agent counts and, with --domains, domain
  // letters; other engines draw coverage through the generic renderer,
  // torus and grid runs as 2-D blocks (one line per row).
  const auto painter = rr::core::ring_painter(*engine, f.domains);
  if (f.domains && !painter) {
    std::fprintf(stderr,
                 "rr_cli: --domains needs the ring engine on a ring (got %s "
                 "on '%s')\n",
                 engine->engine_name(), descriptor.c_str());
    return 2;
  }
  rr::sim::TraceOptions opt;
  opt.rounds = f.rounds ? f.rounds : 4ULL * engine->num_nodes();
  opt.stride = f.stride ? f.stride : 1;
  const auto d = rr::graph::GraphDescriptor::parse(descriptor);
  if (d->kind == "torus" || d->kind == "grid") {
    // Descriptor args were validated by GraphDescriptor::parse; the
    // strict parse keeps this from silently drawing width-0 layouts
    // if that ever changes.
    opt.width = static_cast<rr::graph::NodeId>(
        rr::parse_u64(d->args[0]).value_or(0));
  }
  std::fputs(rr::sim::format_trace(rr::sim::record_trace(
                                       *engine, opt, painter.value_or(nullptr)))
                 .c_str(),
             stdout);
  return 0;
}

int cmd_lockin(const Flags& f) {
  const std::string descriptor = topo_descriptor(f);
  const auto engine =
      build_engine(f, descriptor, /*k=*/1, "rotor", "uniform");
  if (!engine) return 2;
  auto* rotor = dynamic_cast<rr::core::RotorRouter*>(engine.get());
  if (rotor == nullptr) {
    std::fprintf(stderr, "rr_cli: lockin steps the rotor engine (got %s)\n",
                 engine->engine_name());
    return 2;
  }
  const auto res = rr::core::single_agent_lock_in(*rotor);
  if (!res.locked_in) {
    std::printf("lockin: not found within cap (%llu steps)\n",
                static_cast<unsigned long long>(res.steps_simulated));
    return 1;
  }
  const rr::graph::CsrGraph& g = rotor->graph();
  std::printf("lockin: t=%llu, bound 2D|E|=%llu (%s, %u nodes, %zu edges)\n",
              static_cast<unsigned long long>(res.lock_in_time),
              static_cast<unsigned long long>(2ULL * g.diameter() *
                                              g.num_edges()),
              descriptor.c_str(), g.num_nodes(), g.num_edges());
  return 0;
}

// The flags `cmd` reads, each padded by spaces; empty for an unknown
// subcommand. Giving a subcommand any other flag is an error.
std::string flags_of(const std::string& cmd) {
  const std::string substrate = " --topo --size --graph ";
  const std::string engine = substrate +
                             "--engine --k --place --ptr --seed --shards "
                             "--workers --spill-batch --noded --dist-socket ";
  if (cmd == "cover" || cmd == "return") return engine;
  if (cmd == "trace") return engine + "--rounds --stride --domains ";
  if (cmd == "run") {
    return engine +
           "--rounds --checkpoint --checkpoint-every --resume --graph-image "
           "--cycle-jump --cycle-hint ";
  }
  if (cmd == "lockin") return substrate + "--engine --place --ptr --seed ";
  if (cmd == "build-graph") return substrate + "--out ";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "engines") return cmd_engines();
  const std::string takes = flags_of(cmd);
  if (takes.empty()) return usage();
  Flags f;
  if (!parse_flags(argc, argv, 2, f)) return 2;
  if (f.engine == "help" || f.engine == "list") return cmd_engines();
  for (const std::string& flag : f.given) {
    if (takes.find(" " + flag + " ") == std::string::npos) {
      std::fprintf(stderr, "rr_cli: %s does not take %s\n", cmd.c_str(),
                   flag.c_str());
      return 2;
    }
  }
  if (f.k == 0) {
    std::fprintf(stderr, "rr_cli: --k must be at least 1\n");
    return 2;
  }
  if (cmd == "cover") return cmd_cover(f);
  if (cmd == "return") return cmd_return(f);
  if (cmd == "trace") return cmd_trace(f);
  if (cmd == "lockin") return cmd_lockin(f);
  if (cmd == "build-graph") return cmd_build_graph(f);
  if (f.engine.empty()) f.engine = "rotor";
  return cmd_run(f);  // validates against its substrate
}
