#include "sim/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/require.hpp"
#include "graph/descriptor.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"

namespace rr::sim {

namespace detail {
std::atomic<std::size_t> g_atomic_write_cap{~std::size_t{0}};
std::atomic<bool> g_dir_fsync_fail{false};
std::atomic<bool> g_dir_fsync_warned{false};
}  // namespace detail

namespace {

constexpr const char* kEnginePrefix = " engine=";
constexpr const char* kGraphPrefix = " graph=";

/// Parses the header line "rr-ckpt v2 engine=<name> graph=<descriptor>"
/// into (engine, descriptor). nullopt on malformed, any other magic
/// included.
std::optional<std::pair<std::string, std::string>> parse_header_line(
    std::string_view header) {
  const std::string_view magic(kCheckpointMagicV2);
  if (header.substr(0, magic.size()) != magic) return std::nullopt;
  std::string_view rest = header.substr(magic.size());
  const std::string_view engine_prefix(kEnginePrefix);
  if (rest.substr(0, engine_prefix.size()) != engine_prefix) {
    return std::nullopt;
  }
  rest.remove_prefix(engine_prefix.size());
  const std::size_t graph_at = rest.find(kGraphPrefix);
  if (graph_at == std::string_view::npos || graph_at == 0) return std::nullopt;
  const std::string_view engine = rest.substr(0, graph_at);
  const std::string_view descriptor =
      rest.substr(graph_at + std::string_view(kGraphPrefix).size());
  if (descriptor.empty()) return std::nullopt;
  return std::make_pair(std::string(engine), std::string(descriptor));
}

}  // namespace

std::string write_checkpoint(const Engine& engine,
                             const std::string& graph_descriptor,
                             CkptFormat /*format*/, std::uint32_t segments,
                             ThreadPool* pool) {
  const auto* io = dynamic_cast<const StateIO*>(&engine);
  RR_REQUIRE(io != nullptr, "engine does not implement sim::StateIO");
  StateWriter body;
  io->serialize_state(body);
  if (segments == 0 && pool != nullptr) segments = pool->num_threads();
  return encode_checkpoint_v2(engine.engine_name(), graph_descriptor, body,
                              engine.num_nodes(), segments, pool);
}

std::optional<ParsedCheckpoint> parse_checkpoint(const std::string& text,
                                                 ThreadPool* pool) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string::npos) return std::nullopt;
  const auto names = parse_header_line(std::string_view(text.data(), eol));
  if (!names) return std::nullopt;
  auto state = decode_checkpoint_v2_body(
      reinterpret_cast<const std::uint8_t*>(text.data()) + eol + 1,
      text.size() - eol - 1, pool);
  if (!state) return std::nullopt;
  return ParsedCheckpoint{names->first, names->second, std::move(*state)};
}

std::optional<ParsedCheckpoint> parse_checkpoint_file(const std::string& path,
                                                      ThreadPool* pool) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  // RAII-close whatever path exits below.
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  std::string header;
  for (int c = std::fgetc(f); c != '\n'; c = std::fgetc(f)) {
    if (c == EOF) return std::nullopt;
    header.push_back(static_cast<char>(c));
  }
  const auto names = parse_header_line(header);
  if (!names) return std::nullopt;
  const std::uint64_t body_offset = header.size() + 1;
  if (std::fseek(f, 0, SEEK_END) != 0) return std::nullopt;
  const long size = std::ftell(f);
  if (size < 0) return std::nullopt;
  auto state = decode_checkpoint_v2_file(
      f, body_offset, static_cast<std::uint64_t>(size), pool);
  if (!state) return std::nullopt;
  return ParsedCheckpoint{names->first, names->second, std::move(*state)};
}

std::unique_ptr<Engine> restore_checkpoint(const ParsedCheckpoint& parsed) {
  return restore_checkpoint_sharded(parsed, /*shards=*/1);
}

std::unique_ptr<Engine> restore_checkpoint(const std::string& text) {
  const auto parsed = parse_checkpoint(text);
  if (!parsed) return nullptr;
  return restore_checkpoint(*parsed);
}

std::unique_ptr<Engine> restore_checkpoint_sharded(
    const ParsedCheckpoint& parsed, std::uint32_t shards, ThreadPool* pool) {
  const auto d = graph::GraphDescriptor::parse(parsed.graph_descriptor);
  if (!d) return nullptr;
  // The registry resolves the backend and validates the substrate; each
  // spec's restore hook rebuilds the engine from the state body. A shard
  // request is passed through as an execution choice — specs that do not
  // support sharding ignore it (callers warn; see rr_cli).
  EngineConfig config;
  config.shards = shards;
  config.pool = pool;
  return EngineRegistry::instance().restore(parsed.engine, *d, parsed.state,
                                            config);
}

std::unique_ptr<Engine> restore_checkpoint_file(const std::string& path,
                                                std::uint32_t shards,
                                                ThreadPool* pool) {
  const auto parsed = parse_checkpoint_file(path, pool);
  if (!parsed) return nullptr;
  return restore_checkpoint_sharded(*parsed, shards, pool);
}

bool save_checkpoint_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool save_checkpoint_file_atomic(const std::string& path,
                                 const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  // Fault injection (tests): cap the bytes that reach the tmp file to
  // simulate a disk filling mid-frame; the short write fails the save
  // below and must leave the previous checkpoint at `path` intact.
  const std::size_t cap = detail::g_atomic_write_cap;
  const std::size_t to_write = text.size() < cap ? text.size() : cap;
  bool ok =
      std::fwrite(text.data(), 1, to_write, f) == to_write &&
      to_write == text.size();
#if defined(__unix__) || defined(__APPLE__)
  // Flush the data blocks before the rename is journaled: without this a
  // *system* crash can commit the rename metadata ahead of the tmp file's
  // contents and leave a truncated document at `path`.
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;
    if (std::remove(tmp.c_str()) != 0) {
      // The stale tmp file lingers next to the checkpoint; say so rather
      // than silently leaking it (and don't let remove clobber the
      // original failure's errno in what we report).
      std::fprintf(stderr,
                   "rr-ckpt: cannot remove stale %s (%s; save failed: %s)\n",
                   tmp.c_str(), std::strerror(errno),
                   std::strerror(rename_errno));
    }
    return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  // Persist the rename itself (directory entry). Durability-only: the
  // rename has already happened, so failure here cannot corrupt the
  // checkpoint — but it must be observable (a system crash could revert
  // to the previous checkpoint), so warn once per process instead of
  // swallowing it.
  //
  // Parent derivation: no slash -> cwd "."; a path like "/file" has its
  // parent at "/" (substr(0, 0) would yield "" and open("") fails).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dfd =
      detail::g_dir_fsync_fail ? -1 : ::open(dir.c_str(), O_RDONLY);
  bool dir_synced = false;
  if (dfd >= 0) {
    dir_synced = ::fsync(dfd) == 0;
    ::close(dfd);
  }
  if (!dir_synced && !detail::g_dir_fsync_warned.exchange(true)) {
    std::fprintf(stderr,
                 "rr-ckpt: warning: cannot fsync directory %s (%s); a system "
                 "crash may revert %s to its previous contents "
                 "(further occurrences not reported)\n",
                 dir.c_str(), std::strerror(errno), path.c_str());
  }
#endif
  return true;
}

namespace {

/// The write-behind half of checkpoint_file_sink: write() hands an
/// encoded document to a thread of its own, after joining the previous
/// one, and the destructor joins the last. Each write's result is counted
/// into `stats` at its join, on the joining thread, so the stats need no
/// lock.
class BackgroundWriter {
 public:
  BackgroundWriter(std::string path, std::shared_ptr<CheckpointSinkStats> stats)
      : path_(std::move(path)), stats_(std::move(stats)) {}
  BackgroundWriter(const BackgroundWriter&) = delete;
  BackgroundWriter& operator=(const BackgroundWriter&) = delete;
  ~BackgroundWriter() { join(); }

  /// Saves `text`, the state at round `time`, behind the caller.
  void write(std::string text, std::uint64_t time) {
    if (thread_.joinable() && !done_) ++stats_->waits;
    join();
    text_ = std::move(text);
    time_ = time;
    done_ = false;
    try {
      thread_ = std::thread([this] { save(); });
    } catch (const std::system_error&) {
      save();  // no thread to be had: save on the caller's thread
      count();
    }
  }

 private:
  void save() {
    try {
      ok_ = save_checkpoint_file_atomic(path_, text_);
    } catch (...) {  // std::bad_alloc: counted as a failed save
      ok_ = false;
    }
    std::string().swap(text_);
    done_ = true;
  }

  void join() {
    if (!thread_.joinable()) return;
    thread_.join();
    count();
  }

  void count() {
    stats_->last_failed = !ok_;
    if (ok_) {
      ++stats_->saves;
    } else if (stats_->failures++ == 0) {
      std::fprintf(stderr,
                   "rr-ckpt: warning: periodic checkpoint to %s failed at "
                   "t=%llu; the run continues (further failures counted, "
                   "not reported)\n",
                   path_.c_str(), static_cast<unsigned long long>(time_));
    }
  }

  const std::string path_;
  const std::shared_ptr<CheckpointSinkStats> stats_;
  std::string text_;  // the document in flight; the writer frees it
  std::uint64_t time_ = 0;
  bool ok_ = false;
  std::atomic<bool> done_{true};
  std::thread thread_;
};

}  // namespace

std::function<void(const Engine&)> checkpoint_file_sink(
    std::string path, std::string graph_descriptor, CkptFormat format,
    ThreadPool* pool, std::shared_ptr<CheckpointSinkStats> stats,
    std::uint32_t segments) {
  if (!stats) stats = std::make_shared<CheckpointSinkStats>();
  // Shared: std::function copies the sink, and the last copy's
  // destruction joins the write in flight.
  auto writer =
      std::make_shared<BackgroundWriter>(std::move(path), std::move(stats));
  return [writer = std::move(writer),
          graph_descriptor = std::move(graph_descriptor), format, pool,
          segments](const Engine& engine) {
    writer->write(
        write_checkpoint(engine, graph_descriptor, format, segments, pool),
        engine.time());
  };
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

}  // namespace rr::sim
