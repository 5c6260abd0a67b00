#include "sim/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

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
std::size_t g_atomic_write_cap = ~std::size_t{0};
bool g_dir_fsync_fail = false;
bool g_dir_fsync_warned = false;
}  // namespace detail

namespace {

constexpr const char* kEnginePrefix = " engine=";
constexpr const char* kGraphPrefix = " graph=";

/// Both formats share the header-line grammar after their magic:
/// " engine=<name> graph=<descriptor>". nullopt on malformed.
std::optional<std::pair<std::string, std::string>> parse_header_line(
    std::string_view header, std::string_view magic) {
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

/// Buffered line reader for the streaming v1 path: holds one read chunk
/// plus the line under construction — O(longest line), never O(file).
class LineReader {
 public:
  explicit LineReader(std::FILE* f) : f_(f) {}

  /// Next '\n'-terminated (or final unterminated) line, without the
  /// newline. False at clean EOF; *error on a read error.
  bool next(std::string& line, bool* error) {
    line.clear();
    while (true) {
      if (pos_ < buf_len_) {
        const char* nl = static_cast<const char*>(
            std::memchr(buf_ + pos_, '\n', buf_len_ - pos_));
        if (nl != nullptr) {
          line.append(buf_ + pos_, nl - (buf_ + pos_));
          pos_ = static_cast<std::size_t>(nl - buf_) + 1;
          return true;
        }
        line.append(buf_ + pos_, buf_len_ - pos_);
        pos_ = buf_len_ = 0;
      }
      buf_len_ = std::fread(buf_, 1, sizeof buf_, f_);
      pos_ = 0;
      if (buf_len_ == 0) {
        if (std::ferror(f_) != 0) {
          *error = true;
          return false;
        }
        return !line.empty();
      }
    }
  }

 private:
  std::FILE* f_;
  char buf_[1 << 16];
  std::size_t buf_len_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

std::string write_checkpoint(const Engine& engine,
                             const std::string& graph_descriptor) {
  return write_checkpoint(engine, graph_descriptor, CkptFormat::kV1);
}

std::string write_checkpoint(const Engine& engine,
                             const std::string& graph_descriptor,
                             CkptFormat format, std::uint32_t segments,
                             ThreadPool* pool) {
  const auto* io = dynamic_cast<const StateIO*>(&engine);
  RR_REQUIRE(io != nullptr, "engine does not implement sim::StateIO");
  StateWriter body;
  io->serialize_state(body);
  if (format == CkptFormat::kV2) {
    if (segments == 0 && pool != nullptr) segments = pool->num_threads();
    return encode_checkpoint_v2(engine.engine_name(), graph_descriptor, body,
                                engine.num_nodes(), segments, pool);
  }
  std::string out = std::string(kCheckpointMagic) + kEnginePrefix +
                    engine.engine_name() + kGraphPrefix + graph_descriptor +
                    "\n";
  out += body.text();
  out += "end\n";
  return out;
}

std::optional<ParsedCheckpoint> parse_checkpoint(const std::string& text,
                                                 ThreadPool* pool) {
  std::size_t eol = text.find('\n');
  if (eol == std::string::npos) return std::nullopt;
  const std::string_view header(text.data(), eol);

  if (header.substr(0, std::string_view(kCheckpointMagicV2).size()) ==
      kCheckpointMagicV2) {
    const auto names = parse_header_line(header, kCheckpointMagicV2);
    if (!names) return std::nullopt;
    auto state = decode_checkpoint_v2_body(
        reinterpret_cast<const std::uint8_t*>(text.data()) + eol + 1,
        text.size() - eol - 1, pool);
    if (!state) return std::nullopt;
    return ParsedCheckpoint{names->first, names->second, std::move(*state)};
  }

  const auto names = parse_header_line(header, kCheckpointMagic);
  if (!names) return std::nullopt;

  // Body: everything after the header up to the terminating "end" line.
  const std::string_view tail(text.data() + eol + 1, text.size() - eol - 1);
  std::size_t end_at = std::string_view::npos;
  if (tail == "end\n" || tail == "end") {
    end_at = 0;
  } else {
    const std::size_t marker = tail.rfind("\nend");
    // "end" must terminate the document (optionally newline-terminated).
    if (marker != std::string_view::npos &&
        (marker + 4 == tail.size() ||
         (marker + 5 == tail.size() && tail[marker + 4] == '\n'))) {
      end_at = marker + 1;
    }
  }
  if (end_at == std::string_view::npos) return std::nullopt;
  const auto state = StateReader::parse(tail.substr(0, end_at));
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

  LineReader lines(f);
  bool error = false;
  std::string header;
  if (!lines.next(header, &error) || error) return std::nullopt;

  if (std::string_view(header).substr(
          0, std::string_view(kCheckpointMagicV2).size()) ==
      kCheckpointMagicV2) {
    const auto names = parse_header_line(header, kCheckpointMagicV2);
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

  const auto names = parse_header_line(header, kCheckpointMagic);
  if (!names) return std::nullopt;
  std::vector<std::pair<std::string, ReaderValue>> fields;
  std::string line;
  bool saw_end = false;
  while (lines.next(line, &error)) {
    if (saw_end) return std::nullopt;  // content after the "end" line
    if (line == "end") {
      saw_end = true;
      continue;
    }
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    ReaderValue value;
    value.kind = ReaderValue::Kind::kText;
    value.text = line.substr(eq + 1);
    fields.emplace_back(line.substr(0, eq), std::move(value));
  }
  if (error || !saw_end) return std::nullopt;
  auto state = StateReader::from_fields(std::move(fields));
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
  if (!dir_synced && !detail::g_dir_fsync_warned) {
    detail::g_dir_fsync_warned = true;
    std::fprintf(stderr,
                 "rr-ckpt: warning: cannot fsync directory %s (%s); a system "
                 "crash may revert %s to its previous contents "
                 "(further occurrences not reported)\n",
                 dir.c_str(), std::strerror(errno), path.c_str());
  }
#endif
  return true;
}

std::function<void(const Engine&)> checkpoint_file_sink(
    std::string path, std::string graph_descriptor, CkptFormat format,
    ThreadPool* pool, std::shared_ptr<CheckpointSinkStats> stats,
    std::uint32_t segments) {
  if (!stats) stats = std::make_shared<CheckpointSinkStats>();
  return [path = std::move(path),
          graph_descriptor = std::move(graph_descriptor), format, pool,
          stats = std::move(stats), segments](const Engine& engine) {
    const bool ok = save_checkpoint_file_atomic(
        path, write_checkpoint(engine, graph_descriptor, format, segments,
                               pool));
    stats->last_failed = !ok;
    if (ok) {
      ++stats->saves;
    } else if (stats->failures++ == 0) {
      std::fprintf(stderr,
                   "rr-ckpt: warning: periodic checkpoint to %s failed at "
                   "t=%llu; the run continues (further failures counted, "
                   "not reported)\n",
                   path.c_str(),
                   static_cast<unsigned long long>(engine.time()));
    }
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
