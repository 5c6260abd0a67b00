#pragma once

// Versioned, self-describing engine checkpoints (sim layer).
//
// A checkpoint is a document that fully determines a running simulation —
// which engine, on which graph, in which dynamical state — so a
// multi-million-round sweep can stop, move hosts, and resume bit-exactly.
// It has one wire format, rr-ckpt v2: a header line
//
//   rr-ckpt v2 engine=<engine-name> graph=<graph-descriptor>
//
// followed by delta/varint binary frames with per-frame CRC32 and a
// footer index (sim/ckpt_v2.hpp has the full wire spec). Any other
// magic, the retired v1 text header included, is malformed.
//
// The header names the engine backend (sim::Engine::engine_name) and the
// substrate (graph/descriptor.hpp), making the document sufficient to
// reconstruct the run with no out-of-band knowledge: restore_checkpoint
// resolves the backend through sim::EngineRegistry (sim/registry.hpp),
// which validates the substrate and invokes the spec's restore hook —
// rebuild the graph from the descriptor, instantiate the engine, hand
// the body to its StateIO::deserialize_state. This layer knows no
// backend by name.
//
// Correctness contract (enforced by the differential harness's
// save→load→continue lane, which alternates segment layouts): for every
// backend, a run checkpointed at any round and resumed in a fresh
// process produces per-round config_hash, visits, and cover times
// identical to the uninterrupted run.
//
// Parsing is total: malformed headers, bodies, frames, or descriptors
// yield nullopt/nullptr, never an abort (checkpoints are external
// input).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "sim/engine.hpp"
#include "sim/state_io.hpp"
#include "sim/thread_pool.hpp"

namespace rr::sim {

/// Checkpoint wire format selector. v2 is the only format; the enum
/// stays so the callers that name it (the benchmark harness among them)
/// keep compiling, and nothing branches on it.
enum class CkptFormat { kV2 };

/// Serializes a running engine as rr-ckpt v2. `graph_descriptor` names
/// the substrate (graph/descriptor.hpp text form; "ring <n>" for the
/// ring engines). The engine must implement sim::StateIO (all in-tree
/// backends do). `segments` is the per-node frame count (0 picks a
/// default aligned with `pool`'s width) and frames encode in parallel on
/// `pool` when given.
std::string write_checkpoint(const Engine& engine,
                             const std::string& graph_descriptor,
                             CkptFormat format = CkptFormat::kV2,
                             std::uint32_t segments = 0,
                             ThreadPool* pool = nullptr);

/// A parsed checkpoint: header fields plus the state body.
struct ParsedCheckpoint {
  std::string engine;            ///< engine_name() of the writer
  std::string graph_descriptor;  ///< substrate descriptor text
  StateReader state;             ///< body fields
};

/// Splits and validates an in-memory document; nullopt on any malformed
/// framing. With a `pool`, frames decode in parallel (the wire makes
/// per-node frames independently decodable on purpose); the result is
/// identical either way.
std::optional<ParsedCheckpoint> parse_checkpoint(const std::string& text,
                                                 ThreadPool* pool = nullptr);

/// Streaming file parse: reads the document frame by frame via the
/// footer index, so peak memory is O(largest frame), not O(file). With a
/// `pool`, batches of frames are read then decoded in parallel.
std::optional<ParsedCheckpoint> parse_checkpoint_file(
    const std::string& path, ThreadPool* pool = nullptr);

/// Rebuilds the graph, instantiates the named backend, and restores the
/// state. nullptr on malformed input, unknown engine, or a state body
/// inconsistent with the substrate.
std::unique_ptr<Engine> restore_checkpoint(const std::string& text);

/// Same, from an already-parsed document (callers that also need the
/// header fields parse once and restore from the result).
std::unique_ptr<Engine> restore_checkpoint(const ParsedCheckpoint& parsed);

/// As restore_checkpoint, but "rotor-router" checkpoints restore into a
/// core::RotorRouter stepping `shards` shards on `pool` (the shard count
/// is an execution choice, not state), and a pool decodes per-node
/// segments in parallel. Other engines restore exactly as
/// restore_checkpoint. shards <= 1 restores the sequential engine.
std::unique_ptr<Engine> restore_checkpoint_sharded(
    const ParsedCheckpoint& parsed, std::uint32_t shards,
    ThreadPool* pool = nullptr);

/// Streaming parse + sharded restore in one call.
std::unique_ptr<Engine> restore_checkpoint_file(const std::string& path,
                                                std::uint32_t shards = 1,
                                                ThreadPool* pool = nullptr);

/// File convenience wrappers (whole-buffer write / read).
bool save_checkpoint_file(const std::string& path, const std::string& text);
/// Crash-safe variant for auto-checkpointing: writes `path`.tmp, fsyncs,
/// then renames over `path`, so a reader (or a crash, or a disk that
/// fills mid-frame) never observes a half-written document — on any
/// failure the previous checkpoint at `path` is left intact and the tmp
/// file is removed.
bool save_checkpoint_file_atomic(const std::string& path,
                                 const std::string& text);
std::optional<std::string> read_text_file(const std::string& path);

/// What a checkpoint_file_sink has done so far; shared with its caller.
/// A write is counted when it is joined (see checkpoint_file_sink), so
/// read these after dropping the sink.
struct CheckpointSinkStats {
  std::uint64_t saves = 0;     ///< fires that wrote their document
  std::uint64_t failures = 0;  ///< fires whose save failed
  bool last_failed = false;    ///< the most recent fire failed
  std::uint64_t waits = 0;     ///< fires that found the previous write running
};

/// Sink for Engine::set_auto_checkpoint: serializes the engine against
/// `graph_descriptor` and saves it atomically to `path` on every fire.
/// The save writes behind: the firing thread serializes and encodes the
/// document (on `pool` when given) and returns once a background thread
/// has taken it over for save_checkpoint_file_atomic. At most one write
/// is in flight: the next fire joins it first, so files land in fire
/// order and at most two documents exist at once. Dropping the sink is
/// the join: set_auto_checkpoint(0, {}), re-arming, or destroying the
/// engine waits for the last write, after which the file and `stats` are
/// final. Callers that read either, or write `path` themselves, drop the
/// sink first.
///
/// A failed save does not stop the run (the run itself must not die
/// because a disk filled), but it is not swallowed either: the first
/// failure warns on stderr naming `path`, and every fire is counted in
/// `stats` (optional) when its write is joined, on the joining thread.
/// `segments` and `pool` are write_checkpoint's: a non-zero segment
/// count keeps the bytes independent of the pool's width.
std::function<void(const Engine&)> checkpoint_file_sink(
    std::string path, std::string graph_descriptor,
    CkptFormat format = CkptFormat::kV2, ThreadPool* pool = nullptr,
    std::shared_ptr<CheckpointSinkStats> stats = nullptr,
    std::uint32_t segments = 0);

namespace detail {
/// Test-only fault injection for save_checkpoint_file_atomic: when set
/// below SIZE_MAX, at most this many bytes reach the tmp file before the
/// write reports failure — simulating ENOSPC / a short write mid-frame.
/// The fault-injection test asserts the previous checkpoint survives.
extern std::atomic<std::size_t> g_atomic_write_cap;
/// Test-only: forces the directory-fsync step of
/// save_checkpoint_file_atomic to take its failure path (as if the
/// parent could not be opened), so the warn-once behavior is testable.
extern std::atomic<bool> g_dir_fsync_fail;
/// True once save_checkpoint_file_atomic has warned about a failed
/// directory fsync (it warns at most once per process — auto-checkpoint
/// sinks fire thousands of times). Tests may reset it. Atomic: the
/// background writers of several sinks save concurrently.
extern std::atomic<bool> g_dir_fsync_warned;
}  // namespace detail

}  // namespace rr::sim
