#pragma once

// Distributed rotor-router coordinator (dist layer).
//
// core::DistributedRotorRouter is a sim::Engine whose rounds execute on N
// worker processes (or in-process worker threads), each owning one
// contiguous arc-balanced shard of the CSR row space — the same
// graph::Partition split a sharded core::RotorRouter uses with threads.
// The coordinator holds no per-node dynamic state of its own: it sequences
// the round protocol, relays cross-shard spill batches, evaluates the
// delay schedule, and aggregates coverage.
//
// One round (see dist/protocol.hpp for message shapes):
//
//   kOccupiedQuery / kOccupied   (delayed rounds only: the DelayFn lives
//                                 at the coordinator, so it collects the
//                                 occupied rows, evaluates D(v, t, n) and
//                                 ships each worker its held counts)
//   kScan(t)       -> workers scan their occupied rows, streaming kSpill
//                     batches mid-scan; the coordinator relays each batch
//                     to its destination worker on receipt, so comms
//                     overlap both the sender's and the receiver's peers'
//                     compute. kScanDone carries the comms counters.
//   kCommit(t)     -> workers fold arrival totals (additive, order-free),
//                     reply kCommitDone with newly covered counts.
//
// Socket FIFO order is the correctness backbone: every kSpill(t) a worker
// emits precedes its kScanDone(t), the coordinator queues relays before
// it queues any kCommit(t), and per-connection byte streams deliver in
// order — so every arrival of round t is absorbed before it commits.
// The coordinator's sockets are nonblocking with userspace write queues
// (the rr_serverd pump idiom) while workers block: the star never
// deadlocks because the center always drains reads.
//
// Bit-equality: arrival commits are additive with set-once first-visit
// bookkeeping, so shard state after round t is a function of per-node
// arrival totals — never of batch boundaries, relay interleavings, or
// worker scheduling. config_hash chains FNV-1a across workers in shard
// order and checkpoints gather into the exact serialize_rotor_state field
// set, so hashes and rr-ckpt images are byte-identical to the sequential
// engine's (the differential gate in tests/dist_engine_test.cpp holds
// this across worker counts, topologies, delay schedules, and restarts
// that change the worker count).
//
// Worker crash (socket EOF/error any time): the engine halts cleanly —
// halted() turns true, time() stays at the last committed round, further
// step()/run() calls are no-ops, and no checkpoint fires after the halt
// (the workers are gone; the resumable point is the last periodic
// auto-checkpoint, which `rr_cli run --resume` continues, with any
// worker count).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_step.hpp"
#include "dist/protocol.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/partition.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"

namespace rr::core {

/// How the coordinator obtains its workers.
struct DistOptions {
  /// Worker count; clamped to [1, num_nodes] like Partition shard counts.
  std::uint32_t workers = 2;
  /// Spill batch size: a worker flushes a destination's batch mid-scan
  /// once this many distinct frontier slots accumulate. Smaller batches
  /// overlap more, larger ones amortize framing; 0 behaves as 1.
  std::uint64_t spill_batch = 256;
  /// Path of the rr_noded binary to fork/exec per worker (connected via
  /// an inherited socketpair fd, `rr_noded --dist-fd N`). Empty: workers
  /// run as in-process threads over socketpairs instead — the same
  /// worker_serve loop and wire protocol, zero-setup (tests, bench, and
  /// single-machine runs without a sibling binary).
  std::string noded_path;
  /// Non-empty: instead of spawning anything, listen on this AF_UNIX
  /// path and accept `workers` externally launched `rr_noded --connect`
  /// processes. Takes precedence over noded_path.
  std::string listen_socket;
  /// Fault-injection hook (thread transport): worker 0 drops its
  /// connection when it receives its worker_fail_after-th kScan. The CI
  /// smoke lane kills a real rr_noded process instead.
  std::uint64_t worker_fail_after = 0;
};

/// Cumulative comms counters, aggregated from kScanDone.
struct DistCommsStats {
  std::uint64_t rounds = 0;
  std::uint64_t spill_bytes = 0;       ///< framed kSpill payload bytes
  std::uint64_t batches = 0;           ///< kSpill batches emitted
  std::uint64_t mid_scan_batches = 0;  ///< flushed while still scanning
};

class DistributedRotorRouter final : public sim::Engine, public sim::StateIO {
 public:
  /// Builds the CSR from the descriptor (GraphDescriptor::build),
  /// spawns/accepts the workers, and initializes them.
  /// nullptr (with *error set) on an invalid config, a descriptor that
  /// fails to build or is disconnected, or any worker that cannot be
  /// spawned or rejects its kInit. Never aborts: every input here can
  /// arrive from CLI flags.
  static std::unique_ptr<DistributedRotorRouter> create(
      const graph::GraphDescriptor& descriptor,
      const std::vector<graph::NodeId>& agents,
      const std::vector<std::uint32_t>& pointers, const DistOptions& options,
      std::string* error = nullptr);

  ~DistributedRotorRouter() override;
  DistributedRotorRouter(const DistributedRotorRouter&) = delete;
  DistributedRotorRouter& operator=(const DistributedRotorRouter&) = delete;

  // ---- sim::Engine ----
  void step() override;
  void run(std::uint64_t rounds) override;
  std::uint64_t run_until_covered(std::uint64_t max_rounds) override;
  std::uint64_t time() const override { return time_; }
  sim::NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint32_t num_agents() const override { return num_agents_; }
  std::uint64_t visits(sim::NodeId v) const override;
  std::uint64_t first_visit_time(sim::NodeId v) const override;
  sim::NodeId covered_count() const override { return covered_; }
  std::uint64_t config_hash() const override;
  /// Same engine identity as the sequential and sharded engines: the
  /// checkpoints are interchangeable (restore with any backend).
  const char* engine_name() const override { return "rotor-router"; }

  // ---- sim::StateIO ----
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

  /// True once a worker died or broke protocol; the engine is inert
  /// (step/run no-op, time() frozen at the last committed round).
  bool halted() const { return halted_; }
  std::uint32_t num_workers() const { return part_.num_shards(); }
  const DistCommsStats& comms_stats() const { return comms_; }

 private:
  struct Conn {
    int fd = -1;
    bool alive = false;
    dist::FrameDecoder dec;
    std::string out;            // queued unsent bytes (framed messages)
    std::size_t out_off = 0;    // sent prefix of `out`
  };

  DistributedRotorRouter(graph::CsrGraph csr, std::uint32_t workers);

  bool spawn(const DistOptions& options, std::string* error);
  bool init_workers(const graph::GraphDescriptor& descriptor,
                    const std::vector<graph::NodeId>& agents,
                    const std::vector<std::uint32_t>& pointers,
                    const DistOptions& options, std::string* error);

  void step_impl(const sim::DelayFn* delay);
  void do_step_delayed(const sim::DelayFn& delay) override {
    step_impl(&delay);
  }

  // Socket pump (nonblocking; see header comment).
  void fail_worker(std::uint32_t w);
  void queue_msg(std::uint32_t w, const dist::DistMsg& m);
  void try_flush(std::uint32_t w);
  bool pump_once(int timeout_ms);  // one poll cycle; false if halted
  /// Next decoded message from any worker; false (and halted_) on death
  /// or malformed stream.
  bool next_msg(std::uint32_t* from, dist::DistMsg* m);
  /// One `kind` message from every worker; relays round-`round` kSpill
  /// batches when allow_spill. handler(worker, msg) per reply.
  template <typename Handler>
  bool collect(dist::MsgKind kind, std::uint64_t round, bool allow_spill,
               Handler&& handler);
  /// One `kind` message from worker `w` specifically.
  bool expect_from(std::uint32_t w, dist::MsgKind kind, dist::DistMsg* m);

  /// Refreshes the gathered full-state cache (kGather sweep) if it is
  /// stale for the current round. False on halt.
  bool refresh_gather() const;

  graph::CsrGraph csr_;
  graph::Partition part_;
  std::uint64_t time_ = 0;
  std::uint32_t num_agents_ = 0;
  sim::NodeId covered_ = 0;
  bool halted_ = false;
  DistCommsStats comms_;

  std::vector<Conn> conn_;
  std::vector<std::thread> threads_;  // thread transport
  std::vector<int> child_pids_;       // fork/exec transport

  // Gathered-state cache backing visits()/first_visit_time()/serialize;
  // mutable because const accessors refresh it over the sockets. The
  // arrays are members (not locals) deliberately: serialize_rotor_state
  // records strided *views* that the checkpoint writer streams after
  // serialize_state returns. Tagged by the round it was gathered at.
  mutable std::uint64_t gather_round_ = ~std::uint64_t{0};
  mutable std::vector<graph::NodeState> gather_node_;
  mutable std::vector<std::uint32_t> gather_ip_;
  mutable std::vector<core::VisitStats> gather_stats_;
  mutable std::size_t gather_sites_ = 0;  // nodes with a gathered count
};

}  // namespace rr::core
