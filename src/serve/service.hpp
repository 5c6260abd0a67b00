#pragma once

// Session-multiplexing simulation service (serve layer).
//
// A *session* is a live simulation: an engine built through
// sim::EngineRegistry plus its checkpoint descriptor, addressable by a
// server-assigned id. SessionService owns the session table and the whole
// request/reply state machine of the rr_serverd protocol
// (serve/protocol.hpp), but knows nothing about sockets: the transport
// (examples/rr_serverd.cpp, bench/bench_server.cpp, the tests) feeds it
// decoded frame payloads via handle() and ships back the Outgoing frames
// it produces. That split keeps the scheduler deterministic and testable
// in-process — the differential lane drives it with no daemon at all.
//
// Scheduling. Step requests do not run inline: handle() only queues
// rounds, and pump() — called by the transport between poll iterations —
// grants runnable sessions bounded *quanta* of rounds. Each session
// carries a QoS class (interactive / batch / background, from the create
// request; pre-QoS clients default to interactive) and the scheduler is
// credit-based weighted round-robin across the classes:
//
//   * interactive sessions are granted a quantum on *every* pump they
//     are runnable — they preempt at quantum boundaries and never wait
//     on batch work;
//   * batch and background sessions share the remaining per-pump round
//     budget (`pump_rounds`) in a 4:1 weight ratio, carrying unused
//     credit forward (bounded), with adaptive larger quanta
//     (`quantum_batch` / `quantum_background`) so throughput work isn't
//     chopped into latency-sized pieces;
//   * queued step requests on one session coalesce: the session runs
//     toward the *latest* requested target in whatever quanta the
//     scheduler grants, and each request's reply is emitted by the pump
//     that crosses its target (the continuous-batching analogue — many
//     requests, one stream of quanta).
//
// `policy` = kFifo disables all of that and grants every runnable
// session one fixed quantum per pump (the pre-QoS scheduler, kept as the
// measurable baseline for bench_server's mixed-QoS lane).
//
// Whatever the policy, scheduling changes only the *order and latency*
// of rounds, never their result: a session's trajectory is a pure
// function of its config, so served runs stay bit-identical to rr_cli
// runs under every policy (the differential tests pin this).
//
// When a shared sim::ThreadPool is given, one pump steps all granted
// sessions in a single multi-lane dispatch (interactive lane first);
// pump() must be called from one thread only (the pool's
// single-dispatcher contract; the daemon's poll loop is exactly that
// thread).
//
// Residency. At most `max_live` sessions hold an engine in memory.  Idle
// sessions (no queued rounds for `evict_after` consecutive pumps) are
// evicted: serialized as an rr-ckpt v2 document (segment count pinned to
// kV2DefaultSegments so the bytes are independent of pool width) and
// atomically saved under ckpt_dir, the engine freed. Evicted sessions
// still answer observe (cached summary) and snapshot (the file bytes);
// a step request on one queues it for *rehydration* — pump restores
// evicted waiters as live slots free up (interactive waiters first),
// pressure-evicting finished idle sessions when the table is saturated,
// preferring background victims. This is what bounds RSS at 10k
// concurrent sessions (bench_server measures it).
//
// Admission. The table is bounded (`max_sessions`): create/resume beyond
// it answer kBusy and the client retries. A session accepts up to
// `max_queued_steps` concurrent step requests (they coalesce, see
// above); beyond that the step answers kBusy. kEvicted is reserved for
// sessions whose state is actually lost (checkpoint unreadable on
// rehydration) — the session is destroyed and the client must recreate
// it.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/engine.hpp"

namespace rr::sim {
class ThreadPool;
}  // namespace rr::sim

namespace rr::serve {

/// Pump scheduling policy. kFifo = every runnable session gets one fixed
/// quantum per pump (pre-QoS behavior, the bench baseline); kQos = the
/// credit-based weighted scheduler described above.
enum class SchedPolicy : std::uint8_t { kFifo = 0, kQos = 1 };

struct ServiceOptions {
  std::uint64_t max_sessions = 4096;  ///< session-table bound (admission)
  std::uint64_t max_live = 256;       ///< resident engines (residency)
  std::uint64_t quantum = 64;         ///< interactive rounds per grant
  std::uint64_t evict_after = 16;     ///< idle pumps before eviction
  SchedPolicy policy = SchedPolicy::kQos;
  /// Adaptive quantum caps for throughput classes (clamped up to
  /// `quantum` if set lower).
  std::uint64_t quantum_batch = 512;
  std::uint64_t quantum_background = 256;
  /// Per-pump round budget shared by batch+background after interactive
  /// grants are taken out (0 = 16 * quantum).
  std::uint64_t pump_rounds = 0;
  /// Concurrent (coalescing) step requests per session before kBusy.
  std::uint64_t max_queued_steps = 16;
  /// Default auto-checkpoint period for sessions created with every == 0
  /// (0 = auto-checkpointing off unless the create request asks).
  std::uint64_t auto_checkpoint_every = 0;
  /// Steady-state cycle leaping applied to session engines at create /
  /// resume / rehydration (sim::wrap_cycle_jump): kAuto wraps
  /// deterministic backends, kOff never wraps, kOn rejects
  /// non-deterministic creates. Requests may opt a session out on the
  /// wire (Request::no_cycle_jump); leaping changes the cost of a step
  /// quantum, never its result, so served trajectories stay bit-identical
  /// under every mode.
  sim::CycleJumpMode cycle_jump = sim::CycleJumpMode::kAuto;
  /// Per-QoS-class override of `cycle_jump`, indexed by QosClass value
  /// (rr_serverd's --cycle-jump-interactive/-batch/-background flags).
  /// Unset classes inherit `cycle_jump`. The wire opt-out still wins:
  /// a session created with no_cycle_jump never leaps whatever its
  /// class says. Background work is where leaping pays (long horizons,
  /// nobody watching the latency), which is why the daemon defaults
  /// that class to kOn.
  std::optional<sim::CycleJumpMode> cycle_jump_class[kNumQosClasses];
  std::string ckpt_dir = "/tmp";  ///< eviction / auto-checkpoint files
  sim::ThreadPool* pool = nullptr;  ///< shared pool (stepping + ckpt codec)
};

/// Per-QoS-class counters (indexed by QosClass value; kInfo prints them).
struct QosClassStats {
  std::uint64_t step_requests = 0;
  std::uint64_t rounds_scheduled = 0;  ///< rounds granted by the scheduler
  std::uint64_t wait_pumps = 0;  ///< runnable-but-not-granted session-pumps
  std::uint64_t busy_replies = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t rehydrations_deferred = 0;  ///< step queued on evicted session
  std::uint64_t cj_wrapped = 0;  ///< engines wrapped for cycle leaping
};

struct ServiceStats {
  std::uint64_t created = 0;
  std::uint64_t destroyed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t evict_failures = 0;  ///< eviction writes that failed
  std::uint64_t rehydrations = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t evicted_replies = 0;
  std::uint64_t step_requests = 0;
  std::uint64_t rounds_stepped = 0;
  QosClassStats qos[kNumQosClasses];
};

class SessionService {
 public:
  /// A frame to ship to connection `conn` (transport-assigned ids;
  /// replies go back to the connection that sent the request, trace
  /// events to the one that subscribed).
  struct Outgoing {
    std::uint64_t conn = 0;
    std::string frame;
  };

  explicit SessionService(ServiceOptions opt);
  /// Destroys every session and removes their eviction files.
  ~SessionService();

  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  /// Processes one decoded frame payload from `conn`. Replies (and for
  /// malformed payloads, the id-0 error reply) are appended to `out`;
  /// step replies are deferred to the pump that finishes the work.
  void handle(std::uint64_t conn, const std::uint8_t* payload,
              std::size_t size, std::vector<Outgoing>& out);

  /// One scheduler tick: rehydrates waiters into free live slots, grants
  /// quanta per the scheduling policy (one multi-lane dispatch on the
  /// shared pool when given), emits crossed step replies and due trace
  /// events, and evicts sessions idle past the threshold. Returns true
  /// if any session made progress. Single-dispatcher: call from one
  /// thread only.
  bool pump(std::vector<Outgoing>& out);

  /// True if a pump would do real work now (queued rounds or waiting
  /// rehydrations) — the daemon polls with timeout 0 while this holds.
  bool has_pending_work() const;

  /// A kShutdown request was accepted; the transport should flush and
  /// exit its loop.
  bool shutdown_requested() const { return shutdown_; }

  /// The transport lost `conn`: cancel its trace subscriptions (queued
  /// step work still completes; the transport drops undeliverable
  /// frames).
  void drop_connection(std::uint64_t conn);

  std::uint64_t live_sessions() const { return live_; }
  std::uint64_t total_sessions() const { return sessions_.size(); }
  const ServiceStats& stats() const { return stats_; }

 private:
  /// One queued step request; replies are matched to targets on the
  /// session's own round clock (coalescing keeps them ordered).
  struct StepWaiter {
    std::uint64_t req_id = 0;
    std::uint64_t conn = 0;
    std::uint64_t target_time = 0;  ///< reply when session time reaches this
  };

  struct Session {
    std::uint64_t id = 0;
    QosClass qos = QosClass::kInteractive;
    std::string engine_name;  ///< Engine::engine_name() (registry key)
    std::string descriptor;   ///< graph descriptor text
    std::unique_ptr<sim::Engine> engine;  ///< null while evicted
    // Summary of the last observed engine state; kept fresh while live,
    // frozen at eviction so observe() answers without rehydrating.
    std::uint64_t time = 0;
    std::uint64_t covered = 0;
    std::uint64_t nodes = 0;
    std::uint64_t agents = 0;
    std::uint64_t config_hash = 0;
    std::uint64_t ckpt_every = 0;  ///< auto-checkpoint period (0 = off)
    bool no_cycle_jump = false;    ///< wire opt-out, sticky across rehydration
    // Coalesced step requests: pending_rounds is the distance from the
    // engine clock to the *last* waiter's target.
    std::deque<StepWaiter> step_waiters;
    std::uint64_t pending_rounds = 0;
    bool ready_queued = false;  ///< queued in ready_[qos] for scheduling
    bool waiting = false;       ///< queued in waiting_[qos] for rehydration
    // Trace subscription: one kTrace push per pump once time passes
    // trace_next, id echoing the subscribe request.
    std::uint64_t trace_every = 0;
    std::uint64_t trace_next = 0;
    std::uint64_t trace_req_id = 0;
    std::uint64_t trace_conn = 0;
    std::uint64_t idle_pumps = 0;
  };

  /// A scheduling decision of one pump: session + rounds granted.
  struct Grant {
    Session* s = nullptr;
    std::uint64_t rounds = 0;
  };

  std::string evict_path(std::uint64_t id) const;
  /// The cycle-jump mode for a session: wire opt-out first, then the
  /// class override, then the global mode.
  sim::CycleJumpMode cycle_jump_mode_for(QosClass qos,
                                         bool no_cycle_jump) const;
  /// Counts a completed wrap decision for the class (kInfo observability).
  void note_cycle_jump_wrap(QosClass qos, const sim::Engine& engine);
  void refresh_summary(Session& s);
  Reply summary_reply(const Session& s, std::uint64_t req_id,
                      Status status = Status::kOk) const;
  void emit(std::vector<Outgoing>& out, std::uint64_t conn, const Reply& rep);
  Session* find_session(std::uint64_t id);
  /// Serializes + frees the engine; false (session stays live) if the
  /// checkpoint cannot be written.
  bool evict(Session& s);
  /// Restores the engine from the eviction file; false = state lost.
  bool rehydrate(Session& s);
  /// Frees a live slot for a waiter by evicting a finished idle session —
  /// background victims first, then most-idle, then smallest id (a
  /// deterministic order the tests can pin); false if every live session
  /// is busy.
  bool pressure_evict();
  void arm_auto_checkpoint(Session& s);
  void destroy(std::uint64_t id);
  /// Queues a live session with pending rounds for scheduling (no-op if
  /// already queued).
  void enqueue_ready(Session& s);
  /// Pops the next schedulable session off ready_[c] (skipping stale
  /// ids); nullptr when the class has none.
  Session* pop_ready(std::size_t c);
  std::uint64_t pump_budget() const;
  /// Fills `grants` (one vector per class, dispatched in class order).
  void schedule(std::vector<Grant> (&grants)[kNumQosClasses]);

  ServiceOptions opt_;
  ServiceStats stats_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  /// Evicted sessions with queued work, per class (drained
  /// interactive-first).
  std::deque<std::uint64_t> waiting_[kNumQosClasses];
  /// Live sessions with queued work, per class (round-robin within).
  std::deque<std::uint64_t> ready_[kNumQosClasses];
  /// Deficit credits for the throughput classes (indexed by class).
  std::uint64_t credit_[kNumQosClasses] = {0, 0, 0};
  std::uint64_t next_id_ = 1;
  std::uint64_t live_ = 0;
  bool shutdown_ = false;
};

}  // namespace rr::serve
