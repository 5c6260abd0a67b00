#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "graph/descriptor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"
#include "sim/thread_pool.hpp"

namespace rr::serve {

namespace {

Reply error_reply(std::uint64_t req_id, const char* message,
                  Status status = Status::kError) {
  Reply rep;
  rep.id = req_id;
  rep.status = status;
  rep.message = message;
  return rep;
}

// Batch : background share of the leftover pump budget.
constexpr std::uint64_t kClassWeight[kNumQosClasses] = {0, 4, 1};

// Unused credit carries across pumps (a class briefly displaced by an
// interactive burst catches up) but is bounded so an idle class cannot
// hoard an unbounded backlog entitlement.
constexpr std::uint64_t kCreditCapBudgets = 4;

constexpr std::size_t qos_index(QosClass c) {
  return static_cast<std::size_t>(c);
}

}  // namespace

SessionService::SessionService(ServiceOptions opt) : opt_(std::move(opt)) {
  if (opt_.quantum == 0) opt_.quantum = 1;
  if (opt_.max_live == 0) opt_.max_live = 1;
  if (opt_.max_sessions < opt_.max_live) opt_.max_sessions = opt_.max_live;
  if (opt_.max_queued_steps == 0) opt_.max_queued_steps = 1;
  // Adaptive quanta are *larger* grants for throughput classes; below the
  // interactive quantum they would only add scheduling overhead.
  opt_.quantum_batch = std::max(opt_.quantum_batch, opt_.quantum);
  opt_.quantum_background = std::max(opt_.quantum_background, opt_.quantum);
}

SessionService::~SessionService() {
  for (const auto& [id, s] : sessions_) {
    std::remove(evict_path(id).c_str());
  }
}

std::string SessionService::evict_path(std::uint64_t id) const {
  return opt_.ckpt_dir + "/rr-session-" + std::to_string(id) + ".ckpt";
}

sim::CycleJumpMode SessionService::cycle_jump_mode_for(
    QosClass qos, bool no_cycle_jump) const {
  if (no_cycle_jump) return sim::CycleJumpMode::kOff;
  const auto& cls = opt_.cycle_jump_class[qos_index(qos)];
  return cls ? *cls : opt_.cycle_jump;
}

void SessionService::note_cycle_jump_wrap(QosClass qos,
                                          const sim::Engine& engine) {
  if (dynamic_cast<const sim::CycleJumpEngine*>(&engine) != nullptr) {
    ++stats_.qos[qos_index(qos)].cj_wrapped;
  }
}

void SessionService::refresh_summary(Session& s) {
  if (!s.engine) return;
  s.time = s.engine->time();
  s.covered = s.engine->covered_count();
  s.nodes = s.engine->num_nodes();
  s.agents = s.engine->num_agents();
  s.config_hash = s.engine->config_hash();
}

Reply SessionService::summary_reply(const Session& s, std::uint64_t req_id,
                                    Status status) const {
  Reply rep;
  rep.id = req_id;
  rep.status = status;
  rep.session = s.id;
  rep.time = s.time;
  rep.covered = s.covered;
  rep.nodes = s.nodes;
  rep.agents = s.agents;
  rep.config_hash = s.config_hash;
  rep.resident = s.engine != nullptr;
  return rep;
}

void SessionService::emit(std::vector<Outgoing>& out, std::uint64_t conn,
                          const Reply& rep) {
  out.push_back(Outgoing{conn, encode_frame(encode_reply(rep))});
}

SessionService::Session* SessionService::find_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void SessionService::arm_auto_checkpoint(Session& s) {
  if (!s.engine || s.ckpt_every == 0) return;
  // nullptr pool: the sink may fire from inside a pool job when pumps
  // step sessions in parallel, and a worker must not try to dispatch.
  s.engine->set_auto_checkpoint(
      s.ckpt_every, sim::checkpoint_file_sink(evict_path(s.id), s.descriptor,
                                              sim::CkptFormat::kV2, nullptr));
}

bool SessionService::evict(Session& s) {
  refresh_summary(s);
  // Pinning the segment count makes the document byte-identical to what
  // any other writer (rr_cli, the differential tests) produces for the
  // same state, regardless of this service's pool width.
  const std::string text =
      sim::write_checkpoint(*s.engine, s.descriptor, sim::CkptFormat::kV2,
                            sim::kV2DefaultSegments, opt_.pool);
  if (!sim::save_checkpoint_file_atomic(evict_path(s.id), text)) {
    // The session stays resident and keeps serving; the failure is
    // counted (kInfo's evict_failures=) and reported once.
    if (stats_.evict_failures++ == 0) {
      std::fprintf(stderr,
                   "rr-serve: warning: eviction write to %s failed; the "
                   "session stays resident (further failures counted, not "
                   "reported)\n",
                   evict_path(s.id).c_str());
    }
    return false;
  }
  s.engine.reset();
  s.idle_pumps = 0;
  --live_;
  ++stats_.evictions;
  ++stats_.qos[qos_index(s.qos)].evictions;
  return true;
}

bool SessionService::rehydrate(Session& s) {
  auto engine = sim::restore_checkpoint_file(evict_path(s.id), 1, opt_.pool);
  if (!engine) return false;
  // Re-apply the session's cycle-jump decision: eviction files hold the
  // inner engine's state, so the wrapper is reconstructed. kOn maps to
  // kAuto here — the requirement was enforced at create, and kAuto can
  // never fail, so a rehydration degrades to dense stepping rather than
  // losing the session.
  sim::CycleJumpMode mode = cycle_jump_mode_for(s.qos, s.no_cycle_jump);
  if (mode == sim::CycleJumpMode::kOn) mode = sim::CycleJumpMode::kAuto;
  s.engine = sim::wrap_cycle_jump(std::move(engine), mode);
  note_cycle_jump_wrap(s.qos, *s.engine);
  s.idle_pumps = 0;
  arm_auto_checkpoint(s);
  refresh_summary(s);
  ++live_;
  ++stats_.rehydrations;
  ++stats_.qos[qos_index(s.qos)].rehydrations;
  return true;
}

bool SessionService::pressure_evict() {
  // Deterministic victim order: background class first (lowest priority),
  // then longest-idle, then smallest id.
  std::vector<Session*> candidates;
  for (auto& [id, s] : sessions_) {
    if (s.engine && s.step_waiters.empty() && s.pending_rounds == 0) {
      candidates.push_back(&s);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Session* a, const Session* b) {
              if (a->qos != b->qos) return a->qos > b->qos;
              if (a->idle_pumps != b->idle_pumps)
                return a->idle_pumps > b->idle_pumps;
              return a->id < b->id;
            });
  for (Session* s : candidates) {
    if (evict(*s)) return true;
  }
  return false;
}

void SessionService::destroy(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (it->second.engine) --live_;
  std::remove(evict_path(id).c_str());
  sessions_.erase(it);  // stale ready_/waiting_ entries are skipped later
  ++stats_.destroyed;
}

void SessionService::drop_connection(std::uint64_t conn) {
  // Queued step work still completes (the transport discards frames to a
  // gone connection); only unbounded pushes are cancelled.
  for (auto& [id, s] : sessions_) {
    if (s.trace_every != 0 && s.trace_conn == conn) s.trace_every = 0;
  }
}

bool SessionService::has_pending_work() const {
  for (const auto& q : waiting_) {
    if (!q.empty()) return true;
  }
  for (const auto& [id, s] : sessions_) {
    if (s.engine && s.pending_rounds > 0) return true;
  }
  return false;
}

void SessionService::enqueue_ready(Session& s) {
  if (s.ready_queued || !s.engine || s.pending_rounds == 0) return;
  s.ready_queued = true;
  ready_[qos_index(s.qos)].push_back(s.id);
}

SessionService::Session* SessionService::pop_ready(std::size_t c) {
  auto& q = ready_[c];
  while (!q.empty()) {
    const std::uint64_t id = q.front();
    q.pop_front();
    Session* s = find_session(id);
    if (!s || !s->ready_queued) continue;  // destroyed while queued
    s->ready_queued = false;
    if (!s->engine || s->pending_rounds == 0) continue;
    return s;
  }
  return nullptr;
}

std::uint64_t SessionService::pump_budget() const {
  return opt_.pump_rounds != 0 ? opt_.pump_rounds : 16 * opt_.quantum;
}

void SessionService::schedule(std::vector<Grant> (&grants)[kNumQosClasses]) {
  if (opt_.policy == SchedPolicy::kFifo) {
    // Baseline scheduler: every runnable session, one fixed quantum, no
    // budget — a saturating batch session head-of-line-blocks everything
    // pumped behind it (this is exactly what the QoS lane measures).
    for (std::size_t c = 0; c < kNumQosClasses; ++c) {
      while (Session* s = pop_ready(c)) {
        grants[c].push_back(
            Grant{s, std::min(s->pending_rounds, opt_.quantum)});
      }
    }
    return;
  }

  // Interactive: granted on every pump they are runnable — strict
  // priority, not budgeted. The pump's wall time is bounded by the
  // interactive population times one quantum plus the budget below.
  std::uint64_t interactive_used = 0;
  while (Session* s = pop_ready(qos_index(QosClass::kInteractive))) {
    const std::uint64_t q = std::min(s->pending_rounds, opt_.quantum);
    grants[qos_index(QosClass::kInteractive)].push_back(Grant{s, q});
    interactive_used += q;
  }

  // Batch + background split what the interactive grants left of the
  // budget, 4:1 by accruing credit, spending it in adaptive quanta
  // (larger than interactive — throughput work shouldn't be chopped into
  // latency-sized pieces). Credit carries across pumps, bounded; a class
  // with nothing runnable forfeits its credit (deficit-round-robin rule:
  // only backlogged classes accumulate).
  const std::uint64_t budget = pump_budget();
  const std::uint64_t spare =
      budget > interactive_used ? budget - interactive_used : 0;
  std::uint64_t weight_sum = 0;
  for (std::size_t c = 1; c < kNumQosClasses; ++c) {
    if (!ready_[c].empty()) weight_sum += kClassWeight[c];
  }
  for (std::size_t c = 1; c < kNumQosClasses; ++c) {
    if (ready_[c].empty()) {
      credit_[c] = 0;
      continue;
    }
    credit_[c] = std::min(credit_[c] + spare * kClassWeight[c] / weight_sum,
                          kCreditCapBudgets * budget);
    const std::uint64_t cap = c == qos_index(QosClass::kBatch)
                                  ? opt_.quantum_batch
                                  : opt_.quantum_background;
    // One pass over the class queue per pump: each popped session gets
    // min(backlog, adaptive cap, remaining credit); sessions the credit
    // cannot reach stay queued (their wait is the wait_pumps counter).
    std::size_t passes = ready_[c].size() + 1;
    while (credit_[c] > 0 && passes-- > 0) {
      Session* s = pop_ready(c);
      if (!s) break;
      const std::uint64_t q =
          std::min({s->pending_rounds, cap, credit_[c]});
      grants[c].push_back(Grant{s, q});
      credit_[c] -= q;
    }
    stats_.qos[c].wait_pumps += ready_[c].size();
  }
}

void SessionService::handle(std::uint64_t conn, const std::uint8_t* payload,
                            std::size_t size, std::vector<Outgoing>& out) {
  const auto req = decode_request(payload, size);
  if (!req) {
    emit(out, conn, error_reply(0, "malformed request"));
    return;
  }

  switch (req->op) {
    case Op::kCreate:
    case Op::kResume: {
      if (sessions_.size() >= opt_.max_sessions) {
        ++stats_.busy_replies;
        ++stats_.qos[qos_index(req->qos)].busy_replies;
        emit(out, conn,
             error_reply(req->id, "session table full", Status::kBusy));
        return;
      }
      if (live_ >= opt_.max_live && !pressure_evict()) {
        ++stats_.busy_replies;
        ++stats_.qos[qos_index(req->qos)].busy_replies;
        emit(out, conn,
             error_reply(req->id, "no live slot free", Status::kBusy));
        return;
      }
      Session s;
      if (req->op == Op::kCreate) {
        const auto d = graph::GraphDescriptor::parse(req->graph);
        const auto n = d ? d->num_nodes() : std::nullopt;
        if (!d || !n || *n == 0) {
          emit(out, conn, error_reply(req->id, "invalid graph descriptor"));
          return;
        }
        std::vector<sim::NodeId> agents;
        if (!req->agents.empty()) {
          agents.reserve(req->agents.size());
          for (std::uint64_t a : req->agents) {
            if (a >= *n) {
              emit(out, conn, error_reply(req->id, "agent node out of range"));
              return;
            }
            agents.push_back(static_cast<sim::NodeId>(a));
          }
        } else {
          if (req->k == 0 || req->k > *n) {
            emit(out, conn,
                 error_reply(req->id, "k must be in [1, num_nodes]"));
            return;
          }
          agents.resize(static_cast<std::size_t>(req->k));
          for (std::uint64_t i = 0; i < req->k; ++i) {
            // Same spread rr_cli uses, so a served run is comparable to
            // a CLI run of the same (engine, graph, k).
            agents[i] = static_cast<sim::NodeId>(i * *n / req->k);
          }
        }
        sim::EngineConfig config;
        config.agents = std::move(agents);
        config.seed = req->seed;
        config.pool = opt_.pool;
        std::string error;
        auto engine = sim::EngineRegistry::instance().create(req->engine, *d,
                                                             config, &error);
        if (!engine) {
          emit(out, conn,
               error_reply(req->id, error.empty() ? "cannot create engine"
                                                  : error.c_str()));
          return;
        }
        s.engine = std::move(engine);
        s.descriptor = d->text();
      } else {
        const auto parsed = sim::parse_checkpoint(req->blob, opt_.pool);
        if (!parsed) {
          emit(out, conn, error_reply(req->id, "malformed checkpoint"));
          return;
        }
        auto engine = sim::restore_checkpoint_sharded(*parsed, 1, opt_.pool);
        if (!engine) {
          emit(out, conn, error_reply(req->id, "cannot restore checkpoint"));
          return;
        }
        s.engine = std::move(engine);
        s.descriptor = parsed->graph_descriptor;
      }
      s.no_cycle_jump = req->no_cycle_jump;
      s.qos = req->qos;
      {
        // Wrap before arming auto-checkpoints so leap scheduling honors
        // the checkpoint marks; the wrapper forwards every observable and
        // serializes the inner state, so summaries, snapshots and
        // evictions are unchanged. The mode resolves per QoS class: a
        // class-level kOn keeps its strict meaning (a non-deterministic
        // create in that class is an error the client must opt out of
        // with no_cycle_jump or a different class).
        std::string cj_error;
        s.engine = sim::wrap_cycle_jump(
            std::move(s.engine),
            cycle_jump_mode_for(s.qos, s.no_cycle_jump), {}, &cj_error);
        if (!s.engine) {
          emit(out, conn, error_reply(req->id, cj_error.c_str()));
          return;
        }
        note_cycle_jump_wrap(s.qos, *s.engine);
      }
      s.id = next_id_++;
      s.engine_name = s.engine->engine_name();
      s.ckpt_every =
          req->every != 0 ? req->every : opt_.auto_checkpoint_every;
      arm_auto_checkpoint(s);
      refresh_summary(s);
      ++live_;
      ++stats_.created;
      const std::uint64_t id = s.id;
      sessions_.emplace(id, std::move(s));
      emit(out, conn, summary_reply(sessions_.at(id), req->id));
      return;
    }

    case Op::kStep: {
      Session* s = find_session(req->session);
      if (!s) {
        emit(out, conn, error_reply(req->id, "unknown session"));
        return;
      }
      const std::size_t cls = qos_index(s->qos);
      if (s->step_waiters.size() >= opt_.max_queued_steps) {
        ++stats_.busy_replies;
        ++stats_.qos[cls].busy_replies;
        emit(out, conn,
             error_reply(req->id, "step queue full", Status::kBusy));
        return;
      }
      ++stats_.step_requests;
      ++stats_.qos[cls].step_requests;
      if (req->rounds == 0) {
        if (s->engine) refresh_summary(*s);
        emit(out, conn, summary_reply(*s, req->id));
        return;
      }
      // Coalescing: this request's target extends the previous one (or
      // the engine clock when the queue is idle); the scheduler runs the
      // session toward the last target in whatever quanta it grants and
      // each reply fires as its own target is crossed.
      if (s->engine && s->step_waiters.empty()) refresh_summary(*s);
      const std::uint64_t from =
          s->step_waiters.empty() ? s->time : s->step_waiters.back().target_time;
      if (from + req->rounds < from) {  // would wrap the round clock
        emit(out, conn,
             error_reply(req->id, "rounds overflow the session clock"));
        return;
      }
      s->step_waiters.push_back(StepWaiter{req->id, conn, from + req->rounds});
      s->pending_rounds += req->rounds;
      s->idle_pumps = 0;
      if (s->engine) {
        enqueue_ready(*s);
      } else if (!s->waiting) {
        s->waiting = true;
        waiting_[cls].push_back(s->id);
        ++stats_.qos[cls].rehydrations_deferred;
      }
      return;  // replies come from the pumps that cross the targets
    }

    case Op::kObserve: {
      Session* s = find_session(req->session);
      if (!s) {
        emit(out, conn, error_reply(req->id, "unknown session"));
        return;
      }
      if (s->engine) refresh_summary(*s);
      emit(out, conn, summary_reply(*s, req->id));
      return;
    }

    case Op::kSnapshot: {
      Session* s = find_session(req->session);
      if (!s) {
        emit(out, conn, error_reply(req->id, "unknown session"));
        return;
      }
      if (!s->step_waiters.empty()) {
        ++stats_.busy_replies;
        ++stats_.qos[qos_index(s->qos)].busy_replies;
        emit(out, conn,
             error_reply(req->id, "step in flight", Status::kBusy));
        return;
      }
      Reply rep = summary_reply(*s, req->id);
      if (s->engine) {
        refresh_summary(*s);
        rep = summary_reply(*s, req->id);
        rep.blob = sim::write_checkpoint(*s->engine, s->descriptor,
                                         sim::CkptFormat::kV2,
                                         sim::kV2DefaultSegments, opt_.pool);
      } else {
        const auto bytes = sim::read_text_file(evict_path(s->id));
        if (!bytes) {
          ++stats_.evicted_replies;
          emit(out, conn,
               error_reply(req->id, "session state lost", Status::kEvicted));
          destroy(s->id);
          return;
        }
        rep.blob = *bytes;
      }
      emit(out, conn, rep);
      return;
    }

    case Op::kDestroy: {
      Session* s = find_session(req->session);
      if (!s) {
        emit(out, conn, error_reply(req->id, "unknown session"));
        return;
      }
      if (s->engine) refresh_summary(*s);
      Reply rep = summary_reply(*s, req->id);
      rep.resident = false;
      destroy(s->id);
      emit(out, conn, rep);
      return;
    }

    case Op::kSubscribeTrace: {
      Session* s = find_session(req->session);
      if (!s) {
        emit(out, conn, error_reply(req->id, "unknown session"));
        return;
      }
      s->trace_every = req->every;
      if (req->every != 0) {
        s->trace_next = s->time + req->every;
        s->trace_req_id = req->id;
        s->trace_conn = conn;
      }
      emit(out, conn, summary_reply(*s, req->id));
      return;
    }

    case Op::kInfo: {
      Reply rep;
      rep.id = req->id;
      std::string& m = rep.message;
      const auto put = [&m](const char* key, std::uint64_t value) {
        if (!m.empty() && m.back() != '{') m += ' ';
        m += key;
        m += '=';
        m += std::to_string(value);
      };
      put("sessions", sessions_.size());
      put("live", live_);
      put("created", stats_.created);
      put("destroyed", stats_.destroyed);
      put("evictions", stats_.evictions);
      put("evict_failures", stats_.evict_failures);
      put("rehydrations", stats_.rehydrations);
      put("busy", stats_.busy_replies);
      put("evicted", stats_.evicted_replies);
      put("step_requests", stats_.step_requests);
      put("rounds", stats_.rounds_stepped);
      for (std::size_t c = 0; c < kNumQosClasses; ++c) {
        const QosClassStats& q = stats_.qos[c];
        m += " qos[";
        m += qos_class_name(static_cast<QosClass>(c));
        m += "]={";
        put("steps", q.step_requests);
        put("rounds", q.rounds_scheduled);
        put("waits", q.wait_pumps);
        put("busy", q.busy_replies);
        put("evictions", q.evictions);
        put("rehydrations", q.rehydrations);
        put("deferred", q.rehydrations_deferred);
        put("cj", q.cj_wrapped);
        m += '}';
      }
      emit(out, conn, rep);
      return;
    }

    case Op::kShutdown: {
      shutdown_ = true;
      Reply rep;
      rep.id = req->id;
      rep.message = "shutting down";
      emit(out, conn, rep);
      return;
    }
  }
  emit(out, conn, error_reply(req->id, "unhandled opcode"));
}

bool SessionService::pump(std::vector<Outgoing>& out) {
  bool progress = false;

  // Phase 1: rehydrate waiters while live slots are (or can be made)
  // available — interactive waiters first, then batch, then background
  // (eviction pressure is the mirror image: background victims first).
  // A waiter whose checkpoint cannot be read has lost its state:
  // kEvicted to every queued requester, session destroyed.
  bool table_full = false;
  for (std::size_t c = 0; c < kNumQosClasses && !table_full; ++c) {
    auto& wq = waiting_[c];
    while (!wq.empty()) {
      if (live_ >= opt_.max_live && !pressure_evict()) {
        table_full = true;
        break;
      }
      const std::uint64_t id = wq.front();
      wq.pop_front();
      Session* s = find_session(id);
      if (!s || !s->waiting) continue;  // destroyed while queued
      s->waiting = false;
      if (rehydrate(*s)) {
        progress = true;
        enqueue_ready(*s);
      } else {
        ++stats_.evicted_replies;
        for (const StepWaiter& w : s->step_waiters) {
          emit(out, w.conn,
               error_reply(w.req_id, "session state lost", Status::kEvicted));
        }
        destroy(id);
      }
    }
  }

  // Phase 2: the scheduling policy turns the per-class ready queues into
  // grants, dispatched as one multi-lane batch on the shared pool —
  // lane 0 (interactive) is claimed ahead of the throughput lanes, so
  // priority holds inside the fork-join too. This thread is the pool's
  // one dispatcher; the engines themselves never dispatch from inside a
  // job, and nested for_each would run inline anyway.
  std::vector<Grant> grants[kNumQosClasses];
  schedule(grants);
  std::size_t total_grants = 0;
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    total_grants += grants[c].size();
    for (const Grant& g : grants[c]) {
      stats_.rounds_stepped += g.rounds;
      stats_.qos[c].rounds_scheduled += g.rounds;
    }
  }
  if (total_grants > 0) {
    progress = true;
    const auto run_grant = [&](std::size_t lane, std::uint64_t i) {
      const Grant& g = grants[lane][i];
      g.s->engine->run(g.rounds);
      g.s->pending_rounds -= g.rounds;
    };
    if (opt_.pool != nullptr && total_grants > 1 &&
        opt_.pool->num_threads() > 1) {
      std::vector<sim::ThreadPool::LaneSpec> lanes(kNumQosClasses);
      for (std::size_t c = 0; c < kNumQosClasses; ++c) {
        lanes[c] = sim::ThreadPool::LaneSpec{grants[c].size(), 1};
      }
      opt_.pool->for_each_lanes(lanes, run_grant);
    } else {
      for (std::size_t c = 0; c < kNumQosClasses; ++c) {
        for (std::uint64_t i = 0; i < grants[c].size(); ++i) run_grant(c, i);
      }
    }
    // Phase 3 (same pass): crossed step replies, due trace events, and
    // re-queueing of sessions that still have backlog.
    for (std::size_t c = 0; c < kNumQosClasses; ++c) {
      for (const Grant& g : grants[c]) {
        Session* s = g.s;
        refresh_summary(*s);
        if (s->trace_every != 0 && s->time >= s->trace_next) {
          emit(out, s->trace_conn,
               summary_reply(*s, s->trace_req_id, Status::kTrace));
          while (s->trace_next <= s->time) s->trace_next += s->trace_every;
        }
        while (!s->step_waiters.empty() &&
               s->step_waiters.front().target_time <= s->time) {
          const StepWaiter w = s->step_waiters.front();
          s->step_waiters.pop_front();
          emit(out, w.conn, summary_reply(*s, w.req_id));
        }
        if (s->pending_rounds > 0) {
          enqueue_ready(*s);
        } else {
          s->idle_pumps = 0;
        }
      }
    }
  }

  // Phase 4: idle accounting + eviction. Collect ids first — evict()
  // never erases, but keeping iteration and mutation separate stays
  // robust.
  if (opt_.evict_after != 0) {
    std::vector<std::uint64_t> to_evict;
    for (auto& [id, s] : sessions_) {
      if (!s.engine || !s.step_waiters.empty() || s.pending_rounds > 0) {
        continue;
      }
      if (++s.idle_pumps >= opt_.evict_after) to_evict.push_back(id);
    }
    for (std::uint64_t id : to_evict) {
      Session* s = find_session(id);
      if (!s || !s->engine) continue;
      if (evict(*s)) {
        progress = true;
      } else {
        s->idle_pumps = 0;  // a broken disk costs one try per evict_after
      }
    }
  }

  return progress;
}

}  // namespace rr::serve
