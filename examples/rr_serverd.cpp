// rr_serverd: session-multiplexing simulation daemon.
//
//   rr_serverd serve --socket /tmp/rr.sock [--max-sessions N]
//             [--max-live N] [--quantum N] [--evict-after N]
//             [--ckpt-dir DIR] [--checkpoint-every N] [--threads N]
//             [--policy fifo|qos] [--quantum-interactive N]
//             [--quantum-batch N] [--quantum-background N]
//             [--pump-rounds N] [--max-queued-steps N]
//             [--cycle-jump on|off|auto]
//   rr_serverd drive --socket /tmp/rr.sock --sessions N --rounds R
//             [--engine NAME] [--graph DESC] [--k K] [--seed S]
//             [--qos interactive|batch|background]
//             [--cycle-jump on|off|auto] [--shutdown]
//
// `serve` hosts a serve::SessionService (src/serve/service.hpp) behind a
// single-threaded poll() loop on an AF_UNIX socket: one FrameDecoder and
// write buffer per connection, the service pumped between poll
// iterations (it is the pool's single dispatcher). The loop polls with
// timeout 0 while the service has queued rounds and parks ~100 ms
// otherwise, so an idle daemon costs nothing and a loaded one spends its
// time stepping. SIGINT/SIGTERM or a kShutdown request flush pending
// writes and exit cleanly (the CI sanitizer smoke asserts a leak-free
// shutdown this way).
//
// `drive` is the load/smoke client: creates --sessions identical
// sessions (retrying kBusy admission), pipelines one --rounds step
// across all of them, waits for every reply, and prints a summary line
//
//   drive: sessions=N rounds=R t=T covered=C/N hash=HHHH
//
// whose hash=%016llx field is comparable to `rr_cli run` output for the
// same (engine, graph, k) — the CI smoke greps one against the other.
//
// Exit code 0 on success, 1 on runtime failures, 2 on usage errors.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/thread_pool.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Flags {
  std::string socket_path = "/tmp/rr_serverd.sock";
  std::uint64_t max_sessions = 4096;
  std::uint64_t max_live = 256;
  std::uint64_t quantum = 64;
  std::uint64_t evict_after = 16;
  std::string ckpt_dir = "/tmp";
  std::uint64_t checkpoint_every = 0;
  std::uint64_t threads = 1;
  std::string policy = "qos";
  std::uint64_t quantum_batch = 512;
  std::uint64_t quantum_background = 256;
  std::uint64_t pump_rounds = 0;
  std::uint64_t max_queued_steps = 16;
  // serve: ServiceOptions::cycle_jump mode; drive: "off" opts every
  // created session out on the wire (Request::no_cycle_jump).
  std::string cycle_jump = "auto";
  // serve: per-QoS-class overrides of --cycle-jump ("" = inherit).
  // Background defaults to requiring leaping: that class is long-horizon
  // work nobody is watching for latency, exactly where confirmed-cycle
  // leaps pay — an operator serving stochastic background engines passes
  // --cycle-jump-background auto (or off).
  std::string cycle_jump_interactive;
  std::string cycle_jump_batch;
  std::string cycle_jump_background = "on";
  // drive
  std::uint64_t sessions = 4;
  std::uint64_t rounds = 256;
  std::string engine = "rotor";
  std::string graph = "ring 1024";
  std::uint64_t k = 4;
  std::uint64_t seed = 1;
  std::string qos = "interactive";
  bool shutdown = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: rr_serverd <serve|drive> [flags]\n"
      "  serve: --socket PATH --max-sessions N --max-live N --quantum N\n"
      "         --evict-after N --ckpt-dir DIR --checkpoint-every N\n"
      "         --threads N --policy fifo|qos --quantum-interactive N\n"
      "         --quantum-batch N --quantum-background N --pump-rounds N\n"
      "         --max-queued-steps N --cycle-jump on|off|auto\n"
      "         --cycle-jump-interactive|-batch|-background on|off|auto\n"
      "           (per-class override; background defaults to on)\n"
      "  drive: --socket PATH --sessions N --rounds R --engine NAME\n"
      "         --graph DESC --k K --seed S\n"
      "         --qos interactive|batch|background\n"
      "         --cycle-jump on|off|auto [--shutdown]\n");
  return 2;
}

bool parse_flags(int argc, char** argv, int start, Flags& f) {
  // Every numeric flag goes through the checked parser shared with
  // rr_cli (common/parse.hpp): trailing garbage, overflow, and empty
  // values fail loudly naming the flag.
  std::unordered_map<std::string, std::string*> strs = {
      {"--socket", &f.socket_path},
      {"--ckpt-dir", &f.ckpt_dir},
      {"--engine", &f.engine},
      {"--graph", &f.graph},
      {"--policy", &f.policy},
      {"--qos", &f.qos},
      {"--cycle-jump", &f.cycle_jump},
      {"--cycle-jump-interactive", &f.cycle_jump_interactive},
      {"--cycle-jump-batch", &f.cycle_jump_batch},
      {"--cycle-jump-background", &f.cycle_jump_background},
  };
  std::unordered_map<std::string, std::uint64_t*> nums = {
      {"--max-sessions", &f.max_sessions},
      {"--max-live", &f.max_live},
      {"--quantum", &f.quantum},
      // --quantum names the interactive grant; the explicit spelling
      // reads better next to the per-class caps.
      {"--quantum-interactive", &f.quantum},
      {"--quantum-batch", &f.quantum_batch},
      {"--quantum-background", &f.quantum_background},
      {"--pump-rounds", &f.pump_rounds},
      {"--max-queued-steps", &f.max_queued_steps},
      {"--evict-after", &f.evict_after},
      {"--checkpoint-every", &f.checkpoint_every},
      {"--threads", &f.threads},
      {"--sessions", &f.sessions},
      {"--rounds", &f.rounds},
      {"--k", &f.k},
      {"--seed", &f.seed},
  };
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--shutdown") {
      f.shutdown = true;
      continue;
    }
    const auto s = strs.find(a);
    const auto n = nums.find(a);
    if (s == strs.end() && n == nums.end()) {
      std::fprintf(stderr, "rr_serverd: unknown flag %s\n", a.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "rr_serverd: %s needs a value\n", a.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (s != strs.end()) {
      *s->second = v;
    } else if (!rr::parse_flag_u64("rr_serverd", a.c_str(), v, *n->second)) {
      return false;
    }
  }
  // Enumerated string flags fail as loudly as the numeric ones: a typo'd
  // policy or class must abort the command, not silently run a different
  // scheduler.
  constexpr const char* kProg = "rr_serverd";
  if (!rr::parse_flag_enum(kProg, "--policy", f.policy, {"fifo", "qos"}) ||
      !rr::parse_flag_enum(kProg, "--qos", f.qos,
                           {"interactive", "batch", "background"}) ||
      !rr::parse_flag_enum(kProg, "--cycle-jump", f.cycle_jump,
                           {"on", "off", "auto"})) {
    return false;
  }
  const std::pair<const char*, const std::string*> class_modes[] = {
      {"--cycle-jump-interactive", &f.cycle_jump_interactive},
      {"--cycle-jump-batch", &f.cycle_jump_batch},
      {"--cycle-jump-background", &f.cycle_jump_background},
  };
  for (const auto& [flag, value] : class_modes) {
    if (!value->empty() &&
        !rr::parse_flag_enum(kProg, flag, *value, {"on", "off", "auto"})) {
      return false;
    }
  }
  return true;
}

// ---- serve ----

struct Conn {
  int fd = -1;
  rr::serve::FrameDecoder decoder;
  std::string outbuf;
  std::size_t out_off = 0;
};

void queue_outgoing(
    std::unordered_map<std::uint64_t, Conn>& conns,
    std::vector<rr::serve::SessionService::Outgoing>& outgoing) {
  for (auto& o : outgoing) {
    const auto it = conns.find(o.conn);
    if (it == conns.end()) continue;  // connection gone; frame dropped
    it->second.outbuf.append(o.frame);
  }
  outgoing.clear();
}

/// Writes as much of the connection's buffer as the socket takes.
/// Returns false on a hard error (drop the connection).
bool flush_conn(Conn& c) {
  while (c.out_off < c.outbuf.size()) {
    const ssize_t n =
        ::send(c.fd, c.outbuf.data() + c.out_off,
               c.outbuf.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c.out_off += static_cast<std::size_t>(n);
  }
  c.outbuf.clear();
  c.out_off = 0;
  return true;
}

int cmd_serve(const Flags& f) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (f.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "rr_serverd: socket path too long\n");
    return 1;
  }
  std::memcpy(addr.sun_path, f.socket_path.c_str(), f.socket_path.size() + 1);
  ::unlink(f.socket_path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 128) != 0) {
    std::fprintf(stderr, "rr_serverd: cannot listen on %s (%s)\n",
                 f.socket_path.c_str(), std::strerror(errno));
    if (listener >= 0) ::close(listener);
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  rr::sim::ThreadPool pool(static_cast<unsigned>(f.threads));
  rr::serve::ServiceOptions opt;
  opt.max_sessions = f.max_sessions;
  opt.max_live = f.max_live;
  opt.quantum = f.quantum;
  opt.evict_after = f.evict_after;
  opt.policy = f.policy == "fifo" ? rr::serve::SchedPolicy::kFifo
                                  : rr::serve::SchedPolicy::kQos;
  opt.quantum_batch = f.quantum_batch;
  opt.quantum_background = f.quantum_background;
  opt.pump_rounds = f.pump_rounds;
  opt.max_queued_steps = f.max_queued_steps;
  opt.auto_checkpoint_every = f.checkpoint_every;
  opt.ckpt_dir = f.ckpt_dir;
  opt.cycle_jump = *rr::sim::cycle_jump_mode_from_name(f.cycle_jump);
  const std::pair<const std::string*, rr::serve::QosClass> class_modes[] = {
      {&f.cycle_jump_interactive, rr::serve::QosClass::kInteractive},
      {&f.cycle_jump_batch, rr::serve::QosClass::kBatch},
      {&f.cycle_jump_background, rr::serve::QosClass::kBackground},
  };
  for (const auto& [value, cls] : class_modes) {
    if (!value->empty()) {
      opt.cycle_jump_class[static_cast<std::size_t>(cls)] =
          *rr::sim::cycle_jump_mode_from_name(*value);
    }
  }
  opt.pool = &pool;
  rr::serve::SessionService service(opt);

  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn = 1;
  std::vector<rr::serve::SessionService::Outgoing> outgoing;
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pfds entry (0 = listener)
  std::vector<std::uint64_t> dead;
  std::uint8_t buf[1 << 16];

  std::fprintf(stderr, "rr_serverd: listening on %s\n",
               f.socket_path.c_str());
  while (g_stop == 0 && !service.shutdown_requested()) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back(pollfd{listener, POLLIN, 0});
    pfd_conn.push_back(0);
    for (auto& [id, c] : conns) {
      short events = POLLIN;
      if (c.out_off < c.outbuf.size()) events |= POLLOUT;
      pfds.push_back(pollfd{c.fd, events, 0});
      pfd_conn.push_back(id);
    }
    const int timeout_ms = service.has_pending_work() ? 0 : 100;
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    dead.clear();
    for (std::size_t i = 0; ready > 0 && i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfd_conn[i] == 0) {
        for (;;) {
          const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
          if (fd < 0) break;
          Conn c;
          c.fd = fd;
          conns.emplace(next_conn++, std::move(c));
        }
        continue;
      }
      const std::uint64_t id = pfd_conn[i];
      Conn& c = conns.at(id);
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        bool drop = false;
        for (;;) {
          const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            drop = true;
            break;
          }
          if (n == 0) {  // peer closed
            drop = true;
            break;
          }
          c.decoder.feed(buf, static_cast<std::size_t>(n));
          while (const auto payload = c.decoder.next()) {
            service.handle(
                id, reinterpret_cast<const std::uint8_t*>(payload->data()),
                payload->size(), outgoing);
          }
          if (c.decoder.fatal()) {  // unrecoverable stream; cut it loose
            drop = true;
            break;
          }
        }
        if (drop) {
          dead.push_back(id);
          continue;
        }
      }
      if (pfds[i].revents & POLLOUT) {
        if (!flush_conn(c)) dead.push_back(id);
      }
    }

    service.pump(outgoing);
    queue_outgoing(conns, outgoing);
    // Opportunistic flush: most replies fit the socket buffer, so they
    // leave now instead of waiting one poll cycle for POLLOUT.
    for (auto& [id, c] : conns) {
      if (c.out_off < c.outbuf.size() && !flush_conn(c)) {
        dead.push_back(id);
      }
    }
    for (const std::uint64_t id : dead) {
      const auto it = conns.find(id);
      if (it == conns.end()) continue;
      service.drop_connection(id);
      ::close(it->second.fd);
      conns.erase(it);
    }
  }

  // Drain queued work so in-flight step replies are not lost, then give
  // each connection one best-effort flush.
  std::vector<rr::serve::SessionService::Outgoing> tail;
  for (int spins = 0; service.has_pending_work() && spins < 10000; ++spins) {
    service.pump(tail);
  }
  queue_outgoing(conns, tail);
  for (auto& [id, c] : conns) {
    flush_conn(c);
    ::close(c.fd);
  }
  ::close(listener);
  ::unlink(f.socket_path.c_str());
  std::fprintf(stderr, "rr_serverd: shut down cleanly\n");
  return 0;
}

// ---- drive ----

int cmd_drive(const Flags& f) {
  using rr::serve::Op;
  using rr::serve::Reply;
  using rr::serve::Request;
  using rr::serve::Status;

  rr::serve::Client client;
  if (!client.connect(f.socket_path)) {
    std::fprintf(stderr, "rr_serverd: cannot connect to %s\n",
                 f.socket_path.c_str());
    return 1;
  }

  // parse_flags already validated the class name.
  const rr::serve::QosClass qos = *rr::serve::qos_class_from_name(f.qos);

  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> sessions;
  sessions.reserve(f.sessions);
  for (std::uint64_t i = 0; i < f.sessions; ++i) {
    Request req;
    req.id = next_id++;
    req.op = Op::kCreate;
    req.engine = f.engine;
    req.graph = f.graph;
    req.k = f.k;
    req.seed = f.seed;
    req.qos = qos;
    // drive has no server-side say: "off" rides the per-session opt-out
    // bit; "on"/"auto" defer to the server's configured mode.
    req.no_cycle_jump = f.cycle_jump == "off";
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const auto rep = client.call(req);
      if (!rep) {
        std::fprintf(stderr, "rr_serverd: connection lost during create\n");
        return 1;
      }
      if (rep->status == Status::kOk) {
        sessions.push_back(rep->session);
        break;
      }
      if (rep->status != Status::kBusy) {
        std::fprintf(stderr, "rr_serverd: create failed: %s\n",
                     rep->message.c_str());
        return 1;
      }
      ::usleep(2000);  // admission full; the server needs a few pumps
      req.id = next_id++;
    }
  }
  if (sessions.size() != f.sessions) {
    std::fprintf(stderr, "rr_serverd: only %zu/%llu sessions admitted\n",
                 sessions.size(),
                 static_cast<unsigned long long>(f.sessions));
    return 1;
  }

  // Pipeline one step request per session, then collect every reply.
  // Evicted sessions rehydrate server-side; kBusy cannot happen (one
  // step per session).
  std::unordered_map<std::uint64_t, Reply> replies;
  std::uint64_t first_step_id = next_id;
  for (const std::uint64_t s : sessions) {
    Request req;
    req.id = next_id++;
    req.op = Op::kStep;
    req.session = s;
    req.rounds = f.rounds;
    if (!client.send(req)) {
      std::fprintf(stderr, "rr_serverd: connection lost during step\n");
      return 1;
    }
  }
  while (replies.size() < sessions.size()) {
    const auto rep = client.next_reply();
    if (!rep) {
      std::fprintf(stderr, "rr_serverd: connection lost awaiting steps\n");
      return 1;
    }
    if (rep->status == Status::kTrace) continue;
    if (rep->id < first_step_id || rep->id >= next_id) continue;
    if (rep->status != Status::kOk) {
      std::fprintf(stderr, "rr_serverd: step failed: %s\n",
                   rep->message.c_str());
      return 1;
    }
    replies.emplace(rep->id, *rep);
  }

  // All sessions ran the same configuration: their final states must
  // agree, and the shared hash is what the CI smoke compares to rr_cli.
  const Reply& first = replies.at(first_step_id);
  for (const auto& [id, rep] : replies) {
    if (rep.config_hash != first.config_hash || rep.time != first.time) {
      std::fprintf(stderr,
                   "rr_serverd: session divergence (hash %016llx vs "
                   "%016llx)\n",
                   static_cast<unsigned long long>(rep.config_hash),
                   static_cast<unsigned long long>(first.config_hash));
      return 1;
    }
  }

  for (const std::uint64_t s : sessions) {
    Request req;
    req.id = next_id++;
    req.op = Op::kDestroy;
    req.session = s;
    const auto rep = client.call(req);
    if (!rep || rep->status != Status::kOk) {
      std::fprintf(stderr, "rr_serverd: destroy failed\n");
      return 1;
    }
  }

  std::printf("drive: sessions=%llu rounds=%llu t=%llu covered=%llu/%llu "
              "hash=%016llx\n",
              static_cast<unsigned long long>(f.sessions),
              static_cast<unsigned long long>(f.rounds),
              static_cast<unsigned long long>(first.time),
              static_cast<unsigned long long>(first.covered),
              static_cast<unsigned long long>(first.nodes),
              static_cast<unsigned long long>(first.config_hash));

  if (f.shutdown) {
    Request req;
    req.id = next_id++;
    req.op = Op::kShutdown;
    if (!client.call(req)) {
      std::fprintf(stderr, "rr_serverd: shutdown call failed\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Flags f;
  if (!parse_flags(argc, argv, 2, f)) return 2;
  if (cmd == "serve") return cmd_serve(f);
  if (cmd == "drive") return cmd_drive(f);
  return usage();
}
