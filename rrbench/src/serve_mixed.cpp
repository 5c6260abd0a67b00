// serve-mixed: rr_serverd as a child process, driven over its AF_UNIX
// socket by one generator thread that polls two connections without
// sleeping.
//
//   * interactive: an open-loop stream of 4096-round steps at 125
//     requests/s over 4 sessions, timed from each request's due time
//     (3750 samples in 30 s). A step spans 64 interactive quanta, so a
//     host stall of a few milliseconds is a small share of its latency.
//     In one interleaved comparison, four runs of 1024-round steps at
//     500/s (the same rounds per second) gave p99s of 6.2 to 9.4 ms,
//     four of 4096-round steps 13.6 to 15.5 ms.
//   * batch: 6 long-lived ring-4096, k=4 sessions, one closed-loop job slot
//     each. A job steps its session 8 x 4096 rounds (each step sent when
//     the previous reply arrives) and then snapshots it; the slot then
//     starts the next job.
//   * background: 2 closed-loop sessions stepping 2^22 rounds per request
//     (cycle-jump on by the daemon's class default).
//
// The 12 sessions fit --max-live 16 and idle eviction is off, so no
// session is evicted. Eviction churn through v2 files was tried and left
// out: with closed-loop batch sessions outnumbering --max-live, or with a
// fixed-rate lane of evicted sessions, every serve metric followed the
// shared disk's fsync latency (jobs per second 15 to 48, interactive p99
// 13 to 54 ms between runs of the same code within an hour), or the
// background lane fell behind until its step queues refused requests.
//
// The daemon runs with its default --threads 1 (its pool then runs every
// lane inline on the poll thread); with the generator thread the load
// uses two of the machine's cores. With a 3-thread pool the interactive
// p99 swung by about 30% between identical runs on a shared 4-core
// machine, against about 7% single-threaded.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "graph/descriptor.hpp"
#include "serve/protocol.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace rrbench {
namespace {

using rr::serve::Op;
using rr::serve::QosClass;
using rr::serve::Reply;
using rr::serve::Request;
using rr::serve::Status;
using Span = Tracer::Span;

constexpr std::size_t kInteractive = 4;
constexpr rr::graph::NodeId kInteractiveN = 1024;
constexpr std::uint32_t kInteractiveK = 8;
constexpr std::uint64_t kInteractiveRounds = 4096;
constexpr double kInteractiveRate = 125.0;

constexpr std::size_t kBatchSlots = 6;
constexpr rr::graph::NodeId kBatchN = 4096;
constexpr std::uint32_t kBatchK = 4;
constexpr std::uint64_t kBatchRounds = 4096;
constexpr std::uint64_t kBatchSteps = 8;

constexpr std::size_t kBackground = 2;
constexpr rr::graph::NodeId kBackgroundN = 256;
constexpr std::uint32_t kBackgroundK = 2;
constexpr std::uint64_t kBackgroundRounds = std::uint64_t{1} << 22;

constexpr std::uint64_t kMaxLive = 16;
// Traffic runs this long before the measured window opens, so start-up
// transients of the daemon and of the first jobs stay out of it.
constexpr double kWarmupS = 2.0;
constexpr int kSetupSpawns = 5;

// Disjoint derive_seed streams per session kind.
constexpr std::uint64_t kInteractiveStream = 1u << 20;
constexpr std::uint64_t kBackgroundStream = 2u << 20;
constexpr std::uint64_t kBatchStream = 3u << 20;

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kError: return "ERROR";
    case Status::kBusy: return "BUSY";
    case Status::kEvicted: return "EVICTED";
    case Status::kTrace: return "TRACE";
  }
  return "?";
}

std::vector<std::uint64_t> seeded_agents(std::uint64_t seed, std::uint64_t stream,
                                         rr::graph::NodeId n, std::uint32_t k) {
  rr::Rng rng(rr::sim::derive_seed(seed, stream));
  const auto agents = rr::core::place_random(n, k, rng);
  return {agents.begin(), agents.end()};
}

/// One client connection: framed requests out, replies decoded as they
/// arrive. The encode and decode calls are the serve layer's codec.
class Connection {
 public:
  Connection() = default;
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects, retrying until `deadline_s` while the daemon starts up.
  bool connect(const std::string& path, double deadline_s) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) return false;
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        return true;
      }
      close();
      if (now_s() > deadline_s) return false;
      ::usleep(500);
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

  bool send(const Request& req) {
    std::string payload;
    {
      Span s("serve.encode", req.id);
      payload = rr::serve::encode_request(req);
    }
    const std::string frame = rr::serve::encode_frame(payload);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads what has arrived without blocking and appends decoded replies;
  /// false once the stream has ended (EOF, a socket error, or an
  /// undecodable frame). Replies that arrived before the end are still
  /// appended.
  bool read_available(std::vector<Reply>& out) {
    std::uint8_t buf[1 << 16];
    bool open = true;
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        open = false;
        break;
      }
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
    while (const auto payload = decoder_.next()) {
      std::optional<Reply> rep;
      {
        Span s("serve.decode");
        rep = rr::serve::decode_reply(reinterpret_cast<const std::uint8_t*>(payload->data()),
                                      payload->size());
      }
      if (!rep) return false;
      out.push_back(std::move(*rep));
    }
    return open && !decoder_.fatal();
  }

  /// Sends and waits for the reply with the request's id; used only while
  /// no other traffic is in flight on this connection.
  std::optional<Reply> call(const Request& req, double timeout_s) {
    if (!send(req)) return std::nullopt;
    const double deadline = now_s() + timeout_s;
    std::vector<Reply> replies;
    while (now_s() < deadline) {
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 10);
      const bool open = read_available(replies);
      for (Reply& r : replies) {
        if (r.id == req.id) return std::move(r);
      }
      if (!open) return std::nullopt;
      replies.clear();
    }
    return std::nullopt;
  }

 private:
  int fd_ = -1;
  rr::serve::FrameDecoder decoder_;
};

/// rr_serverd child process; killed and reaped on destruction if it is
/// still running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log < 0) return false;
    pid_ = ::fork();
    if (pid_ == 0) {
      const int null = ::open("/dev/null", O_RDWR);
      ::dup2(null, STDIN_FILENO);
      ::dup2(null, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(log);
    return pid_ > 0;
  }

  pid_t pid() const { return pid_; }

  /// Waits for exit; the exit code, or -1 if it had to be killed or died
  /// by a signal.
  int wait(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) return -1;
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      ::usleep(1000);
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

/// A counter from the kInfo reply text ("key=value" tokens; `scope`
/// selects the "qos[class]={...}" block, empty for the global ones).
std::uint64_t info_counter(const std::string& text, const std::string& scope,
                           const std::string& key) {
  std::string body = text;
  if (!scope.empty()) {
    const auto b = text.find("qos[" + scope + "]={");
    if (b == std::string::npos) return 0;
    const auto e = text.find('}', b);
    body = text.substr(b, e - b);
  } else {
    body = text.substr(0, text.find(" qos["));
  }
  std::istringstream in(body);
  std::string tok;
  while (in >> tok) {
    if (tok.rfind("qos[", 0) == 0) tok = tok.substr(tok.find('{') + 1);
    if (tok.rfind(key + "=", 0) == 0) return std::strtoull(tok.c_str() + key.size() + 1, nullptr, 10);
  }
  return 0;
}

std::vector<std::string> daemon_args(const std::string& socket, const std::string& ckpt_dir) {
  return {"serve",          "--socket",      socket,
          "--threads",      "1",
          "--max-live",     std::to_string(kMaxLive),
          "--evict-after",  "0",  // idle eviction off (see the header)
          "--ckpt-dir",     ckpt_dir};
}

Request make_create(std::uint64_t id, rr::graph::NodeId n, std::vector<std::uint64_t> agents,
                    QosClass qos) {
  Request req;
  req.id = id;
  req.op = Op::kCreate;
  req.engine = "rotor";
  req.graph = rr::graph::GraphDescriptor::ring(n).text();
  req.k = agents.size();
  req.agents = std::move(agents);
  req.qos = qos;
  return req;
}

Request make_op(std::uint64_t id, Op op, std::uint64_t session, std::uint64_t rounds = 0) {
  Request req;
  req.id = id;
  req.op = op;
  req.session = session;
  req.rounds = rounds;
  return req;
}

/// The reference a snapshot must equal byte for byte: the same engine and
/// agents created through the registry here, run to the same round and
/// written as the daemon writes session snapshots.
std::string reference_snapshot(rr::graph::NodeId n, const std::vector<std::uint64_t>& agents,
                               std::uint64_t rounds) {
  rr::sim::EngineConfig config;
  config.agents.assign(agents.begin(), agents.end());
  const auto d = rr::graph::GraphDescriptor::ring(n);
  auto engine = rr::sim::EngineRegistry::instance().create("rotor", d, config);
  if (!engine) return {};
  engine->run(rounds);
  return rr::sim::write_checkpoint(*engine, d.text(), rr::sim::CkptFormat::kV2,
                                   rr::sim::kV2DefaultSegments);
}

enum class Kind : std::uint8_t { kInteractive, kStep, kSnapshot, kBackground };

struct Pending {
  Kind kind = Kind::kInteractive;
  std::size_t index = 0;     // interactive request / batch slot / background session
  // Session round the step must reach. Steps queued on one session
  // coalesce, and the reply reports the round of the quantum that crossed
  // the target, so open-loop replies may report a later round.
  std::uint64_t target = 0;
  double sent_s = 0.0;
};

/// One batch job: kBatchSteps closed-loop steps on a long-lived batch
/// session, then a snapshot of it.
struct Job {
  std::uint64_t number = 0;
  std::uint64_t steps = 0;
  std::uint64_t end_round = 0;  // session round the snapshot reports
  double start_s = 0.0;         // first step sent
  double done_s = 0.0;          // snapshot reply received
  std::size_t slot = 0;
  std::string snapshot;
};

}  // namespace

void run_serve_mixed(const RunContext& ctx, Result& result) {
  ScratchDir dir("serve");
  if (!result.check(dir.ok(), "serve-mixed: create scratch directory")) return;
  const std::string evict_dir = dir.file("evict");
  if (!result.check(::mkdir(evict_dir.c_str(), 0755) == 0,
                    "serve-mixed: create eviction directory")) {
    return;
  }
  std::printf("# serve-mixed: eviction files on %s\n", filesystem_type(evict_dir).c_str());
  const std::string log_path = dir.file("serverd.log");
  const auto args = [&](const std::string& socket) {
    return daemon_args(socket, evict_dir);
  };
  std::uint64_t next_id = 1;

  // Setup: daemon spawn to its first reply, several times for a median.
  // The last daemon stays up for the measurement.
  std::vector<double> setups;
  for (int spawn = 1; spawn < kSetupSpawns; ++spawn) {
    const std::string socket = dir.file("s" + std::to_string(spawn) + ".sock");
    Daemon d;
    Connection c;
    const double t0 = now_s();
    if (!result.check(d.start(ctx.serverd, args(socket), log_path),
                      "serve-mixed: spawn rr_serverd") ||
        !result.check(c.connect(socket, t0 + 30.0), "serve-mixed: connect to rr_serverd")) {
      return;
    }
    const auto info = c.call(make_op(next_id++, Op::kInfo, 0), 30.0);
    setups.push_back(now_s() - t0);
    if (!result.check(info && info->status == Status::kOk, "serve-mixed: first reply")) return;
    const auto bye = c.call(make_op(next_id++, Op::kShutdown, 0), 30.0);
    result.check(bye && bye->status == Status::kOk, "serve-mixed: shutdown reply");
    c.close();
    result.check(d.wait(30.0) == 0, "serve-mixed: rr_serverd exit code");
  }
  const std::string socket = dir.file("s0.sock");
  Daemon daemon;
  Connection bc;  // batch jobs, background sessions, control
  Connection ic;  // the interactive stream
  {
    const double t0 = now_s();
    if (!result.check(daemon.start(ctx.serverd, args(socket), log_path),
                      "serve-mixed: spawn rr_serverd") ||
        !result.check(bc.connect(socket, t0 + 30.0), "serve-mixed: connect to rr_serverd")) {
      return;
    }
    const auto info = bc.call(make_op(next_id++, Op::kInfo, 0), 30.0);
    setups.push_back(now_s() - t0);
    if (!result.check(info && info->status == Status::kOk, "serve-mixed: first reply") ||
        !result.check(ic.connect(socket, now_s() + 30.0), "serve-mixed: second connection")) {
      return;
    }
  }

  Tracer& tracer = Tracer::instance();
  tracer.set_on(ctx.trace);
  // Long-lived sessions, created before the clock starts.
  std::vector<std::uint64_t> inter_session(kInteractive);
  std::vector<std::uint64_t> inter_target(kInteractive, 0);
  std::vector<std::vector<std::uint64_t>> inter_agents(kInteractive);
  for (std::size_t i = 0; i < kInteractive; ++i) {
    inter_agents[i] = seeded_agents(ctx.seed, kInteractiveStream + i, kInteractiveN, kInteractiveK);
    const auto rep = ic.call(make_create(next_id++, kInteractiveN, inter_agents[i],
                                         QosClass::kInteractive),
                             30.0);
    if (!result.check(rep && rep->status == Status::kOk, "serve-mixed: create interactive session")) {
      return;
    }
    inter_session[i] = rep->session;
  }
  std::vector<std::uint64_t> bg_session(kBackground);
  std::vector<std::uint64_t> bg_target(kBackground, 0);
  for (std::size_t i = 0; i < kBackground; ++i) {
    const auto rep = bc.call(
        make_create(next_id++, kBackgroundN,
                    seeded_agents(ctx.seed, kBackgroundStream + i, kBackgroundN, kBackgroundK),
                    QosClass::kBackground),
        30.0);
    if (!result.check(rep && rep->status == Status::kOk, "serve-mixed: create background session")) {
      return;
    }
    bg_session[i] = rep->session;
  }
  std::vector<std::uint64_t> batch_session(kBatchSlots);
  std::vector<std::uint64_t> batch_round(kBatchSlots, 0);
  std::vector<std::vector<std::uint64_t>> batch_agents(kBatchSlots);
  std::vector<double> create_ms;
  for (std::size_t i = 0; i < kBatchSlots; ++i) {
    batch_agents[i] = seeded_agents(ctx.seed, kBatchStream + i, kBatchN, kBatchK);
    const double t0 = now_s();
    const auto rep = bc.call(make_create(next_id++, kBatchN, batch_agents[i], QosClass::kBatch),
                             30.0);
    create_ms.push_back((now_s() - t0) * 1e3);
    if (!result.check(rep && rep->status == Status::kOk, "serve-mixed: create batch session")) {
      return;
    }
    batch_session[i] = rep->session;
  }

  // ---- measurement ----
  std::unordered_map<std::uint64_t, Pending> pending;
  std::vector<Job> jobs(kBatchSlots);
  std::vector<Job> done_jobs;
  std::uint64_t job_count = 0;
  std::vector<double> latency_ms, lag_ms, step_ms, snapshot_ms;
  double agent_steps = 0.0;
  double served_rounds = 0.0;
  bool broken = false;

  const double start = now_s() + 0.002;
  const OpenLoopSchedule sched{start, 1.0 / kInteractiveRate};
  const double measure_from = start + kWarmupS;
  const double end = measure_from + ctx.seconds;
  const auto interactive_total =
      static_cast<std::uint64_t>((kWarmupS + ctx.seconds) * kInteractiveRate);
  std::uint64_t next_inter = 0;
  double last_reply = measure_from;

  const auto send = [&](Connection& c, const Request& req, Pending p) {
    p.sent_s = now_s();
    pending[req.id] = p;
    if (!c.send(req)) {
      result.fail("serve-mixed: send failed (connection lost)");
      broken = true;
    }
  };
  // Traced runs trace every other batch job, for trace.overhead_share.
  const auto job_traced = [&](const Job& j) { return ctx.trace && j.number % 2 == 1; };
  const auto batch_op = [&](std::size_t slot, Op op, std::uint64_t rounds, Kind kind) {
    tracer.set_on(job_traced(jobs[slot]));
    send(bc, make_op(next_id++, op, batch_session[slot], rounds),
         Pending{kind, slot, batch_round[slot] + rounds, 0.0});
  };
  const auto start_job = [&](std::size_t slot) {
    Job& j = jobs[slot];
    j = Job{};
    j.number = job_count++;
    j.slot = slot;
    j.start_s = now_s();
    batch_op(slot, Op::kStep, kBatchRounds, Kind::kStep);
  };
  const auto step_background = [&](std::size_t i) {
    tracer.set_on(ctx.trace);
    bg_target[i] += kBackgroundRounds;
    send(bc, make_op(next_id++, Op::kStep, bg_session[i], kBackgroundRounds),
         Pending{Kind::kBackground, i, bg_target[i], 0.0});
  };

  for (std::size_t slot = 0; slot < kBatchSlots; ++slot) start_job(slot);
  for (std::size_t i = 0; i < kBackground; ++i) step_background(i);

  std::vector<Reply> replies;
  while (!broken) {
    while (next_inter < interactive_total && sched.due(next_inter) <= now_s()) {
      const std::uint64_t i = next_inter++;
      const std::size_t s = i % kInteractive;
      inter_target[s] += kInteractiveRounds;
      tracer.set_on(ctx.trace);
      if (sched.due(i) >= measure_from) lag_ms.push_back(sched.lag(i, now_s()) * 1e3);
      send(ic, make_op(next_id++, Op::kStep, inter_session[s], kInteractiveRounds),
           Pending{Kind::kInteractive, i, inter_target[s], 0.0});
    }
    if (next_inter >= interactive_total && pending.empty()) break;
    if (now_s() > end + 120.0) {
      result.fail("serve-mixed: replies still outstanding 120 s after the run");
      break;
    }
    // No sleep between polls: the generator's own wake-up latency would
    // otherwise be charged to interactive steps (timed from their due
    // times) and added to every closed-loop batch round trip.
    replies.clear();
    tracer.set_on(ctx.trace);
    if (!ic.read_available(replies) || !bc.read_available(replies)) {
      result.fail("serve-mixed: connection to rr_serverd lost");
      break;
    }
    const double t = now_s();
    for (Reply& rep : replies) {
      const auto it = pending.find(rep.id);
      if (it == pending.end()) {
        result.fail("serve-mixed: reply to an unknown request");
        continue;
      }
      const Pending p = it->second;
      pending.erase(it);
      last_reply = t;
      if (!result.check(rep.status == Status::kOk,
                        std::string("serve-mixed: ") + status_name(rep.status) +
                            " reply: " + rep.message)) {
        continue;  // a failed slot or session sends nothing more
      }
      switch (p.kind) {
        case Kind::kInteractive:
          result.check(rep.time >= p.target, "serve-mixed: interactive step reached its target round");
          if (sched.due(p.index) >= measure_from) {
            latency_ms.push_back(sched.latency(p.index, t) * 1e3);
          }
          if (t >= measure_from) {
            agent_steps += static_cast<double>(kInteractiveRounds * kInteractiveK);
            served_rounds += static_cast<double>(kInteractiveRounds);
          }
          break;
        case Kind::kBackground:
          result.check(rep.time >= p.target, "serve-mixed: background step reached its target round");
          if (t < end) step_background(p.index);
          break;
        case Kind::kStep: {
          Job& j = jobs[p.index];
          if (p.sent_s >= measure_from) step_ms.push_back((t - p.sent_s) * 1e3);
          if (!result.check(rep.time == p.target, "serve-mixed: batch step target round")) break;
          batch_round[p.index] = rep.time;
          if (t >= measure_from) {
            agent_steps += static_cast<double>(kBatchRounds * kBatchK);
            served_rounds += static_cast<double>(kBatchRounds);
          }
          if (++j.steps < kBatchSteps) {
            batch_op(p.index, Op::kStep, kBatchRounds, Kind::kStep);
          } else {
            batch_op(p.index, Op::kSnapshot, 0, Kind::kSnapshot);
          }
          break;
        }
        case Kind::kSnapshot: {
          Job& j = jobs[p.index];
          if (p.sent_s >= measure_from) snapshot_ms.push_back((t - p.sent_s) * 1e3);
          if (!result.check(rep.time == p.target, "serve-mixed: snapshot round")) break;
          if (p.index == 0 || rep.time == kBatchSteps * kBatchRounds) {
            j.snapshot = std::move(rep.blob);  // verified after the run
          }
          j.done_s = t;
          j.end_round = rep.time;
          done_jobs.push_back(std::move(j));
          if (t < end) start_job(p.index);
          break;
        }
      }
    }
  }
  tracer.set_on(false);
  const double elapsed = last_reply - measure_from;

  // Daemon-side counters and peak RSS, then the interactive sessions'
  // final states, then a clean shutdown.
  std::string info_text;
  if (const auto info = bc.call(make_op(next_id++, Op::kInfo, 0), 30.0);
      result.check(info && info->status == Status::kOk, "serve-mixed: info reply")) {
    info_text = info->message;
  }
  const double rss_mb = vm_hwm_mb(daemon.pid());
  std::vector<std::string> inter_snapshots(kInteractive);
  for (std::size_t i = 0; i < kInteractive && !broken; ++i) {
    const auto rep = ic.call(make_op(next_id++, Op::kSnapshot, inter_session[i]), 30.0);
    if (result.check(rep && rep->status == Status::kOk, "serve-mixed: interactive snapshot")) {
      inter_snapshots[i] = rep->blob;
    }
  }
  const auto bye = bc.call(make_op(next_id++, Op::kShutdown, 0), 30.0);
  result.check(bye && bye->status == Status::kOk, "serve-mixed: shutdown reply");
  ic.close();
  bc.close();
  result.check(daemon.wait(30.0) == 0, "serve-mixed: rr_serverd exit code");
  {
    std::ifstream log(log_path);
    std::stringstream text;
    text << log.rdbuf();
    std::size_t clean = 0;
    for (auto pos = text.str().find("shut down cleanly"); pos != std::string::npos;
         pos = text.str().find("shut down cleanly", pos + 1)) {
      ++clean;
    }
    result.check(clean == static_cast<std::size_t>(kSetupSpawns),
                 "serve-mixed: every rr_serverd logged a clean shutdown");
  }
  result.check(info_counter(info_text, "", "busy") == 0, "serve-mixed: daemon counted BUSY replies");
  result.check(info_counter(info_text, "", "evicted") == 0,
               "serve-mixed: daemon counted EVICTED replies");

  // Output checks: every snapshot is byte-equal to a direct registry run.
  for (std::size_t i = 0; i < kInteractive && !broken; ++i) {
    result.check(inter_snapshots[i] ==
                     reference_snapshot(kInteractiveN, inter_agents[i], inter_target[i]),
                 "serve-mixed: interactive snapshot vs direct registry run");
  }
  // Batch snapshots, in order per session, against one reference engine
  // per session stepped forward to each snapshot's round: every job of the
  // probe session (slot 0), the first job of the others. Replaying every
  // session to its last round took longer than the run itself.
  for (std::size_t slot = 0; slot < kBatchSlots; ++slot) {
    rr::sim::EngineConfig config;
    config.agents.assign(batch_agents[slot].begin(), batch_agents[slot].end());
    const auto d = rr::graph::GraphDescriptor::ring(kBatchN);
    auto ref = rr::sim::EngineRegistry::instance().create("rotor", d, config);
    if (!result.check(ref != nullptr, "serve-mixed: reference create")) break;
    for (const Job& j : done_jobs) {
      if (j.slot != slot || j.snapshot.empty()) continue;
      ref->run(j.end_round - ref->time());
      result.check(j.snapshot == rr::sim::write_checkpoint(*ref, d.text(),
                                                           rr::sim::CkptFormat::kV2,
                                                           rr::sim::kV2DefaultSegments),
                   "serve-mixed: batch snapshot vs direct registry run");
    }
  }
  std::printf("# serve-mixed: interactive samples=%zu jobs=%zu\n", latency_ms.size(),
              done_jobs.size());

  std::vector<double> wall[2];
  std::size_t measured_jobs = 0;
  for (const Job& j : done_jobs) {
    if (j.start_s < measure_from) continue;
    ++measured_jobs;
    wall[job_traced(j) ? 1 : 0].push_back(j.done_s - j.start_s);
  }
  print_spread("wall_s", wall[0]);
  result.set("setup_s", median(setups));
  result.set("wall_s", median(wall[0]));
  result.set("agent_steps_per_s", agent_steps / elapsed);
  result.set("trials_per_s", static_cast<double>(measured_jobs) / elapsed);
  const auto p99 = percentile(latency_ms, 0.99);
  if (result.check(p99.has_value(), "too few interactive samples for step_p99_ms")) {
    result.set("step_p50_ms", median(latency_ms));
    result.set("step_p99_ms", *p99);
  }
  result.set("peak_rss_mb", rss_mb);
  if (!ctx.trace) return;

  result.set("serve.encode_us", median(tracer.durations("serve.encode")) * 1e6);
  result.set("serve.decode_us", median(tracer.durations("serve.decode")) * 1e6);
  result.set("serve.create_ms_p50", median(create_ms));
  if (const auto p = percentile(step_ms, 0.99)) result.set("serve.batch_step_ms_p99", *p);
  result.set("serve.snapshot_ms_p50", median(snapshot_ms));
  result.set("serve.rounds_per_s", served_rounds / elapsed);
  result.set("serve.step_samples", static_cast<double>(latency_ms.size()));
  result.set("serve.evictions", static_cast<double>(info_counter(info_text, "", "evictions")));
  result.set("serve.rehydrations",
             static_cast<double>(info_counter(info_text, "", "rehydrations")));
  double deferred = 0.0;
  double cj = 0.0;
  for (const char* cls : {"interactive", "batch", "background"}) {
    deferred += static_cast<double>(info_counter(info_text, cls, "deferred"));
    cj += static_cast<double>(info_counter(info_text, cls, "cj"));
  }
  result.set("serve.rehydrations_deferred", deferred);
  result.set("serve.busy_replies", static_cast<double>(info_counter(info_text, "", "busy")));
  result.set("serve.wait_pumps.interactive",
             static_cast<double>(info_counter(info_text, "interactive", "waits")));
  result.set("serve.cj_wrapped", cj);
  if (const auto p = percentile(lag_ms, 0.99)) result.set("gen.lag_ms_p99", *p);
  if (!wall[0].empty() && !wall[1].empty()) {
    result.set("trace.overhead_share", median(wall[1]) / median(wall[0]) - 1.0);
  }
}

}  // namespace rrbench
