#include "dist/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/hash.hpp"
#include "core/rotor_state_io.hpp"
#include "dist/worker.hpp"

namespace rr::core {

namespace {

using dist::DistMsg;
using dist::MsgKind;

/// "No round check" sentinel for collect() (rounds never reach ~0: that
/// is the kNotCovered cap every driver stops at).
constexpr std::uint64_t kAnyRound = ~std::uint64_t{0};

void set_error(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

DistributedRotorRouter::DistributedRotorRouter(graph::CsrGraph csr,
                                               std::uint32_t workers)
    : csr_(std::move(csr)), part_(csr_, workers) {}

std::unique_ptr<DistributedRotorRouter> DistributedRotorRouter::create(
    const graph::GraphDescriptor& descriptor,
    const std::vector<graph::NodeId>& agents,
    const std::vector<std::uint32_t>& pointers, const DistOptions& options,
    std::string* error) {
  auto built = descriptor.build_csr();
  if (!built) {
    set_error(error, "dist: graph descriptor failed to build");
    return nullptr;
  }
  graph::CsrGraph& csr = *built;
  if (!csr.is_connected()) {
    set_error(error, "dist: rotor-router requires a connected graph");
    return nullptr;
  }
  const graph::NodeId n = csr.num_nodes();
  if (agents.empty() || agents.size() > ~std::uint32_t{0}) {
    set_error(error, "dist: at least one agent required");
    return nullptr;
  }
  for (const graph::NodeId v : agents) {
    if (v >= n) {
      set_error(error, "dist: agent start node out of range");
      return nullptr;
    }
  }
  if (!pointers.empty()) {
    if (pointers.size() != n) {
      set_error(error, "dist: pointer vector size mismatch");
      return nullptr;
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (pointers[v] >= csr.degree_unchecked(v)) {
        set_error(error, "dist: pointer out of range");
        return nullptr;
      }
    }
  }
  std::uint32_t workers = options.workers == 0 ? 1 : options.workers;
  if (workers > n) workers = n;
  std::unique_ptr<DistributedRotorRouter> eng(
      new DistributedRotorRouter(std::move(csr), workers));
  if (!eng->spawn(options, error)) return nullptr;
  if (!eng->init_workers(descriptor, agents, pointers, options, error)) {
    return nullptr;
  }
  return eng;
}

bool DistributedRotorRouter::spawn(const DistOptions& options,
                                   std::string* error) {
  const std::uint32_t nw = part_.num_shards();
  conn_.resize(nw);
  if (!options.listen_socket.empty()) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (options.listen_socket.size() >= sizeof(sa.sun_path)) {
      set_error(error, "dist: --dist-socket path too long");
      return false;
    }
    std::memcpy(sa.sun_path, options.listen_socket.c_str(),
                options.listen_socket.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0) {
      set_error(error, "dist: socket() failed");
      return false;
    }
    ::unlink(options.listen_socket.c_str());
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(lfd, static_cast<int>(nw)) != 0) {
      ::close(lfd);
      set_error(error, "dist: cannot listen on --dist-socket path");
      return false;
    }
    for (std::uint32_t w = 0; w < nw; ++w) {
      int fd;
      do {
        fd = ::accept(lfd, nullptr, nullptr);
      } while (fd < 0 && errno == EINTR);
      if (fd < 0) {
        ::close(lfd);
        set_error(error, "dist: accept() failed");
        return false;
      }
      conn_[w].fd = fd;
      conn_[w].alive = true;
    }
    ::close(lfd);
    ::unlink(options.listen_socket.c_str());
  } else if (!options.noded_path.empty()) {
    for (std::uint32_t w = 0; w < nw; ++w) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        set_error(error, "dist: socketpair() failed");
        return false;
      }
      const int pid = ::fork();
      if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        set_error(error, "dist: fork() failed");
        return false;
      }
      if (pid == 0) {
        // Child: keep only its own socket end, then become rr_noded.
        ::close(sv[0]);
        for (std::uint32_t j = 0; j < w; ++j) ::close(conn_[j].fd);
        char fdbuf[16];
        std::snprintf(fdbuf, sizeof fdbuf, "%d", sv[1]);
        ::execl(options.noded_path.c_str(), options.noded_path.c_str(),
                "--dist-fd", fdbuf, static_cast<char*>(nullptr));
        _exit(127);
      }
      ::close(sv[1]);
      child_pids_.push_back(pid);
      conn_[w].fd = sv[0];
      conn_[w].alive = true;
    }
  } else {
    for (std::uint32_t w = 0; w < nw; ++w) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        set_error(error, "dist: socketpair() failed");
        return false;
      }
      const std::uint64_t fail_after =
          w == 0 ? options.worker_fail_after : 0;
      threads_.emplace_back(
          [fd = sv[1], fail_after] { dist::worker_serve(fd, fail_after); });
      conn_[w].fd = sv[0];
      conn_[w].alive = true;
    }
  }
  for (std::uint32_t w = 0; w < nw; ++w) {
    if (!set_nonblocking(conn_[w].fd)) {
      set_error(error, "dist: cannot set worker socket nonblocking");
      return false;
    }
  }
  return true;
}

bool DistributedRotorRouter::init_workers(
    const graph::GraphDescriptor& descriptor,
    const std::vector<graph::NodeId>& agents,
    const std::vector<std::uint32_t>& pointers, const DistOptions& options,
    std::string* error) {
  // Agent multiset as deduplicated ascending (site, count) pairs.
  std::vector<graph::NodeId> sorted = agents;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sites;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    sites.emplace_back(sorted[i], j - i);
    i = j;
  }
  num_agents_ = static_cast<std::uint32_t>(agents.size());
  covered_ = static_cast<sim::NodeId>(sites.size());

  DistMsg init;
  init.kind = MsgKind::kInit;
  init.value = part_.num_shards();
  init.value2 = options.spill_batch == 0 ? 1 : options.spill_batch;
  init.pairs = sites;
  init.lists.assign(1, {});
  init.lists[0].assign(pointers.begin(), pointers.end());
  init.text = descriptor.text();
  for (std::uint32_t w = 0; w < part_.num_shards(); ++w) {
    init.shard = w;
    queue_msg(w, init);
  }
  if (!collect(MsgKind::kOk, kAnyRound, /*allow_spill=*/false,
               [](std::uint32_t, const DistMsg&) {})) {
    set_error(error, "dist: a worker died or rejected its init");
    return false;
  }
  return true;
}

DistributedRotorRouter::~DistributedRotorRouter() {
  DistMsg bye;
  bye.kind = MsgKind::kShutdown;
  for (std::uint32_t w = 0; w < conn_.size(); ++w) {
    // Best-effort farewell; EOF from the close below suffices on its own
    // (workers exit 0 on a closed socket).
    if (conn_[w].alive) queue_msg(w, bye);
  }
  for (Conn& c : conn_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.alive = false;
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  for (const int pid : child_pids_) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

// ---- socket pump ----

void DistributedRotorRouter::fail_worker(std::uint32_t w) {
  Conn& c = conn_[w];
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.alive = false;
  halted_ = true;
}

void DistributedRotorRouter::queue_msg(std::uint32_t w, const DistMsg& m) {
  Conn& c = conn_[w];
  if (!c.alive) {
    halted_ = true;
    return;
  }
  c.out += dist::encode_frame(dist::encode_msg(m));
  try_flush(w);
}

void DistributedRotorRouter::try_flush(std::uint32_t w) {
  Conn& c = conn_[w];
  while (c.alive && c.out_off < c.out.size()) {
#if defined(MSG_NOSIGNAL)
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_DONTWAIT);
#endif
    if (n >= 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fail_worker(w);
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > (std::size_t{1} << 20)) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
}

bool DistributedRotorRouter::pump_once(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> owner;
  for (std::uint32_t w = 0; w < conn_.size(); ++w) {
    const Conn& c = conn_[w];
    if (!c.alive) continue;
    pollfd p{};
    p.fd = c.fd;
    p.events = POLLIN;
    if (c.out_off < c.out.size()) p.events |= POLLOUT;
    fds.push_back(p);
    owner.push_back(w);
  }
  if (fds.empty()) {
    halted_ = true;
    return false;
  }
  const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                        timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return !halted_;
    halted_ = true;
    return false;
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const std::uint32_t w = owner[i];
    if (fds[i].revents & POLLOUT) try_flush(w);
    if (!conn_[w].alive) continue;
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      std::uint8_t buf[1 << 16];
      const ssize_t n = ::recv(conn_[w].fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        conn_[w].dec.feed(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        fail_worker(w);
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        fail_worker(w);
      }
    }
  }
  return !halted_;
}

bool DistributedRotorRouter::next_msg(std::uint32_t* from, DistMsg* m) {
  while (!halted_) {
    for (std::uint32_t w = 0; w < conn_.size(); ++w) {
      Conn& c = conn_[w];
      if (!c.alive) continue;
      if (auto payload = c.dec.next()) {
        auto decoded = dist::decode_msg(*payload);
        if (!decoded) {
          fail_worker(w);
          return false;
        }
        *from = w;
        *m = std::move(*decoded);
        return true;
      }
      if (c.dec.fatal()) {
        fail_worker(w);
        return false;
      }
    }
    if (!pump_once(/*timeout_ms=*/-1)) return false;
  }
  return false;
}

template <typename Handler>
bool DistributedRotorRouter::collect(MsgKind kind, std::uint64_t round,
                                     bool allow_spill, Handler&& handler) {
  const std::uint32_t nw = part_.num_shards();
  std::vector<std::uint8_t> got(nw, 0);
  std::uint32_t remaining = nw;
  std::uint32_t from = 0;
  DistMsg m;
  while (remaining > 0) {
    if (!next_msg(&from, &m)) return false;
    if (allow_spill && m.kind == MsgKind::kSpill) {
      // Relay on receipt: the batch reaches its destination's queue
      // before any kCommit of this round can be queued (FIFO per socket).
      if (m.shard >= nw || m.round != round) {
        fail_worker(from);
        return false;
      }
      queue_msg(static_cast<std::uint32_t>(m.shard), m);
      continue;
    }
    if (m.kind != kind || got[from] != 0 ||
        (round != kAnyRound && m.round != round)) {
      fail_worker(from);
      return false;
    }
    got[from] = 1;
    --remaining;
    handler(from, m);
  }
  return true;
}

bool DistributedRotorRouter::expect_from(std::uint32_t w, MsgKind kind,
                                         DistMsg* m) {
  std::uint32_t from = 0;
  if (!next_msg(&from, m)) return false;
  if (from != w || m->kind != kind) {
    fail_worker(from);
    return false;
  }
  return true;
}

// ---- rounds ----

void DistributedRotorRouter::step() { step_impl(nullptr); }

void DistributedRotorRouter::step_impl(const sim::DelayFn* delay) {
  if (halted_) return;
  const std::uint32_t nw = part_.num_shards();
  const std::uint64_t t = time_ + 1;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> held;
  if (delay != nullptr) {
    held.resize(nw);
    DistMsg q;
    q.kind = MsgKind::kOccupiedQuery;
    q.round = t;
    for (std::uint32_t w = 0; w < nw; ++w) queue_msg(w, q);
    const bool ok = collect(
        MsgKind::kOccupied, kAnyRound, /*allow_spill=*/false,
        [&](std::uint32_t w, const DistMsg& m) {
          for (const auto& [v, present] : m.pairs) {
            std::uint32_t h = (*delay)(static_cast<sim::NodeId>(v), t,
                                       static_cast<std::uint32_t>(present));
            if (h > present) h = static_cast<std::uint32_t>(present);
            if (h > 0) held[w].emplace_back(v, h);
          }
        });
    if (!ok) return;
  }
  DistMsg scan;
  scan.kind = MsgKind::kScan;
  scan.round = t;
  for (std::uint32_t w = 0; w < nw; ++w) {
    scan.pairs = delay != nullptr ? held[w]
                                  : std::vector<std::pair<std::uint64_t,
                                                          std::uint64_t>>{};
    queue_msg(w, scan);
  }
  if (!collect(MsgKind::kScanDone, t, /*allow_spill=*/true,
               [&](std::uint32_t, const DistMsg& m) {
                 comms_.spill_bytes += m.value;
                 comms_.batches += m.value2;
                 comms_.mid_scan_batches += m.shard;
               })) {
    return;
  }
  DistMsg commit;
  commit.kind = MsgKind::kCommit;
  commit.round = t;
  for (std::uint32_t w = 0; w < nw; ++w) queue_msg(w, commit);
  if (!collect(MsgKind::kCommitDone, t, /*allow_spill=*/false,
               [&](std::uint32_t, const DistMsg& m) {
                 covered_ += static_cast<sim::NodeId>(m.value);
               })) {
    return;
  }
  time_ = t;
  ++comms_.rounds;
}

void DistributedRotorRouter::run(std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds && !halted_; ++i) {
    step();
    // Never checkpoint past a halt: the workers are gone, so the gather
    // would fail; the resumable point stays the last completed sink fire.
    if (!halted_) fire_auto_checkpoint_if_due();
  }
}

std::uint64_t DistributedRotorRouter::run_until_covered(
    std::uint64_t max_rounds) {
  if (all_covered()) return 0;
  while (time_ < max_rounds && !halted_) {
    step();
    if (halted_) break;
    fire_auto_checkpoint_if_due();
    if (all_covered()) return time_;
  }
  return sim::kNotCovered;
}

// ---- state access ----

std::uint64_t DistributedRotorRouter::config_hash() const {
  auto* self = const_cast<DistributedRotorRouter*>(this);
  if (halted_) return 0;
  // Chained FNV-1a: each worker continues the fold over its own rows, so
  // the result equals rotor_config_hash over the full node array.
  std::uint64_t state = Fnv1a().value();
  for (std::uint32_t w = 0; w < part_.num_shards(); ++w) {
    DistMsg q;
    q.kind = MsgKind::kHash;
    q.value = state;
    self->queue_msg(w, q);
    DistMsg rep;
    if (!self->expect_from(w, MsgKind::kHashReply, &rep)) return 0;
    state = rep.value;
  }
  return state;
}

bool DistributedRotorRouter::refresh_gather() const {
  if (halted_) return false;
  if (gather_round_ == time_) return true;
  auto* self = const_cast<DistributedRotorRouter*>(this);
  const graph::NodeId n = csr_.num_nodes();
  gather_node_.assign(n, graph::NodeState{});
  gather_ip_.assign(n, 0);
  gather_stats_.assign(n, core::VisitStats{});
  gather_sites_ = 0;
  DistMsg q;
  q.kind = MsgKind::kGather;
  for (std::uint32_t w = 0; w < part_.num_shards(); ++w) self->queue_msg(w, q);
  bool shape_ok = true;
  const bool ok = self->collect(
      MsgKind::kGathered, kAnyRound, /*allow_spill=*/false,
      [&](std::uint32_t w, const DistMsg& m) {
        const graph::NodeId b = part_.begin(w);
        const graph::NodeId e = part_.end(w);
        if (m.value != time_ || m.lists.size() != 6) {
          shape_ok = false;
          return;
        }
        for (const auto& list : m.lists) {
          if (list.size() != e - b) {
            shape_ok = false;
            return;
          }
        }
        for (graph::NodeId v = b; v < e; ++v) {
          const std::uint64_t i = v - b;
          gather_node_[v].pointer =
              static_cast<std::uint32_t>(m.lists[0][i]);
          gather_ip_[v] = static_cast<std::uint32_t>(m.lists[1][i]);
          gather_stats_[v].visits = m.lists[2][i];
          gather_stats_[v].exits = m.lists[3][i];
          gather_stats_[v].first_visit = m.lists[4][i];
          gather_stats_[v].last_visit = m.lists[5][i];
        }
        for (const auto& [v, c] : m.pairs) {
          if (v < b || v >= e || c == 0 || c > ~std::uint32_t{0}) {
            shape_ok = false;
            return;
          }
          if (gather_node_[v].count == 0) ++gather_sites_;
          gather_node_[v].count = static_cast<std::uint32_t>(c);
        }
      });
  if (!ok || !shape_ok) {
    self->halted_ = true;
    return false;
  }
  gather_round_ = time_;
  return true;
}

std::uint64_t DistributedRotorRouter::visits(sim::NodeId v) const {
  if (v >= csr_.num_nodes() || !refresh_gather()) return 0;
  return gather_stats_[v].visits;
}

std::uint64_t DistributedRotorRouter::first_visit_time(sim::NodeId v) const {
  if (v >= csr_.num_nodes() || !refresh_gather()) return sim::kNotCovered;
  return gather_stats_[v].first_visit;
}

void DistributedRotorRouter::serialize_state(sim::StateWriter& out) const {
  if (!refresh_gather()) return;  // halted: drivers never checkpoint here
  const std::vector<SiteRange> all{{0, csr_.num_nodes(), gather_sites_}};
  serialize_rotor_state(out, time_, collect_rotor_sites(gather_node_, all),
                        gather_node_, gather_ip_, gather_stats_);
}

bool DistributedRotorRouter::deserialize_state(const sim::StateReader& in) {
  if (halted_) return false;
  const graph::NodeId n = csr_.num_nodes();
  std::vector<graph::NodeState> node(n);
  std::vector<std::uint32_t> ip;
  std::vector<core::VisitStats> stats(n);
  const auto restored = deserialize_rotor_state(in, csr_, node, ip, stats);
  if (!restored) return false;
  for (std::uint32_t w = 0; w < part_.num_shards(); ++w) {
    const graph::NodeId b = part_.begin(w);
    const graph::NodeId e = part_.end(w);
    DistMsg s;
    s.kind = MsgKind::kScatter;
    s.value = restored->time;
    s.lists.assign(6, {});
    for (auto& list : s.lists) list.reserve(e - b);
    for (graph::NodeId v = b; v < e; ++v) {
      if (node[v].count > 0) s.pairs.emplace_back(v, node[v].count);
      s.lists[0].push_back(node[v].pointer);
      s.lists[1].push_back(ip[v]);
      s.lists[2].push_back(stats[v].visits);
      s.lists[3].push_back(stats[v].exits);
      s.lists[4].push_back(stats[v].first_visit);
      s.lists[5].push_back(stats[v].last_visit);
    }
    queue_msg(w, s);
  }
  if (!collect(MsgKind::kOk, kAnyRound, /*allow_spill=*/false,
               [](std::uint32_t, const DistMsg&) {})) {
    return false;
  }
  time_ = restored->time;
  num_agents_ = restored->num_agents;
  covered_ = restored->covered;
  gather_round_ = ~std::uint64_t{0};
  return true;
}

}  // namespace rr::core
