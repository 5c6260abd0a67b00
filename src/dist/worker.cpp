#include "dist/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/shard_step.hpp"
#include "dist/protocol.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/partition.hpp"
#include "sim/engine.hpp"

namespace rr::dist {

namespace {

using graph::NodeId;
using graph::NodeState;

/// One worker's node state, driven by the shared round kernel
/// (core::RotorShard; see worker.hpp).
class WorkerNode {
 public:
  explicit WorkerNode(int fd) : fd_(fd) {}

  /// False on a rejected init (malformed descriptor or inconsistent
  /// fields) — the worker exits instead of serving garbage.
  bool init(const DistMsg& m) {
    const auto d = graph::GraphDescriptor::parse(m.text);
    if (!d) return false;
    auto csr = d->build();
    if (!csr) return false;
    csr_ = std::move(*csr);
    const std::uint64_t workers = m.value;
    if (workers == 0 || workers > csr_.num_nodes()) return false;
    part_ = std::make_unique<graph::Partition>(
        csr_, static_cast<std::uint32_t>(workers));
    if (m.shard >= part_->num_shards()) return false;
    me_ = static_cast<std::uint32_t>(m.shard);
    single_ = part_->num_shards() == 1;
    shard_.attach(*part_, me_);
    spill_batch_ = m.value2 == 0 ? 1 : m.value2;

    const NodeId n = csr_.num_nodes();
    node_.assign(n, NodeState{});
    stats_.assign(n, core::VisitStats{});
    for (NodeId v = 0; v < n; ++v) {
      node_[v].degree = csr_.degree_unchecked(v);
      node_[v].row_begin = csr_.row_offset(v);
    }
    if (m.lists.size() != 1) return false;
    const auto& pointers = m.lists[0];
    if (!pointers.empty()) {
      if (pointers.size() != n) return false;
      for (NodeId v = 0; v < n; ++v) {
        if (pointers[v] >= node_[v].degree) return false;
        node_[v].pointer = static_cast<std::uint32_t>(pointers[v]);
      }
    }
    initial_pointers_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      initial_pointers_[v] = node_[v].pointer;
    }
    // Agent multiset as (site, count): counts and the n_v(0) visit credit
    // are order-independent, exactly as place_rotor_agents applies them.
    // An agent on an isolated node could never move: rejected here, as in
    // absorb_spill and scatter, so the kernel never meets one.
    for (const auto& [site, count] : m.pairs) {
      if (site >= n || count == 0 || count > ~std::uint32_t{0}) return false;
      NodeState& ns = node_[site];
      if (ns.count != 0) return false;  // sites arrive deduplicated
      if (ns.degree == 0) return false;
      ns.count = static_cast<std::uint32_t>(count);
      stats_[site].visits = count;
      stats_[site].first_visit = 0;
      if (owner_is_me(static_cast<NodeId>(site))) {
        shard_.occupied.push_back(static_cast<NodeId>(site));
      }
    }
    return true;
  }

  bool scan(const DistMsg& m) {
    time_ = m.round;
    round_spill_bytes_ = 0;
    round_batches_ = 0;
    round_mid_batches_ = 0;
    // Held counts arrive sparse; sort once so the scan looks them up with
    // a binary search regardless of the order the coordinator chose.
    held_ = m.pairs;
    std::sort(held_.begin(), held_.end());
    const auto hold = [&](NodeId v, std::uint64_t, std::uint32_t) {
      return held_for(v);
    };
    if (single_) {
      shard_.scan<true>(arrays(), nullptr, me_, time_, hold,
                        [](std::uint32_t) {});
    } else {
      // Batch full: flush while the scan continues — the bytes cross the
      // socket (and get relayed) during compute.
      shard_.scan<false>(arrays(), part_.get(), me_, time_, hold,
                         [&](std::uint32_t dest) {
                           if (shard_.spill_touched[dest].size() >=
                               spill_batch_) {
                             flush_spill(dest, /*mid_scan=*/true);
                           }
                         });
    }
    if (!io_ok_) return false;
    for (std::uint32_t d = 0; d < part_->num_shards(); ++d) {
      if (!shard_.spill_touched[d].empty()) flush_spill(d, /*mid_scan=*/false);
    }
    if (!io_ok_) return false;
    DistMsg done;
    done.kind = MsgKind::kScanDone;
    done.round = time_;
    done.shard = round_mid_batches_;
    done.value = round_spill_bytes_;
    done.value2 = round_batches_;
    return send_msg(fd_, done);
  }

  /// A spill batch relayed from another worker: fold into the arrival
  /// accumulators (additive, so batch order and splits cannot matter).
  bool absorb_spill(const DistMsg& m) {
    for (const auto& [v, a] : m.pairs) {
      if (v >= node_.size() || !owner_is_me(static_cast<NodeId>(v)) ||
          node_[v].degree == 0 || a == 0 || a > ~std::uint32_t{0}) {
        return false;
      }
      shard_.deposit(node_.data(), static_cast<NodeId>(v),
                     static_cast<std::uint32_t>(a));
    }
    return true;
  }

  bool commit(const DistMsg& m) {
    if (m.round != time_) return false;
    shard_.commit(arrays(), time_);
    DistMsg done;
    done.kind = MsgKind::kCommitDone;
    done.round = time_;
    done.value = shard_.take_newly_covered();
    return send_msg(fd_, done);
  }

  bool occupied_reply() {
    DistMsg rep;
    rep.kind = MsgKind::kOccupied;
    for (const NodeId v : shard_.occupied) {
      if (node_[v].count > 0) rep.pairs.emplace_back(v, node_[v].count);
    }
    return send_msg(fd_, rep);
  }

  bool hash_reply(const DistMsg& m) {
    Fnv1a h(m.value);
    for (NodeId v = part_->begin(me_); v < part_->end(me_); ++v) {
      h.mix(node_[v].pointer);
      h.mix(node_[v].count);
    }
    DistMsg rep;
    rep.kind = MsgKind::kHashReply;
    rep.value = h.value();
    return send_msg(fd_, rep);
  }

  bool gather_reply() {
    const NodeId b = part_->begin(me_);
    const NodeId e = part_->end(me_);
    DistMsg rep;
    rep.kind = MsgKind::kGathered;
    rep.value = time_;
    rep.lists.assign(6, {});
    for (auto& list : rep.lists) list.reserve(e - b);
    for (NodeId v = b; v < e; ++v) {
      if (node_[v].count > 0) rep.pairs.emplace_back(v, node_[v].count);
      rep.lists[0].push_back(node_[v].pointer);
      rep.lists[1].push_back(initial_pointers_[v]);
      rep.lists[2].push_back(stats_[v].visits);
      rep.lists[3].push_back(stats_[v].exits);
      rep.lists[4].push_back(stats_[v].first_visit);
      rep.lists[5].push_back(stats_[v].last_visit);
    }
    return send_msg(fd_, rep);
  }

  bool scatter(const DistMsg& m) {
    const NodeId b = part_->begin(me_);
    const NodeId e = part_->end(me_);
    const std::uint64_t len = e - b;
    if (m.lists.size() != 6) return false;
    for (const auto& list : m.lists) {
      if (list.size() != len) return false;
    }
    for (NodeId v = b; v < e; ++v) {
      const std::uint64_t i = v - b;
      if (m.lists[0][i] >= node_[v].degree ||
          m.lists[1][i] >= node_[v].degree) {
        return false;
      }
      node_[v].count = 0;
      node_[v].arrivals = 0;
      node_[v].pointer = static_cast<std::uint32_t>(m.lists[0][i]);
      initial_pointers_[v] = static_cast<std::uint32_t>(m.lists[1][i]);
      stats_[v].visits = m.lists[2][i];
      stats_[v].exits = m.lists[3][i];
      stats_[v].first_visit = m.lists[4][i];
      stats_[v].last_visit = m.lists[5][i];
    }
    shard_.reset();
    for (const auto& [v, c] : m.pairs) {
      if (v < b || v >= e || c == 0 || c > ~std::uint32_t{0}) return false;
      node_[v].count = static_cast<std::uint32_t>(c);
      shard_.occupied.push_back(static_cast<NodeId>(v));
    }
    time_ = m.value;
    DistMsg ok;
    ok.kind = MsgKind::kOk;
    return send_msg(fd_, ok);
  }

 private:
  core::RotorArrays arrays() {
    return {csr_.arcs(), node_.data(), stats_.data()};
  }

  bool owner_is_me(NodeId v) const {
    return v >= part_->begin(me_) && v < part_->end(me_);
  }

  std::uint32_t held_for(NodeId v) const {
    const auto it = std::lower_bound(
        held_.begin(), held_.end(),
        std::pair<std::uint64_t, std::uint64_t>{v, 0});
    if (it == held_.end() || it->first != v) return 0;
    return static_cast<std::uint32_t>(it->second);
  }

  void flush_spill(std::uint32_t dest, bool mid_scan) {
    DistMsg m;
    m.kind = MsgKind::kSpill;
    m.round = time_;
    m.shard = dest;
    m.pairs.reserve(shard_.spill_touched[dest].size());
    shard_.drain_spill(dest, part_->frontier(me_),
                       [&](NodeId u, std::uint32_t a) {
                         m.pairs.emplace_back(u, a);
                       });
    if (m.pairs.empty()) return;
    const std::string payload = encode_msg(m);
    round_spill_bytes_ += payload.size();
    ++round_batches_;
    if (mid_scan) ++round_mid_batches_;
    std::size_t sent = 0;
    const std::string frame = encode_frame(payload);
    while (sent < frame.size()) {
#if defined(MSG_NOSIGNAL)
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
#else
      const ssize_t n = ::write(fd_, frame.data() + sent, frame.size() - sent);
#endif
      if (n < 0) {
        if (errno == EINTR) continue;
        io_ok_ = false;
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  int fd_;
  bool io_ok_ = true;

  graph::CsrGraph csr_;
  std::unique_ptr<graph::Partition> part_;
  std::uint32_t me_ = 0;
  bool single_ = true;
  std::uint64_t spill_batch_ = 1;
  std::uint64_t time_ = 0;

  std::vector<NodeState> node_;
  std::vector<std::uint32_t> initial_pointers_;
  std::vector<core::VisitStats> stats_;
  core::RotorShard shard_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> held_;

  std::uint64_t round_spill_bytes_ = 0;
  std::uint64_t round_batches_ = 0;
  std::uint64_t round_mid_batches_ = 0;
};

}  // namespace

int worker_serve(int fd, std::uint64_t fail_after_scans) {
  WorkerNode node(fd);
  FrameDecoder dec;
  bool inited = false;
  std::uint64_t scans = 0;
  int rc = 0;
  while (true) {
    const auto m = recv_msg(fd, dec);
    if (!m) {
      rc = dec.fatal() ? 1 : 0;  // plain EOF = coordinator gone, clean exit
      break;
    }
    if (m->kind == MsgKind::kShutdown) break;
    if (!inited) {
      if (m->kind != MsgKind::kInit) {
        rc = 1;
        break;
      }
      if (!node.init(*m)) {
        rc = 2;
        break;
      }
      inited = true;
      DistMsg ok;
      ok.kind = MsgKind::kOk;
      if (!send_msg(fd, ok)) {
        rc = 1;
        break;
      }
      continue;
    }
    bool ok = false;
    switch (m->kind) {
      case MsgKind::kScan:
        // Fault-injection hook: crash (drop the socket) instead of
        // handling this scan.
        if (fail_after_scans != 0 && ++scans >= fail_after_scans) {
          ::close(fd);
          return 0;
        }
        ok = node.scan(*m);
        break;
      case MsgKind::kSpill:
        ok = node.absorb_spill(*m);
        break;
      case MsgKind::kCommit:
        ok = node.commit(*m);
        break;
      case MsgKind::kOccupiedQuery:
        ok = node.occupied_reply();
        break;
      case MsgKind::kHash:
        ok = node.hash_reply(*m);
        break;
      case MsgKind::kGather:
        ok = node.gather_reply();
        break;
      case MsgKind::kScatter:
        ok = node.scatter(*m);
        break;
      default:
        ok = false;
        break;
    }
    if (!ok) {
      rc = 1;
      break;
    }
  }
  ::close(fd);
  return rc;
}

}  // namespace rr::dist
