#pragma once

// Worker side of the distributed rotor-router (dist layer).
//
// One WorkerNode owns one contiguous arc-balanced shard of the CSR row
// space — the same graph::Partition ranges a sharded core::RotorRouter
// uses in-process — and drives the same round kernel, core::RotorShard
// (core/shard_step.hpp): scan its occupied rows, distribute exits, commit
// arrival totals. The only difference is the out-of-shard sink: instead
// of waiting in the spill buffer for the in-process merge phase,
// cross-shard arrivals flush per destination worker as framed kSpill
// batches over the coordinator socket, and relayed batches come back in
// as ordinary own-row deposits. Arrival commits are additive with
// set-once first-visit bookkeeping, so per-round state is a function of
// per-node arrival *totals*, never of batch or delivery order — which is
// the whole bit-equality argument, unchanged from the sharded engine
// (README "Distributed stepping").
//
// Batches flush mid-scan as soon as spill_batch distinct frontier slots
// accumulate for one destination: the kernel keeps scanning while those
// bytes cross the socket (and while the coordinator relays them), which
// is the comms/compute overlap bench_dist measures. A node split across
// two batches is fine — totals add.
//
// The worker is a blocking single-threaded serve loop over one socket fd
// (AF_UNIX socketpair from the coordinator's fork/exec or thread spawn,
// or a connected --dist-socket stream). It exits 0 on kShutdown or a
// closed socket, nonzero on a malformed or out-of-protocol stream.
//
// Memory honesty: each worker builds the full CSR from the descriptor
// (GraphDescriptor::build; the partition and frontier tables need
// global topology) and sizes its state arrays at n nodes, touching only
// its own range. Distribution therefore shards the *round work and the
// dynamic-state writes*, not yet the graph image; carving the substrate
// itself (mmap'd per-range images) is the ROADMAP follow-on.

#include <cstdint>

namespace rr::dist {

/// Serves one worker connection until kShutdown/EOF. `fail_after_scans`
/// is a test/fault-injection hook: a nonzero value makes the worker drop
/// the connection (as a crash would) after handling that many kScan
/// messages. Returns 0 on a clean shutdown, 1 on protocol errors, 2 on a
/// rejected kInit (bad descriptor or state).
int worker_serve(int fd, std::uint64_t fail_after_scans = 0);

}  // namespace rr::dist
