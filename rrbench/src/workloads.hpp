#pragma once

// The benchmark's workloads. Each runs for ctx.seconds of measurement,
// checks the program's outputs, and fills `result` with every metric it
// can measure; main() prints the end-to-end or per-layer set. Why each
// workload exists is in rrbench/README.md.

#include "common.hpp"

namespace rrbench {

/// `rr_cli run --shards` on one large torus: sharded stepping with
/// periodic v2 checkpoints, a final save, and a resume that continues;
/// then the same instance through `--engine dist` with fork/exec'd
/// rr_noded workers, checked (and timed for the dist layer when traced).
void run_torus_explore(const RunContext& ctx, Result& result);

/// Table-1 style sweep: thousands of small random ring trials fanned out
/// through sim::Runner on the ring, rotor and lazy backends.
void run_ring_sweep(const RunContext& ctx, Result& result);

/// rr_serverd as a child process under mixed closed- and open-loop
/// traffic over its AF_UNIX socket.
void run_serve_mixed(const RunContext& ctx, Result& result);

}  // namespace rrbench
