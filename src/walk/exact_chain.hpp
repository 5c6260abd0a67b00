#pragma once

// Exact Markov-chain computations for the random-walk baseline (S9
// extension).
//
// The paper's random-walk lemmas lean on classical facts: the maximum
// hitting time of the n-path/cycle, the Gambler's-ruin exit probabilities
// (Lemma 17), and the uniform stationary distribution on the ring (Sec. 4).
// This module computes those quantities exactly —
//   * closed forms on the ring/path,
//   * expected hitting times on arbitrary graphs by solving the linear
//     system  h(v) = 1 + sum_u P(v,u) h(u), h(target)=0  (Gauss-Seidel),
//   * the stationary distribution pi(v) = deg(v)/2|E|,
// and is used by tests to validate the simulation engines against theory.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace rr::walk {

/// Expected hitting time of a +-1 walk on the n-cycle from distance d
/// (closed form: d * (n - d)).
double ring_hitting_time(std::uint32_t n, std::uint32_t d);

/// Gambler's ruin (Lemma 17's tool): probability that a +-1 walk started
/// at position x in {0..L} hits L before 0 (= x / L).
double gamblers_ruin_up_probability(std::uint32_t x, std::uint32_t L);

/// Expected time for a +-1 walk started at x in {0..L} to exit {1..L-1}
/// (closed form: x * (L - x)).
double gamblers_ruin_exit_time(std::uint32_t x, std::uint32_t L);

/// Expected hitting times h(v) to `target` for the simple random walk on
/// `g`, solved to `tol` by Gauss-Seidel. h(target) = 0.
std::vector<double> expected_hitting_times(const graph::CsrGraph& g,
                                           graph::NodeId target,
                                           double tol = 1e-10,
                                           std::uint32_t max_iters = 200000);

/// Stationary distribution of the simple random walk: deg(v) / (2|E|).
std::vector<double> stationary_distribution(const graph::CsrGraph& g);

/// Expected return time to v: 1 / pi(v) = 2|E| / deg(v) (used in Sec. 4's
/// comparison: on the ring with k walks, n/k between visits on average).
double expected_return_time(const graph::CsrGraph& g, graph::NodeId v);

/// Spectral-free mixing estimate: total-variation distance between the
/// t-step distribution from `start` (computed by exact power iteration on
/// the lazy chain) and the stationary distribution.
double tv_distance_after(const graph::CsrGraph& g, graph::NodeId start,
                         std::uint32_t t, bool lazy = true);

}  // namespace rr::walk
