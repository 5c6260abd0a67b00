#include "walk/random_walk.hpp"

#include <cmath>

#include "common/hash.hpp"

namespace rr::walk {

GraphRandomWalks::GraphRandomWalks(const graph::CsrGraph& g,
                                   std::vector<graph::NodeId> starts,
                                   std::uint64_t seed)
    : csr_(g),
      rng_(seed),
      pos_(std::move(starts)),
      visits_(g.num_nodes(), 0),
      first_visit_(g.num_nodes(), kGraphWalkNotCovered),
      present_(g.num_nodes(), 0),
      hold_left_(g.num_nodes(), 0) {
  RR_REQUIRE(!pos_.empty(), "at least one walker required");
  for (graph::NodeId v : pos_) {
    RR_REQUIRE(v < g.num_nodes(), "walker start out of range");
    // Every reachable node is someone's neighbor (degree >= 1), so checking
    // the starts keeps the stepping loop free of bounds checks.
    RR_REQUIRE(g.degree(v) > 0, "walker start on isolated node");
    record_visit(v);  // time_ == 0: initial placement counts as a visit
  }
}

void GraphRandomWalks::step() {
  ++time_;
  for (auto& p : pos_) move_walker(p);
}

std::uint64_t GraphRandomWalks::config_hash() const {
  Fnv1a h;
  for (graph::NodeId p : pos_) h.mix(p);
  return h.value();
}

void GraphRandomWalks::serialize_state(sim::StateWriter& out) const {
  out.field_u64("time", time_);
  out.field_list("positions", pos_);
  out.field_list("visits", visits_);
  out.field_list("first_visit", first_visit_);
  const auto rng = rng_.save_state();
  out.field_list("rng",
                 std::vector<std::uint64_t>(rng.begin(), rng.end()));
}

bool GraphRandomWalks::deserialize_state(const sim::StateReader& in) {
  const graph::NodeId n = csr_.num_nodes();
  const auto time = in.u64("time");
  const auto positions = in.u64_list("positions");
  const auto visits = in.u64_list("visits", n);
  const auto first_visit = in.u64_list("first_visit", n);
  const auto rng = in.u64_list("rng", 4);
  if (!time || !positions || positions->empty() || !visits || !first_visit ||
      !rng) {
    return false;
  }
  for (std::uint64_t p : *positions) {
    if (p >= n || csr_.degree_unchecked(static_cast<graph::NodeId>(p)) == 0) {
      return false;
    }
  }
  if (!rng_.restore_state({(*rng)[0], (*rng)[1], (*rng)[2], (*rng)[3]})) {
    return false;
  }
  time_ = *time;
  pos_.assign(positions->begin(), positions->end());
  visits_ = *visits;
  first_visit_ = *first_visit;
  covered_ = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (first_visit_[v] != kGraphWalkNotCovered) ++covered_;
  }
  return true;
}

CoverEstimate estimate_walk_cover_time(const graph::CsrGraph& g,
                                       const std::vector<graph::NodeId>& starts,
                                       std::uint64_t trials,
                                       std::uint64_t seed,
                                       std::uint64_t max_rounds) {
  RR_REQUIRE(trials >= 2, "need at least two trials for a CI");
  Rng seeder(seed);
  double sum = 0.0, sum_sq = 0.0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    GraphRandomWalks walks(g, starts, seeder());
    const std::uint64_t c = walks.run_until_covered(max_rounds);
    RR_REQUIRE(c != kGraphWalkNotCovered,
               "cover-time trial exceeded max_rounds; raise the cap");
    sum += static_cast<double>(c);
    sum_sq += static_cast<double>(c) * static_cast<double>(c);
  }
  CoverEstimate est;
  est.trials = trials;
  est.mean = sum / static_cast<double>(trials);
  const double var =
      (sum_sq - sum * sum / static_cast<double>(trials)) /
      static_cast<double>(trials - 1);
  est.stddev = var > 0 ? std::sqrt(var) : 0.0;
  est.ci95 = 1.96 * est.stddev / std::sqrt(static_cast<double>(trials));
  return est;
}

}  // namespace rr::walk
