#include "sim/cycle_jump.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/require.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"

namespace rr::sim {

const char* cycle_jump_mode_name(CycleJumpMode mode) {
  switch (mode) {
    case CycleJumpMode::kOff: return "off";
    case CycleJumpMode::kAuto: return "auto";
    case CycleJumpMode::kOn: return "on";
  }
  return "auto";
}

std::optional<CycleJumpMode> cycle_jump_mode_from_name(std::string_view name) {
  if (name == "off") return CycleJumpMode::kOff;
  if (name == "auto") return CycleJumpMode::kAuto;
  if (name == "on") return CycleJumpMode::kOn;
  return std::nullopt;
}

namespace {

// ---- serialized-state images ----
//
// Confirmation and delta extraction work on materialized copies of the
// engine's serialize_state output: kU64ListView fields are resolved
// element by element (their view pointers alias live engine memory and
// go stale the moment the engine steps), and view fields normalize to
// kU64List so images from different capture times compare uniformly.

struct ImageField {
  WriterField::Kind kind = WriterField::Kind::kRaw;
  std::string key;
  std::string raw;
  std::uint64_t scalar = 0;
  std::vector<std::uint64_t> list;
  std::vector<std::uint8_t> symbols;
  PairList pairs;
  bool accumulator = false;
};

using Image = std::vector<ImageField>;

bool is_accumulator_key(const std::vector<std::string>& accumulators,
                        const std::string& key) {
  return std::find(accumulators.begin(), accumulators.end(), key) !=
         accumulators.end();
}

Image capture_image(const StateIO& io,
                    const std::vector<std::string>& accumulators) {
  StateWriter w;
  io.serialize_state(w);
  Image image;
  image.reserve(w.fields().size());
  for (const WriterField& f : w.fields()) {
    ImageField out;
    out.key = f.key;
    switch (f.kind) {
      case WriterField::Kind::kRaw:
        out.kind = f.kind;
        out.raw = f.raw;
        break;
      case WriterField::Kind::kU64:
        out.kind = f.kind;
        out.scalar = f.scalar;
        break;
      case WriterField::Kind::kU64List:
        out.kind = f.kind;
        out.list = f.list;
        break;
      case WriterField::Kind::kU64ListView:
        out.kind = WriterField::Kind::kU64List;
        out.list.reserve(f.view_size);
        for (std::uint64_t i = 0; i < f.view_size; ++i) {
          out.list.push_back(f.view_at(i));
        }
        break;
      case WriterField::Kind::kDirs:
      case WriterField::Kind::kBits:
        out.kind = f.kind;
        out.symbols = f.symbols;
        break;
      case WriterField::Kind::kPairs:
        out.kind = f.kind;
        out.pairs = f.pairs;
        break;
    }
    // Only counter-shaped fields may be leapt; an accumulator name bound
    // to any other kind is a spec bug surfaced as "rigid", which can
    // never confirm (the value keeps changing), not as a wrong leap.
    out.accumulator = (out.kind == WriterField::Kind::kU64 ||
                       out.kind == WriterField::Kind::kU64List) &&
                      is_accumulator_key(accumulators, f.key);
    image.push_back(std::move(out));
  }
  return image;
}

/// Exact equality of every rigid field (and shape equality of the
/// accumulator fields, so deltas extracted later are well-formed). This
/// is the collision-proofing step: a 64-bit hash match whose underlying
/// configurations differ is caught by any one of the rigid payloads
/// (pointer fields, agent positions, tokens, ...) differing.
bool rigid_equal(const Image& a, const Image& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ImageField& fa = a[i];
    const ImageField& fb = b[i];
    if (fa.kind != fb.kind || fa.key != fb.key ||
        fa.accumulator != fb.accumulator) {
      return false;
    }
    if (fa.accumulator) {
      if (fa.list.size() != fb.list.size()) return false;
      continue;
    }
    switch (fa.kind) {
      case WriterField::Kind::kRaw:
        if (fa.raw != fb.raw) return false;
        break;
      case WriterField::Kind::kU64:
        if (fa.scalar != fb.scalar) return false;
        break;
      case WriterField::Kind::kU64List:
      case WriterField::Kind::kU64ListView:
        if (fa.list != fb.list) return false;
        break;
      case WriterField::Kind::kDirs:
      case WriterField::Kind::kBits:
        if (fa.symbols != fb.symbols) return false;
        break;
      case WriterField::Kind::kPairs:
        if (fa.pairs != fb.pairs) return false;
        break;
    }
  }
  return true;
}

/// Per-cycle accumulator increments, from two rigid-equal images exactly
/// one confirmed period apart (both at settled in-cycle rounds, so the
/// observed increment is the one that repeats forever). Mod-2^64
/// subtraction matches the engines' wrapping counters.
std::vector<AccumulatorDelta> extract_deltas(const Image& a, const Image& b) {
  std::vector<AccumulatorDelta> deltas;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].accumulator) continue;
    AccumulatorDelta d;
    d.key = a[i].key;
    if (a[i].kind == WriterField::Kind::kU64) {
      d.scalar = true;
      d.scalar_delta = b[i].scalar - a[i].scalar;
    } else {
      const auto& la = a[i].list;
      const auto& lb = b[i].list;
      for (std::size_t j = 0; j < la.size(); ++j) {
        const std::uint64_t step = lb[j] - la[j];
        if (!d.runs.empty() && d.runs.back().delta == step) {
          ++d.runs.back().len;
        } else {
          d.runs.push_back({step, 1});
        }
      }
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

const AccumulatorDelta* find_delta(const std::vector<AccumulatorDelta>& deltas,
                                   std::string_view key) {
  for (const AccumulatorDelta& d : deltas) {
    if (d.key == key) return &d;
  }
  return nullptr;
}

/// Copies one serialized field with its accumulator (if `deltas` names
/// one) advanced by `cycles` periods. Fields without a delta are copied
/// as recorded; view fields keep aliasing live engine memory, so the
/// copy must be encoded before any restore. nullopt when a delta does
/// not fit its field's shape.
std::optional<WriterField> advance_field(
    const WriterField& f, const std::vector<AccumulatorDelta>& deltas,
    std::uint64_t cycles) {
  const AccumulatorDelta* d = find_delta(deltas, f.key);
  if (d == nullptr) return f;
  if (f.kind == WriterField::Kind::kU64) {
    if (!d->scalar) return std::nullopt;
    WriterField out = f;
    out.scalar += cycles * d->scalar_delta;
    return out;
  }
  // Accumulators are counter-shaped (capture_image), so any other kind
  // carries no delta.
  if (f.kind != WriterField::Kind::kU64List &&
      f.kind != WriterField::Kind::kU64ListView) {
    return f;
  }
  if (d->scalar) return std::nullopt;
  const std::uint64_t count = f.kind == WriterField::Kind::kU64List
                                  ? f.list.size()
                                  : f.view_size;
  std::uint64_t covered = 0;
  for (const DeltaRun& r : d->runs) covered += r.len;
  if (covered != count) return std::nullopt;  // topology changed?
  WriterField out;
  out.kind = WriterField::Kind::kU64List;
  out.key = f.key;
  out.list.resize(count);
  std::uint64_t i = 0;
  for (const DeltaRun& r : d->runs) {
    const std::uint64_t step = cycles * r.delta;
    for (std::uint64_t j = 0; j < r.len; ++j, ++i) {
      const std::uint64_t x =
          f.kind == WriterField::Kind::kU64List ? f.list[i] : f.view_at(i);
      out.list[i] = x + step;
    }
  }
  return out;
}

/// Generic leap: serialize, advance accumulators by `cycles` periods, and
/// restore through the engine's own deserialize_state (whose validation
/// still applies). The advanced state reaches the engine through the v2
/// codec (round_trip_v2), the path a save -> resume takes. On any
/// failure the pre-leap state is reinstated and false returned — the
/// engine is never left mid-leap.
bool generic_leap(StateIO& io, std::uint64_t num_nodes,
                  const std::vector<AccumulatorDelta>& deltas,
                  std::uint64_t cycles) {
  StateWriter w;
  io.serialize_state(w);
  // Every declared accumulator must exist in the serialized state;
  // leaping a delta the state no longer carries would silently drop it.
  for (const AccumulatorDelta& d : deltas) {
    bool present = false;
    for (const WriterField& f : w.fields()) present |= f.key == d.key;
    if (!present) return false;  // nothing attempted, state untouched
  }
  StateWriter advanced;
  for (const WriterField& f : w.fields()) {
    auto field = advance_field(f, deltas, cycles);
    if (!field) return false;
    advanced.add(std::move(*field));
  }
  // Both readers are decoded before any deserialize: view fields alias
  // live engine memory, which the first restore attempt may rewrite.
  const auto patched = round_trip_v2(advanced, num_nodes);
  const auto pristine = round_trip_v2(w, num_nodes);
  RR_REQUIRE(patched && pristine, "cycle-jump: v2 state failed to round-trip");
  if (io.deserialize_state(*patched)) return true;
  // The engine rejected the advanced state: put the original back (its
  // own serialize round-trips by the checkpoint contract) and report
  // failure so the caller falls back to dense stepping.
  if (!io.deserialize_state(*pristine)) {
    // Both restores rejected. A healthy engine round-trips its own
    // serialize output, so this is an engine refusing *all* state — a
    // distributed backend whose workers died mid-run rejects every
    // scatter. Failed deserializes leave engine state untouched, so the
    // pre-leap configuration is still in place; report failure and let
    // the wrapper abandon leaping (dense stepping, or the backend's own
    // halt handling, takes over).
    return false;
  }
  return false;
}

/// Leading-u64 parser for the hint codec: consumes [0-9]+ off the front
/// of `s`; false on empty, non-digit start, or overflow (total parsing —
/// hints come from checkpoint files).
bool parse_u64_prefix(std::string_view& s, std::uint64_t& out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  std::uint64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(s[i] - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) return false;
    v = v * 10 + digit;
    ++i;
  }
  s.remove_prefix(i);
  out = v;
  return true;
}

}  // namespace

// ---- persisted cycle hints ----

std::string encode_cycle_hint(std::uint64_t period,
                              const std::vector<AccumulatorDelta>& deltas) {
  if (period == 0) return std::string();
  for (const AccumulatorDelta& d : deltas) {
    if (d.key.empty()) return std::string();
    for (const char c : d.key) {
      if (c == ';' || c == '=' || c == '\n' || c == '\r') return std::string();
    }
  }
  std::string out = "v1 p=" + std::to_string(period);
  for (const AccumulatorDelta& d : deltas) {
    out += ';';
    out += d.key;
    out += '=';
    if (d.scalar) {
      out += "s:";
      out += std::to_string(d.scalar_delta);
    } else {
      out += "r:";
      for (std::size_t i = 0; i < d.runs.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(d.runs[i].len);
        out += 'x';
        out += std::to_string(d.runs[i].delta);
      }
    }
  }
  return out;
}

std::optional<CycleHint> decode_cycle_hint(std::string_view text) {
  const auto eat = [&text](std::string_view prefix) {
    if (text.substr(0, prefix.size()) != prefix) return false;
    text.remove_prefix(prefix.size());
    return true;
  };
  CycleHint hint;
  if (!eat("v1 p=")) return std::nullopt;
  if (!parse_u64_prefix(text, hint.period) || hint.period == 0) {
    return std::nullopt;
  }
  while (!text.empty()) {
    if (text[0] != ';') return std::nullopt;
    text.remove_prefix(1);
    const std::size_t eq = text.find('=');
    if (eq == 0 || eq == std::string_view::npos) return std::nullopt;
    AccumulatorDelta d;
    d.key = std::string(text.substr(0, eq));
    text.remove_prefix(eq + 1);
    if (eat("s:")) {
      d.scalar = true;
      if (!parse_u64_prefix(text, d.scalar_delta)) return std::nullopt;
    } else if (eat("r:")) {
      // An empty run list (zero-length accumulator list) is legal.
      while (!text.empty() && text[0] != ';') {
        if (!d.runs.empty()) {
          if (text[0] != ',') return std::nullopt;
          text.remove_prefix(1);
        }
        DeltaRun run;
        if (!parse_u64_prefix(text, run.len) || run.len == 0) {
          return std::nullopt;
        }
        if (text.empty() || text[0] != 'x') return std::nullopt;
        text.remove_prefix(1);
        if (!parse_u64_prefix(text, run.delta)) return std::nullopt;
        d.runs.push_back(run);
      }
    } else {
      return std::nullopt;
    }
    hint.deltas.push_back(std::move(d));
  }
  return hint;
}

// ---- exact stride-1 detector ----

std::optional<ConfirmedCycle> detect_confirmed_cycle(
    Engine& engine, std::uint64_t max_steps,
    const std::vector<std::string>* accumulators) {
  auto* io = dynamic_cast<StateIO*>(&engine);
  if (io == nullptr) return std::nullopt;
  std::vector<std::string> from_registry;
  if (accumulators == nullptr) {
    const EngineSpec* spec =
        EngineRegistry::instance().find(engine.engine_name());
    if (spec == nullptr || !spec->deterministic) return std::nullopt;
    from_registry = spec->cycle_accumulators;
    accumulators = &from_registry;
  }

  std::uint64_t steps = 0;
  BrentProbe probe;
  probe.feed(engine.config_hash(), engine.time());
  while (steps < max_steps) {
    // Probe: Brent over per-round hashes proposes a candidate lambda —
    // the hash sequence's period, which always divides the state period.
    std::optional<std::uint64_t> lambda;
    while (steps < max_steps) {
      engine.step();
      ++steps;
      if ((lambda = probe.feed(engine.config_hash(), engine.time()))) break;
    }
    if (!lambda || *lambda == 0) return std::nullopt;
    // Confirm at multiples of lambda with a full rigid-state compare.
    // The first multiple j*lambda whose state matches is the *minimal*
    // state period p: p is a multiple of lambda, state(t) == state(t+j*
    // lambda) iff p divides j*lambda, and j grows one step at a time.
    // A collision (hash repeat before the state's) never matches and
    // falls back to probing with the budget that remains.
    Image baseline = capture_image(*io, *accumulators);
    std::uint64_t advanced = 0;
    bool matched = false;
    while (steps + *lambda <= max_steps && advanced <= max_steps) {
      for (std::uint64_t i = 0; i < *lambda; ++i) engine.step();
      steps += *lambda;
      advanced += *lambda;
      Image cur = capture_image(*io, *accumulators);
      if (rigid_equal(baseline, cur)) {
        matched = true;
        break;
      }
    }
    if (matched) return ConfirmedCycle{advanced, engine.time()};
    // Exhausted confirmation budget: restart the probe on the remaining
    // step budget (the tortoise may have sampled a pre-cycle collision).
    probe.reset();
    probe.feed(engine.config_hash(), engine.time());
  }
  return std::nullopt;
}

// ---- wrapper ----

struct CycleJumpEngine::Detector {
  Image baseline;
  bool matched_once = false;
};

CycleJumpEngine::CycleJumpEngine(std::unique_ptr<Engine> inner,
                                 std::vector<std::string> accumulators,
                                 CycleJumpOptions options)
    : inner_(std::move(inner)),
      accumulators_(std::move(accumulators)),
      opt_(options) {
  RR_REQUIRE(inner_ != nullptr, "cycle-jump: null inner engine");
  inner_io_ = dynamic_cast<StateIO*>(inner_.get());
  RR_REQUIRE(inner_io_ != nullptr,
             "cycle-jump: inner engine must implement StateIO");
  inner_leap_ = dynamic_cast<CycleLeapable*>(inner_.get());
  if (opt_.min_stride == 0) {
    // Cost-scaled: one O(n) hash per at least 32 n agent steps.
    const std::uint64_t n = inner_->num_nodes();
    const std::uint64_t k = std::max<std::uint32_t>(1, inner_->num_agents());
    opt_.min_stride =
        std::bit_ceil(std::max<std::uint64_t>(64, (32 * n + k - 1) / k));
  }
  opt_.samples_per_generation =
      std::max<std::uint64_t>(1, opt_.samples_per_generation);
  invalidate();
  if (opt_.hint_period > 0) {
    // A persisted hint from a prior confirmed run (checkpoint
    // cycle.hint): skip probing and enter confirmation directly at the
    // hinted period. Soundness is unchanged — the full rigid-state
    // compare and delta re-extraction still gate every leap, so a wrong
    // hint burns at most max_confirm_laps compare laps before falling
    // back to ordinary probing.
    ++stats_.candidates;
    candidate_ = opt_.hint_period;
    confirm_at_ = inner_->time() + candidate_;
    laps_ = 0;
    detector_ = std::make_unique<Detector>();
    detector_->baseline = capture_image(*inner_io_, accumulators_);
    detector_->matched_once = false;
    phase_ = Phase::kConfirming;
  }
}

CycleJumpEngine::~CycleJumpEngine() = default;

std::uint64_t CycleJumpEngine::effective_budget() const {
  if (opt_.detect_budget != 0) return opt_.detect_budget;
  constexpr std::uint64_t kMinSamples = 64;
  const std::uint64_t scaled = 32 * static_cast<std::uint64_t>(num_nodes());
  const std::uint64_t samples = opt_.min_stride <= kNotCovered / kMinSamples
                                    ? kMinSamples * opt_.min_stride
                                    : kNotCovered;
  return std::max({std::uint64_t{1} << 16, scaled, samples});
}

void CycleJumpEngine::invalidate() {
  phase_ = Phase::kProbing;
  probe_.reset();
  stride_ = opt_.min_stride;
  generation_samples_ = 0;
  start_round_ = inner_->time();
  next_sample_ = inner_->time();  // sample the very first configuration
  detector_.reset();
  candidate_ = 0;
  confirm_at_ = 0;
  laps_ = 0;
  rejects_ = 0;
  period_ = 0;
  deltas_.clear();
  stats_.confirmed = false;
  stats_.abandoned = false;
}

std::uint64_t CycleJumpEngine::rounds_to_next_event() const {
  std::uint64_t at = kNotCovered;
  if (phase_ == Phase::kProbing) at = next_sample_;
  if (phase_ == Phase::kConfirming) at = confirm_at_;
  if (at == kNotCovered) return kNotCovered;
  const std::uint64_t now = inner_->time();
  return at > now ? at - now : 0;
}

void CycleJumpEngine::on_event() {
  const std::uint64_t now = inner_->time();
  if (phase_ == Phase::kProbing) {
    if (!inner_->all_covered()) {
      // A repeat freezes the visited set, so no pre-cover sample can
      // confirm: skip the hash and count the budget from cover.
      start_round_ = now;
      next_sample_ = now + stride_;
      return;
    }
    if (now - start_round_ >= effective_budget()) {
      phase_ = Phase::kAbandoned;
      stats_.abandoned = true;
      return;
    }
    ++stats_.samples;
    const auto candidate = probe_.feed(inner_->config_hash(), now);
    if (candidate && *candidate > 0 && *candidate <= effective_budget()) {
      ++stats_.candidates;
      candidate_ = *candidate;
      confirm_at_ = now + candidate_;
      laps_ = 0;
      detector_ = std::make_unique<Detector>();
      detector_->baseline = capture_image(*inner_io_, accumulators_);
      detector_->matched_once = false;
      phase_ = Phase::kConfirming;
      return;
    }
    if (candidate) {
      // A candidate too long to confirm within budget: treat as a reject
      // and keep probing from a fresh tortoise.
      ++stats_.candidates;
      ++stats_.rejects;
      ++rejects_;
      probe_.reset();
      if (rejects_ >= opt_.max_rejects) {
        phase_ = Phase::kAbandoned;
        stats_.abandoned = true;
        return;
      }
    }
    ++generation_samples_;
    if (generation_samples_ >= opt_.samples_per_generation) {
      generation_samples_ = 0;
      if (stride_ <= kNotCovered / 2) stride_ *= 2;
    }
    next_sample_ = now + stride_;
    return;
  }
  if (phase_ != Phase::kConfirming) return;
  ++stats_.confirm_laps;
  Image cur = capture_image(*inner_io_, accumulators_);
  if (rigid_equal(detector_->baseline, cur)) {
    if (detector_->matched_once) {
      // Second consecutive match: baseline (one period ago) is settled —
      // it sits at least one full period past cycle entry — so the
      // per-lap accumulator increments observed here repeat forever.
      deltas_ = extract_deltas(detector_->baseline, cur);
      period_ = candidate_;
      phase_ = Phase::kConfirmed;
      stats_.confirmed = true;
      stats_.period = period_;
      detector_.reset();
      return;
    }
    detector_->matched_once = true;
    detector_->baseline = std::move(cur);
    confirm_at_ = now + candidate_;
    return;
  }
  // Mismatch: either first-visit/accumulator settling (slide the baseline
  // and retry) or a hash collision (laps run out and the candidate dies).
  detector_->matched_once = false;
  detector_->baseline = std::move(cur);
  ++laps_;
  if (laps_ < opt_.max_confirm_laps) {
    confirm_at_ = now + candidate_;
    return;
  }
  ++stats_.rejects;
  ++rejects_;
  detector_.reset();
  candidate_ = 0;
  if (rejects_ >= opt_.max_rejects) {
    phase_ = Phase::kAbandoned;
    stats_.abandoned = true;
    return;
  }
  phase_ = Phase::kProbing;
  probe_.reset();
  generation_samples_ = 0;
  next_sample_ = now + stride_;
}

std::uint64_t CycleJumpEngine::dense_chunk(std::uint64_t rounds) {
  std::uint64_t consumed = 0;
  while (consumed < rounds) {
    const std::uint64_t to_event = rounds_to_next_event();
    if (to_event == 0) {
      on_event();
      // Confirmation mid-chunk: stop dense-stepping right here so the
      // caller can leap the remainder.
      if (phase_ == Phase::kConfirmed) return consumed;
      continue;
    }
    const std::uint64_t sub = std::min(rounds - consumed, to_event);
    const std::uint64_t before = inner_->time();
    inner_->run(sub);  // inner never has auto-checkpoints armed
    if (inner_->time() == before) {
      // The inner engine refused to advance (a halted distributed
      // backend no-ops its run). Claim the whole request so every
      // caller terminates instead of spinning on a frozen clock.
      return rounds;
    }
    consumed += sub;
  }
  if (rounds_to_next_event() == 0) on_event();
  return consumed;
}

void CycleJumpEngine::apply_leap(std::uint64_t cycles) {
  bool ok = false;
  if (inner_leap_ != nullptr) ok = inner_leap_->apply_cycle_leap(deltas_, cycles);
  if (!ok) {
    ok = generic_leap(*inner_io_, inner_->num_nodes(), deltas_, cycles);
  }
  if (!ok) {
    // The inner engine would not accept the advanced state (spec bug or
    // an exotic validation rule): never leap again, dense stepping is
    // always correct.
    phase_ = Phase::kAbandoned;
    stats_.abandoned = true;
    stats_.confirmed = false;
    period_ = 0;
    deltas_.clear();
    return;
  }
  ++stats_.leaps;
  stats_.leaped_rounds += cycles * period_;
}

void CycleJumpEngine::step() {
  inner_->step();
  if (rounds_to_next_event() == 0) on_event();
}

void CycleJumpEngine::do_step_delayed(const DelayFn& delay) {
  // A delayed round perturbs the orbit: any detected or confirmed cycle
  // no longer describes the future trajectory.
  inner_->step_delayed(delay);
  invalidate();
}

void CycleJumpEngine::run(std::uint64_t rounds) {
  while (rounds > 0) {
    const std::uint64_t cap = rounds_to_auto_checkpoint();
    const std::uint64_t chunk = std::min(rounds, cap);
    if (chunk == 0) {  // a mark is overdue (direct step() moved time past it)
      fire_auto_checkpoint_if_due();
      continue;
    }
    if (phase_ == Phase::kConfirmed) {
      const std::uint64_t cycles = chunk / period_;
      if (cycles > 0) {
        apply_leap(cycles);
        if (phase_ == Phase::kConfirmed) {
          rounds -= cycles * period_;
          fire_auto_checkpoint_if_due();
        }
        continue;  // leap failure falls through to dense next iteration
      }
      inner_->run(chunk);  // sub-period residue
      rounds -= chunk;
    } else {
      rounds -= dense_chunk(chunk);
    }
    fire_auto_checkpoint_if_due();
  }
}

std::uint64_t CycleJumpEngine::run_until_covered(std::uint64_t max_rounds) {
  if (all_covered()) return 0;
  while (inner_->time() < max_rounds) {
    const std::uint64_t remaining = max_rounds - inner_->time();
    const std::uint64_t cap = rounds_to_auto_checkpoint();
    const std::uint64_t chunk = std::min(remaining, cap);
    if (chunk == 0) {
      fire_auto_checkpoint_if_due();
      continue;
    }
    if (phase_ == Phase::kConfirmed) {
      // Rigid-state equality one period apart freezes coverage: the
      // trajectory repeats, so an uncovered node stays uncovered forever.
      // Advance to the cap by leaping (keeping checkpoint marks exact)
      // and report kNotCovered, exactly like dense stepping would.
      const std::uint64_t cycles = chunk / period_;
      if (cycles > 0) {
        apply_leap(cycles);
        if (phase_ == Phase::kConfirmed) fire_auto_checkpoint_if_due();
        continue;
      }
      const std::uint64_t before = inner_->time();
      inner_->run(chunk);
      fire_auto_checkpoint_if_due();
      if (inner_->time() == before) return kNotCovered;  // inner stalled
      continue;
    }
    // Pre-confirmation: chunk through the inner engine's own cover-aware
    // run (preserving exact cover-round landings), pausing for detection
    // events and checkpoint marks.
    const std::uint64_t to_event = rounds_to_next_event();
    if (to_event == 0) {
      on_event();
      continue;
    }
    const std::uint64_t sub = std::min(chunk, to_event);
    const std::uint64_t before = inner_->time();
    const std::uint64_t covered_at =
        inner_->run_until_covered(inner_->time() + sub);
    fire_auto_checkpoint_if_due();
    if (covered_at != kNotCovered) return covered_at;
    if (inner_->time() == before) {
      // A halted backend freezes its clock; give up rather than loop
      // forever on a trajectory that can no longer move.
      return kNotCovered;
    }
  }
  return kNotCovered;
}

void CycleJumpEngine::serialize_state(StateWriter& out) const {
  inner_io_->serialize_state(out);
  if (opt_.persist_hint && phase_ == Phase::kConfirmed) {
    // Appended after every inner field so readers without hint support
    // see a byte-identical prefix and drop the one unknown key.
    out.field("cycle.hint", encode_cycle_hint(period_, deltas_));
  }
}

bool CycleJumpEngine::deserialize_state(const StateReader& in) {
  const bool ok = inner_io_->deserialize_state(in);
  invalidate();  // the trajectory is new either way
  return ok;
}

// ---- registry-driven wrapping ----

std::unique_ptr<Engine> wrap_cycle_jump(std::unique_ptr<Engine> engine,
                                        CycleJumpMode mode,
                                        const CycleJumpOptions& options,
                                        std::string* error) {
  if (engine == nullptr || mode == CycleJumpMode::kOff) return engine;
  const EngineSpec* spec =
      EngineRegistry::instance().find(engine->engine_name());
  const bool deterministic = spec != nullptr && spec->deterministic;
  if (!deterministic) {
    if (mode == CycleJumpMode::kOn) {
      if (error != nullptr) {
        *error = std::string("engine '") + engine->engine_name() +
                 "' is not deterministic: cycle leaping would corrupt its "
                 "trajectory (use --cycle-jump auto or off)";
      }
      return nullptr;
    }
    return engine;  // kAuto declines silently
  }
  return std::make_unique<CycleJumpEngine>(std::move(engine),
                                           spec->cycle_accumulators, options);
}

}  // namespace rr::sim
