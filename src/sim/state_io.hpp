#pragma once

// Engine-generic state (de)serialization contract (sim layer).
//
// The paper's experiments are defined by reproducible configurations —
// graph, agent multiset, rotor field — and the long sweeps the roadmap
// calls for need those configurations to survive a process restart.
// `StateIO` is the contract every sim::Engine backend implements: it
// serializes the engine's *full* dynamical state (time, rotor/pointer
// field, agent positions, visit statistics, RNG stream for stochastic
// engines) into named typed fields, and restores it bit-exactly, so a
// resumed run is indistinguishable from an uninterrupted one (per-round
// config_hash / visits / cover-time equality is enforced by the
// differential harness's save→load→continue lane).
//
// The writer records fields *typed* (scalar, u64 list, direction/bit
// string, sparse pairs) and the rr-ckpt v2 codec (sim/ckpt_v2.hpp)
// renders them as delta/varint binary frames. The reader holds what the
// v2 decoder produced: raw strings, scalars, sparse pairs, and *packed*
// list payloads that stay encoded until an accessor names its expected
// length, so a crafted element count cannot force a giant allocation.
// Code that needs a reader for state it built in memory (cycle-jump's
// leap, hostile-state tests) goes through the same codec
// (sim::round_trip_v2), so there is one serialized form of engine state.
//
// Framing (header with engine name and graph descriptor, versioning,
// file I/O, the engine factory) lives in sim/checkpoint.{hpp,cpp}.
// Readers never abort on malformed input — checkpoints are external
// data — every parse failure surfaces as false/nullopt.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/no_init.hpp"
#include "sim/wire.hpp"

namespace rr::sim {

/// Sentinel value of u64 list entries (kNotCovered entries of
/// first_visit vectors and friends). The codec needs no special case:
/// deltas are mod 2^64, so the sentinel is just a wrapping step.
inline constexpr std::uint64_t kStateSentinel = ~std::uint64_t{0};

/// Upper bound on the length of a packed v2 list decoded through an
/// accessor that did not state an expected length (RNG streams, token
/// lists, Eulerian circuits — all bounded by the in-RAM arc cap).
/// Per-node fields pass their exact expected length instead.
inline constexpr std::uint64_t kMaxLooseListElements = 1ull << 28;

// ---- writer ----

/// Sparse (index, value) pairs as the writer records them.
/// Sized without a zero fill (common/no_init.hpp): the shard-parallel
/// agent-site collection writes every element.
using PairList = NoInitVector<std::pair<std::uint64_t, std::uint64_t>>;

/// One recorded field. Engines only append through the typed helpers
/// below; the struct is public so the checkpoint codecs can walk the
/// recorded sequence.
struct WriterField {
  enum class Kind : std::uint8_t {
    kRaw, kU64, kU64List, kDirs, kBits, kPairs, kU64ListView,
  };

  Kind kind = Kind::kRaw;
  std::string key;
  std::string raw;                        ///< kRaw
  std::uint64_t scalar = 0;               ///< kU64
  std::vector<std::uint64_t> list;        ///< kU64List
  std::vector<std::uint8_t> symbols;      ///< kDirs / kBits (0 or 1 per entry)
  PairList pairs;                         ///< kPairs
  std::uint64_t view_size = 0;            ///< kU64ListView element count
  /// kU64ListView strided view: element i is the little-endian
  /// view_width-byte (4 or 8) unsigned integer at view_base + i *
  /// view_stride. Lets the codecs read struct-of-arrays engine state
  /// with an inlined load.
  const unsigned char* view_base = nullptr;
  std::uint32_t view_stride = 0;
  std::uint8_t view_width = 0;

  /// Element i of a kU64ListView field (slow generic path; the codecs
  /// specialize on view_width in their hot loops).
  std::uint64_t view_at(std::uint64_t i) const {
    if (view_width == 4) {
      std::uint32_t v;
      __builtin_memcpy(&v, view_base + i * view_stride, 4);
      return v;
    }
    std::uint64_t v;
    __builtin_memcpy(&v, view_base + i * view_stride, 8);
    return v;
  }
};

/// Accumulates typed fields. Keys must be unique per state block.
class StateWriter {
 public:
  void field(std::string_view key, std::string_view value) {
    WriterField f;
    f.kind = WriterField::Kind::kRaw;
    f.key = key;
    f.raw = value;
    push(std::move(f));
  }

  void field_u64(std::string_view key, std::uint64_t value) {
    WriterField f;
    f.kind = WriterField::Kind::kU64;
    f.key = key;
    f.scalar = value;
    push(std::move(f));
  }

  /// u64 list.
  template <typename Int>
  void field_list(std::string_view key, const std::vector<Int>& values) {
    WriterField f;
    f.kind = WriterField::Kind::kU64List;
    f.key = key;
    f.list.reserve(values.size());
    for (const Int& v : values) f.list.push_back(static_cast<std::uint64_t>(v));
    push(std::move(f));
  }

  /// Lazy u64 list over one struct member across an engine's state
  /// array: element i is the `width`-byte (4 or 8) native-endian
  /// unsigned integer at base + i * stride. The codecs read it in place
  /// with an inlined load, so serializing an out-of-core engine never
  /// allocates O(n) intermediates; identical on the wire to field_list
  /// of the same values. The array must stay valid until the owning
  /// StateWriter's last use (the checkpoint writers consume the writer
  /// while the engine is alive).
  void field_list_strided(std::string_view key, std::uint64_t count,
                          const void* base, std::uint32_t stride,
                          std::uint8_t width) {
    WriterField f;
    f.kind = WriterField::Kind::kU64ListView;
    f.key = key;
    f.view_size = count;
    f.view_base = static_cast<const unsigned char*>(base);
    f.view_stride = stride;
    f.view_width = width;
    push(std::move(f));
  }

  /// Direction field for ring pointer state: 0 = clockwise,
  /// 1 = anticlockwise.
  void field_dirs(std::string_view key, const std::vector<std::uint8_t>& dirs) {
    push_symbols(WriterField::Kind::kDirs, key, dirs);
  }

  /// Per-node boolean field.
  void field_bits(std::string_view key, const std::vector<std::uint8_t>& bits) {
    push_symbols(WriterField::Kind::kBits, key, bits);
  }

  /// Sparse "index:value" field (agent sites, pointer runs); indices must
  /// be strictly increasing. Taken by value: callers that build the list
  /// for the save pass it as an rvalue and nothing is copied.
  void field_pairs(std::string_view key, PairList pairs) {
    WriterField f;
    f.kind = WriterField::Kind::kPairs;
    f.key = key;
    f.pairs = std::move(pairs);
    push(std::move(f));
  }

  /// Appends a field built by hand: cycle-jump's advanced copy of a
  /// serialized state, and tests that patch one into a hostile state.
  void add(WriterField f) { fields_.push_back(std::move(f)); }

  /// The recorded field sequence, in append order (consumed by the v2
  /// frame encoder).
  const std::vector<WriterField>& fields() const { return fields_; }

 private:
  void push(WriterField f) { fields_.push_back(std::move(f)); }

  void push_symbols(WriterField::Kind kind, std::string_view key,
                    const std::vector<std::uint8_t>& symbols) {
    WriterField f;
    f.kind = kind;
    f.key = key;
    f.symbols.reserve(symbols.size());
    for (std::uint8_t s : symbols) f.symbols.push_back(s != 0 ? 1 : 0);
    push(std::move(f));
  }

  std::vector<WriterField> fields_;
};

// ---- reader ----

/// One still-encoded segment of a packed v2 field. Per-node fields are
/// split across checkpoint frames; each frame's segment is independently
/// decodable (its delta stream restarts from the 0 baseline), and the
/// accessors concatenate segments in order.
struct PackedSegment {
  std::uint64_t count = 0;  ///< elements in this segment
  std::uint8_t enc = 0;     ///< lists: 0 delta, 1 RLE; symbols: 0 dirs, 1 bits
  std::string bytes;        ///< encoded payload
};

/// One decoded field value: raw strings, scalars, sparse pairs, and
/// *packed* list payloads that the accessors decode lazily.
struct ReaderValue {
  enum class Kind : std::uint8_t {
    kRaw,            ///< raw string field
    kU64,            ///< decoded scalar
    kPackedList,     ///< u64 list: varint segments (see PackedSegment)
    kPackedSymbols,  ///< LSB-first bit-packed segments
    kPairs,          ///< decoded sparse pairs, indices strictly increasing
  };

  Kind kind = Kind::kRaw;
  std::string raw;                    ///< kRaw value
  std::uint64_t scalar = 0;           ///< kU64
  std::vector<PackedSegment> segs;    ///< packed forms, in node order
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pair_list;  ///< kPairs
};

namespace detail {

/// Total element count across a packed field's segments; nullopt on
/// overflow (crafted counts must not wrap the sum).
inline std::optional<std::uint64_t> packed_count(
    const std::vector<PackedSegment>& segs) {
  std::uint64_t total = 0;
  for (const PackedSegment& s : segs) {
    if (s.count > ~std::uint64_t{0} - total) return std::nullopt;
    total += s.count;
  }
  return total;
}

}  // namespace detail

/// Forward cursor over one u64 list field, for restores that pull
/// several per-node fields in lockstep: each field decodes a block of
/// rows into a small buffer, and the caller then writes the block's rows
/// in one pass over the engine's state memory instead of one per field
/// (the difference between a cache-resident and a memory-bound restore
/// at 1e8 nodes). Obtained from StateReader::u64_list_cursor, which
/// validates the element count upfront. After exactly `expected`
/// elements the caller must check finished(), which rejects trailing
/// payload bytes (the same canonical-form rule as u64_list).
class U64ListCursor {
 public:
  /// Decodes the next `count` elements into out[0, count). false on any
  /// malformed payload, or when fewer than `count` elements remain.
  bool take(std::uint64_t* out, std::uint64_t count);

  /// Elements left in the current run when they all equal `value`
  /// (an RLE run of delta 0), else 0: a restore steps over them in O(1).
  std::uint64_t constant_run(std::uint64_t value);

  /// Steps over `count` elements, at most the last constant_run().
  void skip(std::uint64_t count) {
    run_left_ -= count;
    seg_produced_ += count;
  }

  /// True once the field is consumed exactly: every segment's payload
  /// fully read.
  bool finished();

 private:
  friend class StateReader;
  /// Iterates segments [seg_begin, seg_end) only. Each segment's delta
  /// stream restarts from the 0 baseline, so a window is decodable with
  /// no knowledge of the segments before it — this is what lets the
  /// restore path hand disjoint windows to pool threads. The whole-field
  /// cursor is the window over every segment.
  U64ListCursor(const std::vector<PackedSegment>* segs, std::size_t seg_begin,
                std::size_t seg_end)
      : segs_(segs), seg_i_(seg_begin), seg_end_(seg_end) {}
  /// The segment holding the next element, after moving past finished
  /// ones; nullptr at the window's end or on a finished segment's
  /// trailing bytes.
  const PackedSegment* segment();
  /// Reads the next run header of RLE segment `s` once the last run is
  /// spent; false (nothing consumed) on a malformed one.
  bool load_run(const PackedSegment& s);

  const std::vector<PackedSegment>* segs_ = nullptr;
  std::size_t seg_i_ = 0;
  std::size_t seg_end_ = 0;
  std::size_t pos_ = 0;
  std::uint64_t seg_produced_ = 0;
  std::uint64_t value_ = 0;
  std::uint64_t run_left_ = 0;   // elements left in the current RLE run
  std::uint64_t run_delta_ = 0;  // its per-element delta
};

/// Field lookup over decoded values. All accessors are total: missing
/// keys, wrong-typed fields, out-of-range entries, truncated or
/// non-minimal varints return nullopt (never abort — checkpoints are
/// external input).
class StateReader {
 public:
  /// Adopts already-decoded values (the v2 decoder's output). nullopt on
  /// duplicate keys.
  static std::optional<StateReader> from_fields(
      std::vector<std::pair<std::string, ReaderValue>> fields);

  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Raw string value; nullopt for keys holding typed values.
  std::optional<std::string_view> raw(std::string_view key) const {
    const ReaderValue* v = find(key);
    if (!v || v->kind != ReaderValue::Kind::kRaw) return std::nullopt;
    return std::string_view(v->raw);
  }

  std::optional<std::uint64_t> u64(std::string_view key) const {
    const ReaderValue* v = find(key);
    if (!v || v->kind != ReaderValue::Kind::kU64) return std::nullopt;
    return v->scalar;
  }

  /// u64 list. `expected` > 0 requires that exact length; 0 accepts any
  /// length up to kMaxLooseListElements.
  std::optional<std::vector<std::uint64_t>> u64_list(std::string_view key,
                                                     std::size_t expected = 0) const;

  /// Cursor over a u64 list, for restores that pull several per-node
  /// lists in lockstep (one pass over the engine's state arrays instead
  /// of one per field). Requires expected > 0 and validates the total
  /// element count here. nullopt on a missing or wrong-typed field
  /// or a count mismatch.
  std::optional<U64ListCursor> u64_list_cursor(std::string_view key,
                                               std::size_t expected) const {
    if (expected == 0) return std::nullopt;
    const ReaderValue* v = find(key);
    if (!v || v->kind != ReaderValue::Kind::kPackedList) return std::nullopt;
    const auto total = detail::packed_count(v->segs);
    if (!total || *total != expected) return std::nullopt;
    return U64ListCursor(&v->segs, 0, v->segs.size());
  }

  /// Cumulative element counts at the packed-segment boundaries of a u64
  /// list field: [0, c0, c0+c1, ..., expected]. The parallel restore
  /// path compares boundary vectors across its lockstep fields — when
  /// they agree, the node range splits into windows each thread can
  /// decode independently. nullopt for missing or wrong-typed keys and
  /// count mismatches.
  std::optional<std::vector<std::uint64_t>> u64_list_segment_bounds(
      std::string_view key, std::size_t expected) const {
    if (expected == 0) return std::nullopt;
    const ReaderValue* v = find(key);
    if (!v || v->kind != ReaderValue::Kind::kPackedList) return std::nullopt;
    std::vector<std::uint64_t> bounds;
    bounds.reserve(v->segs.size() + 1);
    bounds.push_back(0);
    std::uint64_t total = 0;
    for (const PackedSegment& s : v->segs) {
      if (s.count > ~std::uint64_t{0} - total) return std::nullopt;
      total += s.count;
      bounds.push_back(total);
    }
    if (total != expected) return std::nullopt;
    return bounds;
  }

  /// Cursor over segments [seg_begin, seg_end) of a u64 list field.
  /// Segments restart their delta baseline, so a window decodes with no
  /// knowledge of earlier segments; the parallel restore hands disjoint
  /// windows to pool threads. Validate the segment layout with
  /// u64_list_segment_bounds first — this only checks the indices.
  std::optional<U64ListCursor> u64_list_cursor_window(
      std::string_view key, std::size_t seg_begin, std::size_t seg_end) const {
    const ReaderValue* v = find(key);
    if (!v || v->kind != ReaderValue::Kind::kPackedList) return std::nullopt;
    if (seg_begin > seg_end || seg_end > v->segs.size()) return std::nullopt;
    return U64ListCursor(&v->segs, seg_begin, seg_end);
  }

  /// Direction field (0 clockwise, 1 anticlockwise); exact length
  /// `expected`.
  std::optional<std::vector<std::uint8_t>> dirs(std::string_view key,
                                                std::size_t expected) const {
    return symbols(key, expected, /*enc=*/0);
  }

  /// Bit field; exact length `expected`.
  std::optional<std::vector<std::uint8_t>> bits(std::string_view key,
                                                std::size_t expected) const {
    return symbols(key, expected, /*enc=*/1);
  }

  /// Sparse "index:value" list, indices strictly increasing.
  std::optional<std::vector<std::pair<std::uint64_t, std::uint64_t>>> pairs(
      std::string_view key) const {
    const ReaderValue* v = find(key);
    if (!v || v->kind != ReaderValue::Kind::kPairs) return std::nullopt;
    return v->pair_list;
  }

 private:
  std::optional<std::vector<std::uint8_t>> symbols(std::string_view key,
                                                   std::size_t expected,
                                                   std::uint8_t enc) const;

  const ReaderValue* find(std::string_view key) const {
    for (const auto& [k, v] : fields_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, ReaderValue>> fields_;
};

// ---- the contract ----

/// Implemented by every engine backend alongside sim::Engine. The engine
/// must already have the right topology (same graph / ring size) before
/// deserialize_state is called; the checkpoint layer guarantees this by
/// rebuilding the graph from the checkpoint's descriptor first.
class StateIO {
 public:
  virtual ~StateIO() = default;

  /// Writes the full dynamical state as named fields.
  virtual void serialize_state(StateWriter& out) const = 0;

  /// Restores a state written by serialize_state. Returns false (leaving
  /// the engine in an unspecified but destructible state) on any
  /// malformed or inconsistent field.
  [[nodiscard]] virtual bool deserialize_state(const StateReader& in) = 0;
};

}  // namespace rr::sim
