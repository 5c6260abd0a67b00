#include "sim/ckpt_v2.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "sim/thread_pool.hpp"
#include "sim/wire.hpp"

namespace rr::sim {

namespace {

enum : std::uint8_t {
  kTagRaw = 0,
  kTagU64 = 1,
  kTagListDelta = 2,
  kTagDirs = 3,
  kTagBits = 4,
  kTagPairs = 5,
  kTagListRle = 6,
};

constexpr std::size_t kFooterEntryBytes = 40;
constexpr std::size_t kFooterTailBytes = 16;  // num_frames, crc, magic
constexpr std::size_t kMaxKeyBytes = 255;

// ---- encoding ----
//
// Size, then write. A frame is planned first: every field record gets
// its tag and its exact byte count — for a list, from the sizes of both
// encodings, accumulated element by element. The caller sums the frame
// sizes, allocates the document once, and each frame is then written
// into its own slice with pointer varint stores and checksummed while
// still in cache.

/// Node block the list kernels share: a frame's list fields are fed one
/// block at a time, so node i's fields are read while their cache lines
/// are hot (at 1e8 nodes the difference between a cache-resident and a
/// memory-bound save), and each kernel keeps its state in registers for
/// a whole block.
constexpr std::uint64_t kBlockNodes = 4096;

/// Payload sizes of one list segment in both list encodings: tag 2
/// (zigzag-varint deltas) and tag 6 (runs of varint length, zigzag-varint
/// delta).
struct ListSizes {
  std::size_t delta = 0;
  std::size_t rle = 0;

  /// The tag rule: delta-RLE only when strictly smaller.
  bool use_rle() const { return rle < delta; }
  std::size_t payload() const { return use_rle() ? rle : delta; }
};

/// Sizes one list segment in both encodings; fed its elements in order,
/// a block at a time (delta baseline 0, so every segment stands alone).
/// Branch-free per element: the plain size adds every delta's varint;
/// the RLE size adds a run's delta varint and one length byte when the
/// run starts, and the rest of the length varint when a run longer than
/// 127 closes. Eight elements that all continue the open run cost a
/// single check: 98% of the 8-element blocks of a 4096-node ring snapshot
/// (encode 86–140 → 39–77 µs), 17% of the torus-explore state's (pooled
/// encode 3.4 → 3.0 ms).
class ListSizer {
 public:
  template <typename Load>
  void feed(const Load& load, std::uint64_t begin, std::uint64_t end) {
    if (begin == end) return;
    std::uint64_t prev = prev_, prev_delta = prev_delta_, run_len = run_len_;
    std::size_t delta = sizes_.delta, rle = sizes_.rle;
    if (run_len == 0) {  // the segment's first element opens its first run
      prev = prev_delta = load(begin++);
      delta = wire::varint_size(wire::zigzag(prev));
      rle = delta + 1;
      run_len = 1;
    }
    const auto step = [&](std::uint64_t v) {
      const std::uint64_t d = v - prev;
      prev = v;
      const std::size_t z_bytes = wire::varint_size(wire::zigzag(d));
      delta += z_bytes;
      // `starts` is 0 or 1; the updates multiply and mask with it, since
      // GCC turns the ?: form into a mispredicted branch.
      const std::uint64_t starts = d != prev_delta;
      prev_delta = d;
      if (starts & (run_len > 127)) [[unlikely]] {
        rle += wire::varint_size(run_len) - 1;
      }
      rle += starts * (z_bytes + 1);
      run_len = (run_len & (starts - 1)) + 1;
    };
    std::uint64_t i = begin;
    for (; i + 8 <= end; i += 8) {
      std::uint64_t v[8];
      std::uint64_t off_run = 0;
      for (int j = 0; j < 8; ++j) {
        v[j] = load(i + j);
        off_run |= (v[j] - (j == 0 ? prev : v[j - 1])) ^ prev_delta;
      }
      if (off_run == 0) {
        run_len += 8;
        delta += 8 * wire::varint_size(wire::zigzag(prev_delta));
        prev = v[7];
        continue;
      }
      for (int j = 0; j < 8; ++j) step(v[j]);
    }
    for (; i < end; ++i) step(load(i));
    prev_ = prev;
    prev_delta_ = prev_delta;
    run_len_ = run_len;
    sizes_ = {delta, rle};
  }

  ListSizes sizes() const {
    ListSizes s = sizes_;
    if (run_len_ > 127) s.rle += wire::varint_size(run_len_) - 1;
    return s;
  }

 private:
  std::uint64_t prev_ = 0;
  std::uint64_t prev_delta_ = 0;
  std::uint64_t run_len_ = 0;  ///< 0 until the first element
  ListSizes sizes_;
};

/// Writes one list segment in the planned encoding, fed like ListSizer.
class ListWriter {
 public:
  ListWriter(std::uint8_t* out, bool rle) : out_(out), rle_(rle) {}

  template <typename Load>
  void feed(const Load& load, std::uint64_t begin, std::uint64_t end) {
    std::uint8_t* p = out_;
    std::uint64_t prev = prev_;
    if (!rle_) {
      for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint64_t v = load(i);
        p = wire::put_varint(p, wire::zigzag(v - prev));
        prev = v;
      }
    } else {
      std::uint64_t run_delta = run_delta_, run_len = run_len_;
      for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint64_t v = load(i);
        const std::uint64_t d = v - prev;
        prev = v;
        if (run_len != 0 && d == run_delta) {
          ++run_len;
          continue;
        }
        if (run_len != 0) p = put_run(p, run_len, run_delta);
        run_delta = d;
        run_len = 1;
      }
      run_delta_ = run_delta;
      run_len_ = run_len;
    }
    out_ = p;
    prev_ = prev;
  }

  /// Closes the open run; returns one past the last byte written.
  std::uint8_t* finish() {
    if (run_len_ != 0) out_ = put_run(out_, run_len_, run_delta_);
    run_len_ = 0;
    return out_;
  }

 private:
  static std::uint8_t* put_run(std::uint8_t* p, std::uint64_t len,
                               std::uint64_t delta) {
    return wire::put_varint(wire::put_varint(p, len), wire::zigzag(delta));
  }

  std::uint8_t* out_;
  bool rle_;
  std::uint64_t prev_ = 0;
  std::uint64_t run_delta_ = 0;
  std::uint64_t run_len_ = 0;
};

bool is_list(const WriterField& f) {
  return f.kind == WriterField::Kind::kU64List ||
         f.kind == WriterField::Kind::kU64ListView;
}

/// Calls fn(load) with an inlinable element loader for list field f:
/// the vector, or a strided raw load (the rotor engines'
/// struct-of-arrays state).
template <typename Fn>
void with_list_loader(const WriterField& f, Fn&& fn) {
  if (f.kind == WriterField::Kind::kU64List) {
    fn([&f](std::uint64_t i) { return f.list[i]; });
  } else if (f.view_width == 4) {
    fn([base = f.view_base, stride = f.view_stride](std::uint64_t i) {
      std::uint32_t v;
      __builtin_memcpy(&v, base + i * stride, 4);
      return static_cast<std::uint64_t>(v);
    });
  } else {
    fn([base = f.view_base, stride = f.view_stride](std::uint64_t i) {
      std::uint64_t v;
      __builtin_memcpy(&v, base + i * stride, 8);
      return v;
    });
  }
}

/// Element count of a list or symbol field; 0 for the other kinds.
std::uint64_t element_count(const WriterField& f) {
  switch (f.kind) {
    case WriterField::Kind::kU64List:
      return f.list.size();
    case WriterField::Kind::kU64ListView:
      return f.view_size;
    case WriterField::Kind::kDirs:
    case WriterField::Kind::kBits:
      return f.symbols.size();
    default:
      return 0;
  }
}

/// True for fields the codec shards across per-node frames.
bool is_per_node(const WriterField& f, std::uint64_t num_nodes) {
  return num_nodes != 0 && element_count(f) == num_nodes;
}

/// One sized field record: varint key length, key, u8 tag, varint head,
/// then `payload` bytes. The head is the element count of a list,
/// symbol or pairs field, the length of a raw one, the value of a u64.
struct Record {
  const WriterField* f = nullptr;
  std::uint8_t tag = 0;
  std::uint64_t begin = 0;  ///< element range of a list or symbol field
  std::uint64_t end = 0;
  std::uint64_t head = 0;
  std::size_t payload = 0;

  std::size_t size() const {
    return wire::varint_size(f->key.size()) + f->key.size() + 1 +
           wire::varint_size(head) + payload;
  }
};

/// Sizes a field that is not a list over elements [begin, end).
Record plan_record(const WriterField& f, std::uint64_t begin,
                   std::uint64_t end) {
  switch (f.kind) {
    case WriterField::Kind::kRaw:
      return {&f, kTagRaw, 0, 0, f.raw.size(), f.raw.size()};
    case WriterField::Kind::kU64:
      return {&f, kTagU64, 0, 0, f.scalar, 0};
    case WriterField::Kind::kDirs:
    case WriterField::Kind::kBits:
      return {&f, f.kind == WriterField::Kind::kDirs ? kTagDirs : kTagBits,
              begin, end, end - begin, (end - begin + 7) / 8};
    case WriterField::Kind::kPairs: {
      std::size_t payload = 0;
      for (std::size_t i = 0; i < f.pairs.size(); ++i) {
        const auto [index, value] = f.pairs[i];
        RR_REQUIRE(i == 0 || index > f.pairs[i - 1].first,
                   "pair indices must be strictly increasing");
        payload += wire::varint_size(i == 0 ? index
                                            : index - f.pairs[i - 1].first) +
                   wire::varint_size(value);
      }
      return {&f, kTagPairs, 0, 0, f.pairs.size(), payload};
    }
    default:
      RR_REQUIRE(false, "list fields are sized by ListSizer");
      return {};
  }
}

/// Feeds each list record's element range to its kernel, one block of
/// kBlockNodes at a time across all of them.
template <typename Kernel>
void feed_blocks(const std::vector<Record>& records,
                 const std::vector<std::size_t>& lists,
                 std::vector<Kernel>& kernels) {
  std::uint64_t longest = 0;
  for (const std::size_t r : lists) {
    longest = std::max(longest, records[r].end - records[r].begin);
  }
  for (std::uint64_t at = 0; at < longest; at += kBlockNodes) {
    for (std::size_t k = 0; k < lists.size(); ++k) {
      const Record& r = records[lists[k]];
      if (at >= r.end - r.begin) continue;
      const std::uint64_t begin = r.begin + at;
      const std::uint64_t end = std::min(r.end, begin + kBlockNodes);
      with_list_loader(*r.f, [&](const auto& load) {
        kernels[k].feed(load, begin, end);
      });
    }
  }
}

/// A frame's records in emission (declaration) order, its list records
/// and its total size.
struct FramePlan {
  std::vector<Record> records;
  std::vector<std::size_t> lists;  ///< indices into records
  std::size_t size = 0;
};

/// Plans one frame: `fields` over nodes [begin, end) for a per-node
/// frame, or each field whole for frame 0 (`per_node` false).
FramePlan plan_frame(const std::vector<const WriterField*>& fields,
                     bool per_node, std::uint64_t begin, std::uint64_t end) {
  FramePlan plan;
  plan.records.reserve(fields.size());
  for (const WriterField* f : fields) {
    RR_REQUIRE(!f->key.empty() && f->key.size() <= kMaxKeyBytes,
               "state field key must be 1..255 bytes");
    const std::uint64_t b = per_node ? begin : 0;
    const std::uint64_t e = per_node ? end : element_count(*f);
    if (is_list(*f)) {
      plan.lists.push_back(plan.records.size());
      plan.records.push_back({f, 0, b, e, e - b, 0});  // sized below
    } else {
      plan.records.push_back(plan_record(*f, b, e));
    }
  }
  std::vector<ListSizer> sizers(plan.lists.size());
  feed_blocks(plan.records, plan.lists, sizers);
  for (std::size_t k = 0; k < plan.lists.size(); ++k) {
    const ListSizes sizes = sizers[k].sizes();
    Record& r = plan.records[plan.lists[k]];
    r.tag = sizes.use_rle() ? kTagListRle : kTagListDelta;
    r.payload = sizes.payload();
  }
  for (const Record& r : plan.records) plan.size += r.size();
  return plan;
}

/// Writes a planned frame into out[0, plan.size). Every record, and
/// every list payload, must end exactly where the plan put it.
void write_frame(const FramePlan& plan, std::uint8_t* out) {
  std::uint8_t* const frame_end = out + plan.size;
  std::vector<ListWriter> writers;
  std::vector<std::uint8_t*> list_ends;
  writers.reserve(plan.lists.size());
  list_ends.reserve(plan.lists.size());
  for (const Record& r : plan.records) {
    const WriterField& f = *r.f;
    std::uint8_t* p = wire::put_varint(out, f.key.size());
    std::memcpy(p, f.key.data(), f.key.size());
    p += f.key.size();
    *p++ = r.tag;
    p = wire::put_varint(p, r.head);
    std::uint8_t* const end = p + r.payload;
    switch (r.tag) {
      case kTagRaw:
        std::memcpy(p, f.raw.data(), f.raw.size());
        p += f.raw.size();
        break;
      case kTagListDelta:
      case kTagListRle:  // written block-wise below
        writers.emplace_back(p, r.tag == kTagListRle);
        list_ends.push_back(end);
        p = end;
        break;
      case kTagDirs:
      case kTagBits:  // symbols are 0 or 1; LSB-first, eight per byte
        for (std::uint64_t i = 0; i < r.head; i += 8) {
          std::uint8_t byte = 0;
          for (std::uint64_t b = 0; b < 8 && i + b < r.head; ++b) {
            byte |= static_cast<std::uint8_t>(f.symbols[r.begin + i + b] << b);
          }
          *p++ = byte;
        }
        break;
      case kTagPairs:
        for (std::size_t i = 0; i < f.pairs.size(); ++i) {
          const auto [index, value] = f.pairs[i];
          p = wire::put_varint(p,
                               i == 0 ? index : index - f.pairs[i - 1].first);
          p = wire::put_varint(p, value);
        }
        break;
      default:  // kTagU64: the head was the value
        break;
    }
    RR_REQUIRE(p == end, "v2 field record missed its slice");
    out = end;
  }
  RR_REQUIRE(out == frame_end, "v2 frame missed its slice");
  feed_blocks(plan.records, plan.lists, writers);
  for (std::size_t k = 0; k < writers.size(); ++k) {
    RR_REQUIRE(writers[k].finish() == list_ends[k],
               "v2 list payload missed its slice");
  }
}

// ---- decoding ----

/// One field as decoded from a single frame (per-node fields carry one
/// segment here; the assembler concatenates across frames).
struct DecodedField {
  std::string key;
  std::uint8_t tag = 0;
  ReaderValue value;
};

/// Scans `count` varints without materializing them; false on any
/// malformed varint. Advances *pos past the run.
bool scan_varints(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                  std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!wire::get_varint(data, size, pos)) return false;
  }
  return true;
}

std::optional<std::vector<DecodedField>> decode_frame(const std::uint8_t* data,
                                                      std::size_t size) {
  std::vector<DecodedField> out;
  std::size_t pos = 0;
  while (pos < size) {
    const auto key_len = wire::get_varint(data, size, &pos);
    if (!key_len || *key_len == 0 || *key_len > kMaxKeyBytes ||
        *key_len > size - pos) {
      return std::nullopt;
    }
    DecodedField field;
    field.key.assign(reinterpret_cast<const char*>(data + pos),
                     static_cast<std::size_t>(*key_len));
    pos += static_cast<std::size_t>(*key_len);
    if (pos >= size) return std::nullopt;
    field.tag = data[pos++];
    switch (field.tag) {
      case kTagRaw: {
        const auto len = wire::get_varint(data, size, &pos);
        if (!len || *len > size - pos) return std::nullopt;
        field.value.kind = ReaderValue::Kind::kRaw;
        field.value.raw.assign(reinterpret_cast<const char*>(data + pos),
                               static_cast<std::size_t>(*len));
        pos += static_cast<std::size_t>(*len);
        break;
      }
      case kTagU64: {
        const auto v = wire::get_varint(data, size, &pos);
        if (!v) return std::nullopt;
        field.value.kind = ReaderValue::Kind::kU64;
        field.value.scalar = *v;
        break;
      }
      case kTagListDelta:
      case kTagListRle: {
        const auto count = wire::get_varint(data, size, &pos);
        if (!count) return std::nullopt;
        const std::size_t payload_start = pos;
        if (field.tag == kTagListDelta) {
          // Each element is at least one byte; fail fast on a count that
          // cannot fit the remaining frame.
          if (*count > size - pos) return std::nullopt;
          if (!scan_varints(data, size, &pos, *count)) return std::nullopt;
        } else {
          // RLE: scan (runlen, delta) runs until the declared count is
          // covered. Each run costs >= 2 payload bytes, so the loop is
          // bounded by the frame size no matter what `count` claims.
          std::uint64_t produced = 0;
          while (produced < *count) {
            const auto run = wire::get_varint(data, size, &pos);
            if (!run || *run == 0 || *run > *count - produced) {
              return std::nullopt;
            }
            if (!wire::get_varint(data, size, &pos)) return std::nullopt;
            produced += *run;
          }
        }
        field.value.kind = ReaderValue::Kind::kPackedList;
        PackedSegment seg;
        seg.count = *count;
        seg.enc = field.tag == kTagListRle ? 1 : 0;
        seg.bytes.assign(reinterpret_cast<const char*>(data + payload_start),
                         pos - payload_start);
        field.value.segs.push_back(std::move(seg));
        break;
      }
      case kTagDirs:
      case kTagBits: {
        const auto count = wire::get_varint(data, size, &pos);
        if (!count) return std::nullopt;
        const std::uint64_t nbytes = (*count + 7) / 8;
        if (nbytes > size - pos) return std::nullopt;
        field.value.kind = ReaderValue::Kind::kPackedSymbols;
        PackedSegment seg;
        seg.count = *count;
        seg.enc = field.tag == kTagBits ? 1 : 0;
        seg.bytes.assign(reinterpret_cast<const char*>(data + pos),
                         static_cast<std::size_t>(nbytes));
        field.value.segs.push_back(std::move(seg));
        pos += static_cast<std::size_t>(nbytes);
        break;
      }
      case kTagPairs: {
        const auto count = wire::get_varint(data, size, &pos);
        // Every pair consumes at least two payload bytes.
        if (!count || *count > (size - pos) / 2) return std::nullopt;
        field.value.kind = ReaderValue::Kind::kPairs;
        field.value.pair_list.reserve(static_cast<std::size_t>(*count));
        std::uint64_t index = 0;
        for (std::uint64_t i = 0; i < *count; ++i) {
          const auto step = wire::get_varint(data, size, &pos);
          const auto value = wire::get_varint(data, size, &pos);
          if (!step || !value) return std::nullopt;
          if (i == 0) {
            index = *step;
          } else {
            if (*step == 0 || *step > ~std::uint64_t{0} - index) {
              return std::nullopt;  // non-increasing or overflowing index
            }
            index += *step;
          }
          field.value.pair_list.emplace_back(index, *value);
        }
        break;
      }
      default:
        return std::nullopt;  // unknown tag
    }
    out.push_back(std::move(field));
  }
  return out;
}

// An empty pairs field must decode back to kPairs (not fail): count 0 is
// written by engines with no agents parked. decode_frame above handles
// it explicitly.

struct FrameEntry {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t crc = 0;
};

/// Parses and validates the footer from the last `tail_size` bytes of
/// the document body region. `body_plus_footer` is the total byte count
/// after the header line. On success *body_size is the frame region
/// size and the entries are offset-contiguous and node-contiguous.
std::optional<std::vector<FrameEntry>> parse_footer(
    const std::uint8_t* tail, std::size_t tail_size,
    std::uint64_t body_plus_footer, std::uint64_t* body_size) {
  if (tail_size < kFooterTailBytes) return std::nullopt;
  if (wire::get_u64le(tail + tail_size - 8) != kV2TrailerMagic) {
    return std::nullopt;
  }
  const std::uint32_t num_frames = wire::get_u32le(tail + tail_size - 16);
  const std::uint32_t stored_crc = wire::get_u32le(tail + tail_size - 12);
  if (num_frames == 0) return std::nullopt;
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(num_frames) * kFooterEntryBytes;
  if (table_bytes + kFooterTailBytes > body_plus_footer ||
      table_bytes + kFooterTailBytes > tail_size) {
    return std::nullopt;
  }
  const std::uint8_t* table =
      tail + tail_size - kFooterTailBytes - table_bytes;
  if (wire::crc32(table, table_bytes + 4) != stored_crc) return std::nullopt;

  *body_size = body_plus_footer - table_bytes - kFooterTailBytes;
  std::vector<FrameEntry> entries(num_frames);
  std::uint64_t next_offset = 0;
  std::uint64_t next_node = 0;
  for (std::uint32_t i = 0; i < num_frames; ++i) {
    const std::uint8_t* e = table + i * kFooterEntryBytes;
    FrameEntry& entry = entries[i];
    entry.offset = wire::get_u64le(e);
    entry.length = wire::get_u64le(e + 8);
    entry.begin = wire::get_u64le(e + 16);
    entry.end = wire::get_u64le(e + 24);
    entry.crc = wire::get_u32le(e + 32);
    if (wire::get_u32le(e + 36) != 0) return std::nullopt;  // reserved
    // Frames tile the body contiguously, in order — the canonical layout
    // the encoder produces; anything else is malformed or crafted.
    if (entry.offset != next_offset || entry.length > *body_size - next_offset) {
      return std::nullopt;
    }
    next_offset += entry.length;
    if (i == 0) {
      if (entry.begin != 0 || entry.end != 0) return std::nullopt;
    } else {
      if (entry.begin != next_node || entry.end <= entry.begin) {
        return std::nullopt;
      }
      next_node = entry.end;
    }
  }
  if (next_offset != *body_size) return std::nullopt;
  return entries;
}

/// Re-assembles per-frame decodes into one field list: frame 0 fields
/// verbatim, per-node fields stitched segment by segment. Frames must be
/// added in index order.
class Assembler {
 public:
  bool add_frame(std::size_t index, const FrameEntry& entry,
                 std::vector<DecodedField> fields) {
    if (index == 0) {
      for (DecodedField& f : fields) {
        fields_.emplace_back(std::move(f.key), std::move(f.value));
      }
      frame0_fields_ = fields_.size();
      return true;
    }
    const std::uint64_t span = entry.end - entry.begin;
    if (index == 1) {
      // First per-node frame fixes the key/kind sequence. (The exact
      // list tag may differ per segment — the writer picks delta or RLE
      // independently for each range — so later frames match on the
      // decoded kind, not the wire tag.)
      for (DecodedField& f : fields) {
        if (!segment_ok(f, span)) return false;
        fields_.emplace_back(std::move(f.key), std::move(f.value));
      }
      per_node_fields_ = fields_.size() - frame0_fields_;
      return true;
    }
    // Later frames must repeat the exact sequence, one segment each.
    if (fields.size() != per_node_fields_) return false;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      DecodedField& f = fields[i];
      auto& [key, value] = fields_[frame0_fields_ + i];
      if (f.key != key || f.value.kind != value.kind || !segment_ok(f, span)) {
        return false;
      }
      // Dirs and bits share the packed-symbols kind but are distinct
      // types; their segments must agree.
      if (value.kind == ReaderValue::Kind::kPackedSymbols &&
          f.value.segs[0].enc != value.segs[0].enc) {
        return false;
      }
      value.segs.push_back(std::move(f.value.segs[0]));
    }
    return true;
  }

  std::optional<StateReader> finish() {
    return StateReader::from_fields(std::move(fields_));
  }

 private:
  static bool segment_ok(const DecodedField& f, std::uint64_t span) {
    // Per-node frames may only carry list/symbol segments, and each
    // segment must cover exactly the frame's node range.
    if (f.value.kind != ReaderValue::Kind::kPackedList &&
        f.value.kind != ReaderValue::Kind::kPackedSymbols) {
      return false;
    }
    return f.value.segs.size() == 1 && f.value.segs[0].count == span;
  }

  std::vector<std::pair<std::string, ReaderValue>> fields_;
  std::size_t frame0_fields_ = 0;
  std::size_t per_node_fields_ = 0;
};

}  // namespace

// ---- public API ----

std::string encode_checkpoint_v2(const std::string& engine_name,
                                 const std::string& graph_descriptor,
                                 const StateWriter& state,
                                 std::uint64_t num_nodes,
                                 std::uint32_t segments, ThreadPool* pool) {
  const std::string header = std::string(kCheckpointMagicV2) + " engine=" +
                             engine_name + " graph=" + graph_descriptor + "\n";

  std::vector<const WriterField*> frame0;
  std::vector<const WriterField*> per_node;
  for (const WriterField& f : state.fields()) {
    (is_per_node(f, num_nodes) ? per_node : frame0).push_back(&f);
  }
  std::uint64_t nseg = segments > 0 ? segments : kV2DefaultSegments;
  if (per_node.empty()) nseg = 0;
  if (nseg > num_nodes) nseg = num_nodes;
  const std::size_t num_frames = static_cast<std::size_t>(1 + nseg);

  // Pass 1: size every frame (per-node frame j covers node range j-1).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges(num_frames,
                                                              {0, 0});
  for (std::uint64_t j = 0; j < nseg; ++j) {
    ranges[j + 1] = {num_nodes * j / nseg, num_nodes * (j + 1) / nseg};
  }
  std::vector<FramePlan> plans(num_frames);
  for_each_node_job(pool, num_nodes, num_frames, [&](std::uint64_t j) {
    plans[j] = j == 0 ? plan_frame(frame0, false, 0, 0)
                      : plan_frame(per_node, true, ranges[j].first,
                                   ranges[j].second);
  });

  // One allocation for the whole document.
  std::vector<std::size_t> offsets(num_frames);
  std::size_t body = 0;
  for (std::size_t j = 0; j < num_frames; ++j) {
    offsets[j] = body;
    body += plans[j].size;
  }
  const std::size_t footer = num_frames * kFooterEntryBytes + kFooterTailBytes;
  std::string out(header.size() + body + footer, '\0');
  std::memcpy(out.data(), header.data(), header.size());
  auto* const frames = reinterpret_cast<std::uint8_t*>(out.data()) + header.size();

  // Pass 2: each frame writes and checksums its own slice.
  std::vector<std::uint32_t> crcs(num_frames);
  for_each_node_job(pool, num_nodes, num_frames, [&](std::uint64_t j) {
    write_frame(plans[j], frames + offsets[j]);
    crcs[j] = wire::crc32(frames + offsets[j], plans[j].size);
  });

  std::string tail;
  tail.reserve(footer);
  for (std::size_t j = 0; j < num_frames; ++j) {
    wire::put_u64le(tail, offsets[j]);
    wire::put_u64le(tail, plans[j].size);
    wire::put_u64le(tail, ranges[j].first);
    wire::put_u64le(tail, ranges[j].second);
    wire::put_u32le(tail, crcs[j]);
    wire::put_u32le(tail, 0);
  }
  wire::put_u32le(tail, static_cast<std::uint32_t>(num_frames));
  const std::uint32_t table_crc = wire::crc32(tail.data(), tail.size());
  wire::put_u32le(tail, table_crc);
  wire::put_u64le(tail, kV2TrailerMagic);
  std::memcpy(frames + body, tail.data(), tail.size());
  return out;
}

std::optional<StateReader> decode_checkpoint_v2_body(const std::uint8_t* data,
                                                     std::size_t size,
                                                     ThreadPool* pool) {
  std::uint64_t body_size = 0;
  const auto entries = parse_footer(data, size, size, &body_size);
  if (!entries) return std::nullopt;

  std::vector<std::optional<std::vector<DecodedField>>> decoded(
      entries->size());
  const auto decode_one = [&](std::uint64_t i) {
    const FrameEntry& e = (*entries)[i];
    const std::uint8_t* frame = data + e.offset;
    if (wire::crc32(frame, e.length) != e.crc) return;  // stays nullopt
    decoded[i] = decode_frame(frame, static_cast<std::size_t>(e.length));
  };
  if (pool != nullptr && entries->size() > 1) {
    pool->for_each(entries->size(), decode_one, /*chunk=*/1);
  } else {
    for (std::uint64_t i = 0; i < entries->size(); ++i) decode_one(i);
  }

  Assembler assembler;
  for (std::size_t i = 0; i < entries->size(); ++i) {
    if (!decoded[i]) return std::nullopt;
    if (!assembler.add_frame(i, (*entries)[i], std::move(*decoded[i]))) {
      return std::nullopt;
    }
  }
  return assembler.finish();
}

std::optional<StateReader> decode_checkpoint_v2_file(std::FILE* f,
                                                     std::uint64_t body_offset,
                                                     std::uint64_t file_size,
                                                     ThreadPool* pool) {
  if (file_size < body_offset ||
      file_size - body_offset < kFooterTailBytes) {
    return std::nullopt;
  }
  const std::uint64_t body_plus_footer = file_size - body_offset;

  // Footer tail first (num_frames tells us how much table to read), then
  // the table itself — both O(num_frames), not O(file).
  std::uint8_t tail16[kFooterTailBytes];
  if (std::fseek(f, static_cast<long>(file_size - kFooterTailBytes),
                 SEEK_SET) != 0 ||
      std::fread(tail16, 1, kFooterTailBytes, f) != kFooterTailBytes) {
    return std::nullopt;
  }
  if (wire::get_u64le(tail16 + 8) != kV2TrailerMagic) return std::nullopt;
  const std::uint32_t num_frames = wire::get_u32le(tail16);
  if (num_frames == 0) return std::nullopt;
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(num_frames) * kFooterEntryBytes;
  if (table_bytes + kFooterTailBytes > body_plus_footer) return std::nullopt;

  std::vector<std::uint8_t> footer(
      static_cast<std::size_t>(table_bytes + kFooterTailBytes));
  if (std::fseek(f,
                 static_cast<long>(file_size - table_bytes - kFooterTailBytes),
                 SEEK_SET) != 0 ||
      std::fread(footer.data(), 1, footer.size(), f) != footer.size()) {
    return std::nullopt;
  }
  std::uint64_t body_size = 0;
  const auto entries =
      parse_footer(footer.data(), footer.size(), body_plus_footer, &body_size);
  if (!entries) return std::nullopt;

  // Frames are consumed in index order (the Assembler stitches per-node
  // segments contiguously) but are independently decodable, so with a
  // pool the loop works a batch at a time: read a window of consecutive
  // frames sequentially (frames tile the body, so this is one contiguous
  // read), CRC-check and decode them in parallel, then feed the results
  // to the assembler in order. Peak memory is O(batch), matching the
  // streaming contract; without a pool the batch is one frame and the
  // behavior is the old loop exactly.
  const std::size_t batch =
      pool != nullptr ? static_cast<std::size_t>(pool->num_threads()) * 2 : 1;
  Assembler assembler;
  std::vector<std::uint8_t> buf;
  std::vector<std::optional<std::vector<DecodedField>>> decoded;
  for (std::size_t lo = 0; lo < entries->size(); lo += batch) {
    const std::size_t hi = std::min(lo + batch, entries->size());
    const FrameEntry& first = (*entries)[lo];
    const FrameEntry& last = (*entries)[hi - 1];
    const std::uint64_t span = last.offset + last.length - first.offset;
    buf.resize(static_cast<std::size_t>(span));
    if (std::fseek(f, static_cast<long>(body_offset + first.offset),
                   SEEK_SET) != 0 ||
        std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      return std::nullopt;
    }
    decoded.assign(hi - lo, std::nullopt);
    const auto decode_one = [&](std::uint64_t j) {
      const FrameEntry& e = (*entries)[lo + j];
      const std::uint8_t* frame = buf.data() + (e.offset - first.offset);
      if (wire::crc32(frame, e.length) != e.crc) return;  // stays nullopt
      decoded[j] = decode_frame(frame, static_cast<std::size_t>(e.length));
    };
    if (pool != nullptr && hi - lo > 1) {
      pool->for_each(hi - lo, decode_one, /*chunk=*/1);
    } else {
      for (std::uint64_t j = 0; j < hi - lo; ++j) decode_one(j);
    }
    for (std::size_t j = 0; j < hi - lo; ++j) {
      if (!decoded[j] ||
          !assembler.add_frame(lo + j, (*entries)[lo + j],
                               std::move(*decoded[j]))) {
        return std::nullopt;
      }
    }
  }
  return assembler.finish();
}

std::optional<StateReader> round_trip_v2(const StateWriter& state,
                                         std::uint64_t num_nodes) {
  const std::string doc =
      encode_checkpoint_v2("", "", state, num_nodes, /*segments=*/1);
  const std::size_t body = doc.find('\n') + 1;
  return decode_checkpoint_v2_body(
      reinterpret_cast<const std::uint8_t*>(doc.data()) + body,
      doc.size() - body);
}

}  // namespace rr::sim
