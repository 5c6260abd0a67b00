#include "sim/state_io.hpp"

#include <algorithm>
#include <iterator>

namespace rr::sim {

// ---- reader: construction ----

std::optional<StateReader> StateReader::from_fields(
    std::vector<std::pair<std::string, ReaderValue>> fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    for (std::size_t j = i + 1; j < fields.size(); ++j) {
      if (fields[i].first == fields[j].first) return std::nullopt;
    }
  }
  StateReader reader;
  reader.fields_ = std::move(fields);
  return reader;
}

// ---- reader: packed payload decoding ----

namespace {

/// Unpacks one LSB-first bit-packed symbol segment of exactly seg.count
/// entries; padding bits in the last byte must be zero (the encoding is
/// canonical, so corruption there is detected rather than ignored).
bool decode_packed_symbols(const PackedSegment& seg,
                           std::vector<std::uint8_t>& out) {
  if (seg.bytes.size() != (seg.count + 7) / 8) return false;
  for (std::uint64_t i = 0; i < seg.count; ++i) {
    out.push_back((static_cast<std::uint8_t>(seg.bytes[i / 8]) >> (i % 8)) & 1);
  }
  const std::uint64_t tail = seg.count % 8;
  return tail == 0 ||
         (static_cast<std::uint8_t>(seg.bytes.back()) >> tail) == 0;
}

}  // namespace

// ---- reader: accessors ----

std::optional<std::vector<std::uint64_t>> StateReader::u64_list(
    std::string_view key, std::size_t expected) const {
  const ReaderValue* v = find(key);
  if (!v || v->kind != ReaderValue::Kind::kPackedList) return std::nullopt;
  const auto total = detail::packed_count(v->segs);
  if (!total ||
      (expected > 0 ? *total != expected : *total > kMaxLooseListElements)) {
    return std::nullopt;
  }
  // Decoded a block at a time: a crafted count allocates nothing its
  // payload does not back.
  std::vector<std::uint64_t> out;
  out.reserve(expected);
  U64ListCursor cursor(&v->segs, 0, v->segs.size());
  std::uint64_t block[256];
  for (std::uint64_t left = *total; left > 0;) {
    const std::uint64_t n = std::min<std::uint64_t>(left, std::size(block));
    if (!cursor.take(block, n)) return std::nullopt;
    out.insert(out.end(), block, block + n);
    left -= n;
  }
  if (!cursor.finished()) return std::nullopt;
  return out;
}

const PackedSegment* U64ListCursor::segment() {
  for (; seg_i_ < seg_end_; ++seg_i_) {
    const PackedSegment& s = (*segs_)[seg_i_];
    if (seg_produced_ < s.count) return &s;
    if (pos_ != s.bytes.size()) return nullptr;  // trailing bytes
    pos_ = 0;
    seg_produced_ = 0;
    value_ = 0;  // each segment restarts its delta baseline
  }
  return nullptr;
}

bool U64ListCursor::load_run(const PackedSegment& s) {
  if (run_left_ > 0) return true;
  const auto* data = reinterpret_cast<const std::uint8_t*>(s.bytes.data());
  std::size_t pos = pos_;
  const auto len = wire::get_varint(data, s.bytes.size(), &pos);
  if (!len || *len == 0 || *len > s.count - seg_produced_) return false;
  const auto z = wire::get_varint(data, s.bytes.size(), &pos);
  if (!z) return false;
  pos_ = pos;
  run_left_ = *len;
  run_delta_ = wire::unzigzag(*z);
  return true;
}

bool U64ListCursor::take(std::uint64_t* out, std::uint64_t count) {
  while (count > 0) {
    const PackedSegment* s = segment();
    if (s == nullptr) return false;  // past the validated total
    std::uint64_t n = std::min(count, s->count - seg_produced_);
    std::uint64_t value = value_;
    if (s->enc == 0) {  // plain per-element deltas
      const auto* data = reinterpret_cast<const std::uint8_t*>(s->bytes.data());
      const std::size_t size = s->bytes.size();
      std::size_t pos = pos_;
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto z = wire::get_varint(data, size, &pos);
        if (!z) return false;
        value += wire::unzigzag(*z);
        out[i] = value;
      }
      pos_ = pos;
    } else if (s->enc == 1 && load_run(*s)) {  // runs of (length, delta)
      n = std::min(n, run_left_);
      for (std::uint64_t i = 0; i < n; ++i) {
        value += run_delta_;
        out[i] = value;
      }
      run_left_ -= n;
    } else {
      return false;
    }
    value_ = value;
    seg_produced_ += n;
    out += n;
    count -= n;
  }
  return true;
}

std::uint64_t U64ListCursor::constant_run(std::uint64_t value) {
  const PackedSegment* s = segment();
  if (s == nullptr || s->enc != 1 || !load_run(*s)) return 0;
  // A run's elements are value_ + delta, value_ + 2 delta, ...
  return run_delta_ == 0 && value_ == value ? run_left_ : 0;
}

bool U64ListCursor::finished() {
  return segment() == nullptr && seg_i_ == seg_end_;
}

std::optional<std::vector<std::uint8_t>> StateReader::symbols(
    std::string_view key, std::size_t expected, std::uint8_t enc) const {
  const ReaderValue* v = find(key);
  if (!v || v->kind != ReaderValue::Kind::kPackedSymbols) return std::nullopt;
  // Dirs and bits use distinct wire tags; asking for the wrong one is a
  // type confusion and rejects.
  const auto total = detail::packed_count(v->segs);
  if (!total || *total != expected) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve(*total);
  for (const PackedSegment& seg : v->segs) {
    if (seg.enc != enc || !decode_packed_symbols(seg, out)) {
      return std::nullopt;
    }
  }
  return out;
}

}  // namespace rr::sim
