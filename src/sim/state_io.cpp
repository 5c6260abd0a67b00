#include "sim/state_io.hpp"

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
  std::vector<std::uint64_t> out;
  out.reserve(expected);
  const auto collect = [&out](std::uint64_t, std::uint64_t value) {
    out.push_back(value);
    return true;
  };
  if (!u64_list_each(key, expected, collect)) return std::nullopt;
  return out;
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
