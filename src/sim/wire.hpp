#pragma once

// Binary wire primitives shared by the rr-ckpt v2 codec (sim/ckpt_v2.hpp)
// and the packed-field accessors of sim::StateReader: LEB128 varints,
// zigzag signed mapping, and CRC32 (the IEEE polynomial, slicing-by-8 so
// frame checksumming keeps up with multi-GB/s encode rates).
//
// Every decoder here is total: truncated, overlong (non-minimal), and
// overflowing encodings return nullopt/false — v2 checkpoints are
// external input and the never-abort contract of the text parsers
// extends to the binary layer.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace rr::sim::wire {

/// Maximum encoded size of a u64 LEB128 varint.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Appends the LEB128 encoding of `v` (7 bits per byte, low first, high
/// bit = continuation). Minimal-length by construction.
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Stores the LEB128 encoding of `v` at `out`, which must have
/// varint_size(v) bytes of room; returns one past the last byte stored.
inline std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

/// Encoded size of put_varint(v) without encoding it: one byte per
/// started group of 7 significant bits, (70 - clz(v | 1)) / 7 (v | 1
/// gives 0 its one byte). For bit widths 1..64, (w * 9 + 64) / 64 equals
/// (w + 6) / 7 exactly and costs a shift instead of a division — this
/// sits in the checkpoint sizing pass's per-element loop.
inline std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) * 9 + 64) >> 6;
}

/// Reads a varint from [*pos, size); advances *pos past it. nullopt on
/// truncation, on encodings longer than 10 bytes, on a 10th byte carrying
/// more than the u64's single remaining bit (overflow), and on
/// non-minimal ("overlong") encodings such as 0x80 0x00.
inline std::optional<std::uint64_t> get_varint(const std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t* pos) {
  std::uint64_t v = 0;
  std::size_t shift = 0;
  std::size_t at = *pos;
  while (true) {
    if (at >= size || shift >= 70) return std::nullopt;
    const std::uint8_t byte = data[at++];
    if (shift == 63 && byte > 1) return std::nullopt;  // overflow past 2^64
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Overlong: a terminal zero byte after at least one continuation
      // encodes a value whose minimal form is shorter.
      if (byte == 0 && shift > 0) return std::nullopt;
      *pos = at;
      return v;
    }
    shift += 7;
  }
}

/// Zigzag mapping: interleaves signed deltas so that small magnitudes of
/// either sign encode in one varint byte. All arithmetic is mod 2^64, so
/// wrapping deltas between u64 values (including the ~0 sentinel) come
/// out as their shortest signed distance.
inline std::uint64_t zigzag(std::uint64_t delta) {
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

inline std::uint64_t unzigzag(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8. `seed` 0 for
/// a fresh checksum; feed a previous result to continue a stream.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// ---- little-endian fixed-width helpers (footer index fields) ----

inline void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline std::uint32_t get_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace rr::sim::wire
