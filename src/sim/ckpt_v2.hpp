#pragma once

// Binary checkpoint codec: `rr-ckpt v2` (sim layer).
//
// v1 (sim/checkpoint.hpp) renders every per-node array as decimal text —
// ~20 bytes/node and one monolithic frame. v2 keeps the text header line
// (self-description and version sniffing stay trivial) but encodes the
// state body as delta/varint binary frames:
//
//   rr-ckpt v2 engine=<engine-name> graph=<graph-descriptor>\n
//   frame 0  ... frame F-1                      (binary, concatenated)
//   footer: F x {u64 offset, u64 length, u64 begin_node, u64 end_node,
//                u32 crc32, u32 reserved}       (little-endian, 40 B)
//           u32 num_frames
//           u32 crc32 of (table || num_frames)
//           u64 trailer magic "RRCKPTv2"
//
// Frame 0 carries the scalar/raw/sparse fields; per-node arrays (length
// == num_nodes) are split into contiguous node ranges, one range per
// remaining frame, aligned with how graph::Partition shards rows — so
// save and load parallelize frame-wise on sim::ThreadPool and a partial
// reader can seek any range in O(1) via the footer table. Each frame is
// independently decodable (delta streams restart from 0 at a segment
// boundary) and carries its own CRC32.
//
// A field record is: varint key-length, key bytes, u8 tag, payload:
//
//   tag 0 raw      varint len, bytes
//   tag 1 u64      varint value
//   tag 2 list     varint count, count x zigzag-varint deltas
//                  (d_i = v_i - v_{i-1} mod 2^64, v_{-1} = 0 — the ~0
//                  sentinel needs no special case)
//   tag 3 dirs     varint count, LSB-first packed bits
//   tag 4 bits     varint count, LSB-first packed bits
//   tag 5 pairs    varint count; first index absolute, then strictly
//                  positive index deltas; values plain varints
//   tag 6 list/RLE varint count, runs of (varint runlen,
//                  zigzag-varint delta) — the writer picks tag 2 or 6
//                  per segment, whichever is smaller
//
// Encoding sizes before it writes (sim/ckpt_v2.cpp). Sizing happens in
// one pool job per frame: the frame's list fields are walked together,
// a block of nodes at a time, and each is measured in both encodings
// (plain deltas and delta-RLE runs); its tag follows — RLE only when
// strictly smaller, so a tie stays tag 2. Allocation happens once, in
// the caller, at the sum of the frame sizes plus header and footer. A
// second pool job per frame then writes the frame into its own slice
// with pointer varint stores and computes the frame's CRC32 in the same
// job; only the footer is written serially. A record that does not end
// exactly where its plan put it aborts (RR_REQUIRE), so a sizing bug
// cannot spill into a neighbouring slice. Documents under 2^16 nodes run
// both passes' jobs inline on the caller.
//
// Decoding is total (malformed framing, bad CRCs, truncated or overlong
// varints, out-of-bounds footer entries all yield nullopt, never an
// abort) and allocation-safe: list payloads stay encoded inside the
// StateReader until an accessor names its expected element count, so a
// crafted count cannot force a giant allocation.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "sim/state_io.hpp"

namespace rr::sim {

class ThreadPool;

inline constexpr const char* kCheckpointMagicV2 = "rr-ckpt v2";

/// Trailer magic, "RRCKPTv2" read as a little-endian u64.
inline constexpr std::uint64_t kV2TrailerMagic = 0x327654504B435252ull;

/// Per-node frame count encode_checkpoint_v2 uses when `segments` is 0
/// and no pool is given. Callers that need byte-identical documents
/// regardless of pool width (the serving layer's snapshot-vs-rr_cli
/// bit-equality contract) pass this explicitly: segments pins the
/// layout, the pool only parallelizes the work.
inline constexpr std::uint32_t kV2DefaultSegments = 4;

/// Encodes a full v2 document (header line, frames, footer).
/// `num_nodes` identifies the per-node arrays (fields of exactly that
/// length); `segments` is the number of per-node frames (0 picks a
/// default), clamped to num_nodes. Frames are sized, then written, in
/// parallel on `pool` when given (caller thread participates; pass
/// nullptr to encode inline; documents under 2^16 nodes encode inline
/// regardless). The bytes never depend on the pool.
std::string encode_checkpoint_v2(const std::string& engine_name,
                                 const std::string& graph_descriptor,
                                 const StateWriter& state,
                                 std::uint64_t num_nodes,
                                 std::uint32_t segments = 0,
                                 ThreadPool* pool = nullptr);

/// Decodes the binary body — the bytes after the header line's '\n' —
/// into a StateReader. nullopt on any malformed framing or CRC mismatch.
std::optional<StateReader> decode_checkpoint_v2_body(const std::uint8_t* data,
                                                     std::size_t size,
                                                     ThreadPool* pool = nullptr);

/// Streaming variant: reads frames a batch at a time from `f` (opened
/// "rb"), holding O(batch of frames) bytes rather than the whole file.
/// `body_offset` is the file position just past the header line;
/// `file_size` the total size. With a `pool`, each batch of frames is
/// read sequentially then CRC-checked and decoded in parallel (frames
/// are independently decodable by design); without one the batch is a
/// single frame and the behavior matches the old one-at-a-time loop.
/// The stream position is unspecified after the call.
std::optional<StateReader> decode_checkpoint_v2_file(
    std::FILE* f, std::uint64_t body_offset, std::uint64_t file_size,
    ThreadPool* pool = nullptr);

}  // namespace rr::sim
