#pragma once

// Out-of-core graph substrate: the `rr-graph v1` on-disk image.
//
// Engines at bench scale are bounded by what fits in RAM: a 1e8-node
// instance needs ~9 GB of CSR adjacency plus per-node engine state. The
// image sidesteps that: `MappedSubstrate::build` streams a descriptor
// into a flat file. "ring N" and "torus W H" stream the row generators of
// graph/lattice_rows.hpp with no in-memory graph at all (the same rows
// GraphDescriptor::build streams into an in-RAM CsrGraph); other kinds
// copy the rows of the CsrGraph GraphDescriptor::build returns.
// `MappedSubstrate::open` maps the whole file MAP_PRIVATE so CsrGraph and
// the engine's NodeState/VisitStats arrays are backed by the page cache —
// an engine steps a 1e8-node instance touching only the pages its agents
// actually visit, and the private copy-on-write mapping keeps every run's
// mutations isolated from the file.
//
// Image layout (little-endian, every section 4096-byte aligned):
//
//   page 0   ImageHeader + descriptor text (self-describing; an FNV-1a
//            stamp over fields + descriptor rejects torn/foreign files)
//   offsets      u64[num_nodes + 1]   CSR prefix sums (CsrGraph::offsets)
//   neighbors    u32[num_arcs]        arc heads in port order
//   sorted_ports u32[num_arcs]        per-node (neighbor, port)-sorted
//                                     permutation (CsrGraph::port_to)
//   node_state   NodeState[num_nodes] count/pointer 0, degree and
//                                     row_begin precomputed
//   visit_stats  u64[4 * num_nodes]   {visits 0, exits 0, first_visit ~0,
//                                     last_visit 0} per node — the
//                                     core::VisitStats layout with the
//                                     never-visited sentinel pre-filled
//
// so an engine constructed over a fresh mapping starts in exactly the
// state its in-RAM constructor would build, minus the O(n) init scans.
//
// MappedArray<T> is the storage adapter: engines declare their per-node
// arrays as MappedArray and get either an owned vector (in-RAM
// construction) or a view into the mapping (image construction) behind
// one indexing interface. madvise hints are per scan phase:
// advise_random for agent stepping, advise_sequential before whole-image
// scans (serialization).
//
// Platform: build/open require POSIX mmap; on other platforms build
// returns false and open returns nullptr (callers degrade to in-RAM
// construction).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/no_init.hpp"
#include "common/require.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"

namespace rr::graph {

/// Owned-or-mapped array: an owned mode backed by a member vector and a
/// view mode aliasing external storage kept alive by `backing_`. Copying
/// an owned array copies the elements; copying a view shares them (the
/// mmap substrate is MAP_PRIVATE, one mapping per opened image, so
/// sharing a view means sharing that image instance's state).
template <typename T>
class MappedArray {
 public:
  MappedArray() = default;
  /// Owned mode: `n` elements left unwritten (common/no_init.hpp); the
  /// owner writes every one before reading it.
  explicit MappedArray(std::size_t n)
      : store_(n), data_(store_.data()), size_(n) {}
  /// View mode over [data, data + n); `backing` is held for the view's
  /// lifetime.
  MappedArray(T* data, std::size_t n, std::shared_ptr<void> backing)
      : backing_(std::move(backing)), data_(data), size_(n) {}

  MappedArray(const MappedArray& other) { *this = other; }
  MappedArray& operator=(const MappedArray& other) {
    store_ = other.store_;
    backing_ = other.backing_;
    size_ = other.size_;
    data_ = backing_ ? other.data_ : store_.data();
    return *this;
  }
  // Vector moves keep their heap buffer, so the member-wise move leaves
  // data_ pointing at storage now owned by the destination.
  MappedArray(MappedArray&&) noexcept = default;
  MappedArray& operator=(MappedArray&&) noexcept = default;

  std::size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  NoInitVector<T> store_;          // owned mode
  std::shared_ptr<void> backing_;  // view mode: keeps the mapping alive
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One opened `rr-graph v1` image. Instances are created only through
/// open() (shared_ptr ownership lets the CsrGraph / MappedArray views it
/// hands out keep the mapping alive past the substrate handle itself).
class MappedSubstrate : public std::enable_shared_from_this<MappedSubstrate> {
 public:
  /// Streams the graph named by `descriptor_text` into an image at
  /// `path` (written to `path`.tmp, then renamed). "ring N" / "torus W H"
  /// stream row-by-row with no in-memory graph, so N may far exceed the
  /// descriptor build cap; every other kind builds through
  /// GraphDescriptor::build (its cost caps apply) and must be connected.
  /// False on malformed/oversized descriptors or I/O failure; `*error`
  /// (optional) receives a one-line reason.
  static bool build(const std::string& descriptor_text,
                    const std::string& path, std::string* error = nullptr);

  /// Maps an image read-write MAP_PRIVATE and validates its framing
  /// (magic, version, header stamp, section bounds). nullptr on any
  /// malformed image — never aborts; images are external input.
  static std::shared_ptr<MappedSubstrate> open(const std::string& path);

  ~MappedSubstrate();
  MappedSubstrate(const MappedSubstrate&) = delete;
  MappedSubstrate& operator=(const MappedSubstrate&) = delete;

  const std::string& descriptor() const { return descriptor_; }
  NodeId num_nodes() const { return static_cast<NodeId>(num_nodes_); }
  std::uint64_t num_arcs() const { return num_arcs_; }
  /// Total image size — what a fully resident in-RAM copy would cost.
  std::uint64_t image_bytes() const { return map_size_; }

  /// CSR view over the mapped offsets/neighbors/sorted_ports sections;
  /// holds the mapping alive.
  CsrGraph csr();

  /// The engine-ready NodeState array (count/pointer zero, degree and
  /// row_begin filled by the builder).
  MappedArray<NodeState> node_state();

  /// The visit-statistics array, reinterpreted as the caller's stats
  /// record (core::VisitStats); sizeof(T) must match the image's 32-byte
  /// record with first_visit pre-set to the ~0 sentinel.
  template <typename T>
  MappedArray<T> visit_stats() {
    static_assert(std::is_trivially_copyable_v<T>);
    return MappedArray<T>(static_cast<T*>(visit_stats_raw(sizeof(T))),
                          num_nodes_, shared_from_this());
  }

  /// madvise hints for the two scan shapes: agent stepping touches
  /// scattered rows (random), serialization sweeps every section once
  /// (sequential). Hints only — never required for correctness.
  void advise_random() const;
  void advise_sequential() const;

  /// True exactly once per open(). The state sections of this mapping
  /// hold the image's default values only until the first engine is
  /// built over them — engines sharing one open share the COW pages.
  /// The first claimant may therefore treat the arrays as image
  /// defaults (RotorRouter::restore's default-skipping decode); later
  /// engines over the same handle must not.
  bool claim_image_defaults() { return !state_claimed_.exchange(true); }

 private:
  MappedSubstrate() = default;
  void* section(std::uint64_t off) const {
    return static_cast<std::uint8_t*>(map_) + off;
  }
  void* visit_stats_raw(std::size_t record_size);

  void* map_ = nullptr;
  std::uint64_t map_size_ = 0;
  std::atomic<bool> state_claimed_{false};
  std::string descriptor_;
  std::uint64_t num_nodes_ = 0;
  std::uint64_t num_arcs_ = 0;
  std::uint64_t offsets_off_ = 0;
  std::uint64_t neighbors_off_ = 0;
  std::uint64_t ports_off_ = 0;
  std::uint64_t node_state_off_ = 0;
  std::uint64_t visit_stats_off_ = 0;
};

}  // namespace rr::graph
