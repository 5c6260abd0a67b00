#pragma once

// Hostile-state construction for restore tests. An engine's serialized
// state is copied field by field with one value replaced, then turned
// into a reader through the v2 codec (sim::round_trip_v2) — the same
// bytes a crafted checkpoint would carry, with no hand-edited document.

#include <cstdint>
#include <string_view>
#include <utility>

#include "sim/state_io.hpp"

namespace rr::testing {

/// Copy of `state` with field `key` patched: a u64 field takes `value`;
/// a list field takes `value` at element `index` (view fields are
/// materialized first). Other fields are copied as recorded.
inline sim::StateWriter patched_state(const sim::StateWriter& state,
                                      std::string_view key,
                                      std::uint64_t value,
                                      std::uint64_t index = 0) {
  sim::StateWriter out;
  for (sim::WriterField f : state.fields()) {
    if (f.key == key) {
      if (f.kind == sim::WriterField::Kind::kU64ListView) {
        f.list.resize(f.view_size);
        for (std::uint64_t i = 0; i < f.view_size; ++i) f.list[i] = f.view_at(i);
        f.kind = sim::WriterField::Kind::kU64List;
      }
      if (f.kind == sim::WriterField::Kind::kU64) {
        f.scalar = value;
      } else if (f.kind == sim::WriterField::Kind::kU64List) {
        f.list.at(index) = value;
      }
    }
    out.add(std::move(f));
  }
  return out;
}

/// Element `index` of list field `key` in `state`.
inline std::uint64_t list_element(const sim::StateWriter& state,
                                  std::string_view key, std::uint64_t index) {
  for (const sim::WriterField& f : state.fields()) {
    if (f.key != key) continue;
    return f.kind == sim::WriterField::Kind::kU64List ? f.list.at(index)
                                                       : f.view_at(index);
  }
  return 0;
}

}  // namespace rr::testing
