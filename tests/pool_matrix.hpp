#pragma once

// The pool widths a test sweeps. RR_TEST_POOL_THREADS=t narrows the
// sweep to the one width t; the sanitizer CI jobs run each suite at
// t = 1, 2 and 4 that way.

#include <cstdlib>
#include <vector>

namespace rr::testing {

inline std::vector<unsigned> pool_widths(std::vector<unsigned> widths = {1, 2,
                                                                         4}) {
  if (const char* env = std::getenv("RR_TEST_POOL_THREADS")) {
    const unsigned t = static_cast<unsigned>(std::atoi(env));
    if (t > 0) widths.assign(1, t);
  }
  return widths;
}

}  // namespace rr::testing
