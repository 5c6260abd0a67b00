#pragma once

// Per-test temp file paths. ctest -j runs every test in its own process,
// so a fixed file name under TempDir() is shared by whichever tests run at
// the same time; prefixing the running test's full name keeps each test's
// files its own.

#include <gtest/gtest.h>

#include <string>

namespace rr::testing {

inline std::string test_temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix =
      std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : prefix) {
    if (c == '/') c = '_';  // parameterized names carry '/'
  }
  return ::testing::TempDir() + prefix + "-" + name;
}

}  // namespace rr::testing
