// kav-lint-fixture-path: tests/test_support.h
// The one sanctioned caller: the helper that builds per-test names.
#include <gtest/gtest.h>

#include <string>

namespace kav::test {

inline std::string temp_root() { return ::testing::TempDir(); }

}  // namespace kav::test
