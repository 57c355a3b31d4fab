// kav-lint-fixture-path: tests/sample_test.cpp
// The same raw temp root spelled without the leading `::`.
#include <gtest/gtest.h>

#include <string>

namespace kav {

std::string scratch_dir() { return testing::TempDir(); }

}  // namespace kav
