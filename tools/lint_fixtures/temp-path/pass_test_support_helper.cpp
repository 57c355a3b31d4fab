// kav-lint-fixture-path: tests/sample_test.cpp
// Scratch space from the shared helper: clean. The ::testing::TempDir()
// named in this comment, and in the string below, is not code and must
// not trip the rule.
#include <string>

#include "test_support.h"

namespace kav {

const char* const kHint = "use test::TempDir, not ::testing::TempDir()";

std::string scratch_file(const test::TempDir& dir) {
  return dir.file("sample.kavb");
}

}  // namespace kav
