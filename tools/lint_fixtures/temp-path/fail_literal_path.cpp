// kav-lint-fixture-path: tests/sample_test.cpp
// A fixed file name under the shared gtest temp root: two `ctest -j`
// processes running this case would write (and delete) the same file.
#include <gtest/gtest.h>

#include <string>

namespace kav {

std::string scratch_file() {
  return ::testing::TempDir() + "kav_sample.kavb";
}

}  // namespace kav
