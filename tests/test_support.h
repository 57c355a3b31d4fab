// Shared test scaffolding. TempDir is the one way a test gets scratch
// space on disk: a fresh directory under the gtest temp root, named
// after the running test and the process id, and removed on
// destruction. `ctest -j` runs every case in its own process, so names
// built from a fixed literal let one case's cleanup delete another's
// files; kav-lint's temp-path rule keeps ::testing::TempDir() out of
// every other file.
#ifndef KAV_TESTS_TEST_SUPPORT_H
#define KAV_TESTS_TEST_SUPPORT_H

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace kav::test {

class TempDir {
 public:
  // `tag` tells apart several directories of one test.
  explicit TempDir(const std::string& tag = "")
      : path_(std::filesystem::path(::testing::TempDir()) / unique_name(tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  // kav_<suite>_<test>[_<tag>]_<pid>, with every character that is not
  // a letter or digit (parameterized names carry '/') mapped to '_'.
  static std::string unique_name(const std::string& tag) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "kav_";
    name += info != nullptr ? std::string(info->test_suite_name()) + "_" +
                                  info->name()
                            : std::string("no_test");
    if (!tag.empty()) name += "_" + tag;
    name += "_" + std::to_string(::getpid());
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
    }
    return name;
  }

  std::filesystem::path path_;
};

}  // namespace kav::test

#endif  // KAV_TESTS_TEST_SUPPORT_H
