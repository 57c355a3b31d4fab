// kavbench: the command-line front of the benchmark (see bench.h).
//
//   kavbench --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--work-dir DIR] [--out-dir DIR]
//            [--git-sha SHA]
//
// Runs one workload per process, so that its peak resident memory is
// its own. Prints the environment record, a table, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}; exits 1
// when a verdict or finding differs from the answer key. Refuses to
// measure a build without NDEBUG (a non-Release build); the environment
// record names the build type of every result.
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "kavbench: " << why
            << "\nusage: kavbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--size full|tiny] [--work-dir DIR] [--out-dir DIR] [--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kavbench::Options options;
  bool have_workload = false;
  std::string size = "full";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--size") {
        size = value();
        if (size != "full" && size != "tiny") throw std::invalid_argument("bad --size " + size);
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--git-sha") {
        options.git_sha = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload) return usage("--workload is required");
  options.tiny = size == "tiny";
#ifndef NDEBUG
  std::cerr << "kavbench: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif

  kavbench::Result r;
  try {
    std::filesystem::create_directories(options.out_dir);
    r = kavbench::run_workload(options);
    std::cout << "env " << r.env_json << "\n" << kavbench::result_table(r) << std::flush;
    const std::string record = (std::filesystem::path(options.out_dir) /
                                ("result-" + options.workload + "-seed" +
                                 std::to_string(options.seed) + "-trace" +
                                 (options.trace ? "1" : "0") + ".json"))
                                   .string();
    std::ofstream(record) << kavbench::record_json(r) << "\n";
  } catch (const std::exception& e) {
    std::cerr << "kavbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << kavbench::result_json(r) << std::endl;
  return r.correct ? 0 : 1;
}
