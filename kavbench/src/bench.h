// The kav benchmark: three workloads run through the public kav::Engine,
// every verdict and finding checked against the generator's answer key.
//
//   batch_many_keys  one .kavb file, ~1M ops over 4,096 small keys
//                    -> Engine::verify(*open_trace_source(path))
//   store_audit      a 4-segment TraceStore, 4,096 small keys + 16 large
//                    high-concurrency keys -> Engine::verify(
//                    *store.open_source(), {.key_filter = audited keys})
//   monitor_replay   closed loop: one producer pushes the finish-ordered
//                    stream into a PushTraceSource, Engine::monitor drains;
//                    at most 4,096 ops wait in the per-key queues
//
// Detection latency is time to verdict on the batch workloads (from
// opening the input to each NO verdict) and, on monitor_replay, the time
// from pushing each pattern's enabling op to the finding that reports it.
//
// Untraced runs (trace = false) report the end-to-end metrics; traced
// runs replay the workload's input through each module's public calls
// with a span around each call and report per-layer metrics.
#ifndef KAVBENCH_BENCH_H
#define KAVBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace kavbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          // self-test sizes
  std::string work_dir = ".";  // scratch files, removed at exit
  std::string out_dir = ".";   // result record and span file
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the result line's metrics for this mode
  std::vector<Metric> info;     // printed and recorded, not in the result line
  std::vector<double> rep_ops_per_s;  // each end-to-end repetition
  std::vector<std::string> errors;  // first few mismatches, for humans
  std::string env_json;         // environment record
  std::string span_file;        // traced runs
};

Result run_workload(const Options& options);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& result);
// Full record: the result plus env, info metrics and errors.
std::string record_json(const Result& result);
// Human-readable table of one result.
std::string result_table(const Result& result);

}  // namespace kavbench

#endif  // KAVBENCH_BENCH_H
