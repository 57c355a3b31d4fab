// Self-test of the benchmark's generator at tiny sizes: determinism, the
// stream layout the monitor relies on, and the answer key (checked on
// small keys against the exact exponential oracle, not the deciders
// under test). kavbench/run.py --selftest runs it, then every workload
// at tiny size in both modes against BENCHMARK.json.
//
//   kavbench_selftest        exit 0 when every check passes
#include <cstdio>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "history/anomaly.h"
#include "workload_gen.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

kavbench::Shape tiny_shape() {
  kavbench::Shape s;
  s.keys = 48;
  s.blocks = 3;
  s.block_writes = 6;
  s.hot_keys = 8;
  s.hot_blocks = 3;
  s.hot_block_writes = 12;
  s.patterns_per_bad_key = 2;
  return s;
}

void test_determinism() {
  const kavbench::Input a = kavbench::generate(tiny_shape(), 7);
  const kavbench::Input b = kavbench::generate(tiny_shape(), 7);
  const kavbench::Input c = kavbench::generate(tiny_shape(), 8);
  expect(a.digest == b.digest, "same seed, same digest");
  expect(a.digest == kavbench::stream_digest(a.stream), "digest matches stream");
  expect(a.digest != c.digest, "different seed, different digest");
  expect(a.stream.size() == b.stream.size(), "same seed, same size");
}

void test_layout() {
  const kavbench::Shape shape = tiny_shape();
  const kavbench::Input in = kavbench::generate(shape, 3);
  const std::size_t keys = shape.keys + shape.hot_keys;
  expect(in.key_names.size() == keys, "key count");
  expect(in.bad_keys() == shape.keys / kavbench::kBadOneIn + shape.hot_keys / kavbench::kBadOneIn,
         "1 key in 8 is bad");
  std::size_t patterns = 0;
  for (std::size_t k = 0; k < keys; ++k) patterns += in.bad[k] ? shape.patterns_per_bad_key : 0;
  expect(in.injected.size() == patterns, "patterns per bad key");

  // Stream: finish order, durations within the reorder slack.
  for (std::size_t i = 0; i < in.stream.size(); ++i) {
    const kav::Operation& op = in.stream.ops[i].op;
    expect(op.start < op.finish, "op has positive duration");
    expect(op.finish - op.start <= in.slack, "duration within reorder slack");
    if (i > 0) expect(in.stream.ops[i - 1].op.finish <= op.finish, "stream in finish order");
  }
  // Patterns: isolated in their window, and the key stays silent until
  // end + horizon + slack has passed.
  for (const kavbench::Injected& inj : in.injected) {
    const kav::TimePoint threshold = inj.end + shape.horizon + in.slack;
    bool after_seen = false;
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
      if (in.stream_key[i] != inj.key) continue;
      const kav::Operation& op = in.stream.ops[i].op;
      const bool inside = op.start >= inj.begin && op.finish <= inj.end;
      const bool before = op.finish < inj.begin;
      const bool after = op.start > threshold;
      expect(inside || before || after, "pattern window is isolated");
      after_seen = after_seen || after;
    }
    expect(after_seen, "traffic resumes on the key after the pattern");
  }
}

// The answer key against the exact oracle on every key small enough.
void test_answer_key() {
  kavbench::Shape shape = tiny_shape();
  shape.block_writes = 3;
  shape.hot_keys = 0;
  shape.blocks = 2;
  shape.patterns_per_bad_key = 1;
  shape.keys = 64;
  const kavbench::Input in = kavbench::generate(shape, 11);
  kav::KeyedHistories split = kav::split_by_key(in.stream);
  std::size_t checked = 0;
  for (std::uint32_t key = 0; key < in.key_names.size(); ++key) {
    const kav::History& h = split.per_key.at(in.key_names[key]);
    if (h.size() > 40) continue;
    const kav::History n = kav::normalize(h);
    const kav::OracleResult r = kav::oracle_is_k_atomic(n, 2);
    if (r.outcome == kav::OracleOutcome::node_limit) continue;
    ++checked;
    const bool yes = r.outcome == kav::OracleOutcome::yes;
    expect(yes == !in.bad[key], "oracle agrees with the answer key on " + in.key_names[key]);
  }
  expect(checked >= 32, "oracle checked enough keys (" + std::to_string(checked) + ")");
}

}  // namespace

int main() {
  test_determinism();
  test_layout();
  test_answer_key();
  if (failures > 0) {
    std::fprintf(stderr, "kavbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("kavbench_selftest: all checks passed\n");
  return 0;
}
