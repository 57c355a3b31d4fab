// Tests for the kav::Engine session API: options precedence (per-call
// VerifyOptions overrides), pool sharing (one Engine running batch and
// monitor work creates exactly one ThreadPool -- the created_count
// hook), cancellation and deadline semantics, TraceSource equivalence
// (memory == text file == binary file == push), the Report /
// one-formatter summary contract, and borrowed pools used directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "kav.h"
#include "test_support.h"
#include "util/rng.h"

namespace kav {
namespace {

KeyedTrace multi_key_trace(int keys, int ops_per_key, std::uint64_t seed) {
  Rng rng(seed);
  KeyedTrace trace;
  for (int k = 0; k < keys; ++k) {
    gen::RandomMixConfig config;
    config.operations = ops_per_key;
    const History h = gen::generate_random_mix(config, rng);
    const std::string key = "key" + std::to_string(k);
    for (const Operation& op : h.operations()) trace.add(key, op);
  }
  return trace;
}

KeyedTrace one_bad_key_trace(int good_keys) {
  KeyedTrace trace;
  // Key "a" sorts first: forced separation 2 means minimal k = 3, so
  // it answers NO at k = 2.
  const History bad = gen::generate_forced_separation(2);
  for (const Operation& op : bad.operations()) trace.add("a", op);
  for (int i = 0; i < good_keys; ++i) {
    const std::string key = "b" + std::to_string(i);
    trace.add(key, make_write(0, 10, 1));
    trace.add(key, make_read(12, 20, 1));
  }
  return trace;
}

void expect_verdicts_equal(const Verdict& a, const Verdict& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.conflict, b.conflict);
  EXPECT_TRUE(a.stats == b.stats);
}

void expect_reports_equal(const Report& a, const Report& b) {
  ASSERT_EQ(a.per_key.size(), b.per_key.size());
  auto ita = a.per_key.begin();
  auto itb = b.per_key.begin();
  for (; ita != a.per_key.end(); ++ita, ++itb) {
    SCOPED_TRACE("key " + ita->first);
    ASSERT_EQ(ita->first, itb->first);
    expect_verdicts_equal(ita->second.verdict, itb->second.verdict);
  }
}

// --- Pool sharing ---------------------------------------------------------

TEST(Engine, BatchAndMonitorShareExactlyOnePool) {
  const KeyedTrace trace = multi_key_trace(4, 16, 7);
  const std::uint64_t pools_before = pipeline::ThreadPool::created_count();
  {
    EngineOptions options;
    options.threads = 2;
    Engine engine(options);
    engine.verify(trace);
    engine.monitor(trace);
    engine.verify(trace);
    engine.monitor(trace);
    EXPECT_EQ(engine.thread_count(), 2u);
  }
  EXPECT_EQ(pipeline::ThreadPool::created_count(), pools_before + 1);
}

TEST(Engine, PoolIsExposedForSideWork) {
  Engine engine;
  EXPECT_EQ(engine.pool().submit([] { return 41 + 1; }).get(), 42);
}

// --- Options precedence ---------------------------------------------------

TEST(Engine, PerCallVerifyOptionsOverrideEngineOptions) {
  // Staged history: 2-atomic but not atomic, so k decides the verdict.
  KeyedTrace trace;
  trace.add("r", make_write(0, 10, 1));
  trace.add("r", make_write(20, 30, 2));
  trace.add("r", make_read(40, 50, 1));
  trace.add("r", make_read(60, 70, 2));

  EngineOptions options;
  options.verify.k = 1;  // constructor default: strict atomicity
  Engine engine(options);

  EXPECT_FALSE(engine.verify(trace).per_key.at("r").verdict.yes());

  RunOptions run;
  VerifyOptions verify;
  verify.k = 2;
  run.verify = verify;  // per-call override wins
  EXPECT_TRUE(engine.verify(trace, run).per_key.at("r").verdict.yes());
  // And the override is per call, not sticky.
  EXPECT_FALSE(engine.verify(trace).per_key.at("r").verdict.yes());
}

TEST(Engine, FailFastFromEngineOptionsSkipsShards) {
  EngineOptions options;
  options.threads = 1;  // deterministic: key order == execution order
  options.fail_fast = true;
  Engine engine(options);
  const Report report = engine.verify(one_bad_key_trace(4));
  EXPECT_EQ(report.count(Outcome::no), 1u);
  EXPECT_EQ(report.count(Outcome::undecided), 4u);
  // Fail-fast skips are a latency feature, not a cancellation: the
  // report is not marked cancelled.
  EXPECT_FALSE(report.cancelled);
}

// --- Cancellation and deadlines -------------------------------------------

TEST(Engine, PreCancelledTokenSkipsEveryShard) {
  Engine engine;
  RunOptions run;
  run.cancel.cancel();
  const Report report = engine.verify(multi_key_trace(3, 12, 21), run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.count(Outcome::undecided), 3u);
  for (const auto& [key, result] : report.per_key) {
    EXPECT_EQ(result.verdict.reason, kSkipCancelledReason) << key;
  }
  EXPECT_EQ(report.stop_reason, kSkipCancelledReason);
  EXPECT_NE(report.summary().find("cancelled"), std::string::npos);
}

TEST(Engine, OnKeyCallbackCanCancelTheRun) {
  EngineOptions options;
  options.threads = 1;  // shards run in key order, one at a time
  Engine engine(options);
  RunOptions run;
  std::atomic<int> decided{0};
  std::atomic<int> skipped{0};
  run.on_key = [&](const std::string&, const Verdict& verdict) {
    if (verdict.reason == kSkipCancelledReason) {
      skipped.fetch_add(1);
      return;
    }
    decided.fetch_add(1);
    run.cancel.cancel();  // copies share state: cancels the run
  };
  const Report report = engine.verify(multi_key_trace(5, 10, 33), run);
  // The sink fires exactly once per key, skipped shards included.
  EXPECT_EQ(decided.load(), 1);
  EXPECT_EQ(skipped.load(), 4);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.count(Outcome::undecided), 4u);
}

TEST(Engine, ExpiredDeadlineSkipsEveryShard) {
  Engine engine;
  RunOptions run;
  run.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);
  const Report report = engine.verify(multi_key_trace(3, 12, 5), run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.count(Outcome::undecided), 3u);
  for (const auto& [key, result] : report.per_key) {
    EXPECT_EQ(result.verdict.reason, kSkipDeadlineReason) << key;
  }
}

TEST(Engine, TimeoutAndDeadlineComposeEarlierWins) {
  Engine engine;
  RunOptions run;
  // Generous timeout, already-expired deadline: the deadline must win.
  run.timeout = std::chrono::minutes(10);
  run.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);
  const Report report = engine.verify(multi_key_trace(2, 8, 11), run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.count(Outcome::undecided), 2u);
}

TEST(Engine, CancelledMonitorStillReportsThePrefixSoundly) {
  Engine engine;
  RunOptions run;
  run.cancel.cancel();  // fires after the first ingested operation
  const Report report = engine.monitor(multi_key_trace(2, 20, 17), run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("cancelled"), std::string::npos);
  // Exactly one operation was admitted before the token was observed.
  EXPECT_EQ(report.monitor_totals.operations_ingested, 1u);
}

// A filtered monitor run hands the monitor the runs of selected
// operations between rejected ones. With the keys interleaved, every
// batch holds many short runs; each selected key must still come out
// as if it had been monitored alone, from memory and from a source.
TEST(Engine, FilteredMonitorSeesEverySelectedOperation) {
  const KeyedTrace by_key = multi_key_trace(5, 300, 11);
  std::map<std::string, std::vector<Operation>> ops;
  for (const KeyedOperation& kop : by_key.ops) ops[kop.key].push_back(kop.op);
  KeyedTrace trace;
  for (std::size_t i = 0; i < 300; ++i) {
    for (const auto& [key, key_ops] : ops) trace.add(key, key_ops[i]);
  }
  Engine engine;
  RunOptions run;
  run.key_filter = {"key1", "key3", "absent"};
  const Report from_memory = engine.monitor(trace, run);
  MemoryTraceSource source(trace);
  const Report from_source = engine.monitor(source, run);
  for (const Report* report : {&from_memory, &from_source}) {
    ASSERT_EQ(report->per_key.size(), 2u);
    EXPECT_EQ(report->monitor_totals.operations_ingested, 600u);
    EXPECT_EQ(report->missing_keys, std::vector<std::string>{"absent"});
    for (const std::string key : {"key1", "key3"}) {
      SCOPED_TRACE(key);
      KeyedTrace alone;
      for (const Operation& op : ops.at(key)) alone.add(key, op);
      const Report solo = engine.monitor(alone);
      const KeyResult& got = report->per_key.at(key);
      const KeyResult& want = solo.per_key.at(key);
      EXPECT_EQ(got.verdict.outcome, want.verdict.outcome);
      EXPECT_EQ(got.stream.operations_ingested,
                want.stream.operations_ingested);
      EXPECT_EQ(got.findings.size(), want.findings.size());
    }
  }
}

TEST(Engine, HardAnomalyOnOneKeyLeavesTheMonitorReportIntact) {
  // Key "k" reads a value before its write starts, then runs on; the
  // other keys are clean. The monitor must return a Report with one
  // hard_anomaly finding on "k", not throw from finish().
  KeyedTrace trace;
  trace.add("k", make_read(0, 5, 1));
  trace.add("k", make_write(10, 20, 1));
  for (int i = 0; i < 20'000; ++i) {
    const TimePoint start = 30 + 20 * static_cast<TimePoint>(i);
    trace.add("k", make_write(start, start + 10, 2 + i));
    if (i % 100 == 0) {
      const std::string other = "other" + std::to_string(i % 300);
      trace.add(other, make_write(start, start + 4, i));
      trace.add(other, make_read(start + 6, start + 9, i));
    }
  }
  EngineOptions options;
  options.threads = 2;
  options.streaming.staleness_horizon = 100;
  options.reorder_slack = 10;
  Engine engine(options);
  Report report;
  ASSERT_NO_THROW(report = engine.monitor(trace));
  ASSERT_EQ(report.per_key.size(), 4u);
  const KeyResult& bad = report.per_key.at("k");
  EXPECT_TRUE(bad.verdict.no());
  ASSERT_EQ(bad.findings.size(), 1u);
  EXPECT_EQ(bad.findings.front().kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_NE(bad.findings.front().detail.find("read-precedes-dictating-write"),
            std::string::npos)
      << bad.findings.front().detail;
  EXPECT_EQ(bad.stream.operations_ingested, 20'002u);
  for (const auto& [key, result] : report.per_key) {
    if (key == "k") continue;
    SCOPED_TRACE("key " + key);
    EXPECT_TRUE(result.verdict.yes()) << result.verdict.reason;
    EXPECT_TRUE(result.findings.empty());
  }
  EXPECT_EQ(report.monitor_totals.operations_ingested, trace.size());
}

TEST(Engine, MalformedOperationOnOneKeyLeavesTheMonitorReportIntact) {
  // One write on key "k" has start == finish, and its zone lies inside
  // the forward zone [20, 22] of value 2. No chunk can hold it, so the
  // monitor must drop it as one hard_anomaly finding on "k" and keep
  // checking the 40,000 well-formed ops around it.
  KeyedTrace trace;
  for (int i = 0; i < 20'000; ++i) {
    const TimePoint start = 10 + 20 * static_cast<TimePoint>(i);
    trace.add("k", make_write(start, start + 10, 2 + i));
    if (i == 0) trace.add("k", make_write(21, 21, 1));
    trace.add("k", make_read(start + 12, start + 15, 2 + i));
  }
  trace.add("other", make_write(0, 4, 1));
  trace.add("other", make_read(6, 9, 1));
  EngineOptions options;
  options.threads = 2;
  options.streaming.staleness_horizon = 100;
  options.reorder_slack = 10;
  Engine engine(options);
  Report report;
  ASSERT_NO_THROW(report = engine.monitor(trace));
  ASSERT_EQ(report.per_key.size(), 2u);
  const KeyResult& bad = report.per_key.at("k");
  EXPECT_TRUE(bad.verdict.no());
  ASSERT_EQ(bad.findings.size(), 1u);
  EXPECT_EQ(bad.findings.front().kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_EQ(bad.findings.front().detail,
            "malformed operation write(v=1) [21, 21): start >= finish");
  EXPECT_EQ(bad.stream.operations_ingested, 40'001u);
  EXPECT_EQ(bad.stream.operations_evicted, 40'001u);
  const KeyResult& good = report.per_key.at("other");
  EXPECT_TRUE(good.verdict.yes()) << good.verdict.reason;
  EXPECT_TRUE(good.findings.empty());
  EXPECT_EQ(report.monitor_totals.operations_ingested, trace.size());
}

// --- TraceSource equivalence ----------------------------------------------

class EngineSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = multi_key_trace(5, 14, 77);
    write_trace_file(text_path_, trace_);
    write_binary_trace_file(binary_path_, trace_);
    std::ofstream out(indexed_path_, std::ios::binary);
    SegmentWriterOptions options;
    options.records_per_block = 4;  // several blocks per key
    SegmentWriter writer(out, options);
    writer.add(trace_);
    writer.finish();
  }

  // Named after the test and the pid, so `ctest -j` cases never share
  // (and delete) each other's files.
  test::TempDir dir_;
  KeyedTrace trace_;
  const std::string text_path_ = dir_.file("trace.txt");
  const std::string binary_path_ = dir_.file("trace.kavb");
  // .kavb v2: a SelectiveTraceSource
  const std::string indexed_path_ = dir_.file("trace_v2.kavb");
};

TEST_F(EngineSourceTest, MemoryTextAndBinarySourcesVerifyIdentically) {
  Engine engine;
  const Report from_trace = engine.verify(trace_);

  MemoryTraceSource memory(trace_);
  auto text = open_trace_source(text_path_);
  auto binary = open_trace_source(binary_path_);
  EXPECT_NE(text->describe().find("text:"), std::string::npos);
  EXPECT_NE(binary->describe().find("binary:"), std::string::npos);

  expect_reports_equal(from_trace, engine.verify(memory));
  expect_reports_equal(from_trace, engine.verify(*text));
  expect_reports_equal(from_trace, engine.verify(*binary));
}

// Every source shape yields the same Report, with and without a key
// filter: the memory trace and the text / v1 sources group while
// draining, the v2 source drains through its index without a filter
// and loads only the requested keys with one.
TEST_F(EngineSourceTest, EverySourceGivesTheSameReportWithAndWithoutFilter) {
  Engine engine;
  RunOptions unfiltered;
  RunOptions filtered;
  filtered.key_filter = {"key3", "absent", "key1", "key3"};
  for (const RunOptions* run : {&unfiltered, &filtered}) {
    SCOPED_TRACE(run->key_filter.empty() ? "no filter" : "key filter");
    const Report reference = engine.verify(trace_, *run);
    EXPECT_EQ(reference.per_key.size(), run->key_filter.empty() ? 5u : 2u);

    MemoryTraceSource memory(trace_);
    auto text = open_trace_source(text_path_);
    auto binary = open_trace_source(binary_path_);
    auto indexed = open_trace_source(indexed_path_);
    ASSERT_NE(dynamic_cast<SelectiveTraceSource*>(indexed.get()), nullptr);
    for (TraceSource* source :
         {static_cast<TraceSource*>(&memory), text.get(), binary.get(),
          indexed.get()}) {
      SCOPED_TRACE(source->describe());
      const Report report = engine.verify(*source, *run);
      expect_reports_equal(reference, report);
      EXPECT_EQ(report.selected, reference.selected);
      EXPECT_EQ(report.keys_selected, reference.keys_selected);
      EXPECT_EQ(report.keys_available, reference.keys_available);
      EXPECT_EQ(report.missing_keys, reference.missing_keys);
      EXPECT_FALSE(report.cancelled);
    }
  }
  const Report selected = engine.verify(trace_, filtered);
  EXPECT_TRUE(selected.selected);
  EXPECT_EQ(selected.keys_selected, 2u);
  EXPECT_EQ(selected.keys_available, 5u);
  EXPECT_EQ(selected.missing_keys, std::vector<std::string>{"absent"});
}

TEST_F(EngineSourceTest, MonitorAgreesAcrossFileFormats) {
  Engine engine;
  const Report from_trace = engine.monitor(trace_);
  auto text = open_trace_source(text_path_);
  auto binary = open_trace_source(binary_path_);
  const Report from_text = engine.monitor(*text);
  const Report from_binary = engine.monitor(*binary);
  ASSERT_EQ(from_trace.per_key.size(), from_text.per_key.size());
  ASSERT_EQ(from_trace.per_key.size(), from_binary.per_key.size());
  for (const auto& [key, result] : from_trace.per_key) {
    SCOPED_TRACE("key " + key);
    EXPECT_EQ(result.verdict.outcome,
              from_text.per_key.at(key).verdict.outcome);
    EXPECT_EQ(result.verdict.outcome,
              from_binary.per_key.at(key).verdict.outcome);
    EXPECT_EQ(result.findings.size(),
              from_text.per_key.at(key).findings.size());
    EXPECT_EQ(result.findings.size(),
              from_binary.per_key.at(key).findings.size());
  }
}

TEST_F(EngineSourceTest, DrainReadsTextAndBinaryIdentically) {
  const KeyedTrace from_text = drain(*open_trace_source(text_path_));
  const KeyedTrace from_binary = drain(*open_trace_source(binary_path_));
  ASSERT_EQ(from_text.size(), trace_.size());
  ASSERT_EQ(from_binary.size(), trace_.size());
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    EXPECT_EQ(from_text.ops[i].key, trace_.ops[i].key);
    EXPECT_EQ(from_binary.ops[i].key, trace_.ops[i].key);
    EXPECT_TRUE(from_text.ops[i].op == trace_.ops[i].op);
    EXPECT_TRUE(from_binary.ops[i].op == trace_.ops[i].op);
  }
}

TEST(EngineSource, PushSourceStreamsFromAProducerThread) {
  const KeyedTrace trace = multi_key_trace(3, 12, 55);
  Engine engine;
  const Report batch = engine.monitor(trace);

  PushTraceSource push(8);  // tiny capacity: exercises backpressure
  std::thread producer([&] {
    for (const KeyedOperation& kop : trace.ops) push.push(kop);
    push.close();
  });
  const Report live = engine.monitor(push);
  producer.join();

  ASSERT_EQ(live.per_key.size(), batch.per_key.size());
  for (const auto& [key, result] : batch.per_key) {
    SCOPED_TRACE("key " + key);
    EXPECT_EQ(live.per_key.at(key).verdict.outcome, result.verdict.outcome);
  }
  EXPECT_EQ(live.monitor_totals.operations_ingested, trace.size());
}

TEST(EngineSource, CancelUnblocksMonitorOnAnIdlePushSource) {
  // The producer never calls close(): without bounded pulls
  // (TraceSource::try_next_batch_for) the monitor would block in next()
  // forever and the CancelToken could never be honored.
  Engine engine;
  PushTraceSource push;
  push.push("k", make_write(0, 5, 1));
  RunOptions run;
  CancelToken token = run.cancel;  // copies share the flag
  std::thread canceller([token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    token.cancel();
  });
  const Report report = engine.monitor(push, run);
  canceller.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("cancelled"), std::string::npos);
  EXPECT_EQ(report.monitor_totals.operations_ingested, 1u);
}

// A producer that never idles: it pushes until the source is closed,
// counting completed pushes, and cancels `token` (when given) after
// `cancel_after` of them.
std::thread busy_producer(PushTraceSource& push, std::atomic<int>& pushed,
                          int cancel_after, CancelToken* token) {
  return std::thread([&push, &pushed, cancel_after, token] {
    try {
      for (int i = 0;; ++i) {
        const TimePoint start = 10 * static_cast<TimePoint>(i);
        push.push("k" + std::to_string(i % 4), make_write(start, start + 5, i));
        pushed.fetch_add(1, std::memory_order_relaxed);
        if (token != nullptr && i + 1 == cancel_after) token->cancel();
      }
    } catch (const std::logic_error&) {
      // push after close(): the run is over
    }
  });
}

TEST(EngineSource, BusyPushSourceHonorsAnExpiredDeadlineWithinOneBatch) {
  Engine engine;
  PushTraceSource push(64);  // a pull takes at most 64 operations
  std::atomic<int> pushed{0};
  std::thread producer = busy_producer(push, pushed, 0, nullptr);
  RunOptions run;
  run.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const Report report = engine.monitor(push, run);
  push.close();
  producer.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("deadline"), std::string::npos)
      << report.stop_reason;
  EXPECT_LE(report.monitor_totals.operations_ingested, 64u);
}

TEST(EngineSource, BusyPushSourceHonorsACancelWithinOneBatch) {
  Engine engine;
  PushTraceSource push(64);
  std::atomic<int> pushed{0};
  RunOptions run;
  constexpr int kCancelAfter = 5'000;
  std::thread producer = busy_producer(push, pushed, kCancelAfter, &run.cancel);
  const Report report = engine.monitor(push, run);
  push.close();
  producer.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("cancelled"), std::string::npos)
      << report.stop_reason;
  // Everything pushed before the cancel may have been pulled, plus the
  // batch in flight when it fired -- never the busy producer's tail.
  EXPECT_LE(report.monitor_totals.operations_ingested,
            static_cast<std::uint64_t>(kCancelAfter + 64));
  EXPECT_GE(pushed.load(), kCancelAfter);
}

TEST(EngineSource, PushSourceRejectsPushAfterClose) {
  PushTraceSource push;
  push.push("k", make_write(0, 5, 1));
  push.close();
  push.close();  // idempotent
  EXPECT_THROW(push.push("k", make_write(6, 9, 1)), std::logic_error);
  KeyedOperation kop;
  EXPECT_TRUE(push.next(kop));  // the queued op drains...
  EXPECT_EQ(kop.key, "k");
  EXPECT_FALSE(push.next(kop));  // ...then the stream ends
}

// --- Unified Report -------------------------------------------------------

TEST(EngineReport, OneFormatterAcrossBatchMonitorAndLegacy) {
  const KeyedTrace trace = one_bad_key_trace(3);
  Engine engine;
  const std::string batch = engine.verify(trace).summary();
  const std::string monitor = engine.monitor(trace).summary();
  const std::string serial_batch = verify_keyed_trace(trace).summary();
  EngineOptions one_thread;
  one_thread.threads = 1;
  const std::string one_thread_monitor =
      Engine(one_thread).monitor(trace).summary();

  // Same grep-able shape everywhere; batch and the serial oracle agree
  // exactly, monitor runs agree exactly at any pool size.
  EXPECT_EQ(batch, serial_batch);
  EXPECT_EQ(monitor, one_thread_monitor);
  for (const std::string& line : {batch, monitor}) {
    EXPECT_NE(line.find("/4 keys atomic within bound"), std::string::npos)
        << line;
    EXPECT_NE(line.find("1 NO"), std::string::npos) << line;
  }
}

TEST(EngineReport, BatchFillsVerifyTotalsMonitorFillsMonitorTotals) {
  const KeyedTrace trace = multi_key_trace(3, 16, 41);
  Engine engine;
  const Report batch = engine.verify(trace);
  EXPECT_EQ(batch.mode, Report::Mode::batch);
  const Report serial = verify_keyed_trace(trace);
  EXPECT_EQ(serial.mode, Report::Mode::batch);
  EXPECT_TRUE(batch.verify_totals == serial.verify_totals);
  EXPECT_EQ(batch.monitor_totals.operations_ingested, 0u);

  const Report live = engine.monitor(trace);
  EXPECT_EQ(live.mode, Report::Mode::monitor);
  EXPECT_EQ(live.monitor_totals.operations_ingested, trace.size());
  EXPECT_EQ(live.monitor_totals.keys, 3u);
}

TEST(EngineReport, DescribeRendersEveryOutcome) {
  EXPECT_EQ(describe(Verdict::make_yes({0, 1, 2})),
            "YES (witness over 3 ops)");
  EXPECT_EQ(describe(Verdict::make_no("because")), "NO: because");
  EXPECT_EQ(describe(Verdict::make_undecided("later")), "UNDECIDED: later");
  EXPECT_EQ(describe(Verdict::make_precondition_failed("bad input")),
            "PRECONDITION-FAILED: bad input");
}

TEST(EngineReport, MonitorFindingsFlowThroughOnFinding) {
  const KeyedTrace trace = one_bad_key_trace(2);
  Engine engine;
  RunOptions run;
  std::vector<std::string> live_keys;
  run.on_finding = [&](const std::string& key, const StreamingViolation&) {
    live_keys.push_back(key);
  };
  const Report report = engine.monitor(trace, run);
  std::size_t total_findings = 0;
  for (const auto& [key, result] : report.per_key) {
    total_findings += result.findings.size();
  }
  EXPECT_EQ(live_keys.size(), total_findings);
  EXPECT_GE(total_findings, 1u);
  for (const std::string& key : live_keys) EXPECT_EQ(key, "a");
}

// --- Borrowed pools, used directly -----------------------------------------

TEST(BorrowedPool, ShardedVerifierRunsOnACallerPool) {
  const KeyedTrace trace = multi_key_trace(4, 12, 13);
  pipeline::ThreadPool pool(2);
  const std::uint64_t pools_before = pipeline::ThreadPool::created_count();
  ShardedVerifier verifier(pool);
  EXPECT_EQ(verifier.thread_count(), 2u);
  KeyGroups groups = group_by_key(trace);
  const Report parallel = verifier.verify_shards(lazy_shards(groups), {});
  EXPECT_EQ(pipeline::ThreadPool::created_count(), pools_before);
  EXPECT_EQ(parallel.mode, Report::Mode::batch);
  const Report serial = verify_keyed_trace(trace);
  EXPECT_TRUE(parallel.verify_totals == serial.verify_totals);
  expect_reports_equal(parallel, serial);
}

// --- Observability (src/obs/ wired through the engine) --------------------

// Distinct value of series `name` summed over its label sets.
std::uint64_t series_total(const obs::RegistrySnapshot& snapshot,
                           const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.name == name) total += static_cast<std::uint64_t>(m.value);
  }
  return total;
}

TEST(EngineObs, InjectedRegistryCountsRunLifecycle) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  EXPECT_EQ(&engine.metrics(), &registry);

  const KeyedTrace trace = multi_key_trace(3, 12, 55);
  engine.verify(trace);
  engine.verify(trace);
  engine.monitor(trace);

  const obs::RegistrySnapshot snap = engine.snapshot();
  EXPECT_EQ(series_total(snap, "kav_engine_runs_started_total"), 3u);
  EXPECT_EQ(series_total(snap, "kav_engine_runs_completed_total"), 3u);
  EXPECT_EQ(series_total(snap, "kav_engine_runs_cancelled_total"), 0u);
  // 3 keys per run, batch and monitor alike.
  EXPECT_EQ(series_total(snap, "kav_engine_keys_verified_total"), 9u);
  EXPECT_EQ(series_total(snap, "kav_engine_verdicts_total"), 9u);
  // The pool the engine owns reports into the same registry.
  EXPECT_GT(series_total(snap, "kav_pool_tasks_completed_total"), 0u);
  EXPECT_EQ(series_total(snap, "kav_pool_threads"), 2u);
  // A second engine on the default (global) registry shares nothing
  // with this one: the injected registry's totals stay put.
  Engine other;
  other.verify(trace);
  EXPECT_EQ(series_total(engine.snapshot(), "kav_engine_runs_started_total"),
            3u);
}

TEST(EngineObs, CancelledRunCountsAsCancelled) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.metrics = &registry;
  Engine engine(options);
  RunOptions run;
  run.cancel.cancel();  // pre-cancelled: every shard skips
  engine.verify(multi_key_trace(2, 8, 3), run);
  const obs::RegistrySnapshot snap = engine.snapshot();
  EXPECT_EQ(series_total(snap, "kav_engine_runs_cancelled_total"), 1u);
  EXPECT_EQ(series_total(snap, "kav_engine_runs_completed_total"), 0u);
  // The skipped shards are visible too, with their reason.
  EXPECT_EQ(series_total(snap, "kav_engine_shards_skipped_total"), 2u);
}

TEST(EngineObs, SnapshotIsCoherentDuringALiveRun) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);

  const KeyedTrace trace = multi_key_trace(4, 40, 91);
  PushTraceSource push(8);  // tiny capacity: the run stays live a while
  std::thread producer([&] {
    for (const KeyedOperation& kop : trace.ops) push.push(kop);
    push.close();
  });

  // Scrape continuously while the monitor run is in flight: counters
  // must be monotone between snapshots and the lifecycle invariant
  // started >= completed + cancelled must hold at every instant.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t last_ingested = 0;
    while (!done.load()) {
      const obs::RegistrySnapshot snap = engine.snapshot();
      const std::uint64_t ingested =
          series_total(snap, "kav_monitor_ops_ingested_total");
      EXPECT_GE(ingested, last_ingested);
      last_ingested = ingested;
      EXPECT_GE(series_total(snap, "kav_engine_runs_started_total"),
                series_total(snap, "kav_engine_runs_completed_total") +
                    series_total(snap, "kav_engine_runs_cancelled_total"));
    }
  });

  const Report report = engine.monitor(push);
  producer.join();
  done.store(true);
  scraper.join();

  EXPECT_EQ(report.monitor_totals.operations_ingested, trace.size());
  const obs::RegistrySnapshot snap = engine.snapshot();
  EXPECT_EQ(series_total(snap, "kav_monitor_ops_ingested_total"),
            trace.size());
  EXPECT_EQ(series_total(snap, "kav_engine_runs_completed_total"), 1u);
}

TEST(EngineObs, CatalogSpansEveryLayerWithAtLeast25Metrics) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);

  // Exercise every instrumented layer once: batch verify (pipeline +
  // verify counters), monitor (ingest), and a store round trip
  // (append, bloom-backed reads, maintenance, fsck).
  const KeyedTrace trace = multi_key_trace(3, 12, 19);
  engine.verify(trace);
  engine.monitor(trace);
  {
    const test::TempDir dir;
    auto store = engine.open_store(dir.path().string());
    store->append(trace);
    store->contains("key0");
    store->contains("no-such-key");
    store->run_maintenance();
    store->fsck();
  }

  std::set<std::string> names;
  const obs::RegistrySnapshot snap = engine.snapshot();
  for (const obs::MetricSnapshot& m : snap.metrics) names.insert(m.name);
  // The tentpole's acceptance floor: one scrape exposes the whole
  // stack. Every layer prefix must be present, and the catalog must
  // hold at least 25 distinct metric names.
  EXPECT_GE(names.size(), 25u) << [&] {
    std::string all;
    for (const std::string& n : names) all += n + "\n";
    return all;
  }();
  for (const char* prefix :
       {"kav_engine_", "kav_pool_", "kav_verify_", "kav_monitor_",
        "kav_store_"}) {
    EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                            [prefix](const std::string& n) {
                              return n.rfind(prefix, 0) == 0;
                            }))
        << "no metric with prefix " << prefix;
  }
}

TEST(BorrowedPool, MonitorQuiescesWithoutShuttingTheSharedPoolDown) {
  pipeline::ThreadPool pool(2);
  MonitorOptions options;
  {
    KeyedStreamingMonitor monitor(pool, options);
    for (int i = 0; i < 50; ++i) {
      monitor.ingest("k", make_write(i * 10, i * 10 + 5, i));
    }
    const MonitorReport report = monitor.finish();
    EXPECT_EQ(report.totals.operations_ingested, 50u);
  }  // destructor quiesces in-flight drains, must NOT shut the pool down
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

}  // namespace
}  // namespace kav
