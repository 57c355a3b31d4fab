// Tests for the streaming 2-AV monitor: agreement with batch FZF on
// whole traces, incremental eviction (bounded window), horizon
// violation detection, and watermark semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/fzf.h"
#include "core/streaming.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "quorum/sim.h"
#include "util/rng.h"

namespace kav {
namespace {

// Feeds a history in finish order, advancing the watermark to each
// operation's start (valid: later ops in finish order may still start
// earlier, so the watermark trails the minimum unseen start).
Verdict stream_history(const History& history, TimePoint horizon,
                       StreamingStats* stats_out = nullptr,
                       std::size_t* peak_window = nullptr) {
  StreamingOptions options;
  options.staleness_horizon = horizon;
  StreamingChecker checker(options);
  std::vector<OpId> order(history.by_start().begin(),
                          history.by_start().end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    checker.add(history.op(order[i]));
    // All future ops start after this op's start (start order).
    checker.advance_watermark(history.op(order[i]).start);
  }
  const Verdict verdict = checker.finish();
  if (stats_out != nullptr) *stats_out = checker.stats();
  if (peak_window != nullptr) *peak_window = checker.stats().peak_window;
  return verdict;
}

TEST(Streaming, EmptyStreamIsYes) {
  StreamingChecker checker;
  EXPECT_TRUE(checker.finish().yes());
}

TEST(Streaming, AgreesWithBatchOnKAtomicWorkloads) {
  Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    gen::KAtomicConfig config;
    config.writes = 30;
    config.k = 2;
    const History h = gen::generate_k_atomic(config, rng).history;
    const Verdict batch = check_2atomicity_fzf(h);
    const Verdict streamed = stream_history(h, /*horizon=*/1 << 20);
    ASSERT_TRUE(batch.yes());
    EXPECT_TRUE(streamed.yes()) << "trial " << t << ": " << streamed.reason;
  }
}

TEST(Streaming, AgreesWithBatchOnRandomMixes) {
  Rng rng(17);
  int yes = 0, no = 0;
  for (int t = 0; t < 150; ++t) {
    gen::RandomMixConfig config;
    config.operations = 12;
    config.staleness_decay = 0.6;
    const History h = gen::generate_random_mix(config, rng);
    const bool batch_yes = check_2atomicity_fzf(h).yes();
    const Verdict streamed = stream_history(h, /*horizon=*/1 << 20);
    ASSERT_EQ(streamed.yes(), batch_yes) << "trial " << t;
    ++(batch_yes ? yes : no);
  }
  EXPECT_GT(yes, 10);
  EXPECT_GT(no, 10);  // both verdicts exercised
}

TEST(Streaming, DetectsForcedSeparationMidStream) {
  const History h = gen::generate_forced_separation(2, 4);
  StreamingOptions options;
  options.staleness_horizon = 500;
  StreamingChecker checker(options);
  bool detected_before_finish = false;
  for (OpId id : h.by_start()) {
    checker.add(h.op(id));
    checker.advance_watermark(h.op(id).start);
    if (!checker.clean_so_far()) detected_before_finish = true;
  }
  EXPECT_TRUE(checker.finish().no());
  // With a tight horizon the violation surfaces before the trace ends.
  EXPECT_TRUE(detected_before_finish);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::not_2atomic);
}

TEST(Streaming, EvictsSettledPrefixes) {
  // Long sequential workload with a tight horizon: the window must stay
  // tiny relative to the trace.
  const History h = gen::generate_forced_separation(0, 400);  // 800 ops
  StreamingStats stats;
  std::size_t peak = 0;
  const Verdict v = stream_history(h, /*horizon=*/2000, &stats, &peak);
  EXPECT_TRUE(v.yes()) << v.reason;
  EXPECT_EQ(stats.operations_ingested, h.size());
  EXPECT_EQ(stats.operations_evicted, h.size());
  EXPECT_LT(peak, h.size() / 10) << "window did not stay bounded";
  EXPECT_GT(stats.chunks_verified, 100u);
}

TEST(Streaming, HorizonViolationReported) {
  // A read of a value whose write settled long ago.
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  checker.add(make_write(0, 10, 1));
  checker.add(make_read(20, 30, 1));
  checker.advance_watermark(10'000);  // the cluster settles and evicts
  EXPECT_TRUE(checker.clean_so_far());
  checker.add(make_read(10'050, 10'060, 1));  // way past the horizon
  const Verdict v = checker.finish();
  EXPECT_TRUE(v.no());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().back().kind,
            StreamingViolation::Kind::horizon_exceeded);
}

TEST(Streaming, OrphanReadIsHardAnomaly) {
  StreamingChecker checker;
  checker.add(make_read(0, 10, 99));
  const Verdict v = checker.finish();
  EXPECT_TRUE(v.no());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::hard_anomaly);
}

TEST(Streaming, DuplicateWriteValueFlagged) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 7));
  checker.add(make_write(20, 30, 7));
  checker.finish();
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::hard_anomaly);
}

TEST(Streaming, ReadBeforeItsWriteIsOneFindingAndTheWindowStaysBounded) {
  // The read finishes before its write starts, so the settled chunk
  // cannot be normalized. It must become one hard_anomaly finding and
  // leave the window; a throwing flush would never compact it.
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  checker.add(make_read(0, 5, 1));
  checker.add(make_write(10, 20, 1));
  std::size_t peak = 0;
  for (int i = 0; i < 20'000; ++i) {
    const TimePoint start = 30 + 20 * static_cast<TimePoint>(i);
    checker.add(make_write(start, start + 10, 2 + i));
    ASSERT_NO_THROW(checker.advance_watermark(start)) << "op " << i;
    peak = std::max(peak, checker.window_size());
  }
  Verdict verdict;
  ASSERT_NO_THROW(verdict = checker.finish());
  EXPECT_TRUE(verdict.no());
  ASSERT_EQ(checker.violations().size(), 1u);
  const StreamingViolation& found = checker.violations().front();
  EXPECT_EQ(found.kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_NE(found.detail.find("read-precedes-dictating-write"),
            std::string::npos)
      << found.detail;
  EXPECT_LT(peak, 32u) << "the anomalous chunk was never evicted";
  EXPECT_EQ(checker.stats().operations_evicted, 20'002u);
}

TEST(Streaming, MalformedOperationsAreFindingsAndTheWindowStaysBounded) {
  // No History can hold an operation with start >= finish, so a chunk
  // that kept one would fail on every flush and the window would never
  // compact. Each must be dropped on arrival as one hard_anomaly: here
  // a write whose zone lies inside the forward zone [10, 50] of value 1
  // and an orphan read.
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  checker.add(make_write(0, 10, 1));
  checker.add(make_write(20, 20, 100'000));
  checker.add(make_read(25, 15, 99));
  checker.add(make_read(50, 60, 1));
  std::size_t peak = 0;
  for (int i = 0; i < 2'000; ++i) {
    const TimePoint start = 30 + 20 * static_cast<TimePoint>(i);
    checker.add(make_write(start, start + 10, 2 + i));
    checker.add(make_read(start + 12, start + 15, 2 + i));
    ASSERT_NO_THROW(checker.advance_watermark(start)) << "op " << i;
    peak = std::max(peak, checker.window_size());
  }
  Verdict verdict;
  ASSERT_NO_THROW(verdict = checker.finish());
  EXPECT_TRUE(verdict.no());
  ASSERT_EQ(checker.violations().size(), 2u);
  for (const StreamingViolation& found : checker.violations()) {
    EXPECT_EQ(found.kind, StreamingViolation::Kind::hard_anomaly);
    EXPECT_NE(found.detail.find("malformed operation"), std::string::npos)
        << found.detail;
  }
  EXPECT_EQ(checker.violations()[0].detail,
            "malformed operation write(v=100000) [20, 20): start >= finish");
  EXPECT_LT(peak, 64u) << "the window stopped compacting";
  EXPECT_EQ(checker.stats().operations_ingested, 4'004u);
  EXPECT_EQ(checker.stats().operations_evicted, 4'004u);
}

// --- Chunk decision shapes ------------------------------------------------
// A settled chunk of one forward cluster is 2-atomic without a decider;
// any other chunk is normalized from its cluster layout and decided by
// FZF. These pin each shape's outcome and finding text.

StreamingChecker settle_all(const std::vector<Operation>& ops) {
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  for (const Operation& op : ops) checker.add(op);
  checker.advance_watermark(1'000);
  return checker;
}

TEST(Streaming, OneClusterChunkIsVerifiedWithoutAFinding) {
  // A forward zone [10, 20]; one read ties the write's finish and one
  // overlaps it, neither of which a one-cluster chunk needs repaired.
  const StreamingChecker checker =
      settle_all({make_write(0, 10, 1), make_read(20, 30, 1),
                  make_read(10, 25, 1), make_read(5, 12, 1)});
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.stats().chunks_verified, 1u);
  EXPECT_EQ(checker.stats().dangling_clusters, 0u);
  EXPECT_EQ(checker.stats().operations_evicted, 4u);
  EXPECT_EQ(checker.window_size(), 0u);
}

TEST(Streaming, ForwardAndBackwardChunkThatIsTwoAtomicHasNoFinding) {
  // Forward zone [10, 30] holds the backward zone [16, 20]: the order
  // w1, w2 explains every read with separation at most 1.
  const std::vector<Operation> ops = {
      make_write(0, 10, 1), make_read(30, 40, 1), make_write(15, 20, 2),
      make_read(16, 22, 2)};
  ASSERT_TRUE(check_2atomicity_fzf(normalize(History(ops))).yes());
  const StreamingChecker checker = settle_all(ops);
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.stats().chunks_verified, 1u);
  EXPECT_EQ(checker.stats().dangling_clusters, 0u);
  EXPECT_EQ(checker.window_size(), 0u);
}

TEST(Streaming, TwoForwardClusterChunkIsVerifiedWithoutAFinding) {
  // Forward zones [10, 25] and [15, 18] overlap into one run; a read of
  // 2 starts as w1 finishes, a tie a decider would need pass A for.
  // Order w1, w2 puts one write between value 1's late read and w1.
  const std::vector<Operation> ops = {
      make_write(0, 10, 1), make_write(5, 15, 2), make_read(10, 20, 2),
      make_read(18, 30, 2), make_read(25, 35, 1)};
  ASSERT_TRUE(check_2atomicity_fzf(normalize(History(ops))).yes());
  const StreamingChecker checker = settle_all(ops);
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.stats().chunks_verified, 1u);
  EXPECT_EQ(checker.stats().dangling_clusters, 0u);
  EXPECT_EQ(checker.stats().operations_evicted, 5u);
  EXPECT_EQ(checker.window_size(), 0u);
}

TEST(Streaming, ThreeAttachedBackwardClustersFailLemma43) {
  // Forward zone [10, 100] holds three backward zones: w2 [20, 30] and
  // w3 [30, 40] tie at 30 (pass A), and w4 outlives its read (pass B).
  const std::vector<Operation> ops = {
      make_write(20, 30, 2), make_write(0, 10, 1),  make_write(30, 40, 3),
      make_read(62, 65, 4),  make_write(60, 70, 4), make_read(100, 110, 1)};
  const StreamingChecker checker = settle_all(ops);
  ASSERT_EQ(checker.violations().size(), 1u);
  const StreamingViolation& found = checker.violations().front();
  EXPECT_EQ(found.kind, StreamingViolation::Kind::not_2atomic);
  EXPECT_EQ(found.when, 1'000);
  // The chunk in member order: forward clusters by zone low, then the
  // attached backward ones by zone low, each write before its reads.
  const std::vector<Operation> chunk = {
      make_write(0, 10, 1),  make_read(100, 110, 1), make_write(20, 30, 2),
      make_write(30, 40, 3), make_write(60, 70, 4),  make_read(62, 65, 4)};
  const Verdict batch = check_2atomicity_fzf(normalize(History(chunk)));
  ASSERT_TRUE(batch.no());
  EXPECT_NE(batch.reason.find("Lemma 4.3"), std::string::npos)
      << batch.reason;
  EXPECT_EQ(found.detail,
            "settled chunk over [10, 100] is not 2-atomic: " + batch.reason);
  EXPECT_EQ(checker.stats().chunks_verified, 1u);
  EXPECT_EQ(checker.window_size(), 0u);
}

TEST(Streaming, RewrittenValuesAreRememberedOnceEach) {
  // A key that keeps rewriting values from a small set (larger than the
  // window, so no two writes in it share a value) evicts the same value
  // over and over; horizon diagnostics must remember each value once,
  // not once per eviction.
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  for (int i = 0; i < 20'000; ++i) {
    const TimePoint start = 20 * static_cast<TimePoint>(i);
    checker.add(make_write(start, start + 10, 1 + i % 64));
    checker.advance_watermark(start);
    ASSERT_LE(checker.remembered_evicted_values(), 2'048u) << "op " << i;
  }
  EXPECT_TRUE(checker.finish().yes());
  EXPECT_EQ(checker.stats().operations_evicted, 20'000u);
  // An orphan read forces a lookup, which merges what is left.
  StreamingChecker probe(options);
  for (int i = 0; i < 5'000; ++i) {
    const TimePoint start = 20 * static_cast<TimePoint>(i);
    probe.add(make_write(start, start + 10, 1 + i % 64));
    probe.advance_watermark(start);
  }
  probe.advance_watermark(200'000);  // evicts every write
  probe.add(make_read(200'005, 200'008, 7));
  probe.advance_watermark(300'000);
  ASSERT_EQ(probe.violations().size(), 1u);
  EXPECT_EQ(probe.remembered_evicted_values(), 64u);
}

TEST(Streaming, QuorumTraceEndToEnd) {
  quorum::QuorumConfig config;
  config.replicas = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  config.keys = 1;
  config.clients = 4;
  config.ops_per_client = 40;
  config.seed = 11;
  const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
  const KeyedHistories split = split_by_key(sim.trace);
  const History h = normalize(split.per_key.begin()->second);
  const bool batch_yes = check_2atomicity_fzf(h).yes();
  const Verdict streamed = stream_history(h, /*horizon=*/1 << 20);
  EXPECT_EQ(streamed.yes(), batch_yes);
}

TEST(Streaming, WatermarkMonotonicityIsForgiving) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 1));
  checker.advance_watermark(100);
  checker.advance_watermark(50);  // regression ignored, not fatal
  checker.add(make_read(102, 110, 1));
  EXPECT_TRUE(checker.finish().yes());
}

TEST(Streaming, AddAfterFinishThrows) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 1));
  checker.finish();
  EXPECT_THROW(checker.add(make_write(20, 30, 2)), std::logic_error);
}

TEST(Streaming, StatsCountFlushes) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 1));
  checker.advance_watermark(5);
  checker.advance_watermark(6);
  checker.finish();
  EXPECT_GE(checker.stats().flushes, 3u);
  EXPECT_EQ(checker.stats().operations_ingested, 1u);
}

}  // namespace
}  // namespace kav
