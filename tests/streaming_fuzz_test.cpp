// Differential fuzz of the streaming checker's flush: the production
// StreamingChecker (sort-based clustering over reused scratch buffers,
// chunks decided from the cluster layout) against the original
// hash-map re-clustering flush kept in tests/reference_streaming.h,
// which decides every chunk through a raw History, normalize and FZF.
// Both are fed the same hostile streams -- duplicate write values,
// orphan reads, reads past the staleness horizon, reads that precede
// their write, malformed operations, coarse-clock stamps that tie and
// writes that outlive their reads, start-order and finish-order feeds,
// random watermark jumps -- and must agree on violations() (kind, when,
// detail), stats() and window_size() after every call, and on any
// exception a call throws.
//
// The master seed comes from KAV_FUZZ_SEED when set and is printed on
// every failure; KAV_FUZZ_TRIALS overrides the trial count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "reference_streaming.h"
#include "util/rng.h"

namespace kav {
namespace {

constexpr std::uint64_t kDefaultSeed = 0x5713EA3ULL;

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("KAV_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

int fuzz_trials(int fallback) {
  if (const char* env = std::getenv("KAV_FUZZ_TRIALS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  return fallback;
}

// A stream with every shape the checker must survive. Values come from
// a small pool so duplicates are common; some reads name values no
// write ever stores, some name writes that start after the read ends,
// some arrive long after their write (past a small horizon), and a few
// operations are malformed (start >= finish).
std::vector<Operation> hostile_stream(Rng& rng) {
  std::vector<Operation> ops;
  const int count = static_cast<int>(rng.uniform(1, 120));
  const Value pool = rng.uniform(4, 60);
  TimePoint cursor = rng.uniform(-50, 50);
  std::vector<Value> written;
  for (int i = 0; i < count; ++i) {
    cursor += rng.uniform(0, 12);
    const TimePoint start = cursor + rng.uniform(-6, 6);
    const TimePoint finish = rng.bernoulli(0.02)
                                 ? start - rng.uniform(0, 3)
                                 : start + rng.uniform(1, 40);
    const std::uint64_t shape = rng.bounded(10);
    if (shape < 4 || written.empty()) {
      const Value value = rng.bernoulli(0.15) && !written.empty()
                              ? written[rng.bounded(written.size())]
                              : rng.uniform(1, pool);
      written.push_back(value);
      ops.push_back(make_write(start, finish, value));
    } else if (shape < 7) {
      // A recent write, occasionally an old one (past the horizon).
      const std::size_t back =
          std::min<std::size_t>(written.size() - 1, rng.bounded(3));
      const Value value = rng.bernoulli(0.1)
                              ? written[rng.bounded(written.size())]
                              : written[written.size() - 1 - back];
      ops.push_back(make_read(start, finish, value));
    } else if (shape < 8) {
      ops.push_back(make_read(start, finish, pool + 1 + rng.uniform(0, 5)));
    } else {
      // A value that may only be written later: the read can precede
      // its dictating write.
      ops.push_back(make_read(start, finish, rng.uniform(1, pool)));
    }
  }
  return ops;
}

// A well-formed random mix, so chunks also reach FZF with both answers.
std::vector<Operation> mix_stream(Rng& rng) {
  gen::RandomMixConfig config;
  config.operations = static_cast<int>(rng.uniform(4, 60));
  config.horizon = 40 * config.operations;
  config.max_duration = rng.uniform(5, 120);
  config.staleness_decay = 0.6;
  const History h = gen::generate_random_mix(config, rng);
  return {h.operations().begin(), h.operations().end()};
}

// Well-formed operations on a coarse clock: every stamp is a multiple
// of one tick, so starts and finishes often tie, and a read often
// finishes no later than its write. Chunks of several clusters then
// reach FZF only after pass-A tie breaks and pass-B write shortening.
// Reads start no earlier than their write, so none precedes it.
std::vector<Operation> coarse_clock_stream(Rng& rng) {
  std::vector<Operation> ops;
  const int count = static_cast<int>(rng.uniform(4, 80));
  const TimePoint tick = rng.uniform(5, 20);
  TimePoint cursor = 0;
  Value next_value = 1;
  std::vector<Value> written;
  for (int i = 0; i < count; ++i) {
    cursor += tick * rng.uniform(0, 1);
    if (written.empty() || rng.bernoulli(0.3)) {
      written.push_back(next_value);
      ops.push_back(make_write(cursor, cursor + tick * rng.uniform(1, 6),
                               next_value++));
    } else {
      const TimePoint finish = cursor + tick * rng.uniform(1, 3);
      const std::size_t back =
          std::min<std::size_t>(written.size() - 1, rng.bounded(3));
      ops.push_back(
          make_read(cursor, finish, written[written.size() - 1 - back]));
    }
  }
  return ops;
}

// Whether a stream ties two stamps and has a write that outlives one of
// its reads: the two repairs normalization makes.
bool needs_both_repairs(const std::vector<Operation>& ops) {
  const AnomalyReport report = find_anomalies(History(ops));
  const auto has = [&report](AnomalyKind kind) {
    return std::any_of(report.anomalies.begin(), report.anomalies.end(),
                       [kind](const Anomaly& a) { return a.kind == kind; });
  };
  return has(AnomalyKind::duplicate_timestamp) &&
         has(AnomalyKind::write_outlives_dictated_read);
}

struct Checkers {
  StreamingChecker fast;
  reference::ReferenceStreamingChecker slow;
};

// Runs `call` on both checkers and requires identical observable state
// (or the identical exception) afterwards.
void step(Checkers& c, const std::function<void(StreamingChecker&)>& fast,
          const std::function<void(reference::ReferenceStreamingChecker&)>&
              slow,
          const std::string& where) {
  std::string fast_error = "(none)";
  std::string slow_error = "(none)";
  try {
    fast(c.fast);
  } catch (const std::exception& e) {
    fast_error = e.what();
  }
  try {
    slow(c.slow);
  } catch (const std::exception& e) {
    slow_error = e.what();
  }
  ASSERT_EQ(fast_error, slow_error) << where;
  const auto& a = c.fast.violations();
  const auto& b = c.slow.violations();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind) << where << " violation " << i;
    ASSERT_EQ(a[i].when, b[i].when) << where << " violation " << i;
    ASSERT_EQ(a[i].detail, b[i].detail) << where << " violation " << i;
  }
  const StreamingStats& x = c.fast.stats();
  const StreamingStats& y = c.slow.stats();
  ASSERT_EQ(x.operations_ingested, y.operations_ingested) << where;
  ASSERT_EQ(x.operations_evicted, y.operations_evicted) << where;
  ASSERT_EQ(x.chunks_verified, y.chunks_verified) << where;
  ASSERT_EQ(x.dangling_clusters, y.dangling_clusters) << where;
  ASSERT_EQ(x.flushes, y.flushes) << where;
  ASSERT_EQ(x.peak_window, y.peak_window) << where;
  ASSERT_EQ(c.fast.window_size(), c.slow.window_size()) << where;
}

TEST(StreamingFuzz, SortedFlushMatchesTheReferenceOnHostileStreams) {
  const std::uint64_t seed = fuzz_seed();
  const int trials = fuzz_trials(3000);
  Rng rng(seed);
  // Trials whose findings include each shape, keyed by a detail
  // fragment, so a generator drift that stops producing one shows up.
  std::vector<std::pair<std::string, int>> shapes = {
      {"duplicate write value", 0},
      {"read without dictating write", 0},
      {"staleness horizon", 0},
      {"has a hard anomaly", 0},
      {"is not 2-atomic", 0},
      {"malformed operation", 0},
  };
  int coarse_with_both_repairs = 0;
  std::uint64_t chunks = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string where_trial = "seed " + std::to_string(seed) +
                                    " trial " + std::to_string(trial);
    const std::uint64_t shape = rng.bounded(10);
    std::vector<Operation> ops;
    if (shape < 6) {
      ops = hostile_stream(rng);
    } else if (shape < 8) {
      ops = mix_stream(rng);
    } else {
      ops = coarse_clock_stream(rng);
      coarse_with_both_repairs += needs_both_repairs(ops);
    }
    const bool by_finish = rng.bernoulli(0.5);
    std::sort(ops.begin(), ops.end(),
              [by_finish](const Operation& a, const Operation& b) {
                return by_finish ? a.finish < b.finish : a.start < b.start;
              });
    StreamingOptions options;
    options.staleness_horizon = rng.uniform(1, 200);
    Checkers c{StreamingChecker(options),
               reference::ReferenceStreamingChecker(options)};
    TimePoint jump = kTimeMin;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Operation op = ops[i];
      const std::string where = where_trial + " op " + std::to_string(i);
      step(
          c, [&op](StreamingChecker& k) { k.add(op); },
          [&op](reference::ReferenceStreamingChecker& k) { k.add(op); },
          where + " add");
      if (::testing::Test::HasFatalFailure()) return;
      // The promised watermark (this op's start in a start-order feed),
      // a random jump that may break the promise, or no flush at all.
      TimePoint mark = op.start;
      const std::uint64_t kind = rng.bounded(8);
      if (kind == 0) continue;
      if (kind == 1) {
        jump = std::max(jump, op.finish) + rng.uniform(0, 400);
        mark = jump;
      }
      step(
          c, [mark](StreamingChecker& k) { k.advance_watermark(mark); },
          [mark](reference::ReferenceStreamingChecker& k) {
            k.advance_watermark(mark);
          },
          where + " watermark " + std::to_string(mark));
      if (::testing::Test::HasFatalFailure()) return;
    }
    step(
        c, [](StreamingChecker& k) { k.finish(); },
        [](reference::ReferenceStreamingChecker& k) { k.finish(); },
        where_trial + " finish");
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(c.fast.window_size(), 0u) << where_trial;
    for (auto& [fragment, seen] : shapes) {
      seen += std::any_of(c.fast.violations().begin(),
                          c.fast.violations().end(),
                          [&fragment](const StreamingViolation& v) {
                            return v.detail.find(fragment) !=
                                   std::string::npos;
                          });
    }
    chunks += c.fast.stats().chunks_verified;
  }
  // Every hostile shape shows up, coarse clocks need both repairs, and
  // chunks still settle through FZF.
  if (trials >= 100) {
    for (const auto& [fragment, seen] : shapes) {
      EXPECT_GT(seen, trials / 100) << fragment;
    }
    EXPECT_GT(coarse_with_both_repairs, trials / 100);
    EXPECT_GT(chunks, static_cast<std::uint64_t>(trials));
  }
}

}  // namespace
}  // namespace kav
