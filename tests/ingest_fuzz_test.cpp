// Seeded property fuzzing of the ingest layer:
//
//   1. format round-trips -- text -> binary -> text and binary ->
//      text -> binary are byte-identical for randomized KeyedTraces
//      (any trace the text format can express);
//   2. monitor-vs-batch differential -- on randomized multi-key traces
//      delivered with bounded (in-slack, in-horizon) reordering, the
//      KeyedStreamingMonitor must flag exactly the keys the serial
//      batch oracle verify_keyed_trace(k=2) answers NO for, with zero
//      late arrivals and a window that never holds the whole trace.
//
//   3. parallel .kavb decode -- Engine::verify over a .kavb stream
//      (decoded on the pool, ingest/parallel_decode.h) returns the
//      in-memory Engine's report for every chunk size, thread count and
//      unindexed v2 shape; on malformed bytes it throws exactly what
//      drain() throws; a stop before the first chunk cancels the run.
//
// The master seed comes from KAV_FUZZ_SEED when set and is printed on
// every failure, so any finding reproduces with
//   KAV_FUZZ_SEED=<seed> ./ingest_fuzz_test
// KAV_FUZZ_TRIALS overrides the decode differential's trial count.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "ingest/keyed_monitor.h"
#include "ingest/parallel_decode.h"
#include "ingest/trace_source.h"
#include "pipeline/thread_pool.h"
#include "test_support.h"
#include "util/rng.h"

namespace kav {
namespace {

constexpr std::uint64_t kDefaultSeed = 0x1265357ULL;

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

std::string random_key(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.:/";
  const std::size_t length = 1 + rng.bounded(12);
  std::string key;
  for (std::size_t i = 0; i < length; ++i) {
    key.push_back(kAlphabet[rng.bounded(sizeof kAlphabet - 1)]);
  }
  return key;
}

// A trace with exotic-but-text-safe keys, negative times, optional
// client ids, and no structural invariants beyond start < finish --
// the formats must round-trip anything this shape.
KeyedTrace random_trace(Rng& rng) {
  KeyedTrace trace;
  const std::size_t keys = 1 + rng.bounded(6);
  std::vector<std::string> key_pool;
  for (std::size_t k = 0; k < keys; ++k) key_pool.push_back(random_key(rng));
  const std::size_t ops = rng.bounded(60);
  for (std::size_t i = 0; i < ops; ++i) {
    const TimePoint start =
        static_cast<TimePoint>(rng.bounded(4'000)) - 2'000;
    const TimePoint finish = start + 1 + static_cast<TimePoint>(
                                             rng.bounded(300));
    const auto value = static_cast<Value>(rng.bounded(1'000'000)) - 500'000;
    const ClientId client =
        rng.bernoulli(0.5) ? static_cast<ClientId>(rng.bounded(100))
                           : kNoClient;
    const Operation op{start, finish,
                       rng.bernoulli(0.4) ? OpType::write : OpType::read,
                       value, client};
    trace.add(key_pool[rng.bounded(key_pool.size())], op);
  }
  return trace;
}

TEST(IngestFuzz, FormatRoundTripsAreLossless) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed);
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);

    // text -> binary -> text: byte-identical text.
    const std::string text = format_trace(trace);
    std::stringstream text_in(text);
    std::stringstream binary_mid;
    convert_text_to_binary(text_in, binary_mid);
    std::stringstream text_out;
    convert_binary_to_text(binary_mid, text_out);
    ASSERT_EQ(text_out.str(), text);

    // binary -> text -> binary: byte-identical binary, across chunk
    // sizes on the original write (converters use the default size, so
    // compare against a default-size original).
    std::stringstream binary_in;
    write_binary_trace(binary_in, trace);
    const std::string binary = binary_in.str();
    std::stringstream text_mid;
    convert_binary_to_text(binary_in, text_mid);
    std::stringstream binary_out;
    convert_text_to_binary(text_mid, binary_out);
    ASSERT_EQ(binary_out.str(), binary);

    // And the parsed trace itself survives a binary round-trip through
    // a randomized chunk size.
    std::stringstream chunked;
    write_binary_trace(chunked, trace, 1 + rng.bounded(17));
    const KeyedTrace back = read_binary_trace(chunked);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(back.ops[i].key, trace.ops[i].key) << "op " << i;
      ASSERT_EQ(back.ops[i].op, trace.ops[i].op) << "op " << i;
    }
  }
}

// One random normalized per-key shard (no hard anomalies: the
// streaming checker reports those as its own findings, which the batch
// facade instead labels precondition_failed -- a deliberate contract
// difference the differential below sidesteps the same way
// tests/integration_test.cpp does).
History random_shard(Rng& rng) {
  if (rng.bounded(3) == 0) {
    gen::KAtomicConfig config;
    config.writes = 3 + static_cast<int>(rng.bounded(10));
    config.k = 1 + static_cast<int>(rng.bounded(2));
    return gen::generate_k_atomic(config, rng).history;
  }
  gen::RandomMixConfig config;
  config.operations = 8 + static_cast<int>(rng.bounded(24));
  config.write_fraction = 0.3 + 0.4 * rng.uniform_double();
  config.staleness_decay = 0.3 + 0.5 * rng.uniform_double();
  config.horizon = 400 + static_cast<TimePoint>(rng.bounded(3000));
  return gen::generate_random_mix(config, rng);
}

TEST(IngestFuzz, MonitorFlagsExactlyTheBatchNoKeys) {
  const std::uint64_t seed = fuzz_seed() ^ 0x1736e57ULL;
  Rng rng(seed);
  constexpr int kTrials = 25;
  constexpr TimePoint kSlack = 500;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (trial " + std::to_string(trial) + ")");
    const int keys = 1 + static_cast<int>(rng.bounded(8));
    KeyedTrace trace;
    for (int k = 0; k < keys; ++k) {
      const History shard = random_shard(rng);
      for (const Operation& op : shard.operations()) {
        trace.add("k" + std::to_string(k), op);
      }
    }

    // Arrival order: global start order perturbed by < kSlack. Sorting
    // by (start + jitter) with jitter in [0, kSlack) keeps every
    // arrival within the slack promise: if an op overtakes one that
    // starts earlier, the start gap is below kSlack.
    struct Arrival {
      TimePoint sort_key;
      std::size_t index;
    };
    std::vector<Arrival> arrivals;
    arrivals.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      arrivals.push_back(
          {trace.ops[i].op.start + static_cast<TimePoint>(rng.bounded(kSlack)),
           i});
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.sort_key < b.sort_key;
                     });

    VerifyOptions batch_options;
    batch_options.k = 2;
    const Report batch = verify_keyed_trace(trace, batch_options);

    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      MonitorOptions options;
      options.streaming.staleness_horizon = 1 << 24;  // in-horizon regime
      options.reorder_slack = kSlack;
      pipeline::ThreadPool pool(threads);
      KeyedStreamingMonitor monitor(pool, options);
      for (const Arrival& arrival : arrivals) {
        monitor.ingest(trace.ops[arrival.index]);
      }
      const MonitorReport report = monitor.finish();

      ASSERT_EQ(report.per_key.size(), batch.per_key.size());
      EXPECT_EQ(report.totals.late_arrivals, 0u);
      for (const auto& [key, result] : batch.per_key) {
        SCOPED_TRACE("key " + key);
        const Verdict& verdict = result.verdict;
        ASSERT_TRUE(report.per_key.count(key));
        const KeyMonitorResult& streamed = report.per_key.at(key);
        ASSERT_TRUE(verdict.decided()) << verdict.reason;
        EXPECT_EQ(streamed.violations.empty(), verdict.yes())
            << "batch: " << verdict.reason << "\nstreamed: "
            << (streamed.violations.empty()
                    ? "clean"
                    : streamed.violations.front().detail);
        EXPECT_EQ(streamed.verdict.yes(), verdict.yes());
      }
    }
  }
}

// --- Parallel .kavb decode ----------------------------------------------

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string binary_bytes(const KeyedTrace& trace, std::size_t records_per_chunk,
                         std::uint16_t version = kBinaryTraceVersion) {
  std::ostringstream out;
  write_binary_trace(out, trace, records_per_chunk, version);
  return out.str();
}

// Per-key shards from the generators, some keys joining only late in
// the stream, plus a few raw random keys: the verdicts mix YES, NO and
// precondition failures, and later chunks introduce new key-table
// entries.
KeyedTrace decode_trace(Rng& rng) {
  const std::size_t keys = 1 + rng.bounded(7);
  std::vector<std::vector<Operation>> shards;
  std::vector<std::size_t> joins;  // stream position where a key may start
  std::size_t total = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    const History shard = random_shard(rng);
    shards.emplace_back(shard.operations().begin(), shard.operations().end());
    total += shards.back().size();
  }
  for (std::size_t k = 0; k < keys; ++k) {
    joins.push_back(rng.bernoulli(0.3) ? rng.bounded(total + 1) : 0);
  }
  KeyedTrace trace;
  std::vector<std::size_t> next(keys, 0);
  while (trace.size() < total) {
    // Keys with operations left that have joined; when every key left
    // is still waiting, any of them.
    std::vector<std::size_t> ready;
    std::vector<std::size_t> left;
    for (std::size_t k = 0; k < keys; ++k) {
      if (next[k] == shards[k].size()) continue;
      left.push_back(k);
      if (trace.size() >= joins[k]) ready.push_back(k);
    }
    const std::vector<std::size_t>& pick = ready.empty() ? left : ready;
    const std::size_t k = pick[rng.bounded(pick.size())];
    trace.add("k" + std::to_string(k), shards[k][next[k]++]);
  }
  for (const KeyedOperation& kop : random_trace(rng).ops) trace.ops.push_back(kop);
  return trace;
}

void expect_reports_equal(const Report& got, const Report& want,
                          const std::string& context) {
  ASSERT_EQ(got.per_key.size(), want.per_key.size()) << context;
  for (const auto& [key, result] : want.per_key) {
    ASSERT_TRUE(got.per_key.count(key)) << context << " key " << key;
    const Verdict& a = got.per_key.at(key).verdict;
    const Verdict& b = result.verdict;
    ASSERT_EQ(a.outcome, b.outcome) << context << " key " << key;
    ASSERT_EQ(a.witness, b.witness) << context << " key " << key;
    ASSERT_EQ(a.reason, b.reason) << context << " key " << key;
    ASSERT_EQ(a.conflict, b.conflict) << context << " key " << key;
    ASSERT_TRUE(a.stats == b.stats) << context << " key " << key;
  }
  ASSERT_TRUE(got.verify_totals == want.verify_totals) << context;
  ASSERT_EQ(got.cancelled, want.cancelled) << context;
}

// parallel_decode over the file at `path`, never stopping.
GroupedDecode decode_file(const std::string& path, pipeline::ThreadPool& pool) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  GroupedDecode decoded =
      parallel_decode(fd, pool, [] { return std::string(); });
  if (fd >= 0) ::close(fd);
  return decoded;
}

std::unique_ptr<Engine> engine_with(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  return std::make_unique<Engine>(options);
}

TEST(ParallelDecode, ReportsMatchMemoryAcrossChunkSizesAndThreads) {
  const std::uint64_t seed = fuzz_seed() ^ 0xdec0deULL;
  Rng rng(seed);
  const test::TempDir dir;
  std::vector<std::unique_ptr<Engine>> engines;
  for (std::size_t threads : {1u, 2u, 8u}) {
    engines.push_back(engine_with(threads));
  }
  const int trials = fuzz_trials(40);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = decode_trace(rng);
    const Report want = engines.front()->verify(trace);
    const KeyGroups want_groups = group_by_key(trace);

    std::vector<std::pair<std::string, std::string>> files;  // name, bytes
    for (std::size_t chunk : {1u, 3u, 4096u}) {
      files.emplace_back("v1 chunk " + std::to_string(chunk),
                         binary_bytes(trace, chunk));
    }
    // Unsealed v2: a v2 header over a plain chunk stream, no footer.
    std::string unsealed = binary_bytes(trace, 1 + rng.bounded(5));
    unsealed[4] = static_cast<char>(kBinaryTraceVersion2);
    files.emplace_back("unsealed v2", unsealed);
    // v2 without its trailer: the index is gone, the stream ends at the
    // footer sentinel.
    std::string chopped =
        binary_bytes(trace, 1 + rng.bounded(5), kBinaryTraceVersion2);
    chopped.resize(chopped.size() - kBinaryTraceTrailerBytes);
    files.emplace_back("v2 without trailer", chopped);

    for (const auto& [name, bytes] : files) {
      const std::string path = dir.file("trace.kavb");
      write_bytes(path, bytes);
      for (const auto& engine : engines) {
        const std::string context =
            name + " threads " + std::to_string(engine->thread_count());
        // The decoder itself groups exactly as KeyGrouper does.
        const GroupedDecode decoded = decode_file(path, engine->pool());
        ASSERT_EQ(decoded.status, GroupedDecode::Status::done) << context;
        ASSERT_EQ(decoded.groups.keys, want_groups.keys) << context;
        ASSERT_EQ(decoded.groups.ops, want_groups.ops) << context;

        auto source = open_trace_source(path);
        ASSERT_NE(dynamic_cast<BinaryFileTraceSource*>(source.get()), nullptr)
            << context;
        expect_reports_equal(engine->verify(*source), want, context);
        // A decoded source is at its end, as a drained one is.
        KeyedOperation kop;
        EXPECT_FALSE(source->next(kop)) << context;
      }
    }
  }
}

// What `run` ends in: the summary it returns, or the exception's text.
template <typename Run>
std::string outcome_of(const Run& run) {
  try {
    return "ok: " + run();
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

std::string through_drain(Engine& engine, const std::string& path) {
  return outcome_of([&] {
    const KeyedTrace trace = drain(*open_trace_source(path));
    return engine.verify(trace).summary();
  });
}

std::string through_engine(Engine& engine, const std::string& path) {
  return outcome_of(
      [&] { return engine.verify(*open_trace_source(path)).summary(); });
}

TEST(ParallelDecode, MalformedBytesThrowWhatTheReaderThrows) {
  KeyedTrace trace;
  for (int i = 0; i < 12; ++i) {
    const TimePoint t = 10 * i;
    trace.add("key" + std::to_string(i % 3 + i / 6),
              i % 2 == 0 ? make_write(t, t + 5, i) : make_read(t, t + 5, i - 1));
  }
  const std::string good = binary_bytes(trace, 3);
  const test::TempDir dir;
  const std::string path = dir.file("bad.kavb");
  const auto engine = engine_with(8);

  std::vector<std::string> cases;
  // ingest_test's cases: bad magic, version 7, a record cut short, key
  // id 9 of a one-key table, a bad type byte.
  cases.push_back("not a kavb file at all");
  cases.push_back(good);
  cases.back()[4] = '\x07';
  cases.push_back(good.substr(0, good.size() - 5));
  {
    KeyedTrace one;
    one.add("k", make_write(0, 5, 1));
    std::string bytes = binary_bytes(one, 4096);
    bytes[8 + 8 + 3] = '\x09';
    cases.push_back(bytes);
    bytes = binary_bytes(one, 4096);
    bytes.back() = '\x05';
    cases.push_back(bytes);
  }
  // Every truncation, and every byte set to each of a few values.
  for (std::size_t size = 0; size < good.size(); ++size) {
    cases.push_back(good.substr(0, size));
  }
  for (std::size_t at = 0; at < good.size(); ++at) {
    for (const char value : {'\x00', '\x05', '\x07', '\x09', '\xff'}) {
      if (good[at] == value) continue;
      cases.push_back(good);
      cases.back()[at] = value;
    }
  }

  std::size_t threw = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    write_bytes(path, cases[i]);
    const std::string want = through_drain(*engine, path);
    ASSERT_EQ(through_engine(*engine, path), want) << "case " << i;
    threw += want.rfind("threw: ", 0) == 0 ? 1 : 0;
  }
  // The sweep must mostly exercise the error path.
  EXPECT_GT(threw, cases.size() / 2);
}

TEST(ParallelDecode, TheEarlierOfTwoCorruptChunksIsReported) {
  KeyedTrace trace;
  for (int i = 0; i < 64; ++i) {
    const TimePoint t = 10 * i;
    trace.add("key" + std::to_string(i % 5), make_write(t, t + 5, i));
  }
  // 4 records per chunk, one new key per chunk at most: chunk c's
  // payload is easy to find by walking the headers.
  std::string bytes = binary_bytes(trace, 4);
  std::vector<std::size_t> type_bytes;  // last byte of each chunk
  for (std::size_t at = kBinaryTraceHeaderBytes; at < bytes.size();) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + at);
    const std::uint32_t new_keys = wire::load_u32(p);
    const std::uint32_t records = wire::load_u32(p + 4);
    at += 8;
    for (std::uint32_t k = 0; k < new_keys; ++k) {
      at += 2 + wire::load_u16(
                    reinterpret_cast<const unsigned char*>(bytes.data() + at));
    }
    at += std::size_t{records} * kBinaryTraceRecordBytes;
    type_bytes.push_back(at - 1);
  }
  ASSERT_EQ(type_bytes.size(), 16u);
  bytes[type_bytes[3]] = '\x05';
  bytes[type_bytes[12]] = '\x05';
  const test::TempDir dir;
  const std::string path = dir.file("two_bad.kavb");
  write_bytes(path, bytes);

  const auto engine = engine_with(8);
  const std::string want = through_drain(*engine, path);
  EXPECT_EQ(through_engine(*engine, path), want);
  EXPECT_NE(want.find("at byte " + std::to_string(type_bytes[3]) + ":"),
            std::string::npos)
      << want;
  EXPECT_EQ(decode_file(path, engine->pool()).status,
            GroupedDecode::Status::declined);
}

TEST(ParallelDecode, AStopBeforeTheFirstChunkCancelsTheRun) {
  KeyedTrace trace;
  for (int i = 0; i < 100; ++i) {
    const TimePoint t = 10 * i;
    trace.add("key" + std::to_string(i % 7), make_write(t, t + 5, i));
  }
  const test::TempDir dir;
  const std::string path = dir.file("trace.kavb");
  write_bytes(path, binary_bytes(trace, 8));
  const auto engine = engine_with(2);

  RunOptions cancelled;
  cancelled.cancel.cancel();
  RunOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  for (const RunOptions* run : {&cancelled, &expired}) {
    auto source = open_trace_source(path);
    const Report report = engine->verify(*source, *run);
    EXPECT_TRUE(report.cancelled);
    EXPECT_NE(report.stop_reason.find("while reading binary:"),
              std::string::npos)
        << report.stop_reason;
    EXPECT_TRUE(report.per_key.empty());
    KeyedOperation kop;
    EXPECT_FALSE(source->next(kop));
  }
  EXPECT_EQ(engine->verify(*open_trace_source(path), cancelled)
                .stop_reason.rfind("cancelled by caller", 0),
            0u);
}

// A key string listed twice in the key table is legal to the serial
// reader, which merges the two ids into one key; the decoder leaves
// that file to it.
TEST(ParallelDecode, DuplicateKeyStringsFallBackToTheSerialReader) {
  std::string bytes = binary_bytes({}, 4096);
  for (int chunk = 0; chunk < 2; ++chunk) {
    wire::append_u32(bytes, 1);  // new_keys
    wire::append_u32(bytes, 1);  // records
    wire::append_u16(bytes, 1);
    bytes.push_back('a');
    append_record(bytes, static_cast<std::uint32_t>(chunk),
                  make_write(10 * chunk, 10 * chunk + 5, chunk + 1));
  }
  const test::TempDir dir;
  const std::string path = dir.file("dup.kavb");
  write_bytes(path, bytes);
  const auto engine = engine_with(2);
  EXPECT_EQ(decode_file(path, engine->pool()).status,
            GroupedDecode::Status::declined);
  const Report report = engine->verify(*open_trace_source(path));
  ASSERT_EQ(report.per_key.size(), 1u);
  EXPECT_EQ(through_engine(*engine, path), through_drain(*engine, path));
}

}  // namespace
}  // namespace kav
