// BlockCursor and OpView: the zero-copy record path over a mapped
// segment. Covers the view accessors against the wire layout, cursor
// iteration across block shapes (single, many-per-block, one-per-
// block, multi-key interleavings, absent keys), decode_columns at
// every dispatch level, and -- the safety half of the equivalence
// contract -- an exhaustive single-byte corruption differential: for
// EVERY byte of a segment file, flipping it must leave read_key, the
// streaming cursor, and the column decoder in exact agreement (same
// operations or a std::runtime_error with the same message, offset
// included). See store/block_cursor.h for the contract this enforces.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "history/history.h"
#include "ingest/binary_trace.h"
#include "store/block_cursor.h"
#include "store/mapped_segment.h"
#include "store/segment_writer.h"
#include "test_support.h"
#include "util/simd.h"

namespace kav {
namespace {

using test::TempDir;

KeyedTrace sample_trace() {
  KeyedTrace trace;
  trace.add("alpha", make_write(0, 10, 42, 7));
  trace.add("alpha", make_read(12, 20, 42));
  trace.add("beta", make_write(-5, 3, 1));
  trace.add("alpha", make_write(25, 30, 43, 0));
  trace.add("beta", make_read(4, 9, 1, 3));
  trace.add("gamma", make_write(100, 110, 9));
  return trace;
}

std::string write_v2_file(const TempDir& dir, const std::string& name,
                          const KeyedTrace& trace,
                          std::size_t records_per_block = 4096) {
  const std::string path = dir.file(name);
  std::ofstream out(path, std::ios::binary);
  SegmentWriterOptions options;
  options.records_per_block = records_per_block;
  SegmentWriter writer(out, options);
  writer.add(trace);
  writer.finish();
  return path;
}

std::vector<Operation> ops_of(const KeyedTrace& trace,
                              const std::string& key) {
  std::vector<Operation> ops;
  for (const KeyedOperation& kop : trace.ops) {
    if (kop.key == key) ops.push_back(kop.op);
  }
  return ops;
}

std::vector<Operation> drain_with_views(const MappedSegment& segment,
                                        std::string_view key) {
  BlockCursor cursor(segment, key);
  std::vector<Operation> ops;
  OpView view;
  while (cursor.next(view)) ops.push_back(view.materialize());
  return ops;
}

TEST(OpView, DecodesEveryFieldFromTheWireLayout) {
  // One record laid out by hand at every interesting value: negative
  // times, a value with all byte patterns, an all-ones client id.
  std::string buffer;
  wire::append_u32(buffer, 7);                     // key id
  wire::append_i64(buffer, -1234567890123LL);      // start
  wire::append_i64(buffer, -1LL);                  // finish
  wire::append_i64(buffer, 0x0123456789ABCDEFLL);  // value
  wire::append_u32(buffer, static_cast<std::uint32_t>(-1));  // client
  buffer.push_back(static_cast<char>(1));          // type: write
  ASSERT_EQ(buffer.size(), kBinaryTraceRecordBytes);
  auto* record = reinterpret_cast<unsigned char*>(buffer.data());

  const OpView view(record);
  EXPECT_EQ(view.key_id(), 7u);
  EXPECT_EQ(view.start(), -1234567890123LL);
  EXPECT_EQ(view.finish(), -1);
  EXPECT_EQ(view.value(), 0x0123456789ABCDEFLL);
  EXPECT_EQ(view.client(), static_cast<ClientId>(-1));
  EXPECT_EQ(view.type(), OpType::write);
  EXPECT_TRUE(view.is_write());
  EXPECT_FALSE(view.is_read());
  EXPECT_EQ(view.raw(), record);

  record[32] = 0;
  EXPECT_EQ(view.type(), OpType::read);
  EXPECT_TRUE(view.is_read());

  const Operation op = view.materialize();
  EXPECT_EQ(op.start, view.start());
  EXPECT_EQ(op.finish, view.finish());
  EXPECT_EQ(op.value, view.value());
  EXPECT_EQ(op.client, view.client());
  EXPECT_EQ(op.type, OpType::read);
}

TEST(BlockCursor, StreamsEveryKeyInAddOrderAcrossBlockShapes) {
  TempDir dir("stream");
  const KeyedTrace trace = sample_trace();
  // One record per block, a mid-size split, and everything in one block.
  for (std::size_t records_per_block : {1ULL, 2ULL, 4096ULL}) {
    const std::string path = write_v2_file(
        dir, "s" + std::to_string(records_per_block) + ".kavb", trace,
        records_per_block);
    const MappedSegment segment(path);
    for (const std::string key : {"alpha", "beta", "gamma"}) {
      const std::vector<Operation> want = ops_of(trace, key);
      EXPECT_EQ(drain_with_views(segment, key), want)
          << key << " @block " << records_per_block;
      EXPECT_EQ(segment.read_key(key), want)
          << key << " @block " << records_per_block;
    }
  }
}

TEST(BlockCursor, AbsentKeyIsExhaustedImmediately) {
  TempDir dir("absent");
  const MappedSegment segment(
      write_v2_file(dir, "s.kavb", sample_trace()));
  BlockCursor cursor(segment, "no-such-key");
  EXPECT_EQ(cursor.remaining(), 0u);
  OpView view;
  EXPECT_FALSE(cursor.next(view));
  OperationColumns columns;
  cursor.decode_columns(columns);
  EXPECT_EQ(columns.size(), 0u);
}

TEST(BlockCursor, RemainingCountsDownFromTheIndex) {
  TempDir dir("remaining");
  const MappedSegment segment(
      write_v2_file(dir, "s.kavb", sample_trace(), 2));
  BlockCursor cursor(segment, "alpha");
  EXPECT_EQ(cursor.remaining(), 3u);
  OpView view;
  ASSERT_TRUE(cursor.next(view));
  EXPECT_EQ(cursor.remaining(), 2u);
  OperationColumns columns;
  cursor.decode_columns(columns);  // decodes the remaining two
  EXPECT_EQ(columns.size(), 2u);
  EXPECT_EQ(cursor.remaining(), 0u);
  EXPECT_FALSE(cursor.next(view));
}

TEST(BlockCursor, UnindexedSegmentThrowsLogicError) {
  TempDir dir("v1");
  const std::string path = dir.file("v1.kavb");
  write_binary_trace_file(path, sample_trace());  // v1: no index
  const MappedSegment segment(path);
  EXPECT_THROW(BlockCursor(segment, "alpha"), std::logic_error);
}

TEST(BlockCursor, DecodeColumnsAppendsAcrossCursors) {
  // load_key concatenates several segments into one column set; the
  // cursor must append after existing rows, never clobber them.
  TempDir dir("append");
  const KeyedTrace trace = sample_trace();
  const MappedSegment segment(write_v2_file(dir, "s.kavb", trace, 2));
  OperationColumns columns;
  BlockCursor(segment, "alpha").decode_columns(columns);
  BlockCursor(segment, "beta").decode_columns(columns);
  const std::vector<Operation> alpha = ops_of(trace, "alpha");
  const std::vector<Operation> beta = ops_of(trace, "beta");
  ASSERT_EQ(columns.size(), alpha.size() + beta.size());
  EXPECT_EQ(columns.starts[0], alpha[0].start);
  EXPECT_EQ(columns.starts[alpha.size()], beta[0].start);
  EXPECT_EQ(columns.types[alpha.size()], 1);  // beta's write
}

TEST(BlockCursor, DecodeColumnsIsIdenticalAtEveryDispatchLevel) {
  TempDir dir("levels");
  const KeyedTrace trace = sample_trace();
  const MappedSegment segment(write_v2_file(dir, "s.kavb", trace, 2));
  for (const std::string key : {"alpha", "beta", "gamma"}) {
    OperationColumns reference;
    BlockCursor(segment, key).decode_columns(reference, simd::Level::scalar);
    for (simd::Level level : {simd::Level::sse2, simd::Level::avx2}) {
      OperationColumns columns;
      BlockCursor(segment, key).decode_columns(columns, level);
      ASSERT_EQ(columns.size(), reference.size()) << key;
      EXPECT_EQ(columns.starts, reference.starts) << key;
      EXPECT_EQ(columns.finishes, reference.finishes) << key;
      EXPECT_EQ(columns.values, reference.values) << key;
      EXPECT_EQ(columns.clients, reference.clients) << key;
      EXPECT_EQ(columns.types, reference.types) << key;
    }
  }
}

// --- Corruption differential ----------------------------------------------

// Outcome of decoding one key through some path: the operations, or
// the exact error text. Comparing outcomes compares the contract.
struct DecodeOutcome {
  std::optional<std::vector<Operation>> ops;
  std::string error;

  bool operator==(const DecodeOutcome& other) const = default;
};

template <typename Fn>
DecodeOutcome outcome_of(Fn&& decode) {
  DecodeOutcome outcome;
  try {
    outcome.ops = decode();
  } catch (const std::runtime_error& e) {
    outcome.error = e.what();
  }
  return outcome;
}

TEST(BlockCursor, EverySingleByteCorruptionMatchesReadKeyExactly) {
  // Flip every byte of a small segment (two keys, two records per
  // block so corruption can hit chunk headers, key tables, records,
  // and the footer) and require the three decode paths to agree
  // byte-for-byte on the result -- operations or error message. This
  // is the enforcement of the header's equivalence contract under
  // arbitrary single-byte damage, not just the corruptions we thought
  // of.
  TempDir dir("corrupt");
  KeyedTrace trace;
  trace.add("a", make_write(0, 10, 1, 1));
  trace.add("b", make_write(5, 15, 2, 2));
  trace.add("a", make_read(12, 20, 1, 3));
  trace.add("a", make_write(25, 30, 2, 1));
  trace.add("b", make_read(16, 22, 2, 4));
  const std::string clean_path = write_v2_file(dir, "clean.kavb", trace, 2);
  std::string bytes;
  {
    std::ifstream in(clean_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());

  const std::string mutant_path = dir.file("mutant.kavb");
  std::size_t divergences = 0;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutant = bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0x41);
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    std::optional<MappedSegment> segment;
    try {
      segment.emplace(mutant_path);
    } catch (const std::exception&) {
      continue;  // open() failed identically for every path by sharing
    }
    if (!segment->indexed()) continue;  // version byte damage: no index
    for (const std::string key : {"a", "b"}) {
      const DecodeOutcome reference =
          outcome_of([&] { return segment->read_key(key); });
      const DecodeOutcome streamed =
          outcome_of([&] { return drain_with_views(*segment, key); });
      EXPECT_EQ(streamed, reference) << "next() at byte " << at << " key "
                                     << key;
      const DecodeOutcome columns = outcome_of([&] {
        OperationColumns decoded;
        BlockCursor(*segment, key).decode_columns(decoded);
        std::vector<Operation> ops;
        for (std::size_t i = 0; i < decoded.size(); ++i) {
          ops.push_back(Operation{
              decoded.starts[i], decoded.finishes[i],
              decoded.types[i] != 0 ? OpType::write : OpType::read,
              decoded.values[i], decoded.clients[i]});
        }
        return ops;
      });
      EXPECT_EQ(columns, reference) << "decode_columns at byte " << at
                                    << " key " << key;
      if (!reference.error.empty()) ++divergences;
    }
  }
  // Sanity: the sweep actually exercised corrupt-path agreement (some
  // byte flips must land in records and produce errors).
  EXPECT_GT(divergences, 0u);
}

}  // namespace
}  // namespace kav
