// Tests for the text trace format: round-trips, parse errors with line
// numbers, and interop with the keyed verification pipeline.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "gen/generators.h"
#include "history/serialization.h"
#include "quorum/sim.h"
#include "test_support.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(Serialization, ParsesMinimalTrace) {
  const std::string text =
      "# kav trace v1\n"
      "op k0 W 1 0 10\n"
      "op k0 R 1 12 20 3\n"
      "\n"
      "# comment line\n"
      "op k1 W 2 0 10\n";
  const KeyedTrace trace = parse_trace(text);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.ops[0].key, "k0");
  EXPECT_TRUE(trace.ops[0].op.is_write());
  EXPECT_EQ(trace.ops[1].op.client, 3);
  EXPECT_EQ(trace.ops[2].key, "k1");
}

TEST(Serialization, RoundTripPreservesEverything) {
  KeyedTrace trace;
  trace.add("alpha", make_write(0, 10, 42, 7));
  trace.add("alpha", make_read(12, 20, 42));
  trace.add("beta", make_write(-5, 3, 1));
  const KeyedTrace back = parse_trace(format_trace(trace));
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back.ops[i].key, trace.ops[i].key);
    EXPECT_EQ(back.ops[i].op, trace.ops[i].op);
  }
}

TEST(Serialization, RoundTripGeneratedHistory) {
  Rng rng(12);
  gen::KAtomicConfig config;
  config.writes = 20;
  const History h = gen::generate_k_atomic(config, rng).history;
  const History back = parse_history(format_history(h));
  ASSERT_EQ(back.size(), h.size());
  for (OpId i = 0; i < h.size(); ++i) {
    // Client defaults may differ (unset stays unset); compare payload.
    EXPECT_EQ(back.op(i).start, h.op(i).start);
    EXPECT_EQ(back.op(i).finish, h.op(i).finish);
    EXPECT_EQ(back.op(i).type, h.op(i).type);
    EXPECT_EQ(back.op(i).value, h.op(i).value);
  }
}

TEST(Serialization, RoundTripSimulatorTrace) {
  quorum::QuorumConfig config;
  config.ops_per_client = 10;
  const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
  const KeyedTrace back = parse_trace(format_trace(sim.trace));
  ASSERT_EQ(back.size(), sim.trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.ops[i].op, sim.trace.ops[i].op);
  }
}

TEST(Serialization, ErrorsCarryLineNumbers) {
  try {
    parse_trace("op k0 W 1 0 10\nbogus line here\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Serialization, RejectsBadType) {
  EXPECT_THROW(parse_trace("op k0 X 1 0 10\n"), std::runtime_error);
}

TEST(Serialization, RejectsBadInterval) {
  EXPECT_THROW(parse_trace("op k0 W 1 10 10\n"), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedLine) {
  EXPECT_THROW(parse_trace("op k0 W 1 0\n"), std::runtime_error);
}

TEST(Serialization, ParseHistoryRejectsMultiKey) {
  EXPECT_THROW(parse_history("op a W 1 0 10\nop b W 2 0 10\n"),
               std::runtime_error);
}

TEST(Serialization, FileRoundTrip) {
  KeyedTrace trace;
  trace.add("k", make_write(0, 10, 1));
  const test::TempDir dir;
  const std::string path = dir.file("trace.txt");
  write_trace_file(path, trace);
  const KeyedTrace back = read_trace_file(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.ops[0].op, trace.ops[0].op);
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/trace.txt"),
               std::runtime_error);
}

TEST(Serialization, CrlfTolerated) {
  const KeyedTrace trace = parse_trace("op k0 W 1 0 10\r\nop k0 R 1 12 20\r\n");
  EXPECT_EQ(trace.size(), 2u);
}

TEST(Serialization, TrailingWhitespaceTolerated) {
  const KeyedTrace trace = parse_trace(
      "op k0 W 1 0 10   \n"
      "op k0 R 1 12 20 3\t \r\n"
      "   \t\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.ops[1].op.client, 3);
}

TEST(Serialization, TabSeparatedFieldsTolerated) {
  const KeyedTrace trace = parse_trace("op\tk0\tW\t1\t0\t10\n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.ops[0].key, "k0");
}

TEST(Serialization, ErrorsQuoteTheOffendingToken) {
  try {
    parse_trace("op k0 W 1 0 10\nop k1 W banana 0 10\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("'banana'"), std::string::npos) << what;
    EXPECT_NE(what.find("value"), std::string::npos) << what;
  }
}

TEST(Serialization, BadTypeErrorQuotesToken) {
  try {
    parse_trace("op k0 X 1 0 10\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'X'"), std::string::npos);
  }
}

TEST(Serialization, RejectsTrailingJunkWithToken) {
  try {
    parse_trace("op k0 W 1 0 10 3 surprise\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'surprise'"), std::string::npos);
  }
}

TEST(Serialization, RejectsOutOfRangeClient) {
  EXPECT_THROW(parse_trace("op k0 W 1 0 10 99999999999\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace kav
