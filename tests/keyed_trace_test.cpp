// Tests for the key split (history/keyed_trace.h): KeyGrouper,
// group_by_key and split_by_key against a reference std::map grouping.
// The reference is the obvious construction -- std::map orders keys
// lexicographically, push_back keeps arrival order within a key -- so
// any disagreement in key set, key order or per-key operation order is
// a bug in the one-pass interning grouper.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "history/keyed_trace.h"
#include "util/rng.h"

namespace kav {
namespace {

using ReferenceGroups = std::map<std::string, std::vector<Operation>>;

ReferenceGroups reference_groups(const KeyedTrace& trace) {
  ReferenceGroups grouped;
  for (const KeyedOperation& kop : trace.ops) {
    grouped[kop.key].push_back(kop.op);
  }
  return grouped;
}

// Every operation gets a distinct interval and value, so a reordering
// within a key cannot go unnoticed.
KeyedTrace trace_over(const std::vector<std::string>& arrival_keys) {
  KeyedTrace trace;
  TimePoint t = 0;
  Value v = 1;
  for (const std::string& key : arrival_keys) {
    trace.add(key, (v % 3 == 0) ? make_read(t, t + 5, v - 1)
                                : make_write(t, t + 5, v));
    t += 10;
    ++v;
  }
  return trace;
}

void expect_matches_reference(const KeyedTrace& trace) {
  const ReferenceGroups reference = reference_groups(trace);

  const KeyGroups groups = group_by_key(trace);
  ASSERT_EQ(groups.keys.size(), reference.size());
  ASSERT_EQ(groups.ops.size(), reference.size());
  std::size_t i = 0;
  for (const auto& [key, ops] : reference) {
    SCOPED_TRACE("group " + std::to_string(i));
    EXPECT_EQ(groups.keys[i], key);
    EXPECT_EQ(groups.ops[i], ops);
    ++i;
  }

  const KeyedHistories split = split_by_key(trace);
  ASSERT_EQ(split.per_key.size(), reference.size());
  auto it = split.per_key.begin();
  for (const auto& [key, ops] : reference) {
    ASSERT_EQ(it->first, key);
    const std::span<const Operation> got = it->second.operations();
    EXPECT_EQ(std::vector<Operation>(got.begin(), got.end()), ops);
    ++it;
  }
  EXPECT_EQ(split.total_ops(), trace.size());
}

TEST(KeySplit, EmptyTrace) {
  const KeyedTrace trace;
  expect_matches_reference(trace);
  EXPECT_TRUE(group_by_key(trace).keys.empty());
  EXPECT_TRUE(split_by_key(trace).per_key.empty());
}

TEST(KeySplit, SingleKey) {
  const KeyedTrace trace = trace_over({"solo", "solo", "solo", "solo"});
  expect_matches_reference(trace);
  EXPECT_EQ(split_by_key(trace).keys(), std::vector<std::string>{"solo"});
}

TEST(KeySplit, KeysThatArePrefixesOfEachOther) {
  const KeyedTrace trace =
      trace_over({"abc", "a", "ab", "", "abc", "a", "abcd", "", "ab", "a"});
  expect_matches_reference(trace);
  EXPECT_EQ(split_by_key(trace).keys(),
            (std::vector<std::string>{"", "a", "ab", "abc", "abcd"}));
}

TEST(KeySplit, EmbeddedNulAndNonAsciiBytes) {
  const std::string nul_mid("a\0b", 3);
  const std::string nul_end("a\0", 2);
  const std::string nul_only("\0", 1);
  const std::string high("\xff\xfe", 2);
  const std::string utf8 = "caf\xc3\xa9";
  const KeyedTrace trace = trace_over({nul_mid, "a", nul_end, high, utf8,
                                       nul_only, nul_mid, "a", high, nul_end,
                                       "cafe", utf8, nul_only});
  expect_matches_reference(trace);
  // Bytes compare unsigned, NUL included, exactly as std::string does:
  // "\xff" sorts after every ASCII key, and "a" < "a\0" < "a\0b".
  EXPECT_EQ(split_by_key(trace).keys(),
            (std::vector<std::string>{nul_only, "a", nul_end, nul_mid, "cafe",
                                      utf8, high}));
}

TEST(KeySplit, RandomInterleavingsMatchTheReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::string> names;
    const std::int64_t key_count = rng.uniform(1, 40);
    for (std::int64_t k = 0; k < key_count; ++k) {
      std::string name(static_cast<std::size_t>(rng.uniform(0, 20)), '\0');
      for (char& c : name) c = static_cast<char>(rng.uniform(0, 255));
      names.push_back(std::move(name));
    }
    std::vector<std::string> arrivals;
    const std::int64_t ops = rng.uniform(0, 400);
    for (std::int64_t i = 0; i < ops; ++i) {
      arrivals.push_back(names[static_cast<std::size_t>(
          rng.uniform(0, key_count - 1))]);
    }
    expect_matches_reference(trace_over(arrivals));
  }
}

TEST(KeyGrouper, KeepPredicateDropsOperationsButRecordsKeys) {
  const KeyedTrace trace = trace_over({"b", "a", "c", "b", "a", "b"});
  int asked = 0;
  KeyGrouper grouper([&asked](std::string_view key) {
    ++asked;
    return key != "b";
  });
  for (const KeyedOperation& kop : trace.ops) grouper.add(kop.key, kop.op);
  const KeyGroups groups = std::move(grouper).finish();
  EXPECT_EQ(asked, 3);  // once per distinct key, not per operation
  EXPECT_EQ(groups.keys, (std::vector<std::string>{"a", "b", "c"}));
  const ReferenceGroups reference = reference_groups(trace);
  EXPECT_EQ(groups.ops[0], reference.at("a"));
  EXPECT_TRUE(groups.ops[1].empty());
  EXPECT_EQ(groups.ops[2], reference.at("c"));
}

}  // namespace
}  // namespace kav
