// Crash-recovery matrix for the TraceStore commit protocols
// (src/store/fault_injection.h). For every named fault point and every
// mutating operation sequence, a forked child runs the operation with
// KAV_STORE_FAULT_POINT set and dies via _Exit at the injected step --
// no unwinding, no flushes, the closest a test gets to power loss.
// The parent then reopens the directory and asserts the store is
// bit-identical to a legal state:
//
//   - append: all-or-nothing -- exactly the pre-append content or the
//     post-append content, never a torn segment;
//   - compact: always the full pre-compact content -- in particular
//     total_records equality catches the historical double-replay bug
//     (fold renamed over victim #1 before unlinking victims 2..n, so a
//     crash in the window replayed the folded records twice);
//
// and that Engine::verify over the reopened store yields verdicts
// bit-identical to a run that never crashed. Registered under the
// 'crash' ctest label (fork-heavy; serial by nature, still fast).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "history/serialization.h"
#include "ingest/trace_source.h"
#include "store/fault_injection.h"
#include "store/trace_store.h"
#include "test_support.h"

namespace kav {
namespace {

namespace fs = std::filesystem;

using test::TempDir;

KeyedTrace trace_chunk(int base) {
  KeyedTrace trace;
  for (int i = 0; i < 6; ++i) {
    const TimePoint t = base + 10 * i;
    trace.add("k" + std::to_string(i % 3),
              i % 2 == 0 ? make_write(t, t + 5, base + i)
                         : make_read(t, t + 5, base + i - 1));
  }
  return trace;
}

// Per-key op-sequence equality -- the only order replay guarantees (v2
// segments regroup records into per-key blocks).
void expect_same_keyed_content(const KeyedTrace& a, const KeyedTrace& b) {
  const KeyedHistories sa = split_by_key(a);
  const KeyedHistories sb = split_by_key(b);
  ASSERT_EQ(sa.per_key.size(), sb.per_key.size());
  auto ita = sa.per_key.begin();
  auto itb = sb.per_key.begin();
  for (; ita != sa.per_key.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    ASSERT_EQ(ita->second.size(), itb->second.size()) << ita->first;
    for (std::size_t i = 0; i < ita->second.size(); ++i) {
      ASSERT_EQ(ita->second.op(static_cast<OpId>(i)),
                itb->second.op(static_cast<OpId>(i)))
          << ita->first << " op " << i;
    }
  }
}

enum class Op { append, compact };

// Child body: reopen the store with the fault armed and run the
// operation. Exits 0 when the fault point was not on the operation's
// path, kFaultExitCode when the injection fired, 43 on any exception
// (nothing on these paths should throw).
[[noreturn]] void run_child(const fs::path& dir, const char* point, Op op) {
  ::setenv("KAV_STORE_FAULT_POINT", point, 1);
  try {
    TraceStore store(dir);
    if (op == Op::append) {
      store.append(trace_chunk(300));
    } else {
      store.compact();
    }
  } catch (...) {
    std::_Exit(43);
  }
  std::_Exit(0);
}

// Forks, runs `run_child`, and returns the child's exit code.
int crash_run(const fs::path& dir, const char* point, Op op) {
  const pid_t pid = ::fork();
  if (pid == 0) run_child(dir, point, op);
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
  return WEXITSTATUS(status);
}

// Reopen-time invariants every recovered store must satisfy: only the
// MANIFEST and live segments on disk (every orphan swept), and a fully
// clean fsck.
void expect_recovered_clean(const fs::path& dir, const TraceStore& store) {
  std::size_t disk_segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST") continue;
    EXPECT_TRUE(store_detail::parse_segment_number(name).has_value())
        << "leftover file after recovery: " << name;
    ++disk_segments;
  }
  EXPECT_EQ(disk_segments, store.segment_count());
  const FsckReport report = store.fsck();
  EXPECT_TRUE(report.ok()) << (report.errors.empty()
                                   ? ""
                                   : report.errors.front());
}

// Bit-identical verdicts: the recovered store, verified through the
// Engine, must match the report computed from the expected content.
void expect_same_verdicts(const TraceStore& store,
                          const KeyedTrace& expected) {
  Engine engine;
  const Report reference = engine.verify(expected);
  auto source = store.open_source();
  const Report actual = engine.verify(*source);
  ASSERT_EQ(actual.per_key.size(), reference.per_key.size());
  for (const auto& [key, result] : actual.per_key) {
    const auto it = reference.per_key.find(key);
    ASSERT_NE(it, reference.per_key.end()) << key;
    EXPECT_EQ(result.verdict.outcome, it->second.verdict.outcome) << key;
    EXPECT_EQ(result.verdict.witness, it->second.verdict.witness) << key;
    EXPECT_EQ(result.verdict.reason, it->second.verdict.reason) << key;
  }
}

bool starts_with(std::string_view name, std::string_view prefix) {
  return name.substr(0, prefix.size()) == prefix;
}

TEST(StoreCrash, AppendIsAllOrNothingAtEveryFaultPoint) {
  for (const char* point : store_detail::kAllFaultPoints) {
    SCOPED_TRACE(point);
    TempDir dir(std::string("append_") + point);
    KeyedTrace before;
    {
      TraceStore store(dir.path());
      store.append(trace_chunk(0));
      store.append(trace_chunk(100));
      before = drain(*store.open_source());
    }
    KeyedTrace after = before;
    for (const KeyedOperation& kop : trace_chunk(300).ops) {
      after.ops.push_back(kop);
    }

    const int code = crash_run(dir.path(), point, Op::append);
    // Compaction-only points are not on the append path: the child
    // finishes normally. Every other point must fire.
    if (starts_with(point, "compact.")) {
      ASSERT_EQ(code, 0);
    } else {
      ASSERT_EQ(code, store_detail::kFaultExitCode);
    }

    TraceStore store(dir.path());
    expect_recovered_clean(dir.path(), store);
    const KeyedTrace recovered = drain(*store.open_source());
    // All-or-nothing: exactly the pre- or post-append content.
    const bool committed = store.total_records() == after.size();
    ASSERT_TRUE(committed || store.total_records() == before.size())
        << "torn append: " << store.total_records() << " records";
    const KeyedTrace& expected = committed ? after : before;
    expect_same_keyed_content(expected, recovered);
    expect_same_verdicts(store, expected);

    // The recovered store keeps working: numbering was not corrupted
    // by the crash, and a fresh append lands cleanly.
    store.append(trace_chunk(900));
    EXPECT_EQ(store.total_records(), expected.size() + 6u);
  }
}

TEST(StoreCrash, CompactNeverDuplicatesOrLosesRecords) {
  for (const char* point : store_detail::kAllFaultPoints) {
    SCOPED_TRACE(point);
    TempDir dir(std::string("compact_") + point);
    KeyedTrace before;
    {
      TraceStore store(dir.path());
      store.append(trace_chunk(0));
      store.append(trace_chunk(100));
      store.append(trace_chunk(200));
      before = drain(*store.open_source());
    }

    const int code = crash_run(dir.path(), point, Op::compact);
    // The append-only commit point is not on the compact path.
    if (std::string_view(point) == store_detail::kFaultAppendBeforeManifest) {
      ASSERT_EQ(code, 0);
    } else {
      ASSERT_EQ(code, store_detail::kFaultExitCode);
    }

    TraceStore store(dir.path());
    expect_recovered_clean(dir.path(), store);
    // Compaction never changes content. The record-count equality is
    // the regression teeth for the double-replay bug: replaying the
    // fold AND a victim would double-count here.
    ASSERT_EQ(store.total_records(), before.size())
        << "compaction crash changed the record count";
    expect_same_keyed_content(before, drain(*store.open_source()));
    expect_same_verdicts(store, before);
  }
}

}  // namespace
}  // namespace kav
