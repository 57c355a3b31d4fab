// Online (streaming) 2-atomicity monitoring -- the experiment Section
// VII of the paper proposes ("test whether existing storage systems
// provide 2-atomicity in practice") needs a checker that runs against
// a live trace without retaining it forever.
//
// The enabling observation is FZF's Lemma 4.1: maximal chunks are
// decided independently, so once a chunk can no longer grow it can be
// verified and evicted. A chunk can stop growing only when no future
// operation may join or bridge it, which requires two promises:
//
//   1. a *watermark*: the caller guarantees every future operation
//      starts after the watermark (true when feeding completed
//      operations in start order, or with bounded reordering);
//   2. a *staleness horizon* H: every read starts at most H after its
//      dictating write finishes. Reads that violate the horizon are
//      detected (their write's cluster is gone) and reported -- for a
//      monitor, "staleness exceeded H" is itself the finding.
//
// Under those promises, every cluster whose zone lies below
// (watermark - H) is final, and chunks composed of final clusters
// whose extents lie below that line are verified with the batch FZF
// machinery and evicted. Memory is O(window), not O(trace).
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_STREAMING_H
#define KAV_CORE_STREAMING_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/verdict.h"
#include "history/history.h"

namespace kav {

struct StreamingOptions {
  // Maximum assumed gap between a write's finish and the start of its
  // last dictated read. Reads arriving later are horizon violations.
  TimePoint staleness_horizon = 10'000;
};

struct StreamingStats {
  std::uint64_t operations_ingested = 0;
  std::uint64_t operations_evicted = 0;
  std::uint64_t chunks_verified = 0;
  std::uint64_t dangling_clusters = 0;
  std::uint64_t flushes = 0;
  std::size_t peak_window = 0;  // max ops buffered at once
};

struct StreamingViolation {
  enum class Kind : unsigned char {
    not_2atomic,        // a settled chunk failed Stage 2
    horizon_exceeded,   // read of an already-evicted write
    hard_anomaly,       // read without dictating write, duplicate write
                        // value, a settled chunk whose read precedes
                        // its write, or a malformed operation
    late_arrival,       // ingest: arrival beyond the reorder slack
                        // (reported by ingest/keyed_monitor.h, never by
                        // StreamingChecker itself)
  };
  Kind kind;
  TimePoint when;      // watermark at detection time
  std::string detail;
};

class StreamingChecker {
 public:
  explicit StreamingChecker(const StreamingOptions& options = {});

  // Ingest one completed operation. Operations may arrive in any order
  // as long as each starts after the current watermark was honored
  // (i.e. op.start > last advance_watermark argument is NOT required
  // for ops already in flight; it is required that no *future* add()
  // has start <= watermark). A malformed operation (start >= finish)
  // is dropped as one hard_anomaly finding; it counts as ingested and
  // evicted.
  void add(const Operation& op);

  // Promise: every operation added after this call starts strictly
  // after `t`. Triggers verification and eviction of settled chunks.
  void advance_watermark(TimePoint t);

  // Flush everything (equivalent to watermark = +infinity) and return
  // the overall verdict: YES iff no violation was ever detected.
  Verdict finish();

  // Reuse hook: returns the checker to its freshly-constructed state
  // (same options), so long-lived monitors can recycle instances
  // instead of reallocating one per stream.
  void reset();

  bool clean_so_far() const { return violations_.empty(); }
  TimePoint watermark() const { return watermark_; }
  const std::vector<StreamingViolation>& violations() const {
    return violations_;
  }
  const StreamingStats& stats() const { return stats_; }
  std::size_t window_size() const { return window_.size(); }
  // Evicted write values remembered for horizon diagnostics: each
  // distinct value once, plus a not-yet-merged tail no longer than the
  // merged part (or a small constant).
  std::size_t remembered_evicted_values() const {
    return evicted_values_.size();
  }

 private:
  void flush_settled(TimePoint settled_before);
  // Whether a write of `value` was ever evicted (horizon diagnostics).
  bool was_evicted(Value value);
  // Sorts the unmerged tail of evicted_values_ into the sorted prefix
  // and drops duplicates.
  void merge_evicted();

  StreamingOptions options_;
  std::vector<Operation> window_;
  // Values of evicted writes, for horizon diagnostics: appended on
  // eviction and merged (deduplicated) into the sorted prefix
  // [0, evicted_sorted_) when a lookup needs it or the tail outgrows
  // the prefix, so evictions never allocate per value and a key that
  // rewrites a few values keeps a few entries.
  std::vector<Value> evicted_values_;
  std::size_t evicted_sorted_ = 0;
  std::vector<StreamingViolation> violations_;
  StreamingStats stats_;
  TimePoint watermark_ = kTimeMin;
  TimePoint min_window_finish_ = kTimeMax;  // flush fast-path guard
  bool finished_ = false;
};

}  // namespace kav

#endif  // KAV_CORE_STREAMING_H
