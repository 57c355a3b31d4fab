#include "core/streaming.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fzf.h"
#include "history/anomaly.h"

namespace kav {

namespace {

// Per-thread scratch for flush_settled. A flush re-clusters the whole
// window, and a monitor flushes after every drain pass, so the buffers
// are kept and reused instead of rebuilt per flush. Checkers are not
// thread-safe and a flush never re-enters itself (FZF does not call
// back), so one set per thread serves every checker that thread runs.
//
// Clustering is sort-based: every window position becomes a Slot, and
// sorting the slots by (value, writes first, position) lays each
// value's cluster out contiguously -- its first write is the cluster's
// write, later writes are duplicates, and the reads follow in window
// order. Positions are 32-bit (flush_settled checks the window size).
struct Slot {
  Value value = 0;
  std::uint32_t pos = 0;
  bool read = false;

  bool operator<(const Slot& other) const {
    if (value != other.value) return value < other.value;
    if (read != other.read) return !read;  // writes first
    return pos < other.pos;
  }
};

// Raw (pre-normalization) zone of a cluster given window positions.
struct RawCluster {
  std::uint32_t write_pos = 0;
  std::uint32_t reads_begin = 0;  // slots[reads_begin, reads_end): reads
  std::uint32_t reads_end = 0;
  TimePoint min_finish = kTimeMax;
  TimePoint max_start = kTimeMin;
  bool settled = false;  // no further reads can arrive
  bool attached = false;  // backward cluster inside a forward run
  bool read_before_write = false;  // a read finishes before the write starts

  TimePoint low() const { return std::min(min_finish, max_start); }
  TimePoint high() const { return std::max(min_finish, max_start); }
  bool forward() const { return min_finish < max_start; }
};

// A maximal run of overlapping forward zones: forward[f_begin, f_end)
// are its members, and backward[b_begin, b_end) the backward clusters
// whose low falls in it (those with `attached` set are inside it).
struct Run {
  TimePoint lo = 0;
  TimePoint hi = 0;
  std::uint32_t f_begin = 0;
  std::uint32_t f_end = 0;
  std::uint32_t b_begin = 0;
  std::uint32_t b_end = 0;
  bool all_settled = true;
};

struct FlushScratch {
  std::vector<Slot> slots;
  std::vector<RawCluster> clusters;
  std::vector<std::uint32_t> duplicate_writes;  // window positions
  std::vector<std::uint32_t> unmatched_reads;   // window positions
  std::vector<std::uint32_t> forward;           // cluster indices
  std::vector<std::uint32_t> backward;          // cluster indices
  std::vector<Run> runs;
  std::vector<char> evict;
  // The final chunk being decided: its clusters, then its operations
  // laid out cluster by cluster (write first, then its reads), the
  // offset of each cluster's write in that layout, and pass-A events.
  std::vector<std::uint32_t> members;  // cluster indices
  std::vector<Operation> chunk;
  std::vector<std::uint32_t> chunk_writes;
  std::vector<TimeEvent> events;
};

thread_local FlushScratch t_scratch;

// Scratch for a window of at most this many operations (~3 MB) stays
// allocated between flushes; a flush of a larger window releases its
// scratch when it ends. Every scratch vector holds at most two entries
// per window operation, so the capacity of `slots` bounds them all.
constexpr std::size_t kRetainedScratchOps = std::size_t{1} << 14;

// Evicted write values left unmerged before flush_settled merges them,
// while the merged prefix is smaller than this.
constexpr std::size_t kUnmergedEvictions = 1'024;

std::string chunk_span(TimePoint lo, TimePoint hi) {
  return "settled chunk over [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]";
}

// Decides the final chunk of clusters s.members over [lo, hi] -- more
// than one cluster, or one whose read precedes its write
// (`read_before_write`) -- and returns its finding, if any. `when` is
// the watermark the finding records.
std::optional<StreamingViolation> decide_chunk(
    FlushScratch& s, std::span<const Operation> window, TimePoint lo,
    TimePoint hi, bool read_before_write, TimePoint when) {
  // Each cluster's write, then its reads: the layout pass B walks.
  s.chunk.clear();
  s.chunk_writes.clear();
  for (std::uint32_t c : s.members) {
    const RawCluster& cluster = s.clusters[c];
    s.chunk_writes.push_back(static_cast<std::uint32_t>(s.chunk.size()));
    s.chunk.push_back(window[cluster.write_pos]);
    for (std::uint32_t r = cluster.reads_begin; r < cluster.reads_end; ++r) {
      s.chunk.push_back(window[s.slots[r].pos]);
    }
  }
  // A read that precedes its dictating write settles like any other
  // cluster but cannot be normalized: report it once and let the chunk
  // go, so the window keeps compacting. This is the only hard anomaly a
  // chunk of whole clusters can hold, and naming it needs the raw
  // History, so only a flagged chunk builds one.
  if (read_before_write) {
    const History raw(s.chunk);
    const std::vector<Anomaly> hard = find_anomalies(raw).hard_anomalies();
    if (!hard.empty()) {
      return StreamingViolation{StreamingViolation::Kind::hard_anomaly, when,
                                chunk_span(lo, hi) + " has a hard anomaly: " +
                                    describe(hard.front(), raw)};
    }
  }
  // Normalize in place from the layout (pass A over the whole chunk,
  // pass B per cluster: a write's dictated reads follow it). This is
  // normalize(History(chunk)) without its anomaly scan, and FZF skips
  // its own: the flush has proved both scans clean -- duplicate write
  // values never join a cluster, every read sits with its write, and
  // none precedes it -- and pass A breaks every timestamp tie.
  rank_event_times(s.chunk, s.events);
  s.chunk_writes.push_back(static_cast<std::uint32_t>(s.chunk.size()));
  for (std::size_t i = 0; i + 1 < s.chunk_writes.size(); ++i) {
    TimePoint earliest_read_finish = kTimeMax;
    for (std::uint32_t r = s.chunk_writes[i] + 1; r < s.chunk_writes[i + 1];
         ++r) {
      earliest_read_finish = std::min(earliest_read_finish, s.chunk[r].finish);
    }
    shorten_write(s.chunk[s.chunk_writes[i]], earliest_read_finish);
  }
  const Verdict verdict =
      check_2atomicity_fzf(History(s.chunk), {.check_preconditions = false});
  if (verdict.yes()) return std::nullopt;
  return StreamingViolation{StreamingViolation::Kind::not_2atomic, when,
                            chunk_span(lo, hi) +
                                " is not 2-atomic: " + verdict.reason};
}

// A write that finished below this line can gain no more reads:
// (watermark - horizon), saturating, and +infinity once finish() runs.
TimePoint settle_threshold(TimePoint watermark, TimePoint horizon) {
  if (watermark == kTimeMax) return kTimeMax;
  return watermark <= kTimeMin + horizon ? kTimeMin : watermark - horizon;
}

}  // namespace

StreamingChecker::StreamingChecker(const StreamingOptions& options)
    : options_(options) {}

void StreamingChecker::add(const Operation& op) {
  if (finished_) {
    throw std::logic_error("StreamingChecker::add after finish()");
  }
  ++stats_.operations_ingested;
  if (op.start >= op.finish) {
    // No History can hold it: reject it here, once, instead of letting
    // every later flush of its chunk fail.
    ++stats_.operations_evicted;
    violations_.push_back({StreamingViolation::Kind::hard_anomaly, watermark_,
                           "malformed operation " + describe(op) +
                               ": start >= finish"});
    return;
  }
  window_.push_back(op);
  min_window_finish_ = std::min(min_window_finish_, op.finish);
  stats_.peak_window = std::max(stats_.peak_window, window_.size());
}

void StreamingChecker::advance_watermark(TimePoint t) {
  watermark_ = std::max(watermark_, t);
  flush_settled(watermark_);
}

Verdict StreamingChecker::finish() {
  finished_ = true;
  watermark_ = kTimeMax;
  flush_settled(kTimeMax);
  stats_.operations_evicted += window_.size();
  window_.clear();
  if (violations_.empty()) {
    return Verdict::make_yes({});  // streaming verdicts carry no witness
  }
  return Verdict::make_no("streaming monitor recorded " +
                          std::to_string(violations_.size()) +
                          " violation(s); first: " +
                          violations_.front().detail);
}

void StreamingChecker::reset() {
  window_.clear();
  evicted_values_.clear();
  evicted_sorted_ = 0;
  violations_.clear();
  stats_ = StreamingStats{};
  watermark_ = kTimeMin;
  min_window_finish_ = kTimeMax;
  finished_ = false;
}

void StreamingChecker::merge_evicted() {
  const auto sorted_end =
      evicted_values_.begin() + static_cast<std::ptrdiff_t>(evicted_sorted_);
  std::sort(sorted_end, evicted_values_.end());
  std::inplace_merge(evicted_values_.begin(), sorted_end,
                     evicted_values_.end());
  evicted_values_.erase(
      std::unique(evicted_values_.begin(), evicted_values_.end()),
      evicted_values_.end());
  evicted_sorted_ = evicted_values_.size();
}

bool StreamingChecker::was_evicted(Value value) {
  if (evicted_sorted_ < evicted_values_.size()) merge_evicted();
  return std::binary_search(evicted_values_.begin(), evicted_values_.end(),
                            value);
}

void StreamingChecker::flush_settled(TimePoint settled_before) {
  ++stats_.flushes;
  if (window_.empty()) return;

  // Cheap skip: no cluster can settle while even the earliest finish in
  // the window is inside the horizon (unmatched-read findings are then
  // deferred to the next effective flush or finish(), which always runs
  // with an infinite watermark). Keeps advance_watermark O(1) when the
  // window is young.
  const TimePoint threshold =
      settle_threshold(watermark_, options_.staleness_horizon);
  if (min_window_finish_ >= threshold) return;

  FlushScratch& s = t_scratch;
  const std::size_t n = window_.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("StreamingChecker: window exceeds 2^32 operations");
  }

  // --- Cluster the window by value (raw times). -----------------------
  s.slots.clear();
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Operation& op = window_[pos];
    s.slots.push_back(
        {op.value, static_cast<std::uint32_t>(pos), op.is_read()});
  }
  std::sort(s.slots.begin(), s.slots.end());
  s.clusters.clear();
  s.duplicate_writes.clear();
  s.unmatched_reads.clear();
  for (std::size_t i = 0; i < s.slots.size();) {
    std::size_t j = i;
    while (j < s.slots.size() && s.slots[j].value == s.slots[i].value) ++j;
    std::size_t reads = i;
    while (reads < j && !s.slots[reads].read) ++reads;
    if (reads == i) {
      // No write holds this value: every read of it is unmatched.
      for (std::size_t r = i; r < j; ++r) {
        s.unmatched_reads.push_back(s.slots[r].pos);
      }
    } else {
      // The first write (window order) keeps the value; later
      // duplicates are reported and left out of every cluster.
      for (std::size_t w = i + 1; w < reads; ++w) {
        s.duplicate_writes.push_back(s.slots[w].pos);
      }
      const Operation& w = window_[s.slots[i].pos];
      RawCluster cluster;
      cluster.write_pos = s.slots[i].pos;
      cluster.reads_begin = static_cast<std::uint32_t>(reads);
      cluster.reads_end = static_cast<std::uint32_t>(j);
      cluster.min_finish = w.finish;
      cluster.max_start = w.start;
      for (std::size_t r = reads; r < j; ++r) {
        const Operation& op = window_[s.slots[r].pos];
        cluster.min_finish = std::min(cluster.min_finish, op.finish);
        cluster.max_start = std::max(cluster.max_start, op.start);
        cluster.read_before_write |= op.precedes(w);
      }
      s.clusters.push_back(cluster);
    }
    i = j;
  }
  // Duplicates are reported in window order.
  std::sort(s.duplicate_writes.begin(), s.duplicate_writes.end());
  for (std::uint32_t pos : s.duplicate_writes) {
    violations_.push_back(
        {StreamingViolation::Kind::hard_anomaly, watermark_,
         "duplicate write value " + std::to_string(window_[pos].value) +
             " in window"});
  }

  // --- Settlement line. ------------------------------------------------
  // A cluster is settled once no further read of it can start:
  // (write.finish + horizon) < watermark, while future ops start after
  // the watermark. New zones and zone growth land entirely above the
  // minimum zone-low among unsettled clusters (zone lows never sink),
  // so anything wholly below `settle_line` is immutable.
  TimePoint settle_line = std::min(settled_before, watermark_);
  for (RawCluster& cluster : s.clusters) {
    cluster.settled = window_[cluster.write_pos].finish < threshold;
    if (!cluster.settled) {
      settle_line = std::min(settle_line, cluster.low());
    }
  }

  // --- Unmatched reads. -------------------------------------------------
  // A read whose dictating write is absent and which finished before the
  // watermark can never be matched (a future write would start after the
  // read finished, i.e. the read would precede its dictating write).
  // Reported in window order.
  s.evict.assign(n, 0);
  std::sort(s.unmatched_reads.begin(), s.unmatched_reads.end());
  for (std::uint32_t pos : s.unmatched_reads) {
    const Operation& r = window_[pos];
    if (r.finish >= watermark_) continue;  // its write may still arrive
    const bool horizon = was_evicted(r.value);
    violations_.push_back(
        {horizon ? StreamingViolation::Kind::horizon_exceeded
                 : StreamingViolation::Kind::hard_anomaly,
         watermark_,
         (horizon ? "read exceeded the staleness horizon: value "
                  : "read without dictating write: value ") +
             std::to_string(r.value)});
    s.evict[pos] = 1;
  }

  // --- Chunk runs over settled forward zones. ---------------------------
  // Sort forward zones by low endpoint and merge transitive overlaps
  // (Stage 1 of FZF on the window). Only runs lying wholly below the
  // settle line with every member cluster settled are final.
  s.forward.clear();
  s.backward.clear();
  for (std::uint32_t c = 0; c < s.clusters.size(); ++c) {
    (s.clusters[c].forward() ? s.forward : s.backward).push_back(c);
  }
  const auto by_low = [&s](std::uint32_t a, std::uint32_t b) {
    const RawCluster& ca = s.clusters[a];
    const RawCluster& cb = s.clusters[b];
    return ca.low() != cb.low() ? ca.low() < cb.low()
                                : ca.write_pos < cb.write_pos;
  };
  std::sort(s.forward.begin(), s.forward.end(), by_low);
  std::sort(s.backward.begin(), s.backward.end(), by_low);

  s.runs.clear();
  for (std::uint32_t i = 0; i < s.forward.size(); ++i) {
    const RawCluster& cluster = s.clusters[s.forward[i]];
    if (!s.runs.empty() && cluster.low() < s.runs.back().hi) {
      Run& run = s.runs.back();
      run.hi = std::max(run.hi, cluster.high());
      run.f_end = i + 1;
      run.all_settled &= cluster.settled;
    } else {
      s.runs.push_back(
          {cluster.low(), cluster.high(), i, i + 1, 0, 0, cluster.settled});
    }
  }
  // Attach contained backward clusters; the rest dangle. Run lows
  // strictly increase and backward clusters come in low order, so each
  // one's candidate run (the last with lo <= its low) only moves right.
  std::size_t candidate = 0;  // runs before this index have lo <= low
  for (std::uint32_t i = 0; i < s.backward.size(); ++i) {
    RawCluster& cluster = s.clusters[s.backward[i]];
    while (candidate < s.runs.size() &&
           s.runs[candidate].lo <= cluster.low()) {
      Run& run = s.runs[candidate];
      run.b_begin = run.b_end = i;
      ++candidate;
    }
    if (candidate == 0) continue;
    Run& run = s.runs[candidate - 1];
    run.b_end = i + 1;
    if (run.lo < cluster.low() && cluster.high() < run.hi) {
      cluster.attached = true;
      run.all_settled &= cluster.settled;
    }
  }

  // --- Verify and evict final chunks. ------------------------------------
  const auto evict_cluster = [this, &s](const RawCluster& cluster) {
    s.evict[cluster.write_pos] = 1;
    evicted_values_.push_back(window_[cluster.write_pos].value);
    for (std::uint32_t r = cluster.reads_begin; r < cluster.reads_end; ++r) {
      s.evict[s.slots[r].pos] = 1;
    }
  };
  for (const Run& run : s.runs) {
    if (!run.all_settled || run.hi >= settle_line) continue;
    ++stats_.chunks_verified;
    // Member order -- forward zones by low, then the attached backward
    // ones by low -- fixes the chunk's op ids, which verdict reasons cite.
    s.members.clear();
    for (std::uint32_t i = run.f_begin; i < run.f_end; ++i) {
      s.members.push_back(s.forward[i]);
    }
    for (std::uint32_t i = run.b_begin; i < run.b_end; ++i) {
      if (s.clusters[s.backward[i]].attached) {
        s.members.push_back(s.backward[i]);
      }
    }
    bool read_before_write = false;
    for (std::uint32_t c : s.members) {
      read_before_write |= s.clusters[c].read_before_write;
    }
    // A chunk of one forward cluster has one write, so its only write
    // order [w] is viable (Lemma 4.2) unless a read precedes w: it is
    // 2-atomic and needs no History.
    if (s.members.size() > 1 || read_before_write) {
      if (std::optional<StreamingViolation> found = decide_chunk(
              s, window_, run.lo, run.hi, read_before_write, watermark_)) {
        violations_.push_back(std::move(*found));
      }
    }
    for (std::uint32_t c : s.members) evict_cluster(s.clusters[c]);
  }

  // Settled dangling backward clusters below the settle line are
  // trivially 2-atomic in isolation (Lemma 4.1's concatenation).
  for (std::uint32_t c : s.backward) {
    const RawCluster& cluster = s.clusters[c];
    if (cluster.attached || !cluster.settled ||
        cluster.high() >= settle_line) {
      continue;
    }
    ++stats_.dangling_clusters;
    evict_cluster(cluster);
  }

  // --- Compact the window in place. ----------------------------------------
  std::size_t kept = 0;
  min_window_finish_ = kTimeMax;
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (s.evict[pos]) {
      ++stats_.operations_evicted;
      continue;
    }
    min_window_finish_ = std::min(min_window_finish_, window_[pos].finish);
    window_[kept++] = window_[pos];
  }
  window_.resize(kept);

  // Amortized: the tail is merged once it outgrows the merged prefix.
  const std::size_t unmerged = evicted_values_.size() - evicted_sorted_;
  if (unmerged > std::max(evicted_sorted_, kUnmergedEvictions)) {
    merge_evicted();
  }
  // A large window (a long horizon, a backlog) must not pin its
  // scratch on this thread for good.
  if (s.slots.capacity() > kRetainedScratchOps) s = FlushScratch{};
}

}  // namespace kav
