// Reference StreamingChecker for differential tests: the original
// re-clustering flush, which rebuilds hash maps of the whole window on
// every effective flush. src/core/streaming.cpp replaces it with a
// sort-based flush over reused scratch buffers; the two must agree on
// every violation (kind, when, detail), every stats() field and the
// window size after every call (tests/streaming_fuzz_test.cpp).
//
// A settled chunk with a hard anomaly (a read that precedes its
// dictating write) becomes one hard_anomaly finding and is evicted, and
// add() drops a malformed operation (start >= finish) as one
// hard_anomaly finding, exactly as in the production checker. Every
// other settled chunk here builds its raw History and goes through
// find_anomalies, normalize and FZF with its precondition scan, which
// the production checker skips for chunks of one cluster and replaces
// with in-place normalization from the cluster layout for the rest.
#ifndef KAV_TESTS_REFERENCE_STREAMING_H
#define KAV_TESTS_REFERENCE_STREAMING_H

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/fzf.h"
#include "core/streaming.h"
#include "history/anomaly.h"

namespace kav::reference {

class ReferenceStreamingChecker {
 public:
  explicit ReferenceStreamingChecker(const StreamingOptions& options = {})
      : options_(options) {}

  void add(const Operation& op) {
    if (finished_) {
      throw std::logic_error("StreamingChecker::add after finish()");
    }
    ++stats_.operations_ingested;
    if (op.start >= op.finish) {
      ++stats_.operations_evicted;
      violations_.push_back({StreamingViolation::Kind::hard_anomaly,
                             watermark_,
                             "malformed operation " + describe(op) +
                                 ": start >= finish"});
      return;
    }
    window_.push_back(op);
    min_window_finish_ = std::min(min_window_finish_, op.finish);
    stats_.peak_window = std::max(stats_.peak_window, window_.size());
  }

  void advance_watermark(TimePoint t) {
    watermark_ = std::max(watermark_, t);
    flush_settled(watermark_);
  }

  Verdict finish() {
    finished_ = true;
    watermark_ = kTimeMax;
    flush_settled(kTimeMax);
    stats_.operations_evicted += window_.size();
    window_.clear();
    if (violations_.empty()) return Verdict::make_yes({});
    return Verdict::make_no("streaming monitor recorded " +
                            std::to_string(violations_.size()) +
                            " violation(s); first: " +
                            violations_.front().detail);
  }

  const std::vector<StreamingViolation>& violations() const {
    return violations_;
  }
  const StreamingStats& stats() const { return stats_; }
  std::size_t window_size() const { return window_.size(); }

 private:
  struct RawCluster {
    std::size_t write_pos = 0;
    std::vector<std::size_t> read_pos;
    TimePoint min_finish = kTimeMax;
    TimePoint max_start = kTimeMin;
    bool settled = false;

    TimePoint low() const { return std::min(min_finish, max_start); }
    TimePoint high() const { return std::max(min_finish, max_start); }
    bool forward() const { return min_finish < max_start; }
  };

  void flush_settled(TimePoint settled_before) {
    ++stats_.flushes;
    if (window_.empty()) return;

    const TimePoint cheap_threshold =
        watermark_ == kTimeMax
            ? kTimeMax
            : (watermark_ <= kTimeMin + options_.staleness_horizon
                   ? kTimeMin
                   : watermark_ - options_.staleness_horizon);
    if (min_window_finish_ >= cheap_threshold) return;

    std::unordered_map<Value, RawCluster> clusters;
    std::vector<std::size_t> unmatched_reads;
    for (std::size_t pos = 0; pos < window_.size(); ++pos) {
      const Operation& op = window_[pos];
      if (!op.is_write()) continue;
      auto [it, inserted] = clusters.try_emplace(op.value);
      if (!inserted) {
        violations_.push_back(
            {StreamingViolation::Kind::hard_anomaly, watermark_,
             "duplicate write value " + std::to_string(op.value) +
                 " in window"});
        continue;
      }
      it->second.write_pos = pos;
      it->second.min_finish = op.finish;
      it->second.max_start = op.start;
    }
    for (std::size_t pos = 0; pos < window_.size(); ++pos) {
      const Operation& op = window_[pos];
      if (!op.is_read()) continue;
      auto it = clusters.find(op.value);
      if (it == clusters.end()) {
        unmatched_reads.push_back(pos);
        continue;
      }
      it->second.read_pos.push_back(pos);
      it->second.min_finish = std::min(it->second.min_finish, op.finish);
      it->second.max_start = std::max(it->second.max_start, op.start);
    }

    TimePoint settle_line = std::min(settled_before, watermark_);
    const TimePoint settle_threshold = cheap_threshold;
    for (auto& [value, cluster] : clusters) {
      const Operation& w = window_[cluster.write_pos];
      cluster.settled = w.finish < settle_threshold;
      if (!cluster.settled) {
        settle_line = std::min(settle_line, cluster.low());
      }
    }

    std::vector<char> evict(window_.size(), 0);
    for (std::size_t pos : unmatched_reads) {
      const Operation& r = window_[pos];
      if (r.finish >= watermark_) continue;
      const bool horizon = evicted_write_values_.count(r.value) > 0;
      violations_.push_back(
          {horizon ? StreamingViolation::Kind::horizon_exceeded
                   : StreamingViolation::Kind::hard_anomaly,
           watermark_,
           (horizon ? "read exceeded the staleness horizon: value "
                    : "read without dictating write: value ") +
               std::to_string(r.value)});
      evict[pos] = 1;
    }

    std::vector<const RawCluster*> forward;
    std::vector<const RawCluster*> backward;
    for (const auto& [value, cluster] : clusters) {
      (cluster.forward() ? forward : backward).push_back(&cluster);
    }
    auto by_low = [](const RawCluster* a, const RawCluster* b) {
      return a->low() != b->low() ? a->low() < b->low()
                                  : a->write_pos < b->write_pos;
    };
    std::sort(forward.begin(), forward.end(), by_low);
    std::sort(backward.begin(), backward.end(), by_low);

    struct Run {
      TimePoint lo, hi;
      std::vector<const RawCluster*> members;
      bool all_settled = true;
    };
    std::vector<Run> runs;
    for (const RawCluster* cluster : forward) {
      if (!runs.empty() && cluster->low() < runs.back().hi) {
        runs.back().hi = std::max(runs.back().hi, cluster->high());
        runs.back().members.push_back(cluster);
        runs.back().all_settled &= cluster->settled;
      } else {
        runs.push_back(
            {cluster->low(), cluster->high(), {cluster}, cluster->settled});
      }
    }
    std::vector<const RawCluster*> dangling;
    for (const RawCluster* cluster : backward) {
      auto it = std::upper_bound(
          runs.begin(), runs.end(), cluster->low(),
          [](TimePoint t, const Run& run) { return t < run.lo; });
      if (it != runs.begin() && (it - 1)->lo < cluster->low() &&
          cluster->high() < (it - 1)->hi) {
        (it - 1)->members.push_back(cluster);
        (it - 1)->all_settled &= cluster->settled;
      } else {
        dangling.push_back(cluster);
      }
    }

    for (const Run& run : runs) {
      if (!run.all_settled || run.hi >= settle_line) continue;
      std::vector<Operation> chunk_ops;
      for (const RawCluster* cluster : run.members) {
        chunk_ops.push_back(window_[cluster->write_pos]);
        for (std::size_t pos : cluster->read_pos) {
          chunk_ops.push_back(window_[pos]);
        }
      }
      const History raw(std::move(chunk_ops));
      ++stats_.chunks_verified;
      const std::vector<Anomaly> hard = find_anomalies(raw).hard_anomalies();
      const std::string span = "settled chunk over [" +
                               std::to_string(run.lo) + ", " +
                               std::to_string(run.hi) + "]";
      if (!hard.empty()) {
        violations_.push_back({StreamingViolation::Kind::hard_anomaly,
                               watermark_,
                               span + " has a hard anomaly: " +
                                   describe(hard.front(), raw)});
      } else {
        const Verdict verdict = check_2atomicity_fzf(normalize(raw));
        if (!verdict.yes()) {
          violations_.push_back({StreamingViolation::Kind::not_2atomic,
                                 watermark_,
                                 span + " is not 2-atomic: " +
                                     verdict.reason});
        }
      }
      for (const RawCluster* cluster : run.members) {
        evict[cluster->write_pos] = 1;
        evicted_write_values_.insert(window_[cluster->write_pos].value);
        for (std::size_t pos : cluster->read_pos) evict[pos] = 1;
      }
    }

    for (const RawCluster* cluster : dangling) {
      if (!cluster->settled || cluster->high() >= settle_line) continue;
      ++stats_.dangling_clusters;
      evict[cluster->write_pos] = 1;
      evicted_write_values_.insert(window_[cluster->write_pos].value);
      for (std::size_t pos : cluster->read_pos) evict[pos] = 1;
    }

    std::vector<Operation> remaining;
    remaining.reserve(window_.size());
    min_window_finish_ = kTimeMax;
    for (std::size_t pos = 0; pos < window_.size(); ++pos) {
      if (evict[pos]) {
        ++stats_.operations_evicted;
      } else {
        min_window_finish_ =
            std::min(min_window_finish_, window_[pos].finish);
        remaining.push_back(window_[pos]);
      }
    }
    window_ = std::move(remaining);
  }

  StreamingOptions options_;
  std::vector<Operation> window_;
  std::unordered_set<Value> evicted_write_values_;
  std::vector<StreamingViolation> violations_;
  StreamingStats stats_;
  TimePoint watermark_ = kTimeMin;
  TimePoint min_window_finish_ = kTimeMax;
  bool finished_ = false;
};

}  // namespace kav::reference

#endif  // KAV_TESTS_REFERENCE_STREAMING_H
