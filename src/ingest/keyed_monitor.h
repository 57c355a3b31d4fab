// Keyed online monitoring: the piece that lets a storage system stream
// live traffic through the checker. k-atomicity is local (paper
// Section II-B), so the monitor shards incoming operations to one
// StreamingChecker per key; a ReorderBuffer in front of each checker
// turns bounded arrival disorder into the watermark promise the
// checker needs, and a bounded per-key inbox decouples producers from
// checking while capping memory (backpressure: ingest() blocks when a
// key's inbox holds queue_capacity operations). Checking runs as tasks
// posted to a work-stealing pipeline::ThreadPool -- at most one drain
// task holds a key at a time, so per-key processing is serial (checkers
// are not thread-safe) while distinct keys check in parallel. A drain
// takes a key's whole inbox at once (one swap under the inbox lock) and
// advances the checker's watermark once per batch; the batch ingest()
// posts the keys it claims as at most one task per worker thread.
//
// The pool is the caller's: kav::Engine (core/engine.h, the library's
// front door) runs batch verification and monitoring on ONE shared
// pool. A monitor never shuts the pool down; its destructor only waits
// for its own in-flight drain tasks to quiesce.
//
// Soundness inherits from the two layers (see docs/ALGORITHMS.md):
// the reorder slack S gives each checker a valid watermark, and the
// staleness horizon H lets it evict settled chunks, so each per-key
// window is O(ops in flight within S + H ticks) -- not O(trace).
//
// Ingest may be called from many producer threads concurrently;
// per-key violation order is arrival order. finish() must be called
// from one thread after all producers stop.
#ifndef KAV_INGEST_KEYED_MONITOR_H
#define KAV_INGEST_KEYED_MONITOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/report.h"
#include "core/streaming.h"
#include "history/keyed_trace.h"
#include "ingest/reorder_buffer.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"
#include "util/thread_safety.h"

namespace kav {

struct MonitorOptions {
  // Per-key checker options (staleness horizon).
  StreamingOptions streaming;
  // Arrival disorder bound handed to each key's ReorderBuffer: every
  // arrival starts at most this many ticks before the key's maximum
  // start seen so far. Safe choice: max operation duration plus
  // delivery jitter. Arrivals beyond the slack are late_arrival
  // violations, not crashes.
  TimePoint reorder_slack = 1'000;
  // Per-key inbox capacity; a producer that outruns checking blocks
  // here (backpressure) instead of growing an unbounded backlog. 0 is
  // treated as 1.
  std::size_t queue_capacity = 1'024;
  // Optional live sink: invoked as violations are detected (drain time,
  // not finish time), from pool workers, serialized per key and holding
  // that key's processing lock -- keep it cheap and never call back
  // into the monitor. Per-key order is detection order. A sink that
  // throws disables live emission for the rest of the run (recorded as
  // a hard_anomaly finding); the final report is never affected.
  std::function<void(const std::string& key,
                     const StreamingViolation& violation)>
      on_violation;
  // Registry the monitor instruments into (kav_monitor_* series: live
  // ingest/violation counters plus watermark-lag, reorder-occupancy,
  // and backlog gauges -- ops/sec is rate(kav_monitor_ops_ingested_total)
  // on the scraper side). nullptr means the process registry,
  // obs::MetricsRegistry::global(); kav::Engine injects its own. Must
  // outlive the monitor. MonitorStats stays the per-run summary view
  // and is computed from the same per-key state, never from these.
  obs::MetricsRegistry* metrics = nullptr;
};

// MonitorStats lives in core/report.h (the unified Report embeds it).

struct KeyMonitorResult {
  Verdict verdict;  // YES iff the key's stream produced no violations
  StreamingStats stats;
  std::vector<StreamingViolation> violations;  // late_arrivals appended
};

// What finish() returns; Engine::monitor folds it into a Report.
struct MonitorReport {
  std::map<std::string, KeyMonitorResult> per_key;
  MonitorStats totals;
};

class KeyedStreamingMonitor {
 public:
  // Checking tasks run on `pool`, which must outlive the monitor.
  explicit KeyedStreamingMonitor(pipeline::ThreadPool& pool,
                                 const MonitorOptions& options = {});
  ~KeyedStreamingMonitor();

  KeyedStreamingMonitor(const KeyedStreamingMonitor&) = delete;
  KeyedStreamingMonitor& operator=(const KeyedStreamingMonitor&) = delete;

  // Admits a batch in order. Thread-safe; blocks while an operation's
  // key has a full inbox (backpressure). Throws std::logic_error after
  // finish(). The drains the batch claims are posted together: at most
  // one pool task per worker thread carries them, so a batch costs a
  // few handoffs instead of one per key.
  void ingest(std::span<const KeyedOperation> batch)
      KAV_EXCLUDES(keys_mutex_, drains_mutex_);
  // A batch of one operation.
  void ingest(const KeyedOperation& kop)
      KAV_EXCLUDES(keys_mutex_, drains_mutex_);
  void ingest(const std::string& key, const Operation& op)
      KAV_EXCLUDES(keys_mutex_, drains_mutex_);

  // Drains every inbox, flushes every reorder buffer, finishes every
  // checker, and returns the per-key results. Call once, from one
  // thread, after all producers have stopped.
  MonitorReport finish() KAV_EXCLUDES(keys_mutex_);

  // Aggregated snapshot; safe to call from any thread mid-stream.
  MonitorStats stats() const KAV_EXCLUDES(keys_mutex_);

  std::size_t thread_count() const { return pool_->thread_count(); }
  std::size_t key_count() const KAV_EXCLUDES(keys_mutex_);

 private:
  // Per-key state. Defined here (not in the .cpp) so the KAV_REQUIRES
  // contracts on the helpers below can name state.process_mutex.
  struct KeyState {
    KeyState(std::string key_name, const MonitorOptions& options)
        : key(std::move(key_name)),
          reorder(options.reorder_slack),
          checker(options.streaming) {}

    const std::string key;
    // True while a drain task is scheduled or running; together with
    // process_mutex this guarantees at most one drainer per key, so the
    // (non-thread-safe) reorder buffer and checker see serial access.
    std::atomic<bool> scheduled{false};
    // Next key of the drain task this key is posted in. Written only by
    // the thread that set `scheduled`, before posting, and read by the
    // drain task before it releases `scheduled` -- the claim guards it.
    KeyState* next_in_task = nullptr;
    std::atomic<std::int64_t> ingested{0};
    // This key's share of the kav_monitor_queue_backlog gauge (ops
    // ingested minus ops taken from the inbox), so the destructor can
    // retire exactly what was never processed.
    std::atomic<std::int64_t> backlog{0};
    std::atomic<TimePoint> newest_start{kTimeMin};
    std::atomic<TimePoint> oldest_start{kTimeMax};

    util::Mutex process_mutex;
    // Arrivals no drain task has taken yet. Producers append under
    // inbox_mutex and block on inbox_not_full at queue_capacity; a
    // drainer, holding process_mutex (so batches are processed in the
    // order they were taken), swaps the whole vector out.
    util::Mutex inbox_mutex KAV_ACQUIRED_AFTER(process_mutex);
    util::CondVar inbox_not_full;
    std::vector<Operation> inbox KAV_GUARDED_BY(inbox_mutex);
    // Producers waiting on inbox_not_full; a swap signals only if any.
    std::size_t blocked_producers KAV_GUARDED_BY(inbox_mutex) = 0;
    ReorderBuffer reorder KAV_GUARDED_BY(process_mutex);
    StreamingChecker checker KAV_GUARDED_BY(process_mutex);
    // Violations detected by the monitor layer rather than the checker:
    // late arrivals, and drain-task failures (which must be surfaced as
    // findings -- a swallowed exception would wedge the key forever).
    std::vector<StreamingViolation> extra_violations
        KAV_GUARDED_BY(process_mutex);
    std::size_t peak_window KAV_GUARDED_BY(process_mutex) = 0;
    // High-water marks of violations already handed to the live
    // on_violation sink, so each finding is emitted exactly once.
    std::size_t reported_checker KAV_GUARDED_BY(process_mutex) = 0;
    std::size_t reported_extra KAV_GUARDED_BY(process_mutex) = 0;
    // High-water marks of what update_key_metrics() already folded into
    // the registry, so counter deltas are exact (checker totals are
    // monotone for the life of the key).
    std::size_t counted_checker KAV_GUARDED_BY(process_mutex) = 0;
    std::size_t counted_extra KAV_GUARDED_BY(process_mutex) = 0;
    std::uint64_t counted_chunks KAV_GUARDED_BY(process_mutex) = 0;
    std::int64_t last_reorder_pending KAV_GUARDED_BY(process_mutex) = 0;
  };

  KeyState& state_for(const std::string& key) KAV_EXCLUDES(keys_mutex_);
  // Appends `op` to the key's inbox, blocking while it is full. Claims
  // in `unposted` (drains this producer claimed but has not posted) are
  // posted before blocking: the full inbox may be waiting on one.
  void append(KeyState& state, const Operation& op,
              std::vector<KeyState*>& unposted)
      KAV_EXCLUDES(state.inbox_mutex, drains_mutex_);
  // Per-arrival bookkeeping after append(); true when this call claimed
  // the drainer role (the caller then owes a post_drains()).
  bool account_and_claim(KeyState& state, const Operation& op);
  // Posts the claimed keys as at most thread_count() drain tasks, each
  // draining its keys in turn. If posting fails, every claim no posted
  // task holds is given back before the exception propagates.
  void post_drains(std::span<KeyState* const> claimed)
      KAV_EXCLUDES(drains_mutex_);
  // Runs one drain task: drains each key of the list in turn.
  void drain_task(KeyState* first) KAV_EXCLUDES(drains_mutex_);
  // One pass over a claimed key: takes and checks its inbox, then gives
  // the claim up -- or keeps it and returns true when arrivals landed
  // meanwhile, so the caller drains the key again.
  bool drain(KeyState& state);
  // Swaps the key's inbox into `batch` (left empty before the call)
  // and wakes producers blocked on it.
  void take_inbox(KeyState& state, std::vector<Operation>& batch)
      KAV_REQUIRES(state.process_mutex) KAV_EXCLUDES(state.inbox_mutex);
  // Feeds one arrival through the reorder buffer into the checker.
  void process_one(KeyState& state, const Operation& op)
      KAV_REQUIRES(state.process_mutex);
  // Reports not-yet-reported violations to options_.on_violation.
  void emit_new_violations(KeyState& state) KAV_REQUIRES(state.process_mutex);
  // Folds the key's progress since the last call into the registry
  // (violation/chunk deltas via per-key high-water marks, gauge
  // refreshes).
  void update_key_metrics(KeyState& state) KAV_REQUIRES(state.process_mutex);
  // Blocks until no drain task of this monitor is queued or running.
  void quiesce() KAV_EXCLUDES(drains_mutex_);
  MonitorStats snapshot_totals() const KAV_EXCLUDES(keys_mutex_);

  MonitorOptions options_;
  const std::size_t inbox_capacity_;
  // kav_monitor_* instruments (keyed_monitor.cpp); owned by the
  // registry in options_.metrics, not by the monitor.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;
  pipeline::ThreadPool* pool_;

  // Shared for the per-ingest known-key lookup (the hot path stays
  // contention-free across producers), exclusive only when a key is
  // first seen.
  mutable util::SharedMutex keys_mutex_;
  std::unordered_map<std::string, std::unique_ptr<KeyState>> keys_
      KAV_GUARDED_BY(keys_mutex_);
  std::chrono::steady_clock::time_point start_time_
      KAV_GUARDED_BY(keys_mutex_);
  bool started_ KAV_GUARDED_BY(keys_mutex_) = false;
  std::atomic<bool> finished_{false};
  // Set when the user's on_violation sink throws: live emission is
  // disabled for the rest of the run (recorded as a hard_anomaly
  // finding) rather than letting the exception destroy the report.
  std::atomic<bool> sink_failed_{false};

  // In-flight drain-task accounting, so the monitor can quiesce
  // without shutting the shared pool down.
  util::Mutex drains_mutex_;
  util::CondVar drains_cv_;
  std::size_t active_drains_ KAV_GUARDED_BY(drains_mutex_) = 0;
};

}  // namespace kav

#endif  // KAV_INGEST_KEYED_MONITOR_H
