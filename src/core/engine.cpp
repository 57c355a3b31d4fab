#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "ingest/keyed_monitor.h"
#include "obs/span.h"
#include "pipeline/sharded_verifier.h"
#include "pipeline/thread_pool.h"
#include "store/trace_store.h"
#include "util/thread_safety.h"

namespace kav {

// The ledger behind Engine::status() / GET /status: what the registry's
// counters cannot answer -- which runs, how recently, against which hot
// keys. Mutated once per run start/finish (never per operation), so one
// mutex is the right tool.
struct Engine::StatusCollector {
  // How many finished runs /status remembers.
  static constexpr std::size_t kRecentRuns = 8;

  const std::chrono::steady_clock::time_point engine_start =
      std::chrono::steady_clock::now();

  mutable util::Mutex mutex;
  std::uint64_t started KAV_GUARDED_BY(mutex) = 0;
  std::uint64_t completed KAV_GUARDED_BY(mutex) = 0;
  std::uint64_t cancelled KAV_GUARDED_BY(mutex) = 0;
  std::uint64_t in_flight KAV_GUARDED_BY(mutex) = 0;
  std::deque<obs::RunSummaryInfo> recent KAV_GUARDED_BY(mutex);  // newest front
  std::map<std::string, std::uint64_t> violations KAV_GUARDED_BY(mutex);

  void run_started() {
    util::MutexLock lock(mutex);
    ++started;
    ++in_flight;
  }

  // A run that threw: leaves no summary, but must not leak in_flight.
  void run_aborted() {
    util::MutexLock lock(mutex);
    --in_flight;
  }

  void run_finished(bool batch, const Report& report, double seconds) {
    obs::RunSummaryInfo summary;
    summary.mode = batch ? "batch" : "monitor";
    summary.outcome = report.cancelled ? "cancelled" : "completed";
    summary.seconds = seconds;
    summary.keys = report.per_key.size();
    for (const auto& [key, result] : report.per_key) {
      if (batch) {
        if (result.verdict.outcome == Outcome::no) ++summary.findings;
      } else {
        summary.findings += result.findings.size();
      }
    }

    util::MutexLock lock(mutex);
    --in_flight;
    (report.cancelled ? cancelled : completed) += 1;
    recent.push_front(std::move(summary));
    if (recent.size() > kRecentRuns) recent.pop_back();
    if (!batch) {
      for (const auto& [key, result] : report.per_key) {
        if (!result.findings.empty()) {
          violations[key] += result.findings.size();
        }
      }
    }
  }

  obs::StatusSnapshot snapshot(std::size_t top_n) const {
    obs::StatusSnapshot status;
    status.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      engine_start)
            .count();
    util::MutexLock lock(mutex);
    status.runs_started = started;
    status.runs_completed = completed;
    status.runs_cancelled = cancelled;
    status.runs_in_flight = in_flight;
    status.recent_runs.assign(recent.begin(), recent.end());
    status.violation_top.assign(violations.begin(), violations.end());
    std::sort(status.violation_top.begin(), status.violation_top.end(),
              [](const auto& a, const auto& b) {
                // Descending by count, key order breaking ties.
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (status.violation_top.size() > top_n) {
      status.violation_top.resize(top_n);
    }
    return status;
  }
};

// Run-lifecycle instruments. Counters are labeled by mode so one
// scrape distinguishes batch verification from online monitoring;
// verdict and finding breakdowns use one series per enum value so
// rates stay cheap to compute scraper-side.
struct Engine::Metrics {
  obs::Counter& runs_started_batch;
  obs::Counter& runs_started_monitor;
  obs::Counter& runs_completed_batch;
  obs::Counter& runs_completed_monitor;
  obs::Counter& runs_cancelled_batch;
  obs::Counter& runs_cancelled_monitor;
  obs::Histogram& run_seconds_batch;
  obs::Histogram& run_seconds_monitor;
  obs::Counter& keys_verified;
  obs::Counter& verdict_yes;
  obs::Counter& verdict_no;
  obs::Counter& verdict_undecided;
  obs::Counter& verdict_precondition_failed;
  obs::Counter& finding_not_2atomic;
  obs::Counter& finding_horizon_exceeded;
  obs::Counter& finding_hard_anomaly;
  obs::Counter& finding_late_arrival;

  explicit Metrics(obs::MetricsRegistry& r)
      : runs_started_batch(r.counter(
            "kav_engine_runs_started_total",
            "Verification/monitoring runs entered, by mode.",
            {{"mode", "batch"}})),
        runs_started_monitor(r.counter("kav_engine_runs_started_total",
                                       "Verification/monitoring runs entered, "
                                       "by mode.",
                                       {{"mode", "monitor"}})),
        runs_completed_batch(r.counter(
            "kav_engine_runs_completed_total",
            "Runs that returned a report without an early stop, by mode.",
            {{"mode", "batch"}})),
        runs_completed_monitor(r.counter(
            "kav_engine_runs_completed_total",
            "Runs that returned a report without an early stop, by mode.",
            {{"mode", "monitor"}})),
        runs_cancelled_batch(r.counter(
            "kav_engine_runs_cancelled_total",
            "Runs stopped early by a CancelToken or deadline, by mode.",
            {{"mode", "batch"}})),
        runs_cancelled_monitor(r.counter(
            "kav_engine_runs_cancelled_total",
            "Runs stopped early by a CancelToken or deadline, by mode.",
            {{"mode", "monitor"}})),
        run_seconds_batch(r.histogram(
            "kav_engine_run_seconds",
            "End-to-end wall time of one run, by mode.",
            {{"mode", "batch"}})),
        run_seconds_monitor(r.histogram(
            "kav_engine_run_seconds",
            "End-to-end wall time of one run, by mode.",
            {{"mode", "monitor"}})),
        keys_verified(r.counter(
            "kav_engine_keys_verified_total",
            "Per-key results produced across all runs (skips included).")),
        verdict_yes(r.counter("kav_engine_verdicts_total",
                              "Per-key verdicts produced, by outcome.",
                              {{"outcome", "yes"}})),
        verdict_no(r.counter("kav_engine_verdicts_total",
                             "Per-key verdicts produced, by outcome.",
                             {{"outcome", "no"}})),
        verdict_undecided(r.counter("kav_engine_verdicts_total",
                                    "Per-key verdicts produced, by outcome.",
                                    {{"outcome", "undecided"}})),
        verdict_precondition_failed(
            r.counter("kav_engine_verdicts_total",
                      "Per-key verdicts produced, by outcome.",
                      {{"outcome", "precondition_failed"}})),
        finding_not_2atomic(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "not_2atomic"}})),
        finding_horizon_exceeded(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "horizon_exceeded"}})),
        finding_hard_anomaly(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "hard_anomaly"}})),
        finding_late_arrival(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "late_arrival"}})) {}

  obs::Counter& for_outcome(Outcome outcome) {
    switch (outcome) {
      case Outcome::yes:
        return verdict_yes;
      case Outcome::no:
        return verdict_no;
      case Outcome::undecided:
        return verdict_undecided;
      case Outcome::precondition_failed:
        break;
    }
    return verdict_precondition_failed;
  }

  obs::Counter& for_kind(StreamingViolation::Kind kind) {
    switch (kind) {
      case StreamingViolation::Kind::not_2atomic:
        return finding_not_2atomic;
      case StreamingViolation::Kind::horizon_exceeded:
        return finding_horizon_exceeded;
      case StreamingViolation::Kind::hard_anomaly:
        return finding_hard_anomaly;
      case StreamingViolation::Kind::late_arrival:
        break;
    }
    return finding_late_arrival;
  }

  // One per public entry point: counts the run as started immediately
  // (so a scraper can see runs in flight as started - completed -
  // cancelled), times it into run_seconds + an "engine.verify" /
  // "engine.monitor" span, and on finish() folds the finished Report's
  // verdicts and findings into the registry and the run into the
  // status ledger. A run that throws still records its start and
  // duration (and releases its in-flight slot), never a completion.
  class RunScope {
   public:
    RunScope(Metrics& metrics, StatusCollector& status, bool batch)
        : metrics_(metrics),
          status_(status),
          batch_(batch),
          start_(std::chrono::steady_clock::now()),
          timer_(batch ? &metrics.run_seconds_batch
                       : &metrics.run_seconds_monitor,
                 &obs::Tracer::global(),
                 batch ? "engine.verify" : "engine.monitor", "engine") {
      (batch ? metrics.runs_started_batch : metrics.runs_started_monitor)
          .add(1);
      status_.run_started();
    }

    ~RunScope() {
      if (!finished_) status_.run_aborted();
    }

    void finish(const Report& report) {
      finished_ = true;
      // Timed before the status ledger records the run, so every
      // instrument of a run that /status shows as finished is final.
      timer_.stop();
      obs::Counter& end =
          batch_ ? (report.cancelled ? metrics_.runs_cancelled_batch
                                     : metrics_.runs_completed_batch)
                 : (report.cancelled ? metrics_.runs_cancelled_monitor
                                     : metrics_.runs_completed_monitor);
      end.add(1);
      metrics_.keys_verified.add(report.per_key.size());
      for (const auto& [key, result] : report.per_key) {
        metrics_.for_outcome(result.verdict.outcome).add(1);
        for (const StreamingViolation& violation : result.findings) {
          metrics_.for_kind(violation.kind).add(1);
        }
      }
      status_.run_finished(
          batch_, report,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count());
    }

   private:
    Metrics& metrics_;
    StatusCollector& status_;
    bool batch_;
    bool finished_ = false;
    std::chrono::steady_clock::time_point start_;
    obs::ScopedTimer timer_;
  };
};

namespace {

// Normalized RunOptions::key_filter: the requested keys, deduplicated
// and ordered. Inactive (pass-everything) when the filter is empty.
struct KeyFilter {
  bool active = false;
  std::set<std::string, std::less<>> wanted;

  explicit KeyFilter(const RunOptions& run)
      : active(!run.key_filter.empty()),
        wanted(run.key_filter.begin(), run.key_filter.end()) {}

  bool pass(std::string_view key) const {
    return !active || wanted.count(key) > 0;
  }
};

// A grouper storing only the operations of keys `filter` passes, while
// still recording every key the input offered.
KeyGrouper grouper_for(const KeyFilter& filter) {
  if (!filter.active) return KeyGrouper();
  return KeyGrouper(
      [&filter](std::string_view key) { return filter.pass(key); });
}

template <typename Offered>
bool offers(const Offered& offered, const std::string& key) {
  return offered.count(key) > 0;
}

// KeyGroups::keys: sorted and distinct.
bool offers(const std::vector<std::string>& offered, const std::string& key) {
  return std::binary_search(offered.begin(), offered.end(), key);
}

// Fills Report's selection accounting given which keys the input
// actually offered. `requested` is sorted, so missing_keys comes out
// sorted.
template <typename Offered>
void account_selection(Report& report, const KeyFilter& filter,
                       const Offered& offered) {
  if (!filter.active) return;
  report.selected = true;
  report.keys_available = offered.size();
  for (const std::string& key : filter.wanted) {
    if (offers(offered, key)) {
      ++report.keys_selected;
    } else {
      report.missing_keys.push_back(key);
    }
  }
}

// The earlier of the absolute deadline and the relative timeout,
// anchored at call entry (RunOptions precedence rule 2).
std::optional<std::chrono::steady_clock::time_point> effective_deadline(
    const RunOptions& run) {
  std::optional<std::chrono::steady_clock::time_point> deadline =
      run.deadline;
  if (run.timeout.count() > 0) {
    const auto from_timeout = std::chrono::steady_clock::now() + run.timeout;
    if (!deadline || from_timeout < *deadline) deadline = from_timeout;
  }
  return deadline;
}

// Shared run-control scaffolding for every source-consuming loop.
constexpr std::chrono::milliseconds kPullWait{100};
// Operations taken per source pull: enough to amortize the handoff (one
// source lock, at most one producer wake per batch), few enough that a
// cancel or deadline still lands promptly.
constexpr std::size_t kPullBatch = 256;

// Non-empty stop reason when the run must stop now. Loops call it once
// per batch, which amortizes the clock read.
std::string check_stop(
    const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& activity) {
  if (run.cancel.cancelled()) {
    return "cancelled by caller while " + activity;
  }
  if (deadline && std::chrono::steady_clock::now() >= *deadline) {
    return "wall-clock deadline exceeded while " + activity;
  }
  return {};
}

// Pulls `source` dry in batches through bounded try_next_batch_for
// waits -- so a blocking source (PushTraceSource) cannot starve
// cancellation -- handing each batch to `per_batch`. The stop
// conditions are checked after every batch, so a cancel or deadline is
// honored within one batch. Returns the empty string on a clean end of
// stream, else the stop reason.
template <typename PerBatch>
std::string drive_source(
    TraceSource& source, const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& activity, PerBatch&& per_batch) {
  std::vector<KeyedOperation> batch;
  batch.reserve(kPullBatch);
  for (;;) {
    const TraceSource::Pull pull =
        source.try_next_batch_for(batch, kPullBatch, kPullWait);
    if (pull == TraceSource::Pull::closed) return {};
    if (pull == TraceSource::Pull::item) {
      per_batch(std::span<const KeyedOperation>(batch));
    }
    std::string stop = check_stop(run, deadline, activity);
    if (!stop.empty()) return stop;
  }
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::global()),
      em_(std::make_unique<Metrics>(*metrics_)),
      status_(std::make_unique<StatusCollector>()),
      pool_(std::make_unique<pipeline::ThreadPool>(options_.threads,
                                                   metrics_)) {
  PipelineOptions pipeline_options;
  pipeline_options.shard_op_budget = options_.shard_op_budget;
  pipeline_options.fail_fast = options_.fail_fast;
  verifier_ =
      std::make_unique<ShardedVerifier>(*pool_, pipeline_options, metrics_);
  if (options_.telemetry_port >= 0) {
    serve_telemetry(options_.telemetry_address, options_.telemetry_port);
  }
}

Engine::~Engine() {
  // The server's handlers read status_ and the registry: stop it
  // before any other member goes down.
  telemetry_.reset();
}

obs::TelemetryServer& Engine::serve_telemetry(const std::string& address,
                                              int port) {
  if (telemetry_) return *telemetry_;
  obs::TelemetryOptions telemetry_options;
  telemetry_options.address = address;
  telemetry_options.port =
      static_cast<std::uint16_t>(port < 0 ? 0 : port);
  telemetry_ =
      std::make_unique<obs::TelemetryServer>(*metrics_, telemetry_options);
  telemetry_->set_status_source([this] { return status(); });
  return *telemetry_;
}

obs::StatusSnapshot Engine::status(std::size_t top_n) const {
  return status_->snapshot(top_n);
}

std::size_t Engine::thread_count() const { return pool_->thread_count(); }

std::unique_ptr<TraceStore> Engine::open_store(const std::string& directory) {
  return open_store(directory, CompactionOptions{});
}

std::unique_ptr<TraceStore> Engine::open_store(
    const std::string& directory, const CompactionOptions& compaction) {
  auto store = std::make_unique<TraceStore>(directory, metrics_);
  store->enable_background_compaction(*pool_, compaction);
  return store;
}

namespace {

RunControl run_control_for(
    const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  RunControl control;
  control.cancel = run.cancel;
  control.deadline = deadline;
  control.on_key = run.on_key;
  return control;
}

}  // namespace

Report Engine::run_specs(
    const std::vector<ShardSpec>& specs, const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  return verifier_->verify_shards(specs,
                                 run.verify ? *run.verify : options_.verify,
                                 run_control_for(run, deadline));
}

Report Engine::verify_selective(
    SelectiveTraceSource& source, const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  const KeyFilter filter(run);
  const std::vector<std::string> available = source.selectable_keys();
  const std::set<std::string, std::less<>> offered(available.begin(),
                                                   available.end());
  std::vector<ShardSpec> specs;
  // No filter selects every key the index holds.
  for (const std::string& key : filter.active ? filter.wanted : offered) {
    if (offered.count(key) == 0) continue;
    ShardSpec spec;
    spec.key = key;
    // Op count from index statistics: the budget check and any
    // scheduling decision happen before a single record is decoded.
    spec.op_count = source.key_op_count(key);
    spec.load = [&source, key]() { return source.load_key(key); };
    specs.push_back(std::move(spec));
  }
  Report report = run_specs(specs, run, deadline);
  account_selection(report, filter, offered);
  return report;
}

Report Engine::verify(const KeyedTrace& trace, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/true);
  const auto deadline = effective_deadline(run);
  const KeyFilter filter(run);
  KeyGrouper grouper = grouper_for(filter);
  for (const KeyedOperation& kop : trace.ops) grouper.add(kop.key, kop.op);
  KeyGroups groups = std::move(grouper).finish();
  Report report = run_specs(lazy_shards(groups), run, deadline);
  account_selection(report, filter, groups.keys);
  scope.finish(report);
  return report;
}

Report Engine::verify(const KeyedHistories& shards, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/true);
  const auto deadline = effective_deadline(run);
  const KeyFilter filter(run);
  // Pinned specs: the selected shards are verified in place, no copies.
  std::vector<ShardSpec> specs;
  for (const auto& [key, history] : shards.per_key) {
    if (!filter.pass(key)) continue;
    ShardSpec spec;
    spec.key = key;
    spec.op_count = history.size();
    spec.pinned = &history;
    specs.push_back(std::move(spec));
  }
  Report report = run_specs(specs, run, deadline);
  account_selection(report, filter, shards.per_key);
  scope.finish(report);
  return report;
}

Report Engine::verify(TraceSource& source, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/true);
  // Anchored once at entry: the same cutoff governs reading the source
  // AND the shard phase, so a slow source cannot re-arm the timeout.
  const auto deadline = effective_deadline(run);
  // An index-backed source decodes each selected key (every key when
  // no filter is set) inside its pool worker, zero-copy from its blocks.
  if (auto* selective = dynamic_cast<SelectiveTraceSource*>(&source)) {
    Report report = verify_selective(*selective, run, deadline);
    scope.finish(report);
    return report;
  }
  const KeyFilter filter(run);
  const std::string activity = "reading " + source.describe();
  // An unfiltered .kavb stream is decoded and grouped on the pool.
  GroupedDecode decoded;
  if (auto* binary = dynamic_cast<BinaryFileTraceSource*>(&source);
      binary != nullptr && !filter.active) {
    decoded = binary->decode_grouped(
        *pool_, [&] { return check_stop(run, deadline, activity); });
  }
  // Any other source, or a declined decode: group by key while draining
  // (malformed bytes throw here, from the source's own reader). A
  // filter keeps only matching operations, but every record is decoded.
  if (decoded.status == GroupedDecode::Status::declined) {
    KeyGrouper grouper = grouper_for(filter);
    decoded.stop_reason =
        drive_source(source, run, deadline, activity,
                     [&grouper](std::span<const KeyedOperation> batch) {
                       for (const KeyedOperation& kop : batch) {
                         grouper.add(kop.key, kop.op);
                       }
                     });
    decoded.groups = std::move(grouper).finish();
  }
  // One lazy shard per key, its History built on a pool worker.
  Report report = run_specs(lazy_shards(decoded.groups), run, deadline);
  account_selection(report, filter, decoded.groups.keys);
  if (!decoded.stop_reason.empty()) {
    report.cancelled = true;
    report.stop_reason = decoded.stop_reason;
  }
  scope.finish(report);
  return report;
}

namespace {

MonitorOptions monitor_options_for(const EngineOptions& options,
                                   const RunOptions& run,
                                   obs::MetricsRegistry* metrics) {
  MonitorOptions monitor_options;
  monitor_options.streaming = options.streaming;
  monitor_options.reorder_slack = options.reorder_slack;
  monitor_options.queue_capacity = options.queue_capacity;
  monitor_options.on_violation = run.on_finding;
  // The engine's resolved registry, not options.metrics: a null there
  // already resolved to the global at engine construction.
  monitor_options.metrics = metrics;
  return monitor_options;
}

// Hands one batch to the monitor: whole when no key filter is set,
// else only the operations of the keys the filter passes, recording
// every key offered.
void ingest_selected(KeyedStreamingMonitor& monitor,
                     std::span<const KeyedOperation> batch,
                     const KeyFilter& filter,
                     std::set<std::string>& offered) {
  if (!filter.active) {
    monitor.ingest(batch);
    return;
  }
  // Runs of consecutive passing operations go in as subspans, so
  // nothing is copied.
  std::size_t run_begin = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    offered.insert(batch[i].key);
    if (filter.pass(batch[i].key)) continue;
    monitor.ingest(batch.subspan(run_begin, i - run_begin));
    run_begin = i + 1;
  }
  monitor.ingest(batch.subspan(run_begin));
}

// A cancelled run still finishes cleanly: what was ingested is fully
// checked, so the partial report is sound for the prefix.
void finish_monitor_into(KeyedStreamingMonitor& monitor, Report& report) {
  MonitorReport finished = monitor.finish();
  report.monitor_totals = std::move(finished.totals);
  for (auto& [key, result] : finished.per_key) {
    report.per_key.emplace(key,
                           KeyResult{std::move(result.verdict), result.stats,
                                     std::move(result.violations)});
  }
}

}  // namespace

Report Engine::monitor(const KeyedTrace& trace, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/false);
  // Dedicated loop rather than a MemoryTraceSource: the trace is
  // already in memory, so it is ingested in place, a subspan at a time
  // -- no O(trace) copy.
  // The stop conditions are checked after the first operation, so a
  // run cancelled before it starts admits exactly one, and then after
  // every kPullBatch operations, as drive_source does.
  const auto deadline = effective_deadline(run);
  const KeyFilter filter(run);
  const std::string activity =
      "monitoring memory(" + std::to_string(trace.size()) + " ops)";
  Report report;
  report.mode = Report::Mode::monitor;
  std::set<std::string> offered;
  {
    KeyedStreamingMonitor monitor(
        *pool_, monitor_options_for(options_, run, metrics_));
    const std::span<const KeyedOperation> ops(trace.ops);
    for (std::size_t at = 0; at < ops.size();) {
      const std::size_t len =
          at == 0 ? 1 : std::min(kPullBatch, ops.size() - at);
      ingest_selected(monitor, ops.subspan(at, len), filter, offered);
      at += len;
      std::string stop = check_stop(run, deadline, activity);
      if (!stop.empty()) {
        report.cancelled = true;
        report.stop_reason = std::move(stop);
        break;
      }
    }
    finish_monitor_into(monitor, report);
  }
  account_selection(report, filter, offered);
  scope.finish(report);
  return report;
}

Report Engine::monitor(TraceSource& source, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/false);
  const auto deadline = effective_deadline(run);
  const KeyFilter filter(run);
  Report report;
  report.mode = Report::Mode::monitor;
  std::set<std::string> offered;
  {
    KeyedStreamingMonitor monitor(
        *pool_, monitor_options_for(options_, run, metrics_));
    const std::string stop = drive_source(
        source, run, deadline, "monitoring " + source.describe(),
        [&](std::span<const KeyedOperation> batch) {
          ingest_selected(monitor, batch, filter, offered);
        });
    if (!stop.empty()) {
      report.cancelled = true;
      report.stop_reason = stop;
    }
    finish_monitor_into(monitor, report);
  }
  account_selection(report, filter, offered);
  scope.finish(report);
  return report;
}

}  // namespace kav
