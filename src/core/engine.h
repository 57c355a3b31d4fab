// kav::Engine -- the library's one front door. A long-lived session
// object in the spirit of a production verifier (the paper's Section
// VII experiment run as a service, not a one-shot function call):
// constructed once from a consolidated EngineOptions, owning ONE
// work-stealing thread pool shared by sharded batch verification
// (pipeline/sharded_verifier.h) and keyed online monitoring
// (ingest/keyed_monitor.h), and consuming any input through the
// polymorphic TraceSource abstraction (ingest/trace_source.h). Both
// entry points return the unified Report (core/report.h) and accept
// per-call RunOptions: a VerifyOptions override, a CancelToken, a
// wall-clock deadline, live per-key / per-violation callbacks, and a
// key_filter for selective runs (index-backed sources decode only the
// requested keys' blocks; see src/store/).
//
// Option precedence, from strongest to weakest:
//   1. RunOptions::verify (per call) overrides EngineOptions::verify.
//   2. RunOptions::deadline and ::timeout compose: the earlier cutoff
//      wins when both are set.
//   3. EngineOptions::threads is the only pool size: the sharded
//      verifier and every monitor run borrow the engine's pool.
//
// Determinism: Engine::verify inherits the sharded pipeline's
// guarantee -- with fail_fast off and no cancel/deadline trigger, the
// Report's verdicts are bit-identical to the serial reference
// verify_keyed_trace (core/verify.h) for any thread count
// (differentially fuzzed by tests/engine_fuzz_test.cpp).
//
// Full surface map: docs/API.md.
#ifndef KAV_CORE_ENGINE_H
#define KAV_CORE_ENGINE_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/run_control.h"
#include "core/streaming.h"
#include "core/verify.h"
#include "history/keyed_trace.h"
#include "ingest/trace_source.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"

namespace kav::pipeline {
class ThreadPool;
}  // namespace kav::pipeline

namespace kav {

class SelectiveTraceSource;
class ShardedVerifier;
struct ShardSpec;
class TraceStore;
struct CompactionOptions;

// One options struct for the whole session: VerifyOptions (nested),
// the batch fields of PipelineOptions (shard_op_budget, fail_fast), and
// the monitor fields of MonitorOptions (streaming, reorder_slack,
// queue_capacity), plus the one pool size.
struct EngineOptions {
  // What to verify: k, algorithm, normalization (core/verify.h).
  VerifyOptions verify;
  // Size of the one shared pool; 0 picks hardware_concurrency().
  std::size_t threads = 0;

  // Batch verification (Engine::verify):
  // Largest per-key shard handed to a decider; bigger shards answer
  // UNDECIDED. 0 = unlimited.
  std::size_t shard_op_budget = 0;
  // Once one shard answers NO, not-yet-started shards are skipped.
  bool fail_fast = false;

  // Online monitoring (Engine::monitor):
  StreamingOptions streaming;       // per-key staleness horizon
  TimePoint reorder_slack = 1'000;  // arrival disorder bound
  std::size_t queue_capacity = 1'024;  // per-key backpressure queue

  // Observability (src/obs/): the registry every subsystem this engine
  // owns reports into -- pool, sharded verifier, per-run monitors, and
  // any store from open_store(). nullptr = the process-wide
  // obs::MetricsRegistry::global(). Inject a private registry to
  // isolate one engine's series (tests do) or to scrape several
  // engines separately from one process.
  obs::MetricsRegistry* metrics = nullptr;

  // Live telemetry (obs/telemetry_server.h): >= 0 starts an HTTP
  // server over this engine's registry at construction -- 0 picks an
  // ephemeral port (read engine.telemetry()->port() back), -1 (the
  // default) serves nothing. Equivalent to calling serve_telemetry()
  // yourself after construction.
  int telemetry_port = -1;
  std::string telemetry_address = "127.0.0.1";
};

// Per-call run options. Default-constructed RunOptions run the whole
// input with EngineOptions::verify and no early stop.
struct RunOptions {
  // Overrides EngineOptions::verify for this call, e.g. auditing the
  // same shards at several k on one pool.
  std::optional<VerifyOptions> verify;
  // Selective run: verify (or monitor) only these keys. Over a source
  // backed by a per-key index (an indexed .kavb v2 segment or a
  // TraceStore -- see src/store/), each requested key's shard is
  // materialized lazily inside a pool worker straight from its index
  // blocks and the rest of the input is NEVER decoded; over any other
  // input the stream is filtered while read. Either way the verdicts
  // are bit-identical to filtering the full report of an unfiltered
  // run (differentially fuzzed by tests/store_fuzz_test.cpp), and
  // Report::keys_selected / keys_available / missing_keys account for
  // what the filter hit. Empty = verify everything.
  std::vector<std::string> key_filter;
  // Cooperative cancellation: keep a copy, call cancel() from any
  // thread. Shards that have not started answer UNDECIDED
  // (kSkipCancelledReason); a monitor run stops ingesting. Checked at
  // shard / operation granularity -- running deciders complete.
  CancelToken cancel;
  // Relative wall-clock budget for this call; 0 = none.
  std::chrono::milliseconds timeout{0};
  // Absolute wall-clock cutoff; composes with timeout (earlier wins).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Batch: live per-key verdict sink, invoked from pool workers as
  // each shard lands (serialized; completion order; exactly once per
  // key, skipped shards included). Keep it cheap.
  std::function<void(const std::string& key, const Verdict& verdict)> on_key;
  // Monitor: live violation sink, invoked at detection time (see
  // MonitorOptions::on_violation for the threading contract).
  std::function<void(const std::string& key,
                     const StreamingViolation& violation)>
      on_finding;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Batch verification: group by key, verify shards on the shared
  // pool, merge in key order. Report::mode == batch. Each key's History
  // is built on a pool worker and freed after its verdict. A malformed
  // operation (start >= finish) throws std::invalid_argument when its
  // key's History is built, so the operations of a skipped shard
  // (budget, cancel, deadline, fail-fast) are never checked.
  Report verify(const KeyedTrace& trace, const RunOptions& run = {});
  Report verify(const KeyedHistories& shards, const RunOptions& run = {});
  // Routes by source, then verifies as above:
  //   - index-backed (SelectiveTraceSource): each requested key -- every
  //     key without a key_filter -- is decoded inside its pool worker,
  //     and the rest of the input never is;
  //   - an unfiltered .kavb stream (BinaryFileTraceSource): decoded and
  //     grouped by key on the pool (ingest/parallel_decode.h);
  //   - anything else: pulled dry on the calling thread (cancellable),
  //     grouping by key as it reads.
  // A stop during the parallel decode leaves no per-key results.
  Report verify(TraceSource& source, const RunOptions& run = {});

  // Online monitoring: stream the source through a per-key
  // StreamingChecker array on the same shared pool. Report::mode ==
  // monitor; per-key findings and MonitorStats totals are filled in.
  // RunOptions::verify is ignored (the streaming checker is the k = 2
  // online decider).
  Report monitor(const KeyedTrace& trace, const RunOptions& run = {});
  Report monitor(TraceSource& source, const RunOptions& run = {});

  // Opens (creating if needed) a TraceStore at `directory` with
  // background tiered compaction enabled on this engine's shared pool
  // (store/trace_store.h) -- the session-owned way to run an
  // out-of-core store that maintains itself between verify calls.
  // Destroy the returned store before the engine: its destructor
  // quiesces the background pass, which needs the pool alive.
  std::unique_ptr<TraceStore> open_store(const std::string& directory);
  std::unique_ptr<TraceStore> open_store(const std::string& directory,
                                         const CompactionOptions& compaction);

  const EngineOptions& options() const { return options_; }
  std::size_t thread_count() const;
  // The one shared pool -- exposed so bespoke subsystems can schedule
  // side work without spawning their own.
  pipeline::ThreadPool& pool() { return *pool_; }

  // The registry this engine reports into (EngineOptions::metrics, or
  // the process-wide global). Safe to read/scrape from any thread.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  // Coherent point-in-time snapshot of every metric in this engine's
  // registry -- callable concurrently with running verify/monitor
  // calls (counters are monotone; a snapshot taken mid-run shows a
  // consistent prefix of the run's work). Feed it to
  // obs::render_prometheus / obs::render_json for the wire formats.
  obs::RegistrySnapshot snapshot() const { return metrics_->snapshot(); }

  // Starts serving this engine's telemetry over HTTP (GET /metrics,
  // /status, /healthz, /spans -- obs/telemetry_server.h) and wires
  // /status to this->status(). Port 0 = ephemeral; idempotent (the
  // running server is returned, the arguments of later calls are
  // ignored). Throws on bind failure.
  obs::TelemetryServer& serve_telemetry(
      const std::string& address = "127.0.0.1", int port = 0);
  // The running server, or nullptr when none was started.
  obs::TelemetryServer* telemetry() { return telemetry_.get(); }

  // Point-in-time operator status: uptime, run counts (including
  // in-flight), the most recent run summaries, and the top-`top_n`
  // keys by monitor violations. Safe from any thread, concurrent with
  // running calls -- this is what GET /status serves.
  obs::StatusSnapshot status(std::size_t top_n = 10) const;

 private:
  // Every batch path ends here: pinned specs for pre-split shards,
  // lazy specs for grouped traces and index-backed loads. `deadline` is
  // the already-anchored cutoff for the whole call -- computed once at
  // the public entry point so a slow TraceSource read phase cannot
  // re-arm a relative timeout for the shard phase.
  Report run_specs(
      const std::vector<ShardSpec>& specs, const RunOptions& run,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);
  // An index-backed source: one lazy spec per requested key (every key
  // without a key_filter), decoded on the pool straight from the index.
  Report verify_selective(
      SelectiveTraceSource& source, const RunOptions& run,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

  EngineOptions options_;
  obs::MetricsRegistry* metrics_;  // never null after construction
  // Run-lifecycle instruments (kav_engine_runs_*, run_seconds,
  // verdicts, findings); defined in engine.cpp, accounted by the
  // RunScope helper wrapping each public entry point.
  struct Metrics;
  std::unique_ptr<Metrics> em_;
  // Run ledger behind status(): counts, recent-run ring, per-key
  // violation totals; defined in engine.cpp, fed by RunScope.
  struct StatusCollector;
  std::unique_ptr<StatusCollector> status_;
  std::unique_ptr<pipeline::ThreadPool> pool_;
  std::unique_ptr<ShardedVerifier> verifier_;
  // Declared last: the server's /status handler reads status_ (and the
  // registry), so it must stop before anything above is torn down.
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace kav

#endif  // KAV_CORE_ENGINE_H
