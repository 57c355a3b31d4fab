// Parallel multi-register verification. k-atomicity is local (paper
// Section II-B): a trace is k-atomic iff its projection onto each
// register is, and the projections share no state, so per-key shards
// are embarrassingly parallel. ShardedVerifier splits a KeyedTrace by
// key, dispatches each per-key History to a work-stealing ThreadPool,
// and merges the per-key Verdicts back into a KeyedReport in key order.
//
// The pool can be owned (legacy constructor: the verifier spawns one)
// or borrowed (ThreadPool& constructor: kav::Engine wires batch and
// monitor work onto ONE shared pool -- see core/engine.h, the library's
// front door). In borrowed mode PipelineOptions::threads is ignored:
// the pool's size wins.
//
// Determinism guarantee: with fail_fast off and no RunControl trigger,
// every shard's verdict is a pure function of (shard history,
// VerifyOptions, shard_op_budget) -- including the ZoneProfile-based
// LBT/FZF choice under Algorithm::auto_select, which looks only at the
// shard -- and the merge orders by key, so the returned KeyedReport
// never depends on thread count or scheduling; with shard_op_budget
// also unset it is bit-identical to the serial verify_keyed_trace()
// (checked by tests/pipeline_fuzz_test.cpp and tests/engine_fuzz_test.cpp).
//
// Early-stop modes trade that for latency, and all three report skipped
// shards as UNDECIDED with the exact reasons in core/run_control.h:
// fail_fast (once any shard answers NO, shards that have not started
// are skipped; at least one NO always survives into the report),
// RunControl::cancel (caller-initiated), and RunControl::deadline
// (wall-clock). *Which* shards still get verdicts under any of them
// depends on scheduling.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_PIPELINE_SHARDED_VERIFIER_H
#define KAV_PIPELINE_SHARDED_VERIFIER_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/run_control.h"
#include "core/verify.h"
#include "history/keyed_trace.h"
#include "pipeline/thread_pool.h"

namespace kav {

// One unit of parallel work for verify_shards: a key plus EITHER a
// pre-materialized history (`pinned`, the classic KeyedHistories path)
// OR a loader the worker invokes to materialize it lazily (`load`).
// Two paths build lazy shards: the trace store's index-driven path
// (op_count comes from index statistics, and the shard's operations
// are decoded from their mmap blocks inside the pool worker) and the
// full-trace path (lazy_shards below: the worker builds the History
// from the key's grouped operations). op_count is what shard_op_budget
// is checked against, so over-budget lazy shards are skipped without
// loading anything.
struct ShardSpec {
  std::string key;
  std::size_t op_count = 0;
  const History* pinned = nullptr;   // used when non-null
  std::function<History()> load;     // else called on the worker;
                                     // must be thread-safe
};

// One lazy spec per non-empty group, in key order. Each loader moves
// its key's bucket out of `groups` into a History, so every History is
// built on a pool worker and freed once its verdict is in. `groups`
// must outlive the verify_shards call, and each spec loads at most once.
std::vector<ShardSpec> lazy_shards(KeyGroups& groups);

struct PipelineOptions {
  // Worker threads; 0 picks std::thread::hardware_concurrency().
  // Ignored when the verifier borrows a caller-provided pool.
  std::size_t threads = 0;
  // Largest shard (per-key operation count) the pipeline will hand to a
  // decider; bigger shards answer UNDECIDED with a budget reason rather
  // than stalling a worker. 0 = unlimited. The cutoff depends only on
  // the shard, so it does not break determinism.
  std::size_t shard_op_budget = 0;
  // Early-cancel: once one shard answers NO, not-yet-started shards are
  // skipped (UNDECIDED). Useful when any violation fails the audit and
  // per-key detail beyond the first NO is not needed.
  bool fail_fast = false;
};

class ShardedVerifier {
 public:
  // Owning: spawns a pool sized by pipeline_options.threads. The pool
  // is created once and reused across verify() calls, so a monitor can
  // re-verify batches without respawning threads.
  //
  // Both constructors instrument per-shard work (kav_engine_shard_*
  // latency histograms, kav_verify_* decision-procedure counters) into
  // `metrics`; nullptr means obs::MetricsRegistry::global(). The
  // registry must outlive the verifier.
  explicit ShardedVerifier(VerifyOptions verify_options = {},
                           PipelineOptions pipeline_options = {},
                           obs::MetricsRegistry* metrics = nullptr);
  // Non-owning: runs every shard on the caller's pool, which must
  // outlive the verifier. This is how kav::Engine keeps a process doing
  // batch + online work down to exactly one pool.
  ShardedVerifier(pipeline::ThreadPool& pool, VerifyOptions verify_options = {},
                  PipelineOptions pipeline_options = {},
                  obs::MetricsRegistry* metrics = nullptr);

  KeyedReport verify(const KeyedTrace& trace);
  KeyedReport verify(const KeyedHistories& shards);
  // Same, overriding the constructor's VerifyOptions for this call --
  // e.g. auditing the same shards at several k on one pool.
  KeyedReport verify(const KeyedHistories& shards,
                     const VerifyOptions& options);
  // Full form: per-call options plus run control (cancellation,
  // deadline, live per-key callback). The default RunControl reproduces
  // the overloads above bit for bit.
  KeyedReport verify(const KeyedHistories& shards,
                     const VerifyOptions& options, const RunControl& run);

  // The general core every overload above funnels into: one task per
  // ShardSpec on the pool, merged into a KeyedReport in spec order
  // (keys must be unique). Lazy specs let a caller hand the pipeline
  // shard *descriptions* (key + op count from an index) instead of
  // materialized histories; each worker materializes, decides, and
  // discards its own shard, so peak memory is O(threads * max shard)
  // rather than O(trace). A lazy loader that throws (e.g. corrupt
  // bytes under an mmap) propagates out of this call after every other
  // shard has been waited for. Determinism: verdicts are a pure
  // function of each spec's history + options, exactly as for verify().
  KeyedReport verify_shards(const std::vector<ShardSpec>& shards,
                            const VerifyOptions& options,
                            const RunControl& run);

  std::size_t thread_count() const { return pool_->thread_count(); }

 private:
  VerifyOptions verify_options_;
  PipelineOptions pipeline_options_;
  std::unique_ptr<pipeline::ThreadPool> owned_pool_;
  pipeline::ThreadPool* pool_;  // owned_pool_.get() or the borrowed pool
  // Shard latency + decision-procedure instruments (sharded_verifier.cpp);
  // owned by the registry, shared safely by concurrent run_shard tasks.
  struct Metrics;
  std::shared_ptr<Metrics> metrics_;
};

}  // namespace kav

#endif  // KAV_PIPELINE_SHARDED_VERIFIER_H
