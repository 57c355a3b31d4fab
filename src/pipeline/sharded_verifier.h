// Parallel multi-register verification. k-atomicity is local (paper
// Section II-B): a trace is k-atomic iff its projection onto each
// register is, and the projections share no state, so per-key shards
// are embarrassingly parallel. ShardedVerifier runs one task per
// ShardSpec on a caller-provided work-stealing ThreadPool and merges
// the per-key Verdicts into a batch Report in key order. kav::Engine
// (core/engine.h, the library's front door) owns the pool and runs
// batch and monitor work on it.
//
// Determinism guarantee: with fail_fast off and no RunControl trigger,
// every shard's verdict is a pure function of (shard history,
// VerifyOptions, shard_op_budget) -- including the ZoneProfile-based
// LBT/FZF choice under Algorithm::auto_select, which looks only at the
// shard -- and the merge orders by key, so the returned Report never
// depends on thread count or scheduling; with shard_op_budget also
// unset it is bit-identical to the serial verify_keyed_trace()
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

#include "core/report.h"
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
  // Runs every shard on `pool`, which must outlive the verifier, and
  // instruments per-shard work (kav_engine_shard_* latency histograms,
  // kav_verify_* decision-procedure counters) into `metrics`; nullptr
  // means obs::MetricsRegistry::global(). The registry must outlive
  // the verifier.
  explicit ShardedVerifier(pipeline::ThreadPool& pool,
                           PipelineOptions pipeline_options = {},
                           obs::MetricsRegistry* metrics = nullptr);

  // One task per ShardSpec on the pool, merged into a batch Report in
  // spec order (keys must be unique) with verify_totals summed over
  // every key. A shard skipped by cancellation or the deadline marks
  // the Report cancelled, with the first such reason in key order as
  // its stop_reason. Lazy specs let a caller hand the pipeline shard
  // *descriptions* (key + op count from an index) instead of
  // materialized histories; each worker materializes, decides, and
  // discards its own shard, so peak memory is O(threads * max shard)
  // rather than O(trace). A lazy loader that throws (e.g. corrupt
  // bytes under an mmap) propagates out of this call after every other
  // shard has been waited for.
  Report verify_shards(const std::vector<ShardSpec>& shards,
                       const VerifyOptions& options,
                       const RunControl& run = {});

  std::size_t thread_count() const { return pool_->thread_count(); }

 private:
  PipelineOptions pipeline_options_;
  pipeline::ThreadPool* pool_;
  // Shard latency + decision-procedure instruments (sharded_verifier.cpp);
  // owned by the registry, shared safely by concurrent run_shard tasks.
  struct Metrics;
  std::shared_ptr<Metrics> metrics_;
};

}  // namespace kav

#endif  // KAV_PIPELINE_SHARDED_VERIFIER_H
