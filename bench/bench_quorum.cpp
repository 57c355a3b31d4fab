// The end-to-end pipeline (docs/ALGORITHMS.md, "sharded pipeline") on the
// paper's motivating system. Measures (a) simulator + verification
// throughput, and (b) -- as reportable counters -- the staleness
// landscape across quorum configurations: fraction of per-key histories
// that are 1-atomic and 2-atomic, and the observed stale-read rate.
// The staleness_tuning example prints the same sweep as a table.
#include <benchmark/benchmark.h>

#include "core/verify.h"
#include "history/anomaly.h"
#include "quorum/sim.h"

namespace kav {
namespace {

quorum::QuorumConfig sweep_config(int n, int w, int r, bool first_responders,
                                  std::uint64_t seed) {
  quorum::QuorumConfig config;
  config.replicas = n;
  config.write_quorum = w;
  config.read_quorum = r;
  config.first_responders = first_responders;
  config.clients = 6;
  config.keys = 2;
  config.ops_per_client = 60;
  config.anti_entropy_interval = 500;
  config.seed = seed;
  return config;
}

void quorum_pipeline(benchmark::State& state) {
  // Args: N, W, R, first_responders.
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  const int r = static_cast<int>(state.range(2));
  const bool first = state.range(3) != 0;

  std::uint64_t seed = 1;
  double keys_total = 0, keys_1atomic = 0, keys_2atomic = 0;
  double stale = 0, ops = 0;
  for (auto _ : state) {
    const quorum::SimResult sim =
        quorum::run_sloppy_quorum_sim(sweep_config(n, w, r, first, seed++));
    const KeyedHistories split = split_by_key(sim.trace);
    for (const auto& [key, history] : split.per_key) {
      if (!find_anomalies(history).repairable()) continue;
      const History normalized = normalize(history);
      keys_total += 1;
      VerifyOptions options;
      options.k = 1;
      keys_1atomic += verify_k_atomicity(normalized, options).yes();
      options.k = 2;
      keys_2atomic += verify_k_atomicity(normalized, options).yes();
    }
    stale += static_cast<double>(sim.stats.stale_reads);
    ops += static_cast<double>(sim.stats.reads + sim.stats.writes);
    benchmark::DoNotOptimize(sim);
  }
  state.counters["frac_1atomic"] =
      keys_total > 0 ? keys_1atomic / keys_total : 0;
  state.counters["frac_2atomic"] =
      keys_total > 0 ? keys_2atomic / keys_total : 0;
  state.counters["stale_read_rate"] = ops > 0 ? stale / ops : 0;
  state.counters["ops_per_run"] = ops / static_cast<double>(state.iterations());
}
BENCHMARK(quorum_pipeline)
    ->Args({3, 2, 2, 1})   // strict majority
    ->Args({3, 1, 2, 1})   // R+W = N boundary
    ->Args({3, 1, 1, 1})   // sloppy first-responder
    ->Args({3, 1, 1, 0})   // sloppy fixed-subset
    ->Args({5, 3, 3, 1})   // strict at N=5
    ->Args({5, 1, 1, 1})
    ->Args({5, 1, 1, 0})   // sloppiest
    ->Unit(benchmark::kMillisecond);

// Raw simulator throughput (events, no verification).
void quorum_sim_throughput(benchmark::State& state) {
  std::uint64_t seed = 1;
  std::uint64_t total_ops = 0;
  for (auto _ : state) {
    quorum::QuorumConfig config = sweep_config(5, 2, 2, true, seed++);
    config.ops_per_client = static_cast<int>(state.range(0));
    const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
    total_ops += sim.stats.reads + sim.stats.writes;
    benchmark::DoNotOptimize(sim);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kIsRate);
}
BENCHMARK(quorum_sim_throughput)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// End-to-end verification throughput on large single-key traces: the
// cost of "auditing a day of traffic".
void quorum_verify_throughput(benchmark::State& state) {
  quorum::QuorumConfig config = sweep_config(5, 2, 2, true, 77);
  config.keys = 1;
  config.clients = 8;
  config.ops_per_client = static_cast<int>(state.range(0));
  const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
  const KeyedHistories split = split_by_key(sim.trace);
  const History h = normalize(split.per_key.begin()->second);
  std::uint64_t checked = 0;
  for (auto _ : state) {
    VerifyOptions options;
    options.k = 2;
    const Verdict v = verify_k_atomicity(h, options);
    benchmark::DoNotOptimize(v);
    checked += h.size();
  }
  state.counters["trace_ops"] = static_cast<double>(h.size());
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(checked), benchmark::Counter::kIsRate);
}
BENCHMARK(quorum_verify_throughput)->Arg(500)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
