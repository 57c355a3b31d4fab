// LBT's running-time behaviour, Theorem 3.2 (docs/ALGORITHMS.md, "LBT").
//
//   - lbt_practical_n:   runtime vs n at bounded concurrency; the paper
//     predicts quasilinear growth ("likely to be quasilinear for the
//     common cases that arise in practice").
//   - lbt_concurrency_c: runtime vs c at (roughly) fixed n; the paper
//     predicts the O(c * n) term to show as linear growth in c.
//   - lbt_quadratic:     c = Theta(n); the paper predicts O(n^2).
//   - lbt_ablation_*:    iterative deepening (Section III-C) vs the
//     naive candidate loop on adversarial epochs (E5). Deepening bounds
//     the candidate search at O(c * t); the naive loop can pay more
//     when cheap-failing candidates hide behind expensive ones.
//
// The SetComplexityN/Complexity calls make google-benchmark print a
// fitted exponent ("BigO") per family; EXPERIMENTS.md quotes those.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/lbt.h"
#include "history/anomaly.h"
#include "quorum/sim.h"

namespace kav {
namespace {

LbtOptions timed_options(bool deepening = true) {
  LbtOptions options;
  options.iterative_deepening = deepening;
  options.check_preconditions = false;  // time the algorithm alone
  return options;
}

void lbt_practical_n(benchmark::State& state) {
  const int writes = static_cast<int>(state.range(0));
  const History h = bench::practical_workload(writes, 1.0, 42);
  const LbtOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_lbt(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(h.size()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(lbt_practical_n)
    ->RangeMultiplier(2)
    ->Range(1 << 9, 1 << 15)
    ->Complexity(benchmark::oNLogN);

void lbt_concurrency_c(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  // Hold n roughly fixed (~8k ops) while c grows.
  const int groups = std::max(1, 8192 / (2 * c + 1));
  const History h = bench::adversarial_workload(groups, c, 7);
  const LbtOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_lbt(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(c);
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
}
BENCHMARK(lbt_concurrency_c)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity(benchmark::oN);

void lbt_quadratic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const History h = bench::quadratic_workload(n, 13);
  const LbtOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_lbt(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
}
BENCHMARK(lbt_quadratic)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 12)
    ->Complexity(benchmark::oNSquared);

// E5 ablation: same adversarial input, deepening on vs off.
void lbt_ablation_deepening(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const History h = bench::adversarial_workload(24, c, 3);
  const LbtOptions options = timed_options(true);
  for (auto _ : state) {
    const Verdict v = check_2atomicity_lbt(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.counters["n"] = static_cast<double>(h.size());
}
BENCHMARK(lbt_ablation_deepening)->Arg(16)->Arg(64)->Arg(128);

void lbt_ablation_naive(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const History h = bench::adversarial_workload(24, c, 3);
  const LbtOptions options = timed_options(false);
  for (auto _ : state) {
    const Verdict v = check_2atomicity_lbt(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.counters["n"] = static_cast<double>(h.size());
}
BENCHMARK(lbt_ablation_naive)->Arg(16)->Arg(64)->Arg(128);

// E14: realistic traces from the quorum simulator -- low c, so the
// paper expects LBT to behave quasilinearly here.
void lbt_quorum_trace(benchmark::State& state) {
  quorum::QuorumConfig config;
  config.clients = 8;
  config.keys = 1;
  config.ops_per_client = static_cast<int>(state.range(0));
  config.seed = 21;
  const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
  const KeyedHistories split = split_by_key(sim.trace);
  const History h = normalize(split.per_key.begin()->second);
  const LbtOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_lbt(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
}
BENCHMARK(lbt_quorum_trace)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity(benchmark::oNLogN);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
