// The Gibbons-Korach 1-AV baseline (docs/ALGORITHMS.md, "GK") scales
// quasilinearly -- the "solved problem" cost that LBT/FZF are measured
// against.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/gk.h"
#include "history/cluster.h"

namespace kav {
namespace {

void gk_atomic_histories(benchmark::State& state) {
  Rng rng(4);
  gen::KAtomicConfig config;
  config.writes = static_cast<int>(state.range(0));
  config.k = 1;  // atomic by construction: GK answers YES
  config.min_reads_per_write = 1;
  config.max_reads_per_write = 3;
  const History h = gen::generate_k_atomic(config, rng).history;
  for (auto _ : state) {
    const Verdict v = check_1atomicity_gk(h);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  state.counters["n"] = static_cast<double>(h.size());
}
BENCHMARK(gk_atomic_histories)
    ->RangeMultiplier(2)
    ->Range(1 << 9, 1 << 15)
    ->Complexity(benchmark::oNLogN);

void gk_non_atomic_histories(benchmark::State& state) {
  // 2-atomic (but not 1-atomic) workloads: GK should reject quickly,
  // on the first forward-zone overlap it sweeps past.
  const History h =
      bench::practical_workload(static_cast<int>(state.range(0)), 1.0, 42);
  for (auto _ : state) {
    const Verdict v = check_1atomicity_gk(h);
    benchmark::DoNotOptimize(v);
  }
  state.counters["n"] = static_cast<double>(h.size());
}
BENCHMARK(gk_non_atomic_histories)->Arg(1 << 12)->Arg(1 << 15);

void zone_computation(benchmark::State& state) {
  const History h =
      bench::practical_workload(static_cast<int>(state.range(0)), 1.0, 42);
  for (auto _ : state) {
    const auto zones = compute_zones(h);
    benchmark::DoNotOptimize(zones);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
}
BENCHMARK(zone_computation)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 14)
    ->Complexity(benchmark::oNLogN);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
