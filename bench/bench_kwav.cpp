// Theorem 5.1 says k-WAV is NP-complete (docs/ALGORITHMS.md, "k-WAV").
// The executable evidence: the exact weighted decider's cost explodes
// with instance size on reductions of hard bin-packing instances,
// while the polynomial FFD heuristic stays flat (at the price of
// approximation); the exact bin-packing branch-and-bound sits between.
#include <benchmark/benchmark.h>

#include "core/kwav.h"
#include "util/rng.h"

namespace kav {
namespace {

// Hard-ish family: items just under half capacity force real search.
BinPackingInstance hard_instance(int items, std::uint64_t seed) {
  Rng rng(seed);
  BinPackingInstance instance;
  instance.capacity = 100;
  for (int i = 0; i < items; ++i) {
    instance.sizes.push_back(30 + rng.uniform(0, 25));  // in [30, 55]
  }
  // Bin count at the feasibility boundary.
  Weight total = 0;
  for (Weight s : instance.sizes) total += s;
  instance.bins = static_cast<int>((total + 99) / 100);
  return instance;
}

void kwav_exact_on_reduction(benchmark::State& state) {
  const BinPackingInstance instance =
      hard_instance(static_cast<int>(state.range(0)), 11);
  const KwavReduction red = reduce_bin_packing_to_kwav(instance);
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    OracleOptions options;
    options.node_limit = 200'000'000;
    const OracleResult r = check_weighted_k_atomicity(red.instance, red.k,
                                                      options);
    benchmark::DoNotOptimize(r);
    nodes = r.nodes;
  }
  state.counters["items"] = static_cast<double>(instance.sizes.size());
  state.counters["kwav_ops"] = static_cast<double>(red.instance.history.size());
  state.counters["search_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(kwav_exact_on_reduction)->DenseRange(4, 12, 2)
    ->Unit(benchmark::kMicrosecond);

void bin_packing_exact(benchmark::State& state) {
  const BinPackingInstance instance =
      hard_instance(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    const bool feasible = bin_packing_feasible(instance);
    benchmark::DoNotOptimize(feasible);
  }
  state.counters["items"] = static_cast<double>(instance.sizes.size());
}
BENCHMARK(bin_packing_exact)->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMicrosecond);

void bin_packing_ffd(benchmark::State& state) {
  const BinPackingInstance instance =
      hard_instance(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    const int bins = first_fit_decreasing_bins(instance.sizes,
                                               instance.capacity);
    benchmark::DoNotOptimize(bins);
  }
  state.SetComplexityN(state.range(0));
  state.counters["items"] = static_cast<double>(instance.sizes.size());
}
BENCHMARK(bin_packing_ffd)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oNSquared);

// Weight-1 sanity: on unweighted instances the weighted machinery must
// not be meaningfully slower than the unweighted oracle.
void kwav_weight_one_overhead(benchmark::State& state) {
  HistoryBuilder b;
  const int writes = 10;
  for (int i = 0; i < writes; ++i) {
    b.write(i * 100, i * 100 + 50, i + 1);
    b.read(i * 100 + 60, i * 100 + 90, i + 1);
  }
  const History h = b.build();
  const std::vector<Weight> ones(h.size(), 1);
  for (auto _ : state) {
    const OracleResult r = oracle_is_weighted_k_atomic(h, ones, 2);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(kwav_weight_one_overhead)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
