// Fig. 17: Eff-TT table LOOKUP latency vs batch size — REAL measurements
// (google-benchmark) of this repo's kernels on one CPU core.
//
// Series:
//   TTRec        — baseline TT table, per-occurrence recompute (TT-Rec)
//   EffTT_NoReuse— Eff-TT with intermediate-result reuse disabled
//   EffTT        — full Eff-TT (two-level reuse)
//   EffTT_Reorder— full Eff-TT + locality-based index reordering (§IV)
//   DenseBag     — uncompressed EmbeddingBag reference
// Paper shape: EffTT ~1.83x over TTRec on average, growing with batch size;
// reordering adds ~1.05x on top.
// `--quick` runs a single batch size (2048) over the three main series, each
// at 1 thread and at all cores, and writes BENCH_fig17_lookup.json (median-
// of-5 ns/lookup with its MAD) for the perf-regression harness. It also
// times the lookup's first step, build_unique_index_map, against one
// std::sort of (value, position) pairs at 32-1024 indices drawn from tables
// of 1.8k, 26k and 203k rows (the serving tables' range).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "bench_util.hpp"
#include "core/eff_tt_table.hpp"
#include "data/synthetic.hpp"
#include "embed/embedding_bag.hpp"
#include "embed/index_batch.hpp"
#include "reorder/bijection.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

constexpr index_t kRows = 500000;
constexpr index_t kDim = 32;
constexpr index_t kRank = 16;

DatasetSpec bench_spec() {
  DatasetSpec spec;
  spec.name = "fig17";
  spec.num_dense = 1;
  spec.table_rows = {kRows};
  spec.num_samples = 1 << 20;
  spec.zipf_s = 1.2;
  spec.locality_groups = 16;
  spec.locality_fraction = 0.5;
  return spec;
}

// Pre-generates batches so data generation stays out of the timed region.
std::vector<IndexBatch> make_batches(index_t batch_size, int count) {
  SyntheticDataset data(bench_spec(), 4321);
  std::vector<IndexBatch> batches;
  for (int i = 0; i < count; ++i) {
    batches.push_back(data.next_batch(batch_size).sparse[0]);
  }
  return batches;
}

std::vector<index_t> reorder_mapping(std::uint64_t data_seed) {
  // Built offline from the same-seeded stream the benchmark measures on
  // (the paper generates the bijection from the training data).
  static const std::vector<index_t> mapping = [data_seed] {
    SyntheticDataset data(bench_spec(), data_seed);
    ReorderPipeline pipeline(kRows, 0.005, 5);
    for (int b = 0; b < 128; ++b) {
      pipeline.add_batch(data.next_batch(1024).sparse[0].indices);
    }
    return pipeline.finish().mapping;
  }();
  return mapping;
}

template <typename Table>
void run_lookup(benchmark::State& state, Table& table, index_t batch_size) {
  const auto batches = make_batches(batch_size, 8);
  Matrix out;
  std::size_t i = 0;
  for (auto _ : state) {
    table.forward(batches[i % batches.size()], out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch_size);
}

void BM_Lookup_TTRec(benchmark::State& state) {
  Prng rng(1);
  TTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
  run_lookup(state, table, state.range(0));
}

void BM_Lookup_EffTT_NoReuse(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng,
                   EffTTConfig{false, true, true});
  run_lookup(state, table, state.range(0));
}

void BM_Lookup_EffTT(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
  run_lookup(state, table, state.range(0));
}

void BM_Lookup_EffTT_Reorder(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
  table.set_index_bijection(reorder_mapping(4321));
  run_lookup(state, table, state.range(0));
}

void BM_Lookup_DenseBag(benchmark::State& state) {
  Prng rng(1);
  EmbeddingBag table(kRows, kDim, rng);
  run_lookup(state, table, state.range(0));
}

#define LOOKUP_ARGS \
  ->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)->MinTime(0.05)

BENCHMARK(BM_Lookup_TTRec) LOOKUP_ARGS;
BENCHMARK(BM_Lookup_EffTT_NoReuse) LOOKUP_ARGS;
BENCHMARK(BM_Lookup_EffTT) LOOKUP_ARGS;
BENCHMARK(BM_Lookup_EffTT_Reorder) LOOKUP_ARGS;
BENCHMARK(BM_Lookup_DenseBag) LOOKUP_ARGS;

// Median-of-5 ns per individual index lookup at the quick batch size, with
// its MAD; one rep looks up every pre-generated batch once.
template <typename Table>
benchutil::MedianMad quick_ns_per_lookup(Table& table,
                                         const std::vector<IndexBatch>& batches,
                                         index_t batch_size) {
  Matrix out;
  table.forward(batches[0], out);  // warm up
  const benchutil::MedianMad secs = benchutil::time_median_seconds(
      [&] {
        for (const IndexBatch& b : batches) table.forward(b, out);
      },
      5);
  const double per_lookup_ns =
      1e9 / (static_cast<double>(batches.size()) * batch_size);
  return {secs.median * per_lookup_ns, secs.mad * per_lookup_ns};
}

// The comparison-sort map build_unique_index_map replaces above its radix
// cutoff: one std::sort of (value, position) pairs, then one ranking walk.
UniqueIndexMap pair_sort_unique_map(const std::vector<index_t>& indices) {
  std::vector<std::pair<index_t, index_t>> keyed(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    keyed[i] = {indices[i], static_cast<index_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  UniqueIndexMap map;
  map.occurrence.resize(indices.size());
  for (const auto& [value, pos] : keyed) {
    if (map.unique.empty() || map.unique.back() != value) {
      map.unique.push_back(value);
    }
    map.occurrence[static_cast<std::size_t>(pos)] =
        static_cast<index_t>(map.unique.size() - 1);
  }
  return map;
}

// Median-of-5 ns per call of `dedup` over 64 uniform index lists of length
// n from [0, rows), each holding rows - 1 so every list has the table's
// full bit width; one rep makes enough calls to run for about a
// millisecond.
template <typename Dedup>
benchutil::MedianMad quick_ns_per_dedup(Dedup&& dedup, std::size_t n,
                                        index_t rows) {
  Prng rng(static_cast<std::uint64_t>(rows) * 7919 + n);
  std::vector<std::vector<index_t>> lists(64, std::vector<index_t>(n));
  for (auto& list : lists) {
    for (index_t& v : list) {
      v = static_cast<index_t>(
          rng.uniform_index(static_cast<std::uint64_t>(rows)));
    }
    list[0] = rows - 1;
  }
  const std::size_t calls = std::max<std::size_t>(256, (1u << 18) / n);
  std::size_t sink = 0;
  const benchutil::MedianMad secs = benchutil::time_median_seconds(
      [&] {
        for (std::size_t c = 0; c < calls; ++c) {
          sink += dedup(lists[c % lists.size()]).unique.size();
        }
      },
      5);
  benchmark::DoNotOptimize(sink);
  const double per_call_ns = 1e9 / static_cast<double>(calls);
  return {secs.median * per_call_ns, secs.mad * per_call_ns};
}

// build_unique_index_map against the pair sort on one thread: below the
// radix cutoff both run std::sort (ratio ~1), above it the ratio is the
// radix map's gain.
void quick_dedup(benchutil::JsonBenchReport& report) {
  std::vector<std::vector<std::string>> table{
      {"rows", "indices", "map ns (median of 5)", "MAD", "std::sort ns",
       "MAD", "map/sort"}};
  for (const index_t rows : {index_t{1800}, index_t{26000}, index_t{203000}}) {
    for (const std::size_t n : {32, 64, 80, 95, 96, 128, 256, 1024}) {
      const benchutil::MedianMad map = quick_ns_per_dedup(
          [](const std::vector<index_t>& v) {
            return build_unique_index_map(v);
          },
          n, rows);
      const benchutil::MedianMad sort =
          quick_ns_per_dedup(pair_sort_unique_map, n, rows);
      const std::string name =
          "Dedup_r" + std::to_string(rows) + "_n" + std::to_string(n);
      report.add(name, {{"map_ns", map.median},
                        {"map_mad_ns", map.mad},
                        {"sort_ns", sort.median},
                        {"sort_mad_ns", sort.mad},
                        {"map_over_sort", map.median / sort.median}});
      table.push_back({std::to_string(rows), std::to_string(n),
                       benchutil::fmt(map.median, 0),
                       benchutil::fmt(map.mad, 0),
                       benchutil::fmt(sort.median, 0),
                       benchutil::fmt(sort.mad, 0),
                       benchutil::fmt(map.median / sort.median)});
    }
  }
  benchutil::print_table(table);
}

}  // namespace

int run_quick() {
  benchutil::header("Fig. 17 lookup (--quick, batch 2048)");
  constexpr index_t kBatch = 2048;
  const auto batches = make_batches(kBatch, 8);
  // Every arm runs at 1 thread and at all cores (the count OpenMP would
  // use; more threads than cores would only time-slice).
  const int all = benchutil::compute_threads();
  benchutil::JsonBenchReport report("fig17_lookup");
  std::vector<std::vector<std::string>> table{
      {"series", "threads", "ns/lookup (median of 5)", "MAD"}};

  for (const int threads : {1, all}) {
    benchutil::set_threads(threads);
    const std::string suffix = threads == 1 ? "_t1" : "_tall";
    double ttrec_ns = 0.0;
    double efftt_ns = 0.0;
    const auto record = [&](const std::string& name,
                            const benchutil::MedianMad& ns) {
      report.add(name + suffix, {{"ns/lookup", ns.median},
                                 {"mad_ns", ns.mad},
                                 {"threads", threads}});
      table.push_back({name + suffix, std::to_string(threads),
                       benchutil::fmt(ns.median), benchutil::fmt(ns.mad)});
      return ns.median;
    };
    {
      Prng rng(1);
      TTTable t(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
      ttrec_ns = record("TTRec", quick_ns_per_lookup(t, batches, kBatch));
    }
    {
      Prng rng(1);
      EffTTTable t(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
      efftt_ns = record("EffTT", quick_ns_per_lookup(t, batches, kBatch));
    }
    {
      Prng rng(1);
      EmbeddingBag t(kRows, kDim, rng);
      record("DenseBag", quick_ns_per_lookup(t, batches, kBatch));
    }
    report.add("EffTT_over_TTRec" + suffix, {{"speedup", ttrec_ns / efftt_ns}});
    benchutil::note("EffTT/TTRec at " + std::to_string(threads) +
                    " thread(s): " + benchutil::fmt(ttrec_ns / efftt_ns) + "x");
  }
  benchutil::set_threads(all);

  benchutil::print_table(table);
  benchutil::header("Unique-index map vs std::sort (--quick, 1 thread)");
  quick_dedup(report);
  return report.write() ? 0 : 1;
}

}  // namespace elrec

int main(int argc, char** argv) {
  if (elrec::benchutil::has_flag(argc, argv, "--quick")) {
    return elrec::run_quick();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
