// Fig. 18: Eff-TT table BACKWARD latency vs batch size — REAL measurements
// (google-benchmark) of this repo's kernels on one CPU core.
//
// Series:
//   TTRec          — baseline backward: per-occurrence gradients, post-hoc
//                    aggregation, unfused update
//   EffTT_NoAgg    — Eff-TT with in-advance aggregation disabled
//   EffTT_NoFused  — Eff-TT with the fused update disabled
//   EffTT          — full Eff-TT backward
//   EffTT_Reorder  — full + index reordering
// Paper shape: full Eff-TT ~1.70x over TT-Rec (1.40x from aggregation,
// 1.15x from the fused update, 1.06x from reordering).
// `--quick` measures EffTT backward throughput (batches/s) at 1 thread and
// 8 threads, checks the updated cores are bitwise identical across the two
// runs, and writes BENCH_fig18_backward.json for the perf-regression harness.
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_util.hpp"
#include "core/eff_tt_table.hpp"
#include "data/synthetic.hpp"
#include "reorder/bijection.hpp"
#include "tt/tt_table.hpp"

namespace elrec {
namespace {

constexpr index_t kRows = 500000;
constexpr index_t kDim = 32;
constexpr index_t kRank = 16;

DatasetSpec bench_spec() {
  DatasetSpec spec;
  spec.name = "fig18";
  spec.num_dense = 1;
  spec.table_rows = {kRows};
  spec.num_samples = 1 << 20;
  spec.zipf_s = 1.2;
  spec.locality_groups = 16;
  spec.locality_fraction = 0.5;
  return spec;
}

std::vector<IndexBatch> make_batches(index_t batch_size, int count) {
  SyntheticDataset data(bench_spec(), 8765);
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

// Times forward+backward minus a separately-measured forward would be
// noisy; instead time backward_and_update alone, with the forward executed
// outside the timed region each iteration (backward needs its cache).
template <typename Table>
void run_backward(benchmark::State& state, Table& table, index_t batch_size) {
  const auto batches = make_batches(batch_size, 4);
  Prng grad_rng(3);
  Matrix grad(batch_size, kDim);
  grad.fill_normal(grad_rng, 0.0f, 0.01f);
  Matrix out;
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const IndexBatch& batch = batches[i % batches.size()];
    table.forward(batch, out);
    state.ResumeTiming();
    table.backward_and_update(batch, grad, 0.01f);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch_size);
}

void BM_Backward_TTRec(benchmark::State& state) {
  Prng rng(1);
  TTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
  run_backward(state, table, state.range(0));
}

void BM_Backward_EffTT_NoAgg(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng,
                   EffTTConfig{true, false, true});
  run_backward(state, table, state.range(0));
}

void BM_Backward_EffTT_NoFused(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng,
                   EffTTConfig{true, true, false});
  run_backward(state, table, state.range(0));
}

void BM_Backward_EffTT(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
  run_backward(state, table, state.range(0));
}

void BM_Backward_EffTT_Reorder(benchmark::State& state) {
  Prng rng(1);
  EffTTTable table(kRows, TTShape::balanced(kRows, kDim, 3, kRank), rng);
  table.set_index_bijection(reorder_mapping(8765));
  run_backward(state, table, state.range(0));
}

#define BACKWARD_ARGS \
  ->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)->MinTime(0.05)

BENCHMARK(BM_Backward_TTRec) BACKWARD_ARGS;
BENCHMARK(BM_Backward_EffTT_NoAgg) BACKWARD_ARGS;
BENCHMARK(BM_Backward_EffTT_NoFused) BACKWARD_ARGS;
BENCHMARK(BM_Backward_EffTT) BACKWARD_ARGS;
BENCHMARK(BM_Backward_EffTT_Reorder) BACKWARD_ARGS;

// Trains `table` for iters steps on the pre-generated batches and returns
// backward-only throughput (batches/s): the forward runs untimed each step
// because backward_and_update consumes its cache.
double backward_batches_per_s(EffTTTable& table,
                              const std::vector<IndexBatch>& batches,
                              const Matrix& grad, int iters) {
  Matrix out;
  double secs = 0.0;
  for (int i = 0; i < iters; ++i) {
    const IndexBatch& batch = batches[static_cast<std::size_t>(i) % batches.size()];
    table.forward(batch, out);
    secs += benchutil::time_best_seconds(
        [&] { table.backward_and_update(batch, grad, 0.01f); }, 1);
  }
  return iters / secs;
}

}  // namespace

int run_quick() {
  benchutil::header("Fig. 18 backward (--quick, batch 2048, EffTT)");
  constexpr index_t kBatch = 2048;
  constexpr int kIters = 8;
  const auto batches = make_batches(kBatch, 4);
  Prng grad_rng(3);
  Matrix grad(kBatch, kDim);
  grad.fill_normal(grad_rng, 0.0f, 0.01f);
  const TTShape shape = TTShape::balanced(kRows, kDim, 3, kRank);

  // Two identically-seeded tables trained on the same stream; only the
  // OpenMP thread count differs. On a single-core host the 8-thread run
  // time-slices, so speedup ~1x there is expected — the honest number is
  // still emitted, and the bitwise check is the part that must always hold.
  Prng rng1(1), rng8(1);
  EffTTTable t1(kRows, shape, rng1);
  EffTTTable t8(kRows, shape, rng8);

  benchutil::set_threads(1);
  const double rate1 = backward_batches_per_s(t1, batches, grad, kIters);
  benchutil::set_threads(8);
  const double rate8 = backward_batches_per_s(t8, batches, grad, kIters);
  benchutil::set_threads(1);

  float max_diff = 0.0f;
  for (int k = 0; k < t1.cores().shape().num_cores(); ++k) {
    max_diff = std::max(
        max_diff, Matrix::max_abs_diff(t1.cores().core(k), t8.cores().core(k)));
  }
  const bool bitwise = max_diff == 0.0f;

  benchutil::JsonBenchReport report("fig18_backward");
  report.add("EffTT_backward_t1", {{"batches/s", rate1}});
  report.add("EffTT_backward_t8", {{"batches/s", rate8}});
  report.add("EffTT_backward_speedup_t8_over_t1",
             {{"speedup", rate8 / rate1}});
  report.add("EffTT_backward_bitwise_identical_across_threads",
             {{"ok", bitwise ? 1.0 : 0.0}});

  benchutil::print_table({{"series", "batches/s"},
                          {"EffTT_backward_t1", benchutil::fmt(rate1)},
                          {"EffTT_backward_t8", benchutil::fmt(rate8)}});
  benchutil::note("t8/t1 speedup: " + benchutil::fmt(rate8 / rate1) +
                  " (1.0x expected on a single-core host)");
  benchutil::note(std::string("cores bitwise identical across thread counts: ") +
                  (bitwise ? "yes" : "NO"));
  if (!report.write()) return 1;
  return bitwise ? 0 : 1;
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
