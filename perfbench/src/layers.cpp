#include "layers.hpp"

#include <omp.h>

#include <vector>

#include "core/eff_tt_table.hpp"
#include "data/synthetic.hpp"
#include "obs/trace.hpp"
#include "tt/tt_table.hpp"

namespace perfbench {

using namespace elrec;

namespace {

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0) * 1e3;
}

// fn(i) returns the milliseconds of one timed call on input i. Whole rounds
// over the `n` inputs repeat until `budget_s` is spent (at least 3 rounds);
// returns the median.
template <typename Fn>
double median_ms(std::size_t n, double budget_s, Fn&& fn) {
  Samples ms;
  const auto t_start = Clock::now();
  for (int round = 0; round < 3 || seconds_since(t_start) < budget_s; ++round) {
    for (std::size_t i = 0; i < n; ++i) ms.add(fn(i));
    if (round >= 200) break;
  }
  return ms.median();
}

}  // namespace

void measure_data_layer(Report& report, const DatasetSpec& spec,
                        index_t batch_size, std::uint64_t seed) {
  SyntheticDataset data(spec, seed ^ 0xda7aULL);
  for (int i = 0; i < 2; ++i) (void)data.next_batch(batch_size);  // warm
  Samples ms;
  double unique = 0.0, total = 0.0;
  const auto t_start = Clock::now();
  while (ms.count() < 8 || seconds_since(t_start) < 0.25) {
    const auto t0 = Clock::now();
    const MiniBatch mb = data.next_batch(batch_size);
    ms.add(seconds_since(t0) * 1e3);
    for (const IndexBatch& ib : mb.sparse) {
      unique += static_cast<double>(build_unique_index_map(ib.indices).unique.size());
      total += static_cast<double>(ib.indices.size());
    }
    if (ms.count() >= 2000) break;
  }
  report.layer("data.next_batch_ms", ms.median(), "ms");
  report.layer("data.unique_ratio", total > 0 ? unique / total : 0.0, "ratio");
}

void measure_tt_layers(Report& report, const DatasetSpec& spec, index_t table,
                       index_t rank, index_t dim, index_t batch_size,
                       std::uint64_t seed, int threads) {
  const index_t rows = spec.table_rows[static_cast<std::size_t>(table)];
  const TTShape shape = TTShape::balanced(rows, dim, 3, rank);
  Prng rng(seed ^ 0x77ULL);
  EffTTTable efftt(rows, shape, rng);
  TTTable ttrec(rows, shape, rng);

  SyntheticDataset data(spec, seed ^ 0x7abULL);
  constexpr std::size_t kBatches = 4;
  std::vector<IndexBatch> batches;
  std::vector<Matrix> grads;
  for (std::size_t i = 0; i < kBatches; ++i) {
    batches.push_back(data.next_batch(batch_size).sparse[static_cast<std::size_t>(table)]);
    Matrix g(batch_size, dim);
    for (index_t r = 0; r < g.rows(); ++r) {
      for (index_t c = 0; c < dim; ++c) {
        g.at(r, c) = static_cast<float>(rng.uniform(-1e-3, 1e-3));
      }
    }
    grads.push_back(std::move(g));
  }
  Matrix out;
  // Tiny learning rate: the backward timings must not drift the cores far
  // from their initial scale across repetitions.
  constexpr float kLr = 1e-4f;
  constexpr double kBudget = 0.15;

  // Backward needs the forward of the same batch first (untimed).
  auto fwd = [&](IEmbeddingTable& t) {
    return [&](std::size_t i) {
      return time_ms([&] { t.forward(batches[i], out); });
    };
  };
  auto bwd = [&](IEmbeddingTable& t) {
    return [&](std::size_t i) {
      t.forward(batches[i], out);
      return time_ms([&] { t.backward_and_update(batches[i], grads[i], kLr); });
    };
  };
  const double eff_fwd = median_ms(kBatches, kBudget, fwd(efftt));
  const double eff_bwd = median_ms(kBatches, kBudget, bwd(efftt));
  const double tt_fwd = median_ms(kBatches, kBudget, fwd(ttrec));
  const double tt_bwd = median_ms(kBatches, kBudget, bwd(ttrec));

  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const double eff_fwd_t1 = median_ms(kBatches, kBudget, fwd(efftt));
  omp_set_num_threads(threads);
  const double eff_fwd_tn = median_ms(kBatches, kBudget, fwd(efftt));
  omp_set_num_threads(prev_threads);

  report.layer("core.efftt_call_fwd_ms", eff_fwd, "ms");
  report.layer("core.efftt_call_bwd_ms", eff_bwd, "ms");
  report.layer("tt.ttrec_call_fwd_ms", tt_fwd, "ms");
  report.layer("tt.ttrec_call_bwd_ms", tt_bwd, "ms");
  report.layer("core.efftt_over_ttrec_fwd_x", tt_fwd / eff_fwd, "x");
  report.layer("core.efftt_over_ttrec_bwd_x", tt_bwd / eff_bwd, "x");
  report.layer("core.efftt_fwd_t1_over_tn_x", eff_fwd_t1 / eff_fwd_tn, "x");
  report.meta("core.tt_bench_table_rows", std::to_string(rows));
  report.meta("core.tt_bench_batch", std::to_string(batch_size));
  report.meta("core.tt_bench_threads", std::to_string(threads));
}

void flag_dropped_spans(Report& report) {
  const std::uint64_t dropped = obs::trace_stats().events_dropped;
  if (dropped > 0) {
    report.flag(std::to_string(dropped) + " trace events dropped: span ring full");
  }
}

void report_kernel_layers(Report& report, const CounterDelta& counters,
                          double samples) {
  const double products = counters("tensor.batched_gemm.products");
  const double skipped = counters("tensor.batched_gemm.skipped");
  const double hits = counters("efftt.reuse.hits");
  const double misses = counters("efftt.reuse.misses");
  report.raw("tensor.batched_gemm.flops", counters("tensor.batched_gemm.flops"));
  report.layer("tensor.bgemm_products_per_sample",
               samples > 0 ? products / samples : 0.0, "count");
  report.layer("tensor.bgemm_skipped_ratio",
               products + skipped > 0 ? skipped / (products + skipped) : 0.0,
               "ratio");
  report.layer("core.reuse_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

}  // namespace perfbench
